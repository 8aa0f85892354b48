"""Per-document record extraction: bytes -> ExportableDocument-equivalent row.

This is the single shared code path for BOTH the single-process oracle and the
Ray pipeline UDFs (SURVEY.md §7.3: byte-identity by construction).  Output row
schema mirrors the reference's ``ExportableDocument``
(``/root/reference/docling_jobkit/datamodel/exportable_document.py:53-122``):
identity (url), status, content (text/spans/doc_json), error surface.

One function decides each document: :func:`extract_document` returns an
:data:`Outcome` tuple, spans packed.  Two consumers share it: the row-dict
path (:func:`extract_record`, the oracle, the A/B compare), which turns an
outcome into a dict with list-of-dict spans, and the Ray stage
(``stages.extract.ExtractDocuments``), which builds its Arrow table column by
column from a batch of outcomes.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from array import array
from dataclasses import dataclass

from . import binarydoc
from .errors import (
    STATUS_FAILURE,
    STATUS_PARTIAL_SUCCESS,
    STATUS_SUCCESS,
    DecodeError,
    DocumentTimeoutError,
    EmptyPayloadError,
    PayloadTooLargeError,
    TooManyPagesError,
    classify_exception,
)
from .html import (
    DEFAULT_MAX_LINK_DENSITY,
    DEFAULT_MIN_PARAGRAPH_CHARS,
    KIND_PAGE,
    SPAN_KINDS,
    ExtractedDoc,
    deadline as html_deadline,
    extract_html,
    span_dicts,
)

PAGE_SEP = "\n\n"
_PAGE_CODE = SPAN_KINDS.index(KIND_PAGE)


@dataclass(frozen=True)
class ExtractOptions:
    """Frozen per-run options; the analogue of the reference's hashed
    ``PdfFormatOption`` (``convert/manager.py:1673-1723``) — one options
    object selects one warm extractor configuration for the whole run."""

    max_bytes: int = 64 * 1024 * 1024
    max_pages: int = 1000
    max_link_density: float = DEFAULT_MAX_LINK_DENSITY
    min_paragraph_chars: int = DEFAULT_MIN_PARAGRAPH_CHARS
    # Binary docs with more pages than this are sliced when fan-out is on.
    slice_pages: int = 10
    # Per-document wall-clock budget in seconds (the reference's
    # document_timeout=300, orchestrators/ray/config.py:369-371); None
    # disables enforcement.  A pathological payload dead-letters with
    # CATEGORY_TIMEOUT instead of stalling an actor forever.
    document_timeout: float | None = None
    # Bounded in-worker retries for rows whose FAILURE is retryable
    # (the reference retries retryable failures before recording FAILURE,
    # serve_deployment.py:693-747, config.py:338-343).
    retry_attempts: int = 0
    retry_delay: float = 0.0
    # Extract only this 1-based inclusive page range of binary docs
    # (reference: options.page_range applied at convert/manager.py:1739);
    # None = all pages.
    page_range: tuple[int, int] | None = None

    def __post_init__(self):
        # boundary validation, the reference's options-matrix discipline
        # (convert/manager.py:1461-1552 validates every option at the edge)
        if self.max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {self.max_bytes}")
        if self.max_pages <= 0:
            raise ValueError(f"max_pages must be positive, got {self.max_pages}")
        if not (0.0 <= self.max_link_density <= 1.0):
            raise ValueError(
                f"max_link_density must be in [0, 1], got {self.max_link_density}"
            )
        if self.min_paragraph_chars < 0:
            raise ValueError(
                f"min_paragraph_chars must be >= 0, got {self.min_paragraph_chars}"
            )
        if self.slice_pages <= 0:
            raise ValueError(f"slice_pages must be positive, got {self.slice_pages}")
        if self.document_timeout is not None and self.document_timeout <= 0:
            raise ValueError(
                f"document_timeout must be positive or None, got {self.document_timeout}"
            )
        if self.retry_attempts < 0:
            raise ValueError(f"retry_attempts must be >= 0, got {self.retry_attempts}")
        if self.retry_delay < 0:
            raise ValueError(f"retry_delay must be >= 0, got {self.retry_delay}")
        if self.page_range is not None:
            lo, hi = self.page_range
            if lo < 1 or hi < lo:
                raise ValueError(
                    f"page_range must be 1-based (lo, hi) with lo >= 1 and hi >= lo, got {self.page_range}"
                )


class _DeadlineEntry:
    __slots__ = ("tid", "cancelled", "fired")

    def __init__(self, tid: int):
        self.tid = tid
        self.cancelled = False
        self.fired = False


class _Watchdog:
    """One persistent daemon thread per process enforcing per-document
    deadlines: when a deadline expires, :class:`DocumentTimeoutError` is
    injected into the parsing thread via ``PyThreadState_SetAsyncExc``.

    Why not ``signal.alarm``: Ray Data runs ACTOR-pool map UDFs on a
    ``ThreadPoolExecutor`` thread, where signal handlers never fire; the
    async-exception injection works in any thread and has the same
    interruption power.  Both act only at Python bytecode boundaries, and a
    single long C-level call is uninterruptible either way: one ``re.split``
    on the Python path, or the whole native HTML kernel, which therefore
    checks the deadline itself (:func:`document_deadline` publishes it).
    One watchdog thread + a heap serves every concurrent document, so
    arming costs O(log n), not a thread per row."""

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._heap: list = []
        self._seq = 0
        self._cancelled = 0
        self._thread: threading.Thread | None = None

    def arm(self, seconds: float) -> _DeadlineEntry:
        import heapq

        entry = _DeadlineEntry(threading.get_ident())
        with self._cv:
            heapq.heappush(
                self._heap, (time.monotonic() + seconds, self._seq, entry)
            )
            self._seq += 1
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="document-deadline-watchdog", daemon=True
                )
                self._thread.start()
            self._cv.notify()
        return entry

    def disarm(self, entry: _DeadlineEntry) -> None:
        import ctypes
        import heapq

        with self._cv:
            entry.cancelled = True
            self._cancelled += 1
            if entry.fired:
                # the injection raced our exit: clear it if still pending
                # (harmless no-op when it already propagated)
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(entry.tid), None
                )
            # lazy compaction: fast documents disarm long before their
            # deadline, so cancelled entries would otherwise pool in the
            # heap for up to `seconds` (minutes x thousands of docs/s)
            if self._cancelled > 1024 and self._cancelled * 2 > len(self._heap):
                live = [e for e in self._heap if not e[2].cancelled]
                heapq.heapify(live)
                self._heap = live
                self._cancelled = 0

    def _run(self) -> None:
        import ctypes
        import heapq

        while True:
            with self._cv:
                while not self._heap:
                    self._cv.wait()
                deadline, _seq, entry = self._heap[0]
                now = time.monotonic()
                if entry.cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled = max(0, self._cancelled - 1)
                    continue
                if deadline > now:
                    self._cv.wait(deadline - now)
                    continue
                heapq.heappop(self._heap)
                entry.fired = True
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(entry.tid), ctypes.py_object(DocumentTimeoutError)
                )


_WATCHDOG = _Watchdog()


@contextlib.contextmanager
def document_deadline(seconds: float | None):
    """Wall-clock guard around one document's parse: raises
    :class:`DocumentTimeoutError` mid-parse when the budget expires.  The
    analogue of the reference's ``document_timeout`` enforcement in the
    converter call path (config.py:369-371).  ``None``/0 is a no-op.

    The deadline is also published in ``html.deadline.at`` for this thread
    (the tighter of it and any outer one, restored on exit): the C kernel
    holds the GIL, so it polls that deadline itself."""
    if not seconds:
        yield
        return
    outer = getattr(html_deadline, "at", None)
    at = time.monotonic() + seconds
    html_deadline.at = at if outer is None else min(outer, at)
    entry = _WATCHDOG.arm(seconds)
    try:
        yield
    finally:
        html_deadline.at = outer
        try:
            _WATCHDOG.disarm(entry)
        except DocumentTimeoutError:
            # the injection landed between the parse finishing and the
            # disarm — the work completed, so absorb it
            pass


@dataclass
class _PagesDoc(ExtractedDoc):
    """A binary document's pages: one ``KIND_PAGE`` span per page."""

    n_pages: int = 0

    def doc_json(self) -> str:
        payload = {
            "schema": "docling-jobkit-ray/extracted-pages@1",
            "n_chars": len(self.text),
            "n_pages": self.n_pages,
            "spans": self.spans,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def pages_doc(page_texts: list[str], n_pages: int) -> ExtractedDoc:
    """Join page texts with PAGE_SEP, one packed ``KIND_PAGE`` span per page.

    Shared by the inline path and the slice-reassembly path so both produce
    byte-identical text (SURVEY.md §7.3, slice ordering concern)."""
    spans = array("q")
    offset = 0
    for i, t in enumerate(page_texts):
        if i > 0:
            offset += len(PAGE_SEP)
        spans += array("q", (offset, offset + len(t), _PAGE_CODE))
        offset += len(t)
    return _PagesDoc(PAGE_SEP.join(page_texts), spans.tobytes(), n_pages=n_pages)


def assemble_pages(page_texts: list[str]) -> tuple[str, list[dict]]:
    """``pages_doc``'s text and spans, the spans as dicts."""
    doc = pages_doc(page_texts, len(page_texts))
    return doc.text, doc.spans


def preflight(data: bytes, options: ExtractOptions) -> None:
    """Admission checks; raises typed ExtractError.  Analogue of
    ``materialize_and_preflight`` (convert/materialization.py:158-213)."""
    if len(data) == 0:
        raise EmptyPayloadError("empty payload")
    if len(data) > options.max_bytes:
        raise PayloadTooLargeError(
            f"payload {len(data)} bytes exceeds limit {options.max_bytes}"
        )
    if binarydoc.is_binary_doc(data):
        directory = binarydoc.parse_directory(data)
        if len(directory) > options.max_pages:
            raise TooManyPagesError(
                f"{len(directory)} pages exceeds limit {options.max_pages}"
            )


def page_span(n_pages: int, page_range: tuple[int, int] | None) -> tuple[int, int]:
    """Clamp a 1-based inclusive ``page_range`` to ``[0, n_pages)`` half-open
    indices; ``None`` selects every page.  Shared by the inline parse path
    and the slice planner so both modes extract the identical sub-range
    (reference: ``options.page_range`` applied at convert/manager.py:1739)."""
    if page_range is None:
        return 0, n_pages
    lo = min(max(page_range[0] - 1, 0), n_pages)
    hi = min(page_range[1], n_pages)
    return lo, max(hi, lo)


# One document's result, in EXTRACTED_SCHEMA's column order without url,
# n_chars and partition_id: (status, text, packed spans, doc_json, error,
# category, retryable).
Outcome = tuple


def failure_outcome(exc: BaseException) -> Outcome:
    """FAILURE outcome preserving the error, mirroring
    ``_build_failed_exportable_document`` (convert/results.py:112-127)."""
    category, retryable, phase = classify_exception(exc)
    error = f"{type(exc).__name__}: {exc} [phase={phase}]"
    return (STATUS_FAILURE, "", b"", "", error, category, retryable)


def _decide(data: bytes, options: ExtractOptions) -> Outcome:
    preflight(data, options)
    if binarydoc.is_binary_doc(data):
        directory = binarydoc.parse_directory(data)
        lo, hi = page_span(len(directory), options.page_range)
        page_texts, errors = binarydoc.parse_pages(data, directory, lo, hi)
        doc = pages_doc(page_texts, hi - lo)
        if not errors:
            return (STATUS_SUCCESS, doc.text, doc.packed, doc.doc_json(), None, None, None)
        error = "; ".join(errors)
        if len(errors) == hi - lo:
            return failure_outcome(DecodeError(error))
        return (STATUS_PARTIAL_SUCCESS, doc.text, doc.packed, doc.doc_json(), error, None, None)
    # HTML path: strict UTF-8 decode; invalid bytes -> dead letter.
    try:
        html_text = data.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"payload not UTF-8 ({exc.reason})") from exc
    doc = extract_html(
        html_text,
        max_link_density=options.max_link_density,
        min_paragraph_chars=options.min_paragraph_chars,
    )
    return (STATUS_SUCCESS, doc.text, doc.packed, doc.doc_json(), None, None, None)


def extract_document(data: bytes, options: ExtractOptions) -> Outcome:
    """One document, full pipeline, all expected errors absorbed.

    Never raises for data-dependent failures — returns a FAILURE outcome
    instead (per-row failure isolation vs Ray's block-level retry, SURVEY.md
    §7.3).  ``options.document_timeout`` bounds the wall-clock spent on one
    document; expiry dead-letters it with CATEGORY_TIMEOUT.
    """
    try:
        if options.document_timeout:
            with document_deadline(options.document_timeout):
                return _decide(data, options)
        return _decide(data, options)
    except Exception as exc:  # typed ExtractErrors and the unexpected alike
        return failure_outcome(exc)


def outcome_row(url: str, outcome: Outcome) -> dict:
    """An outcome as a row dict, its spans as ``{start, end, kind}`` dicts."""
    status, text, packed, doc_json, error, category, retryable = outcome
    return {
        "url": url,
        "status": status,
        "text": text,
        "spans": span_dicts(packed),
        "doc_json": doc_json,
        "n_chars": len(text),
        "error": error,
        "category": category,
        "retryable": retryable,
    }


def extract_record(url: str, data: bytes, options: ExtractOptions) -> dict:
    """:func:`extract_document` as a row dict."""
    return outcome_row(url, extract_document(data, options))


def _redrive(attempt, is_retryable, options: ExtractOptions, sleep):
    result = attempt()
    for _ in range(options.retry_attempts):
        if not is_retryable(result):
            break
        if options.retry_delay > 0:
            sleep(options.retry_delay)
        result = attempt()
    return result


def extract_document_with_retry(
    data: bytes, options: ExtractOptions, *, sleep=time.sleep
) -> Outcome:
    """:func:`extract_document` with :func:`extract_record_with_retry`'s
    bounded re-drives of RETRYABLE failures."""
    if not options.retry_attempts:
        return extract_document(data, options)
    return _redrive(
        lambda: extract_document(data, options),
        lambda o: o[0] == STATUS_FAILURE and o[6],
        options,
        sleep,
    )


def extract_record_with_retry(
    url: str,
    data: bytes,
    options: ExtractOptions,
    *,
    extract_fn=None,
    sleep=time.sleep,
) -> dict:
    """Bounded retry-then-dead-letter for RETRYABLE failures, mirroring the
    reference's ``_run_with_retry`` (serve_deployment.py:693-747,
    config.py:338-343): up to ``options.retry_attempts`` re-drives with
    ``options.retry_delay`` seconds between them; non-retryable failures and
    successes return immediately.  ``extract_fn`` is injectable so tests can
    model transient faults (the production kernel is deterministic)."""
    fn = extract_fn or extract_record
    return _redrive(
        lambda: fn(url, data, options),
        lambda row: row["status"] == STATUS_FAILURE and row.get("retryable"),
        options,
        sleep,
    )


def extract_corpus_oracle(rows: list[tuple[str, bytes]], options: ExtractOptions) -> list[dict]:
    """Single-process oracle: the reference run the Ray pipeline must
    byte-match per url (BASELINE.json per-row invariant)."""
    return [extract_record(url, data, options) for url, data in rows]
