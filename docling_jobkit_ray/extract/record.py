"""Per-document record extraction: bytes -> ExportableDocument-equivalent row.

This is the single shared code path for BOTH the single-process oracle and the
Ray pipeline UDFs (SURVEY.md §7.3: byte-identity by construction).  Output row
schema mirrors the reference's ``ExportableDocument``
(``/root/reference/docling_jobkit/datamodel/exportable_document.py:53-122``):
identity (url), status, content (text/spans/doc_json), error surface.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass

from . import binarydoc
from .errors import (
    STATUS_FAILURE,
    STATUS_PARTIAL_SUCCESS,
    STATUS_SUCCESS,
    DecodeError,
    DocumentTimeoutError,
    EmptyPayloadError,
    ExtractError,
    PayloadTooLargeError,
    TooManyPagesError,
    classify_exception,
)
from .html import (
    DEFAULT_MAX_LINK_DENSITY,
    DEFAULT_MIN_PARAGRAPH_CHARS,
    KIND_PAGE,
    deadline as html_deadline,
    extract_html,
)

PAGE_SEP = "\n\n"


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


def assemble_pages(page_texts: list[str]) -> tuple[str, list[dict]]:
    """Join page texts with PAGE_SEP and emit one span per page.

    Shared by the inline path and the slice-reassembly path so both produce
    byte-identical text (SURVEY.md §7.3, slice ordering concern)."""
    spans: list[dict] = []
    offset = 0
    for i, t in enumerate(page_texts):
        if i > 0:
            offset += len(PAGE_SEP)
        spans.append({"start": offset, "end": offset + len(t), "kind": KIND_PAGE})
        offset += len(t)
    return PAGE_SEP.join(page_texts), spans


def pages_doc_json(text: str, spans: list[dict], n_pages: int) -> str:
    payload = {
        "schema": "docling-jobkit-ray/extracted-pages@1",
        "n_chars": len(text),
        "n_pages": n_pages,
        "spans": [
            {"end": s["end"], "kind": s["kind"], "start": s["start"]} for s in spans
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _success_row(url: str, text: str, spans: list[dict], doc_json: str, status: str = STATUS_SUCCESS, error: str | None = None) -> dict:
    return {
        "url": url,
        "status": status,
        "text": text,
        "spans": spans,
        "doc_json": doc_json,
        "n_chars": len(text),
        "error": error,
        "category": None,
        "retryable": None,
    }


def _failure_row(url: str, exc: BaseException) -> dict:
    """FAILURE row preserving identity + error, mirroring
    ``_build_failed_exportable_document`` (convert/results.py:112-127)."""
    category, retryable, phase = classify_exception(exc)
    return {
        "url": url,
        "status": STATUS_FAILURE,
        "text": "",
        "spans": [],
        "doc_json": "",
        "n_chars": 0,
        "error": f"{type(exc).__name__}: {exc} [phase={phase}]",
        "category": category,
        "retryable": retryable,
    }


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


def extract_record(url: str, data: bytes, options: ExtractOptions) -> dict:
    """One document, full pipeline, all expected errors absorbed.

    Never raises for data-dependent failures — returns a FAILURE row instead
    (per-row failure isolation vs Ray's block-level retry, SURVEY.md §7.3).
    ``options.document_timeout`` bounds the wall-clock spent on one document;
    expiry dead-letters the row with CATEGORY_TIMEOUT.
    """
    try:
        with document_deadline(options.document_timeout):
            preflight(data, options)
            if binarydoc.is_binary_doc(data):
                directory = binarydoc.parse_directory(data)
                lo, hi = page_span(len(directory), options.page_range)
                page_texts, errors = binarydoc.parse_pages(data, directory, lo, hi)
                n_sel = hi - lo
                text, spans = assemble_pages(page_texts)
                doc_json = pages_doc_json(text, spans, n_sel)
                if errors and len(errors) == n_sel:
                    status = STATUS_FAILURE
                elif errors:
                    status = STATUS_PARTIAL_SUCCESS
                else:
                    status = STATUS_SUCCESS
                if status == STATUS_FAILURE:
                    return _failure_row(url, DecodeError("; ".join(errors)))
                return _success_row(
                    url, text, spans, doc_json, status=status,
                    error="; ".join(errors) if errors else None,
                )
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
            return _success_row(url, doc.text, doc.spans, doc.doc_json())
    except ExtractError as exc:
        return _failure_row(url, exc)
    except Exception as exc:  # unexpected: still absorb, classified internal
        return _failure_row(url, exc)


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
    row = fn(url, data, options)
    for _ in range(options.retry_attempts):
        if row["status"] != STATUS_FAILURE or not row.get("retryable"):
            break
        if options.retry_delay > 0:
            sleep(options.retry_delay)
        row = fn(url, data, options)
    return row


def extract_corpus_oracle(rows: list[tuple[str, bytes]], options: ExtractOptions) -> list[dict]:
    """Single-process oracle: the reference run the Ray pipeline must
    byte-match per url (BASELINE.json per-row invariant)."""
    return [extract_record(url, data, options) for url, data in rows]
