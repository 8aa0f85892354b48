"""Deterministic HTML main-content extraction (Readability/jusText-style).

No Ray, no external deps.  ``extract_html`` is the single code path shared
by the single-process oracle and the Ray pipeline, so per-url byte-identity
of ``text`` holds by construction (SURVEY.md §7.3).

``extract_html`` dispatches to the C kernel ``_htmlkernel.c`` when it built
(``_native.py`` compiles it at first import; it needs gcc and Python.h), and
otherwise runs the Python code in this file, which is the kernel's
executable spec: one ``re.split`` that tokenizes a document in C, one loop
running the block state machine over the tokens, then ``classify_blocks``
and ``assemble``.  A second tokenizer, the stdlib ``HTMLParser``, feeds the
same machine as a cross-check.  tests/test_native_kernel.py holds the kernel
to the spec byte for byte.

Both paths return spans packed: one buffer of native int64 triples
``(start, end, kind code)``, the code indexing ``SPAN_KINDS``.  The Ray
stage builds its Arrow ``spans`` column straight from those bytes, so no
Python object is made per span; ``ExtractedDoc.spans`` is the list-of-dict
view for the row-dict path.

Semantics preserved from the reference's per-document convert shape
(``/root/reference/docling_jobkit/datamodel/exportable_document.py:53-122``):
one input document -> one record with ``text``, ``spans``, ``doc_json``,
``status``.  The extraction heuristics themselves are the public
text-density / link-density boilerplate classification of Readability /
jusText (Pomikalek 2011), reimplemented from the published description:

- the document is segmented into blocks at block-level tag boundaries;
- blocks inside nav/header/footer/aside and blocks whose anchor-text
  char ratio (link density) exceeds a threshold are boilerplate;
- short paragraphs are boilerplate; headings are kept only when followed
  by good content before the next heading.

Determinism: fixed thresholds, no dict-order dependence, whitespace
collapsed to single spaces, blocks joined with "\\n\\n", char offsets.
"""

from __future__ import annotations

import re
import threading
import warnings
from array import array
from dataclasses import dataclass
from html import unescape as _unescape
from html.parser import HTMLParser

from ._native import load as load_native
from .errors import DocumentTimeoutError

# Block kinds (FIXTURES.md §3 span kinds).
KIND_PARAGRAPH = "paragraph"
KIND_HEADING = "heading"
KIND_LIST_ITEM = "list_item"
KIND_TABLE = "table"
KIND_PAGE = "page"
# Span kind codes: a packed span's third int64 indexes this tuple.  The
# kernel's codes are the first four, in this order.
SPAN_KINDS = (KIND_PARAGRAPH, KIND_HEADING, KIND_LIST_ITEM, KIND_TABLE, KIND_PAGE)
_KIND_CODE = {kind: code for code, kind in enumerate(SPAN_KINDS)}

# Tags whose text content never contributes to output.
_SKIP_TAGS = frozenset({"script", "style", "noscript", "template", "head", "title", "svg", "iframe", "textarea"})
# Structural boilerplate containers.
_BOILER_TAGS = frozenset({"nav", "header", "footer", "aside"})
# Tags that terminate the current text block.
_BLOCK_TAGS = frozenset(
    {
        "p", "div", "section", "article", "main", "body", "html",
        "h1", "h2", "h3", "h4", "h5", "h6",
        "ul", "ol", "li", "table", "tr", "td", "th", "thead", "tbody",
        "blockquote", "pre", "br", "hr", "figure", "figcaption", "form",
    }
)
_HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})
# Void elements: never pushed on the tag stack.
_VOID_TAGS = frozenset({"br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "track", "wbr"})

DEFAULT_MAX_LINK_DENSITY = 0.4
DEFAULT_MIN_PARAGRAPH_CHARS = 25


@dataclass
class Block:
    kind: str
    text: str
    anchor_chars: int
    in_boiler: bool
    good: bool = False

    @property
    def link_density(self) -> float:
        if not self.text:
            return 1.0
        return self.anchor_chars / len(self.text)


_DOC_JSON_FMT = (
    '{"n_blocks_kept":%d,"n_blocks_total":%d,"n_chars":%d,'
    '"schema":"docling-jobkit-ray/extracted@1","spans":[%s]}'
)
_SPAN_JSON_FMT = '{"end":%d,"kind":"%s","start":%d}'


def span_dicts(packed: bytes) -> list[dict]:
    """Packed span bytes -> ``[{"start", "end", "kind"}, ...]``."""
    a = array("q", packed)
    kinds = SPAN_KINDS
    return [
        {"start": a[i], "end": a[i + 1], "kind": kinds[a[i + 2]]}
        for i in range(0, len(a), 3)
    ]


@dataclass
class ExtractedDoc:
    """The per-document record (ExportableDocument-equivalent)."""

    text: str
    packed: bytes = b""  # native int64 (start, end, kind code) per span
    n_blocks_total: int = 0
    n_blocks_kept: int = 0

    @property
    def spans(self) -> list[dict]:
        """The spans as ``{start, end, kind}`` dicts, built on each read."""
        return span_dicts(self.packed)

    def doc_json(self) -> str:
        # DoclingDocument-equivalent JSON, byte-equal to
        # json.dumps(payload, sort_keys=True, separators=(",", ":")): the
        # fragments are laid out in sorted-key order and span kinds are the
        # fixed ASCII KIND_* constants, which need no escaping.
        fmt, kinds, a = _SPAN_JSON_FMT, SPAN_KINDS, array("q", self.packed)
        spans = ",".join(
            [fmt % (a[i + 1], kinds[a[i + 2]], a[i]) for i in range(0, len(a), 3)]
        )
        return _DOC_JSON_FMT % (
            self.n_blocks_kept, self.n_blocks_total, len(self.text), spans
        )


# ---------------------------------------------------------------------------
# tokenizer: one re.split classifies every '<' in C
# ---------------------------------------------------------------------------

_NAME_CHARS = "a-zA-Z0-9:_-"
# Raw-text elements: an open tag (not self-closing) swallows its content up
# to the case-insensitive "</name", or to the end of input when unclosed.
_RAWTEXT_TAGS = ("script", "style", "textarea", "title")


def _rawtext_alternative(tag: str) -> str:
    # the name matches ASCII letters of any case, as tag names do; the close
    # search is a Unicode case-insensitive literal, as it always was
    ascii_any_case = "".join(f"[{c}{c.upper()}]" for c in tag)
    return (
        f"{ascii_any_case}(?![{_NAME_CHARS}])[^>]*(?<!/)>"
        f"(?:.*?(?=(?i:</{tag}))|.*)"
    )


# One token per '<'; re.split returns (text, raw, slash, name, rest, bare)
# for each, text being the data before it:
#   raw   name of a raw-text start tag (content already swallowed), read by
#         a lookahead over its letters;
#   slash/name/rest   a tag: "/" or "", its name, the attributes up to '>';
#   bare  "" for a '<' that starts no token: a "<" data call of its own.
# Comments, declarations, processing instructions and a tag with no closing
# '>' (which runs to the end of input) capture nothing and change no state;
# when unterminated they swallow the rest of the input.  Every alternative
# sits behind the one literal '<', so the regex engine scans for it in C.
_TOKEN_RE = re.compile(
    "<(?:"
    rf"\s*(?=([a-zA-Z]+))(?:{'|'.join(_rawtext_alternative(t) for t in _RAWTEXT_TAGS)})"
    r"|!--(?:.*?-->|.*)"
    r"|[!?][^>]*>?"
    rf"|(/?)\s*([a-zA-Z][{_NAME_CHARS}]*)(?![{_NAME_CHARS}])([^>]*)>"
    r"|/?\s*[a-zA-Z].*"
    r"|()"
    ")",
    re.DOTALL,
)
# closes the last text segment of a split with a "</p>" record: a block
# tag with no other effect, so it flushes the last block
_END_TOKEN = (None, "/", "p", "", None)


# Per-tag dispatch: ONE dict lookup per tag instead of seven set-membership
# tests.  Keys are lower-case; tags outside the table change no state.
def _compute_tag_flags(tag: str) -> tuple:
    if tag in _HEADING_TAGS:
        kind = KIND_HEADING
    elif tag == "li":
        kind = KIND_LIST_ITEM
    elif tag in ("td", "th"):
        kind = KIND_TABLE
    else:
        kind = None
    return (
        tag in _BLOCK_TAGS,
        tag in _VOID_TAGS,
        tag in _SKIP_TAGS,
        tag in _BOILER_TAGS,
        kind,
        tag == "a",
        tag == "table",
    )


_SPECIAL_TAGS = (
    _BLOCK_TAGS | _VOID_TAGS | _SKIP_TAGS | _BOILER_TAGS | _HEADING_TAGS
    | {"a", "li", "td", "th", "table"}
)
_TAG_FLAGS = {t: _compute_tag_flags(t) for t in _SPECIAL_TAGS}


def _build_blocks(tokens: list, unescape) -> list[Block]:
    """The block state machine: walk ``(text, raw, slash, name, rest, bare)``
    records (the layout of ``_TOKEN_RE.split``), applying ``unescape`` to
    text containing '&'.

    Each non-empty text is one data call: skipped under a skip tag, else
    appended to the open block, and inside an anchor its whitespace-collapsed
    length counts as anchor chars.  A block tag (start or end) flushes the
    open block; a self-closing start tag is a start+end pair, which nets to
    that flush alone.  The caller ends ``tokens`` with ``_END_TOKEN``."""
    blocks: list[Block] = []
    blocks_append = blocks.append
    parts: list[str] = []
    parts_append = parts.append
    kind_stack: list[str] = []
    anchor_chars = skip = boiler = anchor = table = 0
    flags_get = _TAG_FLAGS.get
    it = iter(tokens)
    for text, raw, slash, name, rest, bare in zip(it, it, it, it, it, it):
        if text and not skip:
            if "&" in text:
                text = unescape(text)
            parts_append(text)
            if anchor:
                anchor_chars += len(" ".join(text.split()))
        if name is None:
            if raw is None:
                if bare is not None and not skip:
                    parts_append("<")
                    if anchor:
                        anchor_chars += 1
                continue
            name, slash, rest = raw, "", ""
        f = flags_get(name)
        if f is None:
            f = flags_get(name.lower())
            if f is None:
                continue
        is_block, is_void, is_skip, is_boiler, kind, is_anchor, is_table = f
        if is_block and parts:
            joined = " ".join("".join(parts).split())
            parts.clear()
            if joined:
                blocks_append(
                    Block(
                        kind_stack[-1] if kind_stack
                        else KIND_TABLE if table else KIND_PARAGRAPH,
                        joined,
                        min(anchor_chars, len(joined)),
                        boiler > 0,
                    )
                )
            anchor_chars = 0
        if is_void:
            continue
        if slash:
            if is_skip and skip:
                skip -= 1
            if is_boiler and boiler:
                boiler -= 1
            if is_anchor and anchor:
                anchor -= 1
            if kind is not None and kind_stack and kind_stack[-1] == kind:
                kind_stack.pop()
            if is_table and table:
                table -= 1
        elif rest[-1:] != "/":
            if is_skip:
                skip += 1
            if is_boiler:
                boiler += 1
            if is_anchor:
                anchor += 1
            if kind is not None:
                kind_stack.append(kind)
            if is_table:
                table += 1
    return blocks


def segment_blocks(html_text: str) -> list[Block]:
    """Segment a document into text blocks: one ``re.split`` tokenizes it,
    one loop runs the block state machine.

    Quirks of the tokenizer (frozen by tests/test_extract_golden.py): a
    '>' inside a quoted attribute value ends the tag; a tag is self-closing
    iff the character before its '>' is '/'; "< p>" is a tag; a raw-text
    element ends at any "</name" prefix ("</scriptx" included); a tag with
    no '>', an unterminated comment or an unclosed raw-text element drops
    the rest of the input; markup inside <textarea> is skipped as raw text,
    where HTMLParser still sees its tags."""
    tokens = _TOKEN_RE.split(html_text)
    tokens.extend(_END_TOKEN)
    return _build_blocks(tokens, _unescape)


class _TokenParser(HTMLParser):
    """Replays stdlib HTMLParser callbacks as token records (text already
    unescaped): one record per data call, start tag and end tag."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tokens: list = []

    def handle_starttag(self, tag: str, attrs) -> None:
        self.tokens += ("", None, "", tag, "", None)

    def handle_endtag(self, tag: str) -> None:
        self.tokens += ("", None, "/", tag, "", None)

    def handle_data(self, data: str) -> None:
        self.tokens += (data, None, None, None, None, None)


def segment_blocks_htmlparser(html_text: str) -> list[Block]:
    """Reference tokenizer (stdlib HTMLParser) feeding the same block state
    machine as ``segment_blocks``; the cross-check for the regex tokenizer
    (tests/test_html_fuzz.py)."""
    parser = _TokenParser()
    parser.feed(html_text)
    parser.close()
    parser.tokens += ("",) + _END_TOKEN
    # text arrives unescaped: str() passes it through unchanged
    return _build_blocks(parser.tokens, str)


def classify_blocks(
    blocks: list[Block],
    *,
    max_link_density: float = DEFAULT_MAX_LINK_DENSITY,
    min_paragraph_chars: int = DEFAULT_MIN_PARAGRAPH_CHARS,
) -> None:
    """Two-pass jusText-style classification; sets ``block.good`` in place."""
    # Pass 1: content blocks.
    for b in blocks:
        if b.kind == KIND_HEADING:
            continue
        if b.in_boiler or b.link_density > max_link_density:
            b.good = False
        elif b.kind == KIND_PARAGRAPH and len(b.text) < min_paragraph_chars:
            b.good = False
        elif b.kind in (KIND_LIST_ITEM, KIND_TABLE) and len(b.text) < 3:
            b.good = False
        else:
            b.good = True
    # Pass 2: a heading is good iff good content follows it before the
    # next heading (jusText's near-good heading promotion, deterministic).
    for i, b in enumerate(blocks):
        if b.kind != KIND_HEADING:
            continue
        if b.in_boiler or b.link_density > max_link_density:
            b.good = False
            continue
        good_after = False
        for nb in blocks[i + 1 :]:
            if nb.kind == KIND_HEADING:
                break
            if nb.good:
                good_after = True
                break
        b.good = good_after


def assemble(blocks: list[Block]) -> ExtractedDoc:
    """Join kept blocks with \\n\\n; record char-offset spans, packed."""
    kept = [b for b in blocks if b.good]
    parts: list[str] = []
    spans = array("q")
    offset = 0
    for b in kept:
        if parts:
            offset += 2  # "\n\n"
        spans += array("q", (offset, offset + len(b.text), _KIND_CODE[b.kind]))
        parts.append(b.text)
        offset += len(b.text)
    return ExtractedDoc(
        text="\n\n".join(parts),
        packed=spans.tobytes(),
        n_blocks_total=len(blocks),
        n_blocks_kept=len(kept),
    )


# ---------------------------------------------------------------------------
# the dispatcher: the C kernel when it built, else the Python spec above
# ---------------------------------------------------------------------------

# ``at``: the time.monotonic() deadline of the document this thread is
# extracting, published by record.document_deadline.  The kernel holds the
# GIL, so the watchdog's async exception cannot land inside it; it polls
# this deadline instead.
deadline = threading.local()

_native = load_native()
if _native is not None:
    _native.setup(
        _TAG_FLAGS, _RAWTEXT_TAGS, SPAN_KINDS, _unescape,
        # the fixed text around the placeholders of the doc_json formats
        tuple(re.split("%[ds]", _DOC_JSON_FMT)), tuple(re.split("%[ds]", _SPAN_JSON_FMT)),
    )

# The layers the kernel stands in for.  A caller that replaces one on this
# module (a tracer, a fault injector) gets the Python path, so that its
# replacement sees every document.
_SPEC_LAYERS = (segment_blocks, classify_blocks, assemble)


@dataclass
class _KernelDoc(ExtractedDoc):
    """An ExtractedDoc whose doc_json the kernel already serialised."""

    json: str = ""

    def doc_json(self) -> str:
        return self.json


def extract_html(
    html_text: str,
    *,
    max_link_density: float = DEFAULT_MAX_LINK_DENSITY,
    min_paragraph_chars: int = DEFAULT_MIN_PARAGRAPH_CHARS,
) -> ExtractedDoc:
    """Full pipeline for one decoded HTML document. Pure + deterministic.

    Runs the C kernel (``_htmlkernel.c``) when it loaded, else
    ``segment_blocks`` -> ``classify_blocks`` -> ``assemble``; both give the
    same bytes (tests/test_native_kernel.py).  The Python path also runs,
    with a warning, while any of those three is replaced on this module.
    Raises :class:`DocumentTimeoutError` when the kernel passes this
    thread's document deadline."""
    if _native is not None:
        if (segment_blocks, classify_blocks, assemble) == _SPEC_LAYERS:
            out = _native.extract(
                html_text, max_link_density, min_paragraph_chars,
                getattr(deadline, "at", None),
            )
            if out is None:
                raise DocumentTimeoutError()
            text, spans, doc_json, n_total, n_kept = out
            return _KernelDoc(text, spans, n_total, n_kept, doc_json)
        warnings.warn(
            "a layer of extract_html is replaced: it runs the Python path, not the C kernel",
            RuntimeWarning,
            stacklevel=2,
        )
    blocks = segment_blocks(html_text)
    classify_blocks(
        blocks,
        max_link_density=max_link_density,
        min_paragraph_chars=min_paragraph_chars,
    )
    return assemble(blocks)
