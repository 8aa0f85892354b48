"""The C extraction kernel (extract/_htmlkernel.c) against its Python spec.

``extract_html`` runs the kernel whenever it built; the Python path
(``segment_blocks`` -> ``classify_blocks`` -> ``assemble``) is the
executable spec and the fallback.  These tests:

- fail when gcc and Python.h are present but the kernel did not load, so a
  broken C file cannot quietly cost the speed-up, and compile the source
  warning-free;
- rerun the frozen golden digests of tests/test_extract_golden.py on the
  Python path (that file itself runs the kernel);
- compare the two paths on junk, hypothesis text, wide Unicode and corpus
  documents, field by field;
- pin linear time on inputs that were quadratic in the old tag regex;
- check the kernel's own deadline polling, which stands in for the
  watchdog's async exception while the kernel holds the GIL.
"""

from __future__ import annotations

import glob
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import textwrap
import threading
import time
import warnings

import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docling_jobkit_ray.extract import _native as native_loader
from docling_jobkit_ray.extract import binarydoc, html
from docling_jobkit_ray.extract.errors import CATEGORY_TIMEOUT, STATUS_FAILURE, STATUS_SUCCESS
from docling_jobkit_ray.extract.record import ExtractOptions, document_deadline, extract_record
from docling_jobkit_ray.fixtures.corpus import write_corpus
from tests.test_extract_golden import (
    _JUNK_PIECES,
    _JUNK_TAILS,
    CORPUS_DIGESTS,
    JUNK_RECORDS_DIGEST,
    _corpus_digest,
    _junk_corpus,
    _sha,
)
from tests.test_timeout_retry import _SLOW_HTML

KERNEL = html._native
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="the C kernel did not build here")

# Code points where the kernel's character classes could drift from sre's
# and str.split()'s: the extra ignore-case matches of 'i' and 's', the
# ASCII separators U+001C-U+001F, NEL, NBSP, Unicode spaces and line
# separators, lone surrogates, and wide characters of every PEP 393 kind.
WIDE_CHARS = [
    "\u0130", "\u0131", "\u017f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\xa0", "\u1680", "\u2000", "\u200a", "\u200b", "\u2028", "\u2029",
    "\u202f", "\u205f", "\u3000", "\ufeff", "\ud800", "\udfff", "\udc80",
    "\U0001f600", "\U0010ffff", "\xe9", "\xff", "\u4e2d", "\u212a", "K",
]
WIDE_PIECES = [
    "</\u017fcript>", "</scr\u0130pt>", "</SCR\u0131PT", "</\u017ftyle>",
    "</t\u0131tle>", "</T\u0130TLE>", "<script>a</\u017fcript>b</script>",
    "<title>\u3000</t\u0131tle>", "<textarea>x</textarea\u0130>",
    "<p>\xa0\xa0x y</p>", "<li>\x1c\x1d</li>", "&#x1F600;", "&\u0130;",
    "<a>\u3000\u3000</a>", "<p\x1c>", "<\x1cp>", "< \u3000p>", "<\u0130>",
]


def _spec(doc: str, **kw) -> html.ExtractedDoc:
    """The Python path of ``extract_html``."""
    blocks = html.segment_blocks(doc)
    html.classify_blocks(blocks, **kw)
    return html.assemble(blocks)


def _fields(d: html.ExtractedDoc) -> tuple:
    return (d.text, d.spans, d.doc_json(), d.n_blocks_total, d.n_blocks_kept)


def mismatch(doc: str, **kw) -> tuple | None:
    """-> (python, native) fields when the two paths disagree, else None.
    Equal str objects are also of equal PEP 393 kind (str == compares
    kinds), so a non-canonical kernel string fails here too.  The packed
    span bytes, which the Ray stage reads, are compared as well as their
    dict view."""
    spec, native = _spec(doc, **kw), html.extract_html(doc, **kw)
    want = (*_fields(spec), spec.packed)
    got = (*_fields(native), native.packed)
    return None if got == want else (want, got)


OPTION_GRID = [
    {},
    {"max_link_density": 0.0, "min_paragraph_chars": 0},
    {"max_link_density": 1.0, "min_paragraph_chars": 3},
    {"max_link_density": 0.25, "min_paragraph_chars": 60},
]


def junk_doc(rng: random.Random, wide: bool) -> str:
    """A document of the golden test's junk pieces and, when ``wide``, wide
    characters and the Unicode raw-text closers."""
    pieces = _JUNK_PIECES + (WIDE_PIECES + WIDE_CHARS if wide else [])
    parts = [rng.choice(pieces) for _ in range(rng.randint(0, 40))]
    if wide:
        for _ in range(rng.randint(0, 6)):
            parts.insert(rng.randint(0, len(parts)), rng.choice(WIDE_CHARS) * rng.randint(1, 3))
    if rng.random() < 0.15:
        parts.insert(rng.randint(0, len(parts)), rng.choice(_JUNK_TAILS))
    return "".join(parts)


def corpus_docs(tmp_dir: str, seed: int, n_rows: int = 240) -> list[str]:
    """The decodable HTML documents of a ``write_corpus`` seed."""
    write_corpus(tmp_dir, n_rows=n_rows, seed=seed, n_shards=2, heavy_tail_frac=0.05)
    docs = []
    for path in sorted(glob.glob(f"{tmp_dir}/*.parquet")):
        for data in pq.read_table(path, columns=["html"]).column("html").to_pylist():
            if data and not binarydoc.is_binary_doc(data):
                try:
                    docs.append(data.decode("utf-8"))
                except UnicodeDecodeError:
                    pass
    return docs


# ---------------------------------------------------------------- the build


def test_native_kernel_built(tmp_path):
    """With gcc and Python.h present the kernel must load: a C file that no
    longer compiles would otherwise fall back to Python in silence."""
    out = str(tmp_path / "kernel.so")
    cmd = native_loader.build_command(out, "-Wall", "-Wextra", "-Werror")
    if shutil.which("gcc") is None or cmd is None:
        pytest.skip("no gcc or Python.h")
    assert html._native is not None
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(out)


@needs_kernel
def test_kernel_cache_holds_one_build_and_reuses_it():
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = glob.glob(os.path.join(native_loader.CACHE, f"_htmlkernel-*{suffix}"))
    assert built == [KERNEL.__file__]
    assert glob.glob(os.path.join(native_loader.CACHE, "*.tmp")) == []
    mtime = os.path.getmtime(built[0])
    assert native_loader.load() is not None
    assert os.path.getmtime(built[0]) == mtime


def test_loader_returns_none_when_it_cannot_build(tmp_path, monkeypatch):
    if native_loader.build_command("x") is not None:
        # a build that should work but cannot: an unwritable cache location
        # (a path under a regular file) warns
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(native_loader, "CACHE", str(tmp_path / "file" / "cache"))
        with pytest.warns(RuntimeWarning, match="Python path"):
            assert native_loader.load() is None
    # an empty cache and no compiler: quietly None
    monkeypatch.setattr(native_loader, "CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native_loader.shutil, "which", lambda name: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native_loader.load() is None


@needs_kernel
def test_loader_warns_on_a_compile_error(tmp_path, monkeypatch):
    bad = tmp_path / "bad.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(native_loader, "SOURCE", str(bad))
    monkeypatch.setattr(native_loader, "CACHE", str(tmp_path / "cache"))
    with pytest.warns(RuntimeWarning, match="bad.c"):
        assert native_loader.load() is None


@needs_kernel
def test_replaced_layer_sees_every_document(monkeypatch):
    """A tracer that wraps a layer of the Python path gets that path."""
    seen = []

    def traced_assemble(blocks):
        doc = assemble(blocks)
        seen.append(doc.n_blocks_kept)
        return doc

    assemble = html.assemble
    doc = "<p>" + "some words here " * 4 + "</p><li>item</li>"
    want = _fields(html.extract_html(doc))
    monkeypatch.setattr(html, "assemble", traced_assemble)
    with pytest.warns(RuntimeWarning, match="Python path"):
        got = _fields(html.extract_html(doc))
    assert got == want and seen == [2]


# ------------------------------------------------- goldens on the Python path


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_digest_on_python_path(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(html, "_native", None)
    assert _corpus_digest(tmp_path, seed) == CORPUS_DIGESTS[seed]


def test_junk_records_digest_on_python_path(monkeypatch):
    monkeypatch.setattr(html, "_native", None)
    docs = (html.extract_html(d) for d in _junk_corpus())
    assert _sha((doc.text, doc.spans, doc.doc_json()) for doc in docs) == JUNK_RECORDS_DIGEST


# ------------------------------------------------------- differential tests


@needs_kernel
@pytest.mark.parametrize("wide", [False, True])
def test_differential_junk(wide):
    rng = random.Random(7 + wide)
    for i in range(6000):
        doc = junk_doc(rng, wide)
        assert mismatch(doc, **OPTION_GRID[i % len(OPTION_GRID)]) is None, doc


@needs_kernel
def test_differential_wide_unicode_runs():
    rng = random.Random(11)
    alphabet = WIDE_CHARS + list("<>/&;!-?= \t\nabcsriptyle") + ["</", "<a>", "</a>", "<p>"]
    for _ in range(4000):
        doc = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        assert mismatch(doc) is None, doc


@needs_kernel
@settings(max_examples=2000, deadline=None)
@given(st.text(max_size=120))
def test_differential_hypothesis_text(doc):
    assert mismatch(doc) is None


@needs_kernel
@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_JUNK_PIECES + WIDE_PIECES + WIDE_CHARS), max_size=30).map("".join))
def test_differential_hypothesis_pieces(doc):
    assert mismatch(doc) is None


@needs_kernel
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_differential_corpus(tmp_path, seed):
    docs = corpus_docs(str(tmp_path), seed)
    assert len(docs) > 200
    for i, doc in enumerate(docs):
        assert mismatch(doc, **OPTION_GRID[i % len(OPTION_GRID)]) is None


@needs_kernel
def test_unescape_sees_each_run_whole():
    # '&am<b>p;' is two runs, neither of them an entity; deadline chunks
    # must not split a run either
    for doc in ["&am<b>p;", "x &amp; y", "<a>&lt;</a>&gt", "a" * 70000 + "&amp;" + "b" * 70000]:
        assert mismatch(doc) is None
    run = "word " * 30000 + "&amp;"
    with document_deadline(60.0):
        assert html.extract_html(run).text == _spec(run).text


# ---------------------------------------------------------------- linear time

_LINEAR_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from docling_jobkit_ray.extract import html
    assert html._native is not None or sys.argv[1] == "python"
    run = html.segment_blocks if sys.argv[1] == "python" else html.extract_html
    for doc in ("<p>x</p><" + "a" * 200_000, "<p><a" + "b" * 200_000 + " x=1"):
        t0 = time.perf_counter()
        run(doc)
        took = time.perf_counter() - t0
        assert took < 1.0, took
    """
)


@pytest.mark.parametrize("path", ["python", "native"])
def test_unterminated_tag_is_linear(path):
    """A tag name with no '>' after it used to backtrack through the name
    in one uninterruptible ``re.split`` call: O(n^2), ~3 min for the first
    input.  Run in a subprocess so a regression times out, not hangs."""
    if path == "native" and KERNEL is None:
        pytest.skip("the C kernel did not build here")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _LINEAR_SCRIPT, path], capture_output=True, text=True, timeout=20, env=env
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------------ deadline


@needs_kernel
def test_kernel_polls_its_deadline():
    doc = _SLOW_HTML.decode()
    assert KERNEL.extract(doc, 0.4, 25, time.monotonic() - 1.0) is None
    done = KERNEL.extract(doc, 0.4, 25, time.monotonic() + 60.0)
    assert done is not None and done == KERNEL.extract(doc, 0.4, 25, None)


@needs_kernel
def test_native_deadline_dead_letters_every_time():
    """No retry loop: the kernel checks the clock itself, so the timeout
    cannot slip past a watchdog that is waiting for the GIL."""
    opts = ExtractOptions(document_timeout=0.001)
    for _ in range(20):
        row = extract_record("u", _SLOW_HTML, opts)
        assert row["status"] == STATUS_FAILURE
        assert row["category"] == CATEGORY_TIMEOUT
        assert row["retryable"] is True
    assert extract_record("u", _SLOW_HTML, ExtractOptions())["status"] == STATUS_SUCCESS


def test_document_deadline_publishes_the_tightest_deadline():
    assert getattr(html.deadline, "at", None) is None
    with document_deadline(30.0):
        outer = html.deadline.at
        assert outer == pytest.approx(time.monotonic() + 30.0, abs=1.0)
        with document_deadline(60.0):
            assert html.deadline.at == outer  # the outer one is tighter
        with document_deadline(5.0):
            assert html.deadline.at < outer
        assert html.deadline.at == outer
        seen = []
        t = threading.Thread(target=lambda: seen.append(getattr(html.deadline, "at", None)))
        t.start()
        t.join()
        assert seen == [None]  # per thread
    assert getattr(html.deadline, "at", None) is None
