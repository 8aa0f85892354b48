"""Frozen byte-identity digests for the HTML extraction kernel.

The perfbench gate and the pipeline tests compare the Ray plans against the
single-process oracle of the *same* code, so a semantic drift in the
tokenizer would pass them.  These digests were recorded once and pin the
kernel's output bytes:

- the oracle rows (``extract_corpus_oracle``) of small ``write_corpus``
  seeds, heavy-tail pages, binary and poisoned rows included;
- the blocks and extracted records of a fixed-seed junk corpus that hits
  every tokenizer corner: stray ``<``, unterminated comments and tags,
  upper-case and self-closing raw-text tags, entities split by ``<``,
  ``>`` inside quoted attributes, and nested anchors.

A change that alters any of these bytes is a behaviour change, not a
refactor: update a digest only together with a note saying why.
"""

from __future__ import annotations

import glob
import hashlib
import json
import random

import pyarrow.parquet as pq
import pytest

from docling_jobkit_ray.extract.html import extract_html, segment_blocks
from docling_jobkit_ray.extract.record import ExtractOptions, extract_corpus_oracle
from docling_jobkit_ray.fixtures.corpus import write_corpus

CORPUS_DIGESTS = {
    1: "433b61ce23813aa179479ae11c8ce79dac4840ee559b7967aa5b569c831bd9cf",
    2: "e27902f3e4fc58d5af28db51cdf5a09f43b847b56e4c229147cb7cf3560301cb",
    3: "935f028517c2184205bef5cffa272c860b040195ea3d5aa6570af7b6d442ed8f",
}
JUNK_BLOCKS_DIGEST = "b4ceca7d33f9787cbda6e2d7082fc69b7a81fe9d310aaa6ac2fb6979ffef901f"
JUNK_RECORDS_DIGEST = "6b98dfb71f67284b7659ee3ca7324a006b7c835989e4c88bc0a041bd2bc2379e"

_JUNK_PIECES = [
    # text, whitespace, entities (whole, bare, and split by '<')
    "word", " ", "  \n\t", "plain text here",
    "a sentence long enough to count as real main content.",
    "&amp;", "&lt;b&gt;", "&#65;", "&#x263a;", "&nbsp;", "&", "&amp",
    "&am<b>p;", "&#6<i>5;", "a&b", "x > y",
    # stray and odd '<'
    "<", "< p>", "<3", "a < b", "<>", "</>", "< /p>", "<1a>", "<-", "<<p>",
    # ordinary tags, any case, attributes, self-closing
    "<p>", "</p>", "<P>", "</P>", "<div>", "</DIV>", "<Div class='x'>",
    '<div title="a>b">', "<p class=x/>", "<br>", "<BR/>", "<br />", "<hr>",
    "<img src=x>", "<li>", "</li>", "<li/>", "<ul>", "</ul>", "<td>", "</td>",
    "<TH>", "</th>", "<tr>", "<table>", "</table>", "<h1>", "</h1>", "<H2>",
    "</h2>", "<h6/>", "<span>", "</span>", "<em>", "<b>", "</b>",
    "<nav>", "</nav>", "<HEADER>", "</header>", "<footer>", "</footer>",
    "<aside>", "</aside>", "<main>", "<section>", "<noscript>", "</noscript>",
    "<template>", "</template>", "<svg>", "</svg>", "<iframe>", "</iframe>",
    "<head>", "</head>", "<x:y>", "<my-tag>", "</my-tag>", "<a_b>",
    # anchors, nested and unbalanced
    '<a href="/x">', "</a>", "<A>", "</A>", "<a><a>deep</a>", "<a/>",
    # raw-text elements, any case, closed, self-closed, prefix-closed
    "<script>var x = '<p>';</script>", "<SCRIPT>x</SCRIPT>", "<script/>",
    "<Style>b{}</sTyLe>", "<style />", "<textarea>t<p>u</textarea>",
    "<TEXTAREA/>", "<title>T</title>", "<TITLE>T</Title>", "<title/>",
    "<script>a</scriptx>", "</script>", "</title>",
    # comments, declarations, processing instructions
    "<!-- c -->", "<!---->", "<!-- a -- b -->", "<!doctype html>",
    "<!DOCTYPE x>", "<![CDATA[z]]>", "<?xml v?>", "<!>", "<?>",
]
# pieces that swallow the rest of the input (truncated tags, unterminated
# comments / raw text); drawn rarely so most documents run to the end
_JUNK_TAILS = [
    "<!--", "<!-- open", "<!", "<?", "<?php", "<p", "<div class=", "</a",
    '<a href="', "<script>", "<SCRIPT>never", "<style>", "<title>open",
    "<textarea>", "</", "</p",
]


def _junk_corpus(n_docs: int = 1500, seed: int = 20240) -> list[str]:
    rng = random.Random(seed)
    docs = []
    for _ in range(n_docs):
        parts = [rng.choice(_JUNK_PIECES) for _ in range(rng.randint(0, 40))]
        if rng.random() < 0.15:
            parts.insert(rng.randint(0, len(parts)), rng.choice(_JUNK_TAILS))
        docs.append("".join(parts))
    return docs


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _corpus_digest(tmp_path, seed: int) -> str:
    write_corpus(str(tmp_path), n_rows=240, seed=seed, n_shards=2, heavy_tail_frac=0.05)
    rows = []
    for path in sorted(glob.glob(f"{tmp_path}/*.parquet")):
        t = pq.read_table(path, columns=["url", "html"])
        rows.extend(zip(t.column("url").to_pylist(), t.column("html").to_pylist()))
    return _sha(extract_corpus_oracle(rows, ExtractOptions()))


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_oracle_digest_frozen(tmp_path, seed):
    assert _corpus_digest(tmp_path, seed) == CORPUS_DIGESTS[seed]


def test_junk_blocks_digest_frozen():
    got = _sha(
        [(b.kind, b.text, b.anchor_chars, b.in_boiler) for b in segment_blocks(d)]
        for d in _junk_corpus()
    )
    assert got == JUNK_BLOCKS_DIGEST


def test_junk_records_digest_frozen():
    docs = (extract_html(d) for d in _junk_corpus())
    got = _sha((doc.text, doc.spans, doc.doc_json()) for doc in docs)
    assert got == JUNK_RECORDS_DIGEST
