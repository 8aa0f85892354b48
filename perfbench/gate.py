"""Output gate: every timed run is checked against the single-process oracle.

The oracle is ``extract_corpus_oracle`` over the same corpus, computed once
per seed outside the timed region.  Each extracted row reduces to a per-url
digest of ``(status, text, spans, doc_json)``; a run passes only if its urls
are exactly the oracle's, each once, with identical digests.  A run that
fails the gate counts as a failed operation, never as a fast one.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa


def row_digest(status: str, text: str | None, spans, doc_json: str | None) -> str:
    spans_key = [[s["start"], s["end"], s["kind"]] for s in spans or ()]
    payload = json.dumps([status, text or "", spans_key, doc_json or ""])
    return hashlib.blake2b(payload.encode("ascii"), digest_size=16).hexdigest()


def oracle_digests(oracle_rows: list[dict]) -> dict[str, str]:
    return {
        r["url"]: row_digest(r["status"], r["text"], r["spans"], r["doc_json"])
        for r in oracle_rows
    }


def check_tables(expected: dict[str, str], tables: list[pa.Table]) -> list[str]:
    """-> human-readable problems; empty means the output matches."""
    problems: list[str] = []
    seen: set[str] = set()
    for t in tables:
        cols = [t.column(c).to_pylist() for c in ("url", "status", "text", "spans", "doc_json")]
        for url, status, text, spans, doc_json in zip(*cols):
            if url in seen:
                problems.append(f"duplicate url {url}")
                continue
            seen.add(url)
            want = expected.get(url)
            if want is None:
                problems.append(f"unexpected url {url}")
            elif row_digest(status, text, spans, doc_json) != want:
                problems.append(f"content differs for {url}")
    missing = len(expected) - len(seen & expected.keys())
    if missing:
        problems.append(f"{missing} oracle urls missing from the output")
    return problems
