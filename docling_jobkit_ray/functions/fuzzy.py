"""Fuzzy entity-resolution join: all document pairs whose text PREFIX is
within a small Levenshtein distance — the blocking+verify shape of entity
resolution / record linkage, recall-COMPLETE by construction.

Blocking is PassJoin-style pigeonhole (Li, Deng, Feng: "PASS-JOIN", VLDB
2011 — public literature): partition each string into ``d+1`` contiguous
segments; if ``ed(A, B) <= d`` then (pigeonhole over the <= d edits) at
least one segment of A survives un-edited, so it appears EXACTLY in B, and
its start position shifts by at most the <= d insertions/deletions.  So a
join of A's segments against B's position-windowed substrings misses no
qualifying pair; an exact dynamic-programming verify (identical cost model
to DuckDB ``levenshtein``: unit insert/delete/substitute, no transposition)
then discards the false candidates.  No LSH, no similarity approximation —
the quadratic oracle and this engine provably agree.

Distributed shape (mirrors the minhash/jaccard family):
  1. one map over the corpus emits (int64 key-hash, role, doc_id) rows —
     key = (segment index, indexed-string length, gram) so only
     position/length-compatible grams meet; text never rides the shuffle;
  2. a scale-adaptive bucket groupby + per-bucket vectorized self-merge
     yields distinct candidate pairs (hash collisions only ADD candidates
     — a surviving segment always hashes equal on both sides);
  3. the shared hybrid verify (broadcast under a byte budget, bucketed
     joins beyond it) attaches prefixes and scores the exact distance.

Scale note: a boilerplate gram (shared page furniture) concentrates
candidates in one key; the standard mitigations — longer prefixes, more
segments (higher selectivity per gram), or a document-frequency cap on
index grams — all preserve completeness except the cap, which must then
be mirrored in the oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table

PREFIX_CHARS = 30
MAX_DIST = 2
_N_SEG = MAX_DIST + 1


def levenshtein(a: str, b: str) -> int:
    """Exact unit-cost edit distance (two-row Wagner-Fischer) — the same
    cost model as DuckDB ``levenshtein`` (insert/delete/substitute, no
    transposition), asserted by the oracle parity tests."""
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        bj = b[j - 1]
        cur = [j] + [0] * la
        for i in range(1, la + 1):
            cur[i] = min(
                prev[i] + 1,  # delete
                cur[i - 1] + 1,  # insert
                prev[i - 1] + (a[i - 1] != bj),  # substitute
            )
        prev = cur
    return prev[la]


def levenshtein_batch(texts_a: list[str], texts_b: list[str]) -> np.ndarray:
    """Exact unit-cost edit distance for MANY pairs at once: the classic
    Wagner-Fischer recurrence iterated over (i, j) CELLS with every pair
    advanced per cell as one numpy vector op — O(L^2) iterations of O(n)
    arithmetic instead of O(n * L^2) interpreted steps.  Strings pad into
    a fixed-width UCS4 matrix; padded cells never influence a result cell
    (DP dependencies only flow from smaller i, j), and each pair's answer
    is gathered at its own (len_b row, len_a column).  Fuzz-pinned against
    the scalar :func:`levenshtein` (itself DuckDB-parity-pinned)."""
    n = len(texts_a)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.fromiter((len(s) for s in texts_a), np.int64, n)
    lb = np.fromiter((len(s) for s in texts_b), np.int64, n)
    L1, L2 = int(la.max()), int(lb.max())
    if L1 == 0:
        return lb.copy()
    A = np.array(texts_a, dtype=f"U{L1}").view(np.uint32).reshape(n, L1)
    B = (
        np.array(texts_b, dtype=f"U{max(L2, 1)}").view(np.uint32).reshape(n, max(L2, 1))
    )
    prev = np.tile(np.arange(L1 + 1, dtype=np.int32), (n, 1))
    out = np.where(lb == 0, la, 0).astype(np.int64)
    for j in range(1, L2 + 1):
        bj = B[:, j - 1]
        cur = np.empty_like(prev)
        cur[:, 0] = j
        for i in range(1, L1 + 1):
            cost = (A[:, i - 1] != bj).view(np.int8)
            cur[:, i] = np.minimum(
                np.minimum(prev[:, i] + 1, prev[:, i - 1] + cost),
                cur[:, i - 1] + 1,
            )
        done = lb == j
        if done.any():
            out[done] = cur[done, la[done]]
        prev = cur
    return out


def _seg_bounds(length: int) -> list[tuple[int, int]]:
    """(start, len) of the _N_SEG even segments of a length-``length``
    string: start_i = floor(i*L/k) — deterministic, same on both roles."""
    starts = [(i * length) // _N_SEG for i in range(_N_SEG + 1)]
    return [(starts[i], starts[i + 1] - starts[i]) for i in range(_N_SEG)]


def fuzzy_prefix_pairs(
    sf_dir: str,
    *,
    prefix_chars: int = PREFIX_CHARS,
    max_dist: int = MAX_DIST,
    broadcast_pair_limit: int = 200_000,
    broadcast_byte_limit: int = 256 * 1024 * 1024,
) -> ray.data.Dataset:
    """Every (doc_a < doc_b) pair with
    ``levenshtein(prefix(a), prefix(b)) <= max_dist`` over the documents
    table, plus the exact distance — complete via pigeonhole blocking."""
    if max_dist != MAX_DIST:
        # the segment machinery below is generic, but the emission loops
        # and the SQL constant are pinned to d=2; widen both together
        raise ValueError("fuzzy_prefix_pairs: only max_dist=2 is wired up")

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    # pass 0 (tiny): the set of DISTINCT prefix lengths in the corpus —
    # bounded by prefix_chars+1 values — so the probe side only emits
    # substring grams for indexed lengths that actually exist.
    from ray.data.aggregate import Count

    def length_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("plen", pa.int64())]).empty_table()
        plen = pc.min_element_wise(
            pc.utf8_length(batch["text"]), pa.scalar(prefix_chars, pa.int64())
        )
        return pa.table({"plen": pc.unique(pc.cast(plen, pa.int64()))})

    # bounded: <= prefix_chars + 1 distinct prefix lengths
    lengths = sorted(
        int(r["plen"])
        for r in (
            ds.map_batches(length_partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("plen")
            .aggregate(Count(alias_name="n"))
            .take_all()
        )
    )
    length_set = set(lengths)

    from ..scale import bucket_count, estimate_rows

    n_docs = estimate_rows(sf_dir, "documents")
    n_buckets = bucket_count(n_docs * 16, target_rows_per_bucket=100_000)
    bucket_mask = n_buckets - 1

    _HASH_P = 1_000_003
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def _hash_keys(seg: int, length: int, grams: pa.Array) -> np.ndarray:
        """Vectorized polynomial hash of every gram's FULL byte content,
        tagged with (seg, length), golden-ratio mixed.  Never materializes
        Python strings (the original pd.util.hash_array(to_pylist()) form
        measured 36 s of the 42 s sf0.1 wall — thousands of tiny
        object-array conversions per batch).  Hash collisions only ADD
        candidates; the exact verify discards them, so completeness is
        untouched by the hash choice."""
        arr = grams.combine_chunks() if isinstance(grams, pa.ChunkedArray) else grams
        n = len(arr)
        if n == 0:
            return np.empty(0, np.int64)
        off = np.frombuffer(arr.buffers()[1], np.int32)[
            arr.offset : arr.offset + n + 1
        ].astype(np.int64)
        data = np.frombuffer(arr.buffers()[2], np.uint8)
        starts, lens = off[:-1], np.diff(off)
        h = np.zeros(n, np.int64)
        for j in range(int(lens.max()) if n else 0):
            m = lens > j
            h[m] = (h[m] * 31 + data[starts[m] + j]) % _HASH_P
        tagged = h * _HASH_P + (seg * 211 + length) % _HASH_P
        mixed = (tagged.astype(np.uint64) * _MIX) >> np.uint64(1)
        return mixed.astype(np.int64)

    gram_schema = pa.schema(
        [(c, pa.int64()) for c in ("hkey", "bucket", "role", "doc_id")]
    )
    pair_schema = pa.schema([("pairkey", pa.int64())])

    def emit(batch: pa.Table, *, _d=max_dist) -> pa.Table:
        prefix = pc.utf8_slice_codeunits(batch["text"], 0, prefix_chars)
        plen = pc.cast(pc.utf8_length(prefix), pa.int64()).to_numpy()
        doc = pc.cast(batch["doc_id"], pa.int64()).to_numpy()
        out_h: list[np.ndarray] = []
        out_r: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        # group rows by prefix length: slicing is columnar per length group
        for length in np.unique(plen):
            length = int(length)
            sel = plen == length
            sub = prefix.filter(pa.array(sel))
            docs_sel = doc[sel]
            # INDEX role: this string's own d+1 segments
            for seg, (start, slen) in enumerate(_seg_bounds(length)):
                grams = pc.utf8_slice_codeunits(sub, start, start + slen)
                out_h.append(_hash_keys(seg, length, grams))
                out_r.append(np.zeros(len(docs_sel), np.int64))
                out_d.append(docs_sel)
            # PROBE role: substrings matching segments of any indexed
            # length within +-d of this length, at starts within +-d of
            # that segment's start (clamped to valid range)
            for other in range(length - _d, length + _d + 1):
                if other not in length_set:
                    continue
                for seg, (start, slen) in enumerate(_seg_bounds(other)):
                    if slen <= 0 or slen > length:
                        continue
                    for s0 in range(
                        max(0, start - _d), min(length - slen, start + _d) + 1
                    ):
                        grams = pc.utf8_slice_codeunits(sub, s0, s0 + slen)
                        out_h.append(_hash_keys(seg, other, grams))
                        out_r.append(np.ones(len(docs_sel), np.int64))
                        out_d.append(docs_sel)
        h = np.concatenate(out_h)
        return pa.table(
            {
                "hkey": pa.array(h),
                "bucket": pa.array(h & bucket_mask),
                "role": pa.array(np.concatenate(out_r)),
                "doc_id": pa.array(np.concatenate(out_d)),
            }
        )

    def emit_pairs(group: pd.DataFrame) -> pd.DataFrame:
        # single combined int64 pair key (doc ids < 2^31): the global
        # distinct fold groups on ONE int column — the two-key
        # groupby(["doc_a","doc_b"]) form measured 26 s on 43k candidate
        # rows (Ray 2.49's multi-key aggregate), vs ~1 s for this
        g = group[["hkey", "role", "doc_id"]].drop_duplicates()
        idx = g[g["role"] == 0][["hkey", "doc_id"]]
        prb = g[g["role"] == 1][["hkey", "doc_id"]]
        m = idx.merge(prb, on="hkey", suffixes=("_i", "_p"))
        m = m[m["doc_id_i"] != m["doc_id_p"]]
        # return an ARROW block even from this pandas-format UDF: pandas
        # blocks feeding the downstream groupby make Ray's sort-based
        # aggregate 5.5x slower (measured 20.5 s vs 3.7 s on this stream)
        if m.empty:
            return pair_schema.empty_table()
        a = np.minimum(m["doc_id_i"].to_numpy(), m["doc_id_p"].to_numpy())
        b = np.maximum(m["doc_id_i"].to_numpy(), m["doc_id_p"].to_numpy())
        return pa.table(
            {"pairkey": pa.array(np.unique(a * np.int64(2**32) + b), pa.int64())}
        )

    def decode_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("doc_a", pa.int64()), ("doc_b", pa.int64())]
            ).empty_table()
        pk = batch["pairkey"]
        a = pc.divide(pk, pa.scalar(2**32, pa.int64()))
        return pa.table(
            {
                "doc_a": a,
                "doc_b": pc.subtract(pk, pc.multiply(a, pa.scalar(2**32, pa.int64()))),
            }
        )

    candidates = (
        bucket_exchange(
            ds,
            emit_pairs,
            schema=gram_schema,
            out_schema=pair_schema,
            emit=emit,
            batch_format="pandas",
        )
        # the exchange leaves one TINY block per bucket; coalesce to a
        # scale-derived block count before the global fold (cheap: the
        # pair stream is far smaller than the gram stream it came from)
        .repartition(max(8, n_buckets // 8))
        .groupby("pairkey")
        .aggregate(Count(alias_name="n_hits"))
        .map_batches(decode_pairs, batch_format="pyarrow", zero_copy_batch=True)
    )

    # exact verify through the shared hybrid (score >= threshold keeps a
    # pair, so score = -distance with threshold -max_dist)
    from .dedup import _verify_pairs_hybrid

    def neg_dist(ta: str, tb: str) -> float:
        return -float(levenshtein(ta[:prefix_chars], tb[:prefix_chars]))

    # vectorized path for the shared verifier: one DP over ALL pairs at
    # once (cells iterate, pairs vectorize) — the per-pair Python DP was
    # the sf0.1 wall-clock (38k pairs x 900 cells of interpreted loop)
    neg_dist.batch_score = lambda ta, tb: -levenshtein_batch(
        [t[:prefix_chars] for t in ta], [t[:prefix_chars] for t in tb]
    ).astype(float)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    verified = _verify_pairs_hybrid(
        candidates,
        docs,
        sf_dir,
        neg_dist,
        -float(max_dist),
        broadcast_pair_limit=broadcast_pair_limit,
        broadcast_byte_limit=broadcast_byte_limit,
    )

    def to_dist(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("doc_a", pa.int64()),
                    ("doc_b", pa.int64()),
                    ("dist", pa.int64()),
                ]
            ).empty_table()
        return pa.table(
            {
                "doc_a": pc.cast(batch["doc_a"], pa.int64()),
                "doc_b": pc.cast(batch["doc_b"], pa.int64()),
                "dist": pc.cast(pc.negate(batch["jaccard"]), pa.int64()),
            }
        )

    return verified.map_batches(
        to_dist, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["doc_a", "doc_b"])


FUZZY_PREFIX_PAIRS_SQL = f"""
WITH e AS (SELECT doc_id, substr(text, 1, {PREFIX_CHARS}) AS s FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
FROM e a JOIN e b ON a.doc_id < b.doc_id
WHERE levenshtein(a.s, b.s) <= {MAX_DIST}
ORDER BY doc_a, doc_b
"""


def fuzzy_entity_resolution(sf_dir: str) -> ray.data.Dataset:
    """Golden-record assignment: every document mapped to its entity's
    canonical id — the min doc_id of its connected component in the fuzzy
    prefix-pair graph (docs in no pair are their own canonical).  The
    blocking -> verify -> transitive-closure -> survivorship chain is the
    standard entity-resolution pipeline; all stages reuse this engine's
    distributed operators (PassJoin blocking above, the hybrid
    union-find/label-propagation of ``graph.connected_components``, one
    bucketed left-outer join to fan the small cluster map over the corpus).
    """
    from ..pipelines.joins import bucketed_join
    from ..scale import estimate_rows
    from .graph import connected_components

    edges = fuzzy_prefix_pairs(sf_dir).select_columns(["doc_a", "doc_b"])
    comp = connected_components(
        edges, src="doc_a", dst="doc_b", est_edges=estimate_rows(sf_dir, "documents")
    ).map_batches(
        lambda b: (
            pa.schema([("cdoc_id", pa.int64()), ("component", pa.int64())]).empty_table()
            if b.num_rows == 0 or b.num_columns == 0
            else pa.table({"cdoc_id": b["node"], "component": b["component"]})
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    docs = read_table(sf_dir, "documents", columns=["doc_id"])
    joined = bucketed_join(
        docs,
        comp,
        on="doc_id",
        right_on="cdoc_id",
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema([("cdoc_id", pa.int64()), ("component", pa.int64())]),
        join_type="left outer",
        est_rows=estimate_rows(sf_dir, "documents"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("canonical_id", pa.int64()),
                    ("is_canonical", pa.int64()),
                ]
            ).empty_table()
        canonical = pc.coalesce(batch["component"], batch["doc_id"])
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "canonical_id": pc.cast(canonical, pa.int64()),
                "is_canonical": pc.cast(
                    pc.equal(batch["doc_id"], canonical), pa.int64()
                ),
            }
        )

    return joined.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


FUZZY_ENTITY_RESOLUTION_SQL = f"""
WITH RECURSIVE
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM (SELECT doc_id, substr(text, 1, {PREFIX_CHARS}) AS s FROM documents) a
  JOIN (SELECT doc_id, substr(text, 1, {PREFIX_CHARS}) AS s FROM documents) b
    ON a.doc_id < b.doc_id
  WHERE levenshtein(a.s, b.s) <= {MAX_DIST}
),
edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION SELECT doc_b, doc_a FROM pairs),
nodes AS (SELECT DISTINCT a AS v FROM edges),
walk(v, lbl) AS (
  SELECT v, v FROM nodes
  UNION
  SELECT e.b, w.lbl FROM walk w JOIN edges e ON e.a = w.v
),
comp AS (SELECT v AS doc_id, min(lbl) AS component FROM walk GROUP BY v)
SELECT d.doc_id,
       CAST(coalesce(c.component, d.doc_id) AS BIGINT) AS canonical_id,
       CAST(d.doc_id = coalesce(c.component, d.doc_id) AS BIGINT) AS is_canonical
FROM documents d LEFT JOIN comp c ON d.doc_id = c.doc_id
ORDER BY d.doc_id
"""
