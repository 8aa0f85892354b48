"""Approximate-nearest-neighbor search over the `embeddings` table.

- brute-force cosine top-k: the exactness baseline.  The query matrix is
  broadcast once (UDF closure -> object store); each batch does one numpy
  matmul and emits only its LOCAL top-k per query (a partial top-k
  combiner), so the final exchange is O(batches x queries x k), never O(N).
- IVF-style variant: vectors are pre-bucketed by nearest coarse centroid
  (k-means on a deterministic sample); queries probe the nearest `n_probe`
  centroids only.  This is the scale path: at 10^12 vectors the probe
  prunes ~(1 - n_probe/n_cells) of the corpus before any distance math.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table
from ._arrow import list_column_to_matrix


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _query_matrix(sf_dir: str, n_queries: int) -> tuple[np.ndarray, list[int]]:
    """Deterministic query set: the first n_queries vectors by vec_id.

    Streamed: each batch emits its LOCAL n smallest vec_ids (a partial
    top-k combiner), so the driver only ever sees O(blocks x n_queries)
    rows — never the embeddings table."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def local_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(n_queries, "vec_id")

    small = ds.map_batches(local_min, batch_format="pandas").to_pandas()
    small = small.nsmallest(n_queries, "vec_id").sort_values("vec_id")
    ids = small["vec_id"].astype("int64").tolist()
    q = np.vstack(small["embedding"].to_numpy()).astype(np.float32)
    return _normalize(q), ids


class BruteForceTopK:
    """Actor-pool UDF: per-batch cosine scores vs the broadcast query matrix,
    emitting each query's local top-k candidate rows."""

    def __init__(self, queries: np.ndarray, query_ids: list[int], k: int):
        self.q = queries  # (nq, dim) normalized — shipped once per actor
        self.query_ids = query_ids
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = list_column_to_matrix(batch.column("embedding"))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        sims = _normalize(vecs) @ self.q.T  # (n, nq)
        k = min(self.k, len(vec_ids))
        out_q, out_v, out_s = [], [], []
        # local top-k per query (partial combiner)
        idx = np.argpartition(-sims, k - 1, axis=0)[:k]  # (k, nq)
        for qi, qid in enumerate(self.query_ids):
            for vi in idx[:, qi]:
                out_q.append(qid)
                out_v.append(int(vec_ids[vi]))
                out_s.append(float(sims[vi, qi]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


_CANDIDATE_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()), ("cosine", pa.float64())]
)


def _final_topk(k: int):
    """Per-query merge of local top-k partials (tiny groupby)."""

    def fn(group: pd.DataFrame) -> pd.DataFrame:
        top = heapq.nlargest(
            k, group.itertuples(index=False), key=lambda r: (r.cosine, -r.vec_id)
        )
        df = pd.DataFrame(top, columns=group.columns)
        df["rank"] = range(1, len(df) + 1)
        return df

    return fn


def _merge_topk(partials: ray.data.Dataset, k: int) -> ray.data.Dataset:
    """One query_id exchange folding local top-k candidate rows to the
    global top-k with its rank."""
    return bucket_exchange(
        partials,
        _final_topk(k),
        key="query_id",
        schema=_CANDIDATE_SCHEMA,
        out_schema=_CANDIDATE_SCHEMA.append(pa.field("rank", pa.int64())),
        batch_format="pandas",
    )


def knn_brute_force(sf_dir: str, *, k: int = 5, n_queries: int = 4) -> ray.data.Dataset:
    """Exact cosine top-k for n_queries probe vectors over all embeddings.

    Ties broken deterministically by (cosine desc, vec_id asc)."""
    queries, qids = _query_matrix(sf_dir, n_queries)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    partials = ds.map_batches(
        BruteForceTopK(queries, qids, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _merge_topk(partials, k).sort(["query_id", "rank"])


# ---------------------------------------------------------------------------
# IVF-style ANN: coarse k-means buckets + probe
# ---------------------------------------------------------------------------

def _sample_matrix(sf_dir: str, sample_cap: int) -> np.ndarray:
    """Normalized (cap, dim) training sample via a BOUNDED streamed read.

    The sample is a HASH-BASED row sample, not a prefix: keep rows where a
    multiplicative hash of vec_id falls in a 1/m stripe, with m derived
    from the table's footer row count so ~sample_cap rows survive.  A
    prefix (``limit`` alone) biases centroids on sorted/clustered corpora;
    the hash stripe is uniform over the whole table yet still streamed —
    ``limit(sample_cap)`` stays only as a hard memory bound."""
    from ..scale import estimate_rows

    est = estimate_rows(sf_dir, "embeddings")
    m = 1  # power-of-two inverse sampling rate
    while m * sample_cap < est:
        m <<= 1
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    if m > 1:
        import pyarrow.compute as pc

        golden = pa.scalar(0x9E3779B97F4A7C15, pa.uint64())
        shift = pa.scalar(29, pa.uint64())
        stripe = pa.scalar(m - 1, pa.uint64())
        zero = pa.scalar(0, pa.uint64())

        def keep(batch: pa.Table) -> pa.Table:
            # uint64 multiply wraps (unchecked kernel) — a deterministic
            # Fibonacci-hash stripe over vec_id
            h = pc.shift_right(
                pc.multiply(pc.cast(batch["vec_id"], pa.uint64()), golden), shift
            )
            return batch.filter(pc.equal(pc.bit_wise_and(h, stripe), zero))

        ds = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    sample = ds.limit(sample_cap).to_pandas()
    x = np.vstack(sample["embedding"].to_numpy()).astype(np.float32)
    return _normalize(x)


def _coarse_centroids(
    sf_dir: str, n_cells: int, seed: int = 17, iters: int = 8, sample_cap: int = 100_000
) -> np.ndarray:
    """Deterministic k-means on a bounded streamed sample (see
    :func:`_sample_matrix` for the unbiased-sampling contract)."""
    x = _sample_matrix(sf_dir, sample_cap)
    rng = np.random.RandomState(seed)
    centroids = x[rng.choice(len(x), min(n_cells, len(x)), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(x @ centroids.T, axis=1)
        for c in range(len(centroids)):
            members = x[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


class IvfAssign:
    """Actor-pool UDF: assign each vector to its nearest coarse centroid."""

    def __init__(self, centroids: np.ndarray):
        self.centroids = centroids

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _normalize(list_column_to_matrix(batch.column("embedding")))
        cell = np.argmax(vecs @ self.centroids.T, axis=1).astype(np.int32)
        return batch.append_column("cell", pa.array(cell, pa.int32()))


def embedding_clusters(sf_dir: str, *, n_cells: int = 16) -> ray.data.Dataset:
    """Deterministic k-means cluster assignment per vector (the IVF coarse
    quantizer exposed as a standalone clustering operator): centroids from
    a bounded streamed sample, one matmul + argmax per batch."""
    centroids = _coarse_centroids(sf_dir, n_cells)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return (
        ds.map_batches(IvfAssign(centroids), batch_format="pyarrow", zero_copy_batch=True)
        .select_columns(["vec_id", "cell"])
        .sort("vec_id")
    )


def knn_ivf(
    sf_dir: str, *, k: int = 5, n_queries: int = 4, n_cells: int = 16, n_probe: int = 4
) -> ray.data.Dataset:
    """IVF ANN: filter to the n_probe cells nearest each query, then exact
    cosine within the probed subset.  Recall < 1 by design; the scale win is
    that (n_cells - n_probe)/n_cells of the corpus is pruned by a cheap
    int comparison before any fp math."""
    centroids = _coarse_centroids(sf_dir, n_cells)
    queries, qids = _query_matrix(sf_dir, n_queries)
    probe_cells = np.argsort(-(queries @ centroids.T), axis=1)[:, :n_probe]
    all_probed = np.unique(probe_cells).tolist()

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    assigned = ds.map_batches(
        IvfAssign(centroids), batch_format="pyarrow", zero_copy_batch=True
    )

    probed_arr = pa.array(all_probed, pa.int32())

    def prune(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch["cell"], value_set=probed_arr))

    pruned = assigned.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True)

    class ProbedTopK(BruteForceTopK):
        def __init__(self):
            super().__init__(queries, qids, k)

        def __call__(self, batch: pa.Table) -> pa.Table:
            out = []
            cells = batch.column("cell").to_numpy(zero_copy_only=False)
            for qi, qid in enumerate(qids):
                keep = pa.array(np.isin(cells, probe_cells[qi]), pa.bool_())
                sub = batch.filter(keep)
                if sub.num_rows == 0:
                    continue
                solo = BruteForceTopK(
                    self.q[[qids.index(qid)]], [qid], self.k
                )
                out.append(solo(sub))
            if not out:
                return _CANDIDATE_SCHEMA.empty_table()
            return pa.concat_tables(out)

    partials = pruned.map_batches(
        ProbedTopK(), batch_format="pyarrow", zero_copy_batch=True
    )
    return _merge_topk(partials, k).sort(["query_id", "rank"])


# ---------------------------------------------------------------------------
# SQL-checkable exact variants (the driver's value-hash oracle surface)
# ---------------------------------------------------------------------------

def _cosine_f64(vecs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(n, nq) float64 cosine — double end-to-end so the 1e-6 quantized
    output lands on the same grid as DuckDB's double
    ``list_cosine_similarity`` (fp op-order differences are ~1e-15, nine
    orders of magnitude inside the grid)."""
    v = vecs.astype(np.float64)
    q = queries.astype(np.float64)
    vn = np.linalg.norm(v, axis=1, keepdims=True)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    vn[vn == 0] = 1.0
    qn[qn == 0] = 1.0
    return (v / vn) @ (q / qn).T


def _query_matrix_f64(sf_dir: str, n_queries: int) -> tuple[np.ndarray, list[int]]:
    """UN-normalized float64 query rows (the SQL oracle normalizes inside
    ``list_cosine_similarity``; normalizing twice here would drift)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def local_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(n_queries, "vec_id")

    small = ds.map_batches(local_min, batch_format="pandas").to_pandas()
    small = small.nsmallest(n_queries, "vec_id").sort_values("vec_id")
    ids = small["vec_id"].astype("int64").tolist()
    return np.vstack(small["embedding"].to_numpy()).astype(np.float64), ids


class _ExactTopK:
    """Per-batch float64 cosine partials: each query's local top-k rows
    carry the RAW float64 cosine (rank and quantization happen at the
    final per-query merge, so partials stay bit-faithful)."""

    def __init__(self, queries: np.ndarray, query_ids: list[int], k: int):
        self.q = queries
        self.query_ids = query_ids
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = list_column_to_matrix(batch.column("embedding"))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        sims = _cosine_f64(vecs, self.q)
        k = min(self.k, len(vec_ids))
        idx = np.argpartition(-sims, k - 1, axis=0)[:k] if k else np.empty((0, sims.shape[1]), np.int64)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(self.query_ids):
            for vi in idx[:, qi]:
                out_q.append(qid)
                out_v.append(int(vec_ids[vi]))
                out_s.append(float(sims[vi, qi]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


def knn_exact_ranks(
    sf_dir: str, *, k: int = 5, n_queries: int = 4
) -> ray.data.Dataset:
    """Exact cosine top-k in the driver's value-hash-checkable form:
    (query_id, rank, vec_id, cosine_e6) with rank from the float64 cosine
    (desc, vec_id asc ties) and the cosine quantized to integer 1e-6 units
    ONLY in the output (VERDICT r4 #2 — the ANN family's SQL-green row).

    Same partial-top-k combiner shape as :func:`knn_brute_force`: O(batches
    x queries x k) ever crosses the exchange, never O(N)."""
    queries, qids = _query_matrix_f64(sf_dir, n_queries)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    partials = ds.map_batches(
        _ExactTopK(queries, qids, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        top = heapq.nlargest(
            k, group.itertuples(index=False), key=lambda r: (r.cosine, -r.vec_id)
        )
        df = pd.DataFrame(top, columns=group.columns)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        df["cosine_e6"] = np.round(df["cosine"].to_numpy() * 1e6).astype(np.int64)
        return df[["query_id", "rank", "vec_id", "cosine_e6"]]

    out_schema = pa.schema(
        [(c, pa.int64()) for c in ("query_id", "rank", "vec_id", "cosine_e6")]
    )
    return bucket_exchange(
        partials,
        final_topk,
        key="query_id",
        schema=_CANDIDATE_SCHEMA,
        out_schema=out_schema,
        batch_format="pandas",
    ).sort(["query_id", "rank"])


def knn_exact_ranks_sql(k: int = 5, n_queries: int = 4) -> str:
    return f"""
WITH q AS (
    SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
    FROM embeddings ORDER BY vec_id LIMIT {n_queries}
), scored AS (
    SELECT q.query_id, e.vec_id,
           list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS cos
    FROM embeddings e CROSS JOIN q
), ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (
               PARTITION BY query_id ORDER BY cos DESC, vec_id
           ) AS rank,
           CAST(round(cos * 1000000) AS BIGINT) AS cosine_e6
    FROM scored
)
SELECT query_id, rank, vec_id, cosine_e6 FROM ranked WHERE rank <= {k}
ORDER BY query_id, rank
"""


def embedding_assign_seeds(
    sf_dir: str, *, n_seeds: int = 8
) -> ray.data.Dataset:
    """Voronoi assignment to deterministic seed vectors (the n_seeds
    smallest vec_ids): per vector, the argmax-cosine seed — the coarse
    quantizer's assignment step with NON-iterative (hence SQL-expressible)
    centroids.  Ties break to the smaller seed id; cosine quantized to
    1e-6 integer units.  One broadcast + one matmul per batch, no shuffle:
    the exact shape ``embedding_clusters``' IVF assignment runs at scale,
    now with a value-hash oracle."""
    seeds, seed_ids = _query_matrix_f64(sf_dir, n_seeds)
    sid_arr = np.asarray(seed_ids, dtype=np.int64)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        vecs = list_column_to_matrix(batch.column("embedding"))
        sims = _cosine_f64(vecs, seeds)  # (n, n_seeds), seed_ids ascending
        best = np.argmax(sims, axis=1)  # first max = smallest seed id
        cos = sims[np.arange(len(best)), best]
        return pa.table(
            {
                "vec_id": pc_cast_i64(batch["vec_id"]),
                "seed_id": pa.array(sid_arr[best]),
                "cosine_e6": pa.array(np.round(cos * 1e6).astype(np.int64)),
            }
        )

    return ds.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    ).sort("vec_id")


def pc_cast_i64(col):
    import pyarrow.compute as pc

    return pc.cast(col, pa.int64())


def embedding_assign_seeds_sql(n_seeds: int = 8) -> str:
    return f"""
WITH s AS (
    SELECT vec_id AS seed_id, CAST(embedding AS DOUBLE[]) AS se
    FROM embeddings ORDER BY vec_id LIMIT {n_seeds}
), scored AS (
    SELECT e.vec_id, s.seed_id,
           list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), s.se) AS cos,
           row_number() OVER (
               PARTITION BY e.vec_id ORDER BY
               list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), s.se) DESC,
               s.seed_id
           ) AS rn
    FROM embeddings e CROSS JOIN s
)
SELECT vec_id, seed_id, CAST(round(cos * 1000000) AS BIGINT) AS cosine_e6
FROM scored WHERE rn = 1
ORDER BY vec_id
"""


# ---------------------------------------------------------------------------
# Product quantization: the 100 TB memory-compression path
# ---------------------------------------------------------------------------

def _l2_assign(xs: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """argmin_c ||x - c||^2 per row — the ONE assignment kernel shared by
    codebook training and encoding (they must agree exactly: PQ's
    correctness is training/encode assignment consistency)."""
    d = (xs * xs).sum(1, keepdims=True) - 2.0 * (xs @ cent.T) + (cent * cent).sum(1)
    return np.argmin(d, axis=1)


def _pq_codebooks(
    sf_dir: str,
    *,
    m_subspaces: int,
    n_codes: int,
    seed: int = 41,
    iters: int = 10,
    sample_cap: int = 100_000,
) -> np.ndarray:
    """Train per-subspace k-means codebooks (Jegou et al., "Product
    Quantization for Nearest Neighbor Search", TPAMI 2011) on the bounded
    hash-stripe sample.  Returns (m, n_codes, sub_dim) float32.

    Deterministic: fixed seed per subspace, fixed iteration count."""
    if not 1 <= n_codes <= 256:
        # codes are stored as ONE uint8 each; >256 centroids would
        # silently wrap in the .astype(np.uint8) on the encode side
        raise ValueError(f"n_codes must be in [1, 256] (uint8 codes), got {n_codes}")
    # validate pure argument errors BEFORE the distributed sample scan
    from .dedup import embedding_dim

    dim = embedding_dim(sf_dir)
    if dim % m_subspaces != 0:
        raise ValueError(f"dim {dim} not divisible by m_subspaces {m_subspaces}")
    x = _sample_matrix(sf_dir, sample_cap)
    sub = dim // m_subspaces
    books = np.empty((m_subspaces, min(n_codes, len(x)), sub), dtype=np.float32)
    for mi in range(m_subspaces):
        xs = x[:, mi * sub : (mi + 1) * sub]
        rng = np.random.RandomState(seed + mi)
        cent = xs[rng.choice(len(xs), min(n_codes, len(xs)), replace=False)].copy()
        for _ in range(iters):
            assign = _l2_assign(xs, cent)
            for c in range(len(cent)):
                members = xs[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[mi] = cent
    return books


class PqEncode:
    """Actor-pool UDF: vectors -> m uint8 codes (argmin L2 per subspace).

    64-dim float32 embeddings (256 B) compress to m=8 bytes — 32x; at
    10^12 vectors that is 8 TB of codes vs 256 TB of floats, the
    difference between an in-memory index and none.  Codebooks are actor
    state, shipped once per actor via closure."""

    def __init__(self, codebooks: np.ndarray):
        self.books = codebooks  # (m, n_codes, sub)
        self.sub = codebooks.shape[2]

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.books.shape[0]
        if batch.num_rows == 0:
            # empty Arrow blocks are routine (upstream filters, block
            # over-splitting); (0, d) @ (d, c) matmul would raise
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "codes": pa.array([], pa.binary(m)),
                }
            )
        vecs = _normalize(list_column_to_matrix(batch.column("embedding")))
        codes = np.empty((len(vecs), m), dtype=np.uint8)
        for mi in range(m):
            xs = vecs[:, mi * self.sub : (mi + 1) * self.sub]
            codes[:, mi] = _l2_assign(xs, self.books[mi]).astype(np.uint8)
        # fixed-size binary from the contiguous code matrix: zero per-row
        # Python objects on the write side
        codes_arr = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(m), len(vecs), [None, pa.py_buffer(codes.tobytes())]
        )
        return pa.table({"vec_id": batch["vec_id"], "codes": codes_arr})


def pq_encode(sf_dir: str, *, m_subspaces: int = 8, n_codes: int = 256) -> ray.data.Dataset:
    """Encode every embedding to PQ codes: (vec_id, codes[m bytes])."""
    books = _pq_codebooks(sf_dir, m_subspaces=m_subspaces, n_codes=n_codes)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(PqEncode(books), batch_format="pyarrow", zero_copy_batch=True)


class PqAdcTopK:
    """Actor-pool UDF: asymmetric-distance (ADC) top-k per query over PQ
    codes.  The per-query lookup table LUT[q][mi][code] = q_sub . c_code is
    built once per actor; per batch the approximate cosine is m table
    lookups + a sum per vector — no float vector ever read."""

    def __init__(self, codebooks: np.ndarray, queries: np.ndarray, query_ids: list[int], k: int):
        m, n_codes, sub = codebooks.shape
        self.m = m
        self.k = k
        self.query_ids = query_ids
        # (nq, m, n_codes): inner product of each query subvector with
        # each code centroid — approximate cosine is the sum over mi
        self.lut = np.einsum("qms,mcs->qmc", queries.reshape(len(queries), m, sub), codebooks)

    def _codes_matrix(self, col: pa.ChunkedArray | pa.Array) -> np.ndarray:
        """(n, m) uint8 view over the fixed-size-binary data buffer —
        zero-copy when the column arrived as FixedSizeBinary(m)."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_fixed_size_binary(col.type):
            data = np.frombuffer(col.buffers()[1], dtype=np.uint8)
            start = col.offset * self.m
            return data[start : start + len(col) * self.m].reshape(-1, self.m)
        # fallback: plain binary column (e.g. codes read back from parquet)
        return np.frombuffer(b"".join(col.to_pylist()), dtype=np.uint8).reshape(-1, self.m)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        codes = self._codes_matrix(batch["codes"])
        vec_ids = batch["vec_id"].to_numpy()
        out_q, out_v, out_s = [], [], []
        cols = np.arange(self.m)
        for qi, qid in enumerate(self.query_ids):
            scores = self.lut[qi][cols, codes].sum(axis=1)  # (n,)
            kk = min(self.k, len(scores))
            if kk == 0:
                continue
            idx = np.argpartition(-scores, kk - 1)[:kk]
            out_q.extend([qid] * kk)
            out_v.extend(vec_ids[idx].tolist())
            out_s.extend(scores[idx].astype(np.float64).tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


def knn_pq(
    sf_dir: str,
    *,
    k: int = 5,
    n_queries: int = 4,
    m_subspaces: int = 8,
    n_codes: int = 256,
    refine: int | None = 8,
) -> ray.data.Dataset:
    """PQ-compressed ANN: ADC shortlist over codes, exact re-rank over the
    shortlist — the standard PQ+refinement recipe (Jegou'11 §V.C).

    Phase 1 scans ONLY codes (encode -> ADC partial top-(k*refine) + tiny
    merge); at scale the encode output is what you PERSIST (write_parquet
    the codes table once, 32x smaller than the vectors at m=8) and every
    later query scans codes, not floats.  Phase 2 reads true vectors for
    the n_queries*k*refine shortlist rows only (driver-bounded — a few KB)
    and re-scores them exactly, which repairs most ADC confusion: measured
    recall@5 on the driver's random embeddings 0.65 (m=8, no refine) ->
    1.0 (refine=8; random uniform vectors are PQ's adversarial case —
    real embedding manifolds need smaller refine).  ``refine=None`` returns the raw ADC ranking."""
    books = _pq_codebooks(sf_dir, m_subspaces=m_subspaces, n_codes=n_codes)
    queries, qids = _query_matrix(sf_dir, n_queries)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    codes = ds.map_batches(PqEncode(books), batch_format="pyarrow", zero_copy_batch=True)
    shortlist_k = k * refine if refine else k
    partials = codes.map_batches(
        PqAdcTopK(books, queries, qids, shortlist_k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    merged = _merge_topk(partials, shortlist_k)
    if not refine:
        return merged.sort(["query_id", "rank"])

    # shortlist: n_queries * k * refine (query, vec) pairs — bounded and
    # tiny by construction, the one legitimate driver materialization
    sl = merged.to_pandas()
    cand_of = {qid: frozenset(sl.loc[sl["query_id"] == qid, "vec_id"]) for qid in qids}
    union_ids = pa.array(sorted(set(sl["vec_id"])), pa.int64())

    import pyarrow.compute as pc

    def prune(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["vec_id"], value_set=union_ids))

    class RefineTopK(BruteForceTopK):
        """Exact cosine, each query restricted to its own shortlist."""

        def __call__(self, batch: pa.Table) -> pa.Table:
            vec_ids = batch["vec_id"].to_numpy()
            out = []
            for qi, qid in enumerate(self.query_ids):
                keep = pa.array(
                    np.fromiter((v in cand_of[qid] for v in vec_ids), bool, len(vec_ids))
                )
                sub = batch.filter(keep)
                if sub.num_rows:
                    out.append(BruteForceTopK(self.q[[qi]], [qid], self.k)(sub))
            if not out:
                return _CANDIDATE_SCHEMA.empty_table()
            return pa.concat_tables(out)

    rerank = (
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .map_batches(prune, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(
            RefineTopK(queries, qids, k), batch_format="pyarrow", zero_copy_batch=True
        )
    )
    return _merge_topk(rerank, k).sort(["query_id", "rank"])


def embedding_top_component(
    sf_dir: str, *, n_iter: int = 25, seed: int = 7
) -> "np.ndarray":
    """Top principal direction of the (mean-centered) embedding corpus by
    DISTRIBUTED POWER ITERATION — the iterative-linear-algebra member of
    the similarity family (k-means is the other): each round is one pass of
    per-batch partials ``(X^T (X w), column sums, row count)`` folded to the
    driver as a single d-vector; the corpus never materializes and the
    driver state is O(d) at any scale.

    Deterministic: fixed seed start, fixed iteration count, sign pinned so
    the largest-|coordinate| entry is positive.  Returns the unit d-vector
    (consumers project with it); parity vs numpy eigh pinned in
    tests/test_power_iteration.py."""
    import numpy as np

    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    # pass 0: mean vector (bounded d-vector fold)
    def mean_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {"s": pa.array([], pa.list_(pa.float64())), "n": pa.array([], pa.int64())}
            )
        x = np.vstack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        return pa.table(
            {"s": pa.array([x.sum(axis=0).tolist()]), "n": pa.array([x.shape[0]])}
        )

    def _fold_vectors(partials: ray.data.Dataset, col: str) -> list[tuple]:
        """Bounded, order-stable vector fold: partials (one d-vector per
        block — unbounded at 10^6 blocks, the sketch-tree-fold hazard)
        route to <=64 fold groups and sum WITHIN the exchange, so the
        driver pull is constant at any block count.  Sums sort their
        inputs (in-group and at the driver) so float accumulation order —
        and therefore the result — is bit-identical across runs."""
        import zlib

        vec_schema = pa.schema([(col, pa.list_(pa.float64()))])

        def tag(batch: pa.Table) -> pa.Table:
            keys = [
                zlib.crc32(np.asarray(v, np.float64).tobytes()) % 64
                for v in batch[col].to_pylist()
            ]
            return batch.append_column("fk", pa.array(keys, pa.int64()))

        def fold(group: pa.Table) -> pa.Table:
            vecs = sorted(tuple(v) for v in group[col].to_pylist())
            s = np.sum([np.asarray(v) for v in vecs], axis=0)
            return pa.table({col: pa.array([s.tolist()])})

        rows = bucket_exchange(
            partials,
            fold,
            key="fk",
            schema=vec_schema.append(pa.field("fk", pa.int64())),
            out_schema=vec_schema,
            emit=tag,
        ).take_all()  # bounded: <= 64 rows at ANY block count
        return sorted(tuple(r[col]) for r in rows)

    mean_ds = ds.map_batches(
        mean_partial, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # tiny (one (s, n) row per block); reused by both folds
    n = int(mean_ds.sum("n") or 0)
    svecs = _fold_vectors(mean_ds.select_columns(["s"]), "s")
    mu = np.sum([np.asarray(s) for s in svecs], axis=0) / max(n, 1)
    d = mu.shape[0]

    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)

    for _ in range(n_iter):
        w_b = w  # rides the UDF closure (d floats)

        def cov_partial(batch: pa.Table, w_b=w_b) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return pa.table({"v": pa.array([], pa.list_(pa.float64()))})
            x = np.vstack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(
                np.float64
            )
            xc = x - mu
            return pa.table({"v": pa.array([(xc.T @ (xc @ w_b)).tolist()])})

        vvecs = _fold_vectors(
            ds.map_batches(cov_partial, batch_format="pyarrow", zero_copy_batch=True),
            "v",
        )
        v = np.sum([np.asarray(s) for s in vvecs], axis=0)
        nv = np.linalg.norm(v)
        if nv == 0:
            break
        w = v / nv

    # pin the sign: the largest-|coordinate| entry is positive
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    return w


def ann_recall_report(
    sf_dir: str, *, k: int = 5, n_queries: int = 4
) -> pa.Table:
    """Index-quality evaluation: recall@k of each approximate method (IVF
    at two probe widths, PQ) against the exact brute-force top-k — the
    audit a vector-search deployment runs before trusting an index.

    Ground truth and candidates are both small (n_queries x k ids), so the
    comparison happens on the driver; the EXPENSIVE work (three ANN runs +
    one exact run) stays distributed.  Rows-only (recall depends on the
    learned centroids/codebooks); pytest pins the invariants instead:
    recall in [0, 1], full-probe IVF == 1, PQ re-rank >= raw PQ."""
    truth = knn_brute_force(sf_dir, k=k, n_queries=n_queries).to_pandas()
    gt = truth.groupby("query_id")["vec_id"].apply(set).to_dict()

    methods = {
        "ivf_probe1": lambda: knn_ivf(sf_dir, k=k, n_queries=n_queries, n_probe=1),
        "ivf_probe4": lambda: knn_ivf(sf_dir, k=k, n_queries=n_queries, n_probe=4),
        "ivf_full": lambda: knn_ivf(sf_dir, k=k, n_queries=n_queries, n_probe=16),
        "pq": lambda: knn_pq(sf_dir, k=k, n_queries=n_queries),
    }
    rows = {"method": [], "query_id": [], "n_hits": [], "recall_ppm": []}
    for name, run in sorted(methods.items()):
        got = run()
        df = got.to_pandas() if hasattr(got, "to_pandas") else got
        for qid, grp in df.groupby("query_id"):
            hits = len(set(grp["vec_id"]) & gt[qid])
            rows["method"].append(name)
            rows["query_id"].append(int(qid))
            rows["n_hits"].append(hits)
            rows["recall_ppm"].append(hits * 1_000_000 // k)
    return pa.table(
        {
            "method": pa.array(rows["method"], pa.string()),
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "n_hits": pa.array(rows["n_hits"], pa.int64()),
            "recall_ppm": pa.array(rows["recall_ppm"], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# simplified silhouette: the cluster-quality evaluation of the embedding
# family (Voronoi seeds = the non-iterative, hence SQL-expressible,
# centroids shared with embedding_assign_seeds)
# ---------------------------------------------------------------------------


def cluster_silhouette_report(
    sf_dir: str, *, n_seeds: int = 8
) -> ray.data.Dataset:
    """Per-cluster simplified silhouette over the deterministic seed
    assignment (the centroid-based silhouette of Hruschka et al. — a(x) =
    cosine distance to the OWN centroid, b(x) = distance to the nearest
    OTHER centroid, s = (b - a) / max(a, b)) — the fitness report run
    after any clustering step; O(n x n_seeds), never the O(n^2) exact
    silhouette.

    Hash parity via the knn_exact_ranks recipe: one identically-ordered
    float64 expression per row on both engines —

        s = ((1 - b) - (1 - a)) / max(1 - a, 1 - b)

    (a, b = top-1 / top-2 seed cosine; the subtraction order is part of
    the contract: (1-b)-(1-a) is NOT bit-equal to a-b in fp), quantized
    ONCE to 1e-6 per row, then exact integer sums.  Output keeps the sum
    (sum_sil_e6, n_members) rather than a mean: a mean would floor-divide
    a possibly-NEGATIVE sum, where numpy floors and DuckDB truncates.

    One broadcast + one matmul per batch + a tiny groupby — no shuffle
    carries vectors."""
    from ray.data.aggregate import Count, Sum

    seeds, seed_ids = _query_matrix_f64(sf_dir, n_seeds)
    sid_arr = np.asarray(seed_ids, dtype=np.int64)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    part_schema = pa.schema([("seed_id", pa.int64()), ("s_e6", pa.int64())])

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        vecs = list_column_to_matrix(batch.column("embedding"))
        sims = _cosine_f64(vecs, seeds)  # (n, n_seeds), seed ids ascending
        best = np.argmax(sims, axis=1)  # first max = smallest seed id
        a = sims[np.arange(len(best)), best]
        masked = sims.copy()
        masked[np.arange(len(best)), best] = -np.inf
        b = masked.max(axis=1)
        num = (1.0 - b) - (1.0 - a)  # EXACT oracle expression order
        den = np.maximum(1.0 - a, 1.0 - b)
        s = np.where(den == 0.0, 0.0, num / np.where(den == 0.0, 1.0, den))
        return pa.table(
            {
                "seed_id": pa.array(sid_arr[best], pa.int64()),
                "s_e6": pa.array(np.round(s * 1e6).astype(np.int64)),
            }
        )

    out_schema = pa.schema(
        [("seed_id", pa.int64()), ("n_members", pa.int64()), ("sum_sil_e6", pa.int64())]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        return pa.table(
            {
                "seed_id": batch["seed_id"],
                "n_members": pc_cast_i64(batch["n"]),
                "sum_sil_e6": pc_cast_i64(batch["s"]),
            }
        )

    return (
        ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("seed_id")
        .aggregate(Count(alias_name="n"), Sum("s_e6", alias_name="s"))
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort("seed_id")
    )


def cluster_silhouette_report_sql(n_seeds: int = 8) -> str:
    return f"""
WITH s AS (
    SELECT vec_id AS seed_id, CAST(embedding AS DOUBLE[]) AS se
    FROM embeddings ORDER BY vec_id LIMIT {n_seeds}
), scored AS (
    SELECT e.vec_id, s.seed_id,
           list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), s.se) AS cos,
           row_number() OVER (
               PARTITION BY e.vec_id ORDER BY
               list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), s.se) DESC,
               s.seed_id
           ) AS rn
    FROM embeddings e CROSS JOIN s
), pivoted AS (
    SELECT vec_id,
           max(CASE WHEN rn = 1 THEN seed_id END) AS seed_id,
           max(CASE WHEN rn = 1 THEN cos END) AS a,
           max(CASE WHEN rn = 2 THEN cos END) AS b
    FROM scored GROUP BY vec_id
), srow AS (
    SELECT seed_id,
           CASE WHEN greatest(1 - a, 1 - b) = 0 THEN 0
                ELSE CAST(round(((1 - b) - (1 - a)) / greatest(1 - a, 1 - b)
                                * 1000000) AS BIGINT) END AS s_e6
    FROM pivoted
)
SELECT seed_id, CAST(count(*) AS BIGINT) AS n_members,
       CAST(sum(s_e6) AS BIGINT) AS sum_sil_e6
FROM srow GROUP BY seed_id ORDER BY seed_id
"""


# ---------------------------------------------------------------------------
# distributed Lloyd k-means over the quantized-integer embedding grid —
# the ITERATIVE completion of the clustering family (embedding_assign_seeds
# is the non-iterative assignment step; _pq_codebooks trains on a driver
# sample).  This is full Lloyd over the WHOLE table, and it is hash-exact:
# every distance, assignment and centroid update happens in integers.
# ---------------------------------------------------------------------------


def kmeans_lloyd_embeddings(
    sf_dir: str, *, k: int = 8, iters: int = 2
) -> ray.data.Dataset:
    """Lloyd k-means over the embeddings table with ``iters`` full centroid
    updates, made cross-engine hash-exact by working on the 1e-6 integer
    grid: components quantize ONCE at the read (round(x * 1e6) -> int64),
    squared-L2 distances are exact integer sums, assignment ties break to
    the smallest cluster index (numpy first-argmin == SQL ``ORDER BY d2,
    c``), and the centroid update is the TRUNCATING integer division
    sum // n (DuckDB ``//`` semantics, mirrored by a vectorized trunc-div
    — components go negative, so floor-vs-trunc is load-bearing, the Holt
    lesson).  A cluster that loses every member keeps its previous
    centroid in both engines.  Output: (vec_id, cluster, dist2) under the
    final centroids — per-row, so the value hash certifies the whole
    iteration trajectory, not just a summary.

    Plan shape: quantize + materialize() ONCE (iterative consumers branch
    — the documented re-execution hazard); each Lloyd round is one
    map_batches pass emitting per-block (cluster, n, component-sum)
    partials — k x (dim+1) ints per block, order-independent integer
    sums, so the bounded take_all fold is safe — against closure-broadcast
    centroids (k x dim ints; at 10^12 rows the pass streams and only
    k x dim x blocks integers ever move).  Seeds are the k smallest
    vec_ids' vectors (the embedding_assign_seeds convention)."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def quant(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "q": pa.array([], pa.list_(pa.int64())),
                }
            )
        m = list_column_to_matrix(batch.column("embedding"), dtype=np.float64)
        qm = np.round(m * 1e6).astype(np.int64)
        return pa.table(
            {
                "vec_id": pc.cast(batch["vec_id"], pa.int64()),
                "q": pa.FixedSizeListArray.from_arrays(
                    pa.array(qm.reshape(-1), pa.int64()), qm.shape[1]
                ),
            }
        )

    qds = ds.map_batches(
        quant, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # seeds: k smallest vec_ids (partial top-k per batch, tiny driver merge)
    def local_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(k, "vec_id")

    small = (
        qds.map_batches(local_min, batch_format="pandas")
        .to_pandas()
        .nsmallest(k, "vec_id")
        .sort_values("vec_id")
    )
    cent = np.vstack(small["q"].to_numpy()).astype(np.int64)  # (k, dim)
    dim = cent.shape[1]

    def _d2(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        # exact int64: |q| <= ~1e6+, products <= ~4e12, dim-sums <= ~3e14
        return (
            (x * x).sum(axis=1, keepdims=True)
            - 2 * (x @ c.T)
            + (c * c).sum(axis=1)
        )

    for _ in range(iters):
        c_now = cent  # bind per-iteration (closure ships k x dim ints)

        def partial(batch: pa.Table, c_now=c_now) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return pa.table(
                    {
                        "cluster": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "s": pa.array([], pa.list_(pa.int64())),
                    }
                )
            x = list_column_to_matrix(batch.column("q"), dtype=np.int64)
            best = np.argmin(_d2(x, c_now), axis=1)
            sums = np.zeros((k, dim), np.int64)
            np.add.at(sums, best, x)  # int64: exact, order-independent
            counts = np.bincount(best, minlength=k).astype(np.int64)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(k, dtype=np.int64)),
                    "n": pa.array(counts),
                    "s": pa.FixedSizeListArray.from_arrays(
                        pa.array(sums.reshape(-1), pa.int64()), dim
                    ),
                }
            )

        parts = qds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()  # bounded: k rows per block
        tot_n = np.zeros(k, np.int64)
        tot_s = np.zeros((k, dim), np.int64)
        for r in parts:
            tot_n[int(r["cluster"])] += int(r["n"])
            tot_s[int(r["cluster"])] += np.asarray(r["s"], dtype=np.int64)
        new_cent = cent.copy()
        live = tot_n > 0
        # truncating integer division (DuckDB // semantics; sums go negative)
        nn = tot_n[live][:, None]
        new_cent[live] = np.sign(tot_s[live]) * (np.abs(tot_s[live]) // nn)
        cent = new_cent

    c_fin = cent

    def finalize(batch: pa.Table, c_fin=c_fin) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "dist2": pa.array([], pa.int64()),
                }
            )
        x = list_column_to_matrix(batch.column("q"), dtype=np.int64)
        d2 = _d2(x, c_fin)
        best = np.argmin(d2, axis=1)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster": pa.array(best.astype(np.int64)),
                "dist2": pa.array(d2[np.arange(len(best)), best].astype(np.int64)),
            }
        )

    return qds.map_batches(
        finalize, batch_format="pyarrow", zero_copy_batch=True
    ).sort("vec_id")


def kmeans_lloyd_embeddings_sql(k: int = 8, iters: int = 2, dim: int = 64) -> str:
    """Unrolled Lloyd iterations as chained CTEs: assignment (first-min
    tie to the smallest cluster), truncating-division centroid update with
    the dead-cluster carry-forward, then the final per-row assignment."""
    parts = [
        f"""
WITH q AS (
  SELECT e.vec_id, g.i AS dim,
         CAST(round(CAST(e.embedding[g.i] AS DOUBLE) * 1000000) AS BIGINT) AS v
  FROM embeddings e CROSS JOIN generate_series(1, {dim}) g(i)),
seed_ids AS (
  SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS c
  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})),
c0 AS (SELECT s.c, q.dim, q.v AS cv FROM seed_ids s JOIN q ON q.vec_id = s.vec_id)"""
    ]
    for t in range(1, iters + 1):
        p = f"c{t - 1}"
        parts.append(
            f""",
a{t} AS (
  SELECT q.vec_id, {p}.c, sum((q.v - {p}.cv) * (q.v - {p}.cv)) AS d2
  FROM q JOIN {p} ON {p}.dim = q.dim GROUP BY 1, 2),
m{t} AS (
  SELECT vec_id, c FROM (
    SELECT vec_id, c,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, c) AS rn
    FROM a{t}) WHERE rn = 1),
u{t} AS (
  SELECT m{t}.c, q.dim, CAST(sum(q.v) // count(*) AS BIGINT) AS cv
  FROM m{t} JOIN q ON q.vec_id = m{t}.vec_id GROUP BY 1, 2),
c{t} AS (
  SELECT * FROM u{t}
  UNION ALL
  SELECT p.c, p.dim, p.cv FROM c{t - 1} p
  WHERE p.c NOT IN (SELECT DISTINCT c FROM u{t}))"""
        )
    parts.append(
        f""",
af AS (
  SELECT q.vec_id, c{iters}.c, sum((q.v - c{iters}.cv) * (q.v - c{iters}.cv)) AS d2
  FROM q JOIN c{iters} ON c{iters}.dim = q.dim GROUP BY 1, 2)
SELECT vec_id, CAST(c AS BIGINT) AS cluster, CAST(d2 AS BIGINT) AS dist2
FROM (
  SELECT vec_id, c, d2,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, c) AS rn
  FROM af) WHERE rn = 1
ORDER BY vec_id"""
    )
    return "".join(parts)


# ---------------------------------------------------------------------------
# Greedy k-center coreset (Gonzalez farthest-point) — diversity selection
# ---------------------------------------------------------------------------


def kcenter_coreset_embeddings(
    sf_dir: str, *, k: int = 6
) -> ray.data.Dataset:
    """Greedy k-center coreset over the embeddings table (Gonzalez 1985
    farthest-point traversal, the 2-approximation): start from the
    smallest vec_id, then repeatedly select the point FARTHEST from the
    selected set — the diversity-selection primitive data-pruning
    pipelines use to pick maximally-spread representatives (coreset
    selection; see also "Beyond neural scaling laws"' prototypicality
    sampling).  Output: per row (vec_id, center_rank of its nearest
    selected center, d2) under the final k-center set, so the value hash
    certifies the whole selection trajectory.

    Cross-engine exactness: the kmeans_lloyd discipline — components
    quantize ONCE to the 1e-6 int grid, squared-L2 distances are exact
    int64 sums, the farthest pick breaks ties to the SMALLEST vec_id
    (numpy fold == SQL ``ORDER BY mind DESC, vec_id``), and the final
    assignment breaks distance ties to the EARLIEST-selected center.

    Plan shape: quantize + materialize() once (k-1 selection passes
    branch); each pass is one map_batches emitting a SINGLE partial row
    (block max of min-dist-to-selected, argmax vec_id, and that row's
    vector, so the driver never re-reads data) against closure-broadcast
    centers; the driver folds <= n_blocks rows per pass.  At 10^12 rows
    each pass streams; only k x dim ints ever move to the driver."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def quant(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "q": pa.array([], pa.list_(pa.int64())),
                }
            )
        m = list_column_to_matrix(batch.column("embedding"), dtype=np.float64)
        qm = np.round(m * 1e6).astype(np.int64)
        return pa.table(
            {
                "vec_id": pc.cast(batch["vec_id"], pa.int64()),
                "q": pa.FixedSizeListArray.from_arrays(
                    pa.array(qm.reshape(-1), pa.int64()), qm.shape[1]
                ),
            }
        )

    qds = ds.map_batches(
        quant, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # seed: the smallest vec_id's vector (partial min per block)
    def local_min1(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(1, "vec_id")

    seed = (
        qds.map_batches(local_min1, batch_format="pandas")
        .to_pandas()
        .nsmallest(1, "vec_id")
    )
    centers = np.vstack(seed["q"].to_numpy()).astype(np.int64)  # (1, dim)
    center_ids = [int(seed["vec_id"].iloc[0])]
    dim = centers.shape[1]

    def _d2(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        return (
            (x * x).sum(axis=1, keepdims=True)
            - 2 * (x @ c.T)
            + (c * c).sum(axis=1)
        )

    part_schema = pa.schema(
        [
            ("mind", pa.int64()),
            ("vec_id", pa.int64()),
            ("q", pa.list_(pa.int64())),
        ]
    )

    for _ in range(1, k):
        c_now = centers  # bind per-pass

        def farthest_partial(batch: pa.Table, c_now=c_now) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return part_schema.empty_table()
            x = list_column_to_matrix(batch.column("q"), dtype=np.int64)
            vids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            mind = _d2(x, c_now).min(axis=1)
            # block argmax with the smallest-vec_id tie rule
            order = np.lexsort((vids, -mind))
            b = order[0]
            return pa.table(
                {
                    "mind": pa.array([int(mind[b])], pa.int64()),
                    "vec_id": pa.array([int(vids[b])], pa.int64()),
                    "q": pa.array([x[b].tolist()], pa.list_(pa.int64())),
                }
            )

        parts = qds.map_batches(
            farthest_partial, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()  # bounded: one row per block
        best = max(parts, key=lambda r: (int(r["mind"]), -int(r["vec_id"])))
        centers = np.vstack([centers, np.asarray(best["q"], np.int64)])
        center_ids.append(int(best["vec_id"]))

    c_fin = centers

    def assign(batch: pa.Table, c_fin=c_fin) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "center_rank": pa.array([], pa.int64()),
                    "d2": pa.array([], pa.int64()),
                }
            )
        x = list_column_to_matrix(batch.column("q"), dtype=np.int64)
        d2 = _d2(x, c_fin)
        best = np.argmin(d2, axis=1)  # first min == earliest-selected center
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "center_rank": pa.array(best.astype(np.int64)),
                "d2": pa.array(d2[np.arange(len(best)), best].astype(np.int64)),
            }
        )

    return qds.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    ).sort("vec_id")


def kcenter_coreset_embeddings_sql(k: int = 6, dim: int = 64) -> str:
    """Unrolled farthest-point selection as chained CTEs: each stage joins
    points against the selected set, takes the per-point min distance, and
    picks the global argmax (mind DESC, vec_id) as the next center."""
    parts = [
        f"""
WITH q AS (
  SELECT e.vec_id, g.i AS dim,
         CAST(round(CAST(e.embedding[g.i] AS DOUBLE) * 1000000) AS BIGINT) AS v
  FROM embeddings e CROSS JOIN generate_series(1, {dim}) g(i)),
s0 AS (
  SELECT vec_id AS cid, 0 AS r
  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 1))"""
    ]
    for t in range(1, k):
        p = f"s{t - 1}"
        parts.append(
            f""",
a{t} AS (
  SELECT p.vec_id, s.r, sum((p.v - c.v) * (p.v - c.v)) AS d2
  FROM q p JOIN {p} s ON TRUE JOIN q c ON c.vec_id = s.cid AND c.dim = p.dim
  GROUP BY 1, 2),
m{t} AS (SELECT vec_id, min(d2) AS mind FROM a{t} GROUP BY 1),
n{t} AS (SELECT vec_id FROM m{t} ORDER BY mind DESC, vec_id LIMIT 1),
s{t} AS (SELECT cid, r FROM {p} UNION ALL SELECT vec_id, {t} FROM n{t})"""
        )
    parts.append(
        f""",
af AS (
  SELECT p.vec_id, s.r, sum((p.v - c.v) * (p.v - c.v)) AS d2
  FROM q p JOIN s{k - 1} s ON TRUE JOIN q c ON c.vec_id = s.cid AND c.dim = p.dim
  GROUP BY 1, 2)
SELECT vec_id, CAST(r AS BIGINT) AS center_rank, CAST(d2 AS BIGINT) AS d2
FROM (
  SELECT vec_id, r, d2,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, r) AS rn
  FROM af) WHERE rn = 1
ORDER BY vec_id"""
    )
    return "".join(parts)


# ---------------------------------------------------------------------------
# Contrastive-pair mining — hard negatives for embedding training
# ---------------------------------------------------------------------------


def contrastive_pairs_mining(
    sf_dir: str, *, k: int = 5, n_queries: int = 4
) -> ray.data.Dataset:
    """Mine contrastive training pairs for each query vector (the
    ``n_queries`` smallest vec_ids): the top-k most-similar vectors
    sharing the query's ``label`` (positives, self excluded) and the
    top-k most-similar vectors with a DIFFERENT label (hard negatives) —
    the standard mining step for contrastive embedding training (in-batch
    negatives are easy; the valuable negatives are the nearest
    wrong-label neighbors).

    Output: (query_id, role 0=positive/1=negative, rank, vec_id,
    cosine_e6), rank from float64 cosine desc with vec_id-asc ties —
    the knn_exact_ranks contract per (query, role) slice.

    Scale shape: one broadcast of the query matrix + labels; each batch
    emits per-(query, role) LOCAL top-k partials (raw float64 cosine so
    ranking happens once at the bounded final merge); the exchange carries
    O(batches x queries x 2k) rows at any corpus size."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def local_minq(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(n_queries, "vec_id")

    small = (
        ds.map_batches(local_minq, batch_format="pandas")
        .to_pandas()
        .nsmallest(n_queries, "vec_id")
        .sort_values("vec_id")
    )
    queries = np.vstack(small["embedding"].to_numpy()).astype(np.float64)
    qids = small["vec_id"].astype("int64").tolist()
    qlabels = small["label"].astype("int64").to_numpy()

    out_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("role", pa.int64()),
            ("vec_id", pa.int64()),
            ("cosine", pa.float64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        vecs = list_column_to_matrix(batch.column("embedding"))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        labels = pc.cast(batch.column("label"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        sims = _cosine_f64(vecs, queries)  # (n, nq)
        out_q, out_r, out_v, out_s = [], [], [], []
        for qi, qid in enumerate(qids):
            same = (labels == qlabels[qi]) & (vec_ids != qid)
            for role, mask in ((0, same), (1, labels != qlabels[qi])):
                idx = np.flatnonzero(mask)
                if len(idx) == 0:
                    continue
                s = sims[idx, qi]
                top = idx[np.argsort(-s, kind="stable")[: min(k, len(idx))]]
                out_q.extend([qid] * len(top))
                out_r.extend([role] * len(top))
                out_v.extend(vec_ids[top].tolist())
                out_s.extend(sims[top, qi].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "role": pa.array(out_r, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        top = heapq.nsmallest(
            k, group.itertuples(index=False), key=lambda r: (-r.cosine, r.vec_id)
        )
        df = pd.DataFrame(top, columns=group.columns)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        df["cosine_e6"] = np.round(df["cosine"].to_numpy() * 1e6).astype(np.int64)
        return df[["query_id", "role", "rank", "vec_id", "cosine_e6"]]

    schema = _CANDIDATE_SCHEMA.insert(1, pa.field("role", pa.int64()))
    out_schema = pa.schema(
        [(c, pa.int64()) for c in ("query_id", "role", "rank", "vec_id", "cosine_e6")]
    )
    return bucket_exchange(
        partials,
        final_topk,
        key=["query_id", "role"],
        schema=schema,
        out_schema=out_schema,
        batch_format="pandas",
    ).sort(["query_id", "role", "rank"])


def contrastive_pairs_mining_sql(k: int = 5, n_queries: int = 4) -> str:
    return f"""
WITH q AS (
    SELECT vec_id AS query_id, CAST(label AS BIGINT) AS qlabel,
           CAST(embedding AS DOUBLE[]) AS qe
    FROM embeddings ORDER BY vec_id LIMIT {n_queries}
), scored AS (
    SELECT q.query_id, e.vec_id,
           CASE WHEN CAST(e.label AS BIGINT) = q.qlabel THEN 0 ELSE 1 END AS role,
           list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS cos
    FROM embeddings e CROSS JOIN q
    WHERE NOT (CAST(e.label AS BIGINT) = q.qlabel AND e.vec_id = q.query_id)
), ranked AS (
    SELECT query_id, role, vec_id,
           row_number() OVER (
               PARTITION BY query_id, role ORDER BY cos DESC, vec_id
           ) AS rank,
           CAST(round(cos * 1000000) AS BIGINT) AS cosine_e6
    FROM scored
)
SELECT query_id, role, rank, vec_id, cosine_e6 FROM ranked WHERE rank <= {k}
ORDER BY query_id, role, rank
"""


# ---------------------------------------------------------------------------
# Scalar quantization (SQ8): the simplest vector-compression path
# ---------------------------------------------------------------------------


def sq8_knn_ranks(
    sf_dir: str, *, k: int = 5, n_queries: int = 4
) -> ray.data.Dataset:
    """Top-k nearest neighbours through 8-bit SCALAR quantization — the
    industry-standard 4x vector compression (FAISS SQ8 / Lucene int8
    KNN) that PQ refines: per dimension, the corpus min/max define 256
    uniform levels; each component stores one byte; queries stay
    full-precision and score against DECODED levels (asymmetric ADC).

    Exact-integer contract (hence SQL-checkable, unlike float SQ):
    components quantize once to the 1e-6 grid; ``code = (v - vmin) * 255
    // (vmax - vmin)`` and ``decoded = vmin + code * (vmax - vmin) //
    255`` are all-int64 floor divisions on non-negative numerators
    (floor == trunc, identical in DuckDB); d2 = exact int64 sum; ranks
    break ties (d2, vec_id).

    Plan shape: per-dim min/max from one pass of dim-vector block
    partials (driver folds <= 2 x dim ints per block); codes + distances
    are a second streaming pass against the broadcast query matrix with
    per-batch local top-k partials — the knn family's combiner shape."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def quant(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "q": pa.array([], pa.list_(pa.int64())),
                }
            )
        m = list_column_to_matrix(batch.column("embedding"), dtype=np.float64)
        qm = np.round(m * 1e6).astype(np.int64)
        return pa.table(
            {
                "vec_id": pc.cast(batch["vec_id"], pa.int64()),
                "q": pa.FixedSizeListArray.from_arrays(
                    pa.array(qm.reshape(-1), pa.int64()), qm.shape[1]
                ),
            }
        )

    qds = ds.map_batches(
        quant, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # three consumers branch (stats, queries, scoring)

    # pass 1: per-dim min/max partials (one row per block)
    def minmax_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {
                    "lo": pa.array([], pa.list_(pa.int64())),
                    "hi": pa.array([], pa.list_(pa.int64())),
                }
            )
        x = list_column_to_matrix(batch.column("q"), dtype=np.int64)
        return pa.table(
            {
                "lo": pa.array([x.min(axis=0).tolist()], pa.list_(pa.int64())),
                "hi": pa.array([x.max(axis=0).tolist()], pa.list_(pa.int64())),
            }
        )

    parts = qds.map_batches(
        minmax_partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # bounded: one row per block
    vmin = np.min(np.vstack([np.asarray(r["lo"], np.int64) for r in parts]), axis=0)
    vmax = np.max(np.vstack([np.asarray(r["hi"], np.int64) for r in parts]), axis=0)
    span = np.maximum(vmax - vmin, 1)  # degenerate dims code to 0 anyway

    # queries: n_queries smallest vec_ids, full-precision grid values
    def local_minq(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(n_queries, "vec_id")

    small = (
        qds.map_batches(local_minq, batch_format="pandas")
        .to_pandas()
        .nsmallest(n_queries, "vec_id")
        .sort_values("vec_id")
    )
    qmat = np.vstack(small["q"].to_numpy()).astype(np.int64)  # (nq, dim)
    qids = small["vec_id"].astype("int64").tolist()

    out_schema = pa.schema(
        [("query_id", pa.int64()), ("vec_id", pa.int64()), ("d2", pa.int64())]
    )

    def score_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        x = list_column_to_matrix(batch.column("q"), dtype=np.int64)
        vids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        codes = (x - vmin) * 255 // span  # non-negative // : floor == trunc
        dec = vmin + codes * (vmax - vmin) // 255
        out_q, out_v, out_d = [], [], []
        for qi, qid in enumerate(qids):
            diff = dec - qmat[qi]
            d2 = (diff * diff).sum(axis=1)
            kk = min(k, len(vids))
            top = np.lexsort((vids, d2))[:kk]
            out_q.extend([qid] * kk)
            out_v.extend(vids[top].tolist())
            out_d.extend(d2[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "d2": pa.array(out_d, pa.int64()),
            }
        )

    partials = qds.map_batches(
        score_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        top = heapq.nsmallest(
            k, group.itertuples(index=False), key=lambda r: (r.d2, r.vec_id)
        )
        df = pd.DataFrame(top, columns=group.columns)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["query_id", "rank", "vec_id", "d2"]]

    return bucket_exchange(
        partials,
        final_topk,
        key="query_id",
        schema=out_schema,
        out_schema=out_schema.insert(1, pa.field("rank", pa.int64())),
        batch_format="pandas",
    ).sort(["query_id", "rank"])


def sq8_knn_ranks_sql(k: int = 5, n_queries: int = 4, dim: int = 64) -> str:
    return f"""
WITH q AS (
  SELECT e.vec_id, g.i AS dim,
         CAST(round(CAST(e.embedding[g.i] AS DOUBLE) * 1000000) AS BIGINT) AS v
  FROM embeddings e CROSS JOIN generate_series(1, {dim}) g(i)),
stats AS (
  SELECT dim, min(v) AS vmin, max(v) AS vmax,
         greatest(max(v) - min(v), 1) AS span
  FROM q GROUP BY 1),
dec AS (
  SELECT q.vec_id, q.dim,
         s.vmin + ((q.v - s.vmin) * 255 // s.span) * (s.vmax - s.vmin) // 255
           AS d
  FROM q JOIN stats s ON s.dim = q.dim),
qq AS (
  SELECT q.vec_id AS query_id, q.dim, q.v
  FROM q WHERE q.vec_id IN (
    SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {n_queries})),
scored AS (
  SELECT qq.query_id, dec.vec_id, sum((dec.d - qq.v) * (dec.d - qq.v)) AS d2
  FROM dec JOIN qq ON qq.dim = dec.dim
  GROUP BY 1, 2),
ranked AS (
  SELECT query_id, vec_id, CAST(d2 AS BIGINT) AS d2,
         row_number() OVER (PARTITION BY query_id ORDER BY d2, vec_id) AS rank
  FROM scored)
SELECT query_id, rank, vec_id, d2 FROM ranked WHERE rank <= {k}
ORDER BY query_id, rank
"""
