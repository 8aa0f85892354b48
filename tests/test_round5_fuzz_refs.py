"""Brute-force reference fuzz for the round-5-close flagship operators:
the distributed Lloyd k-means and the Naive Bayes scorer must reproduce a
straight-line single-process implementation of the SAME integer contract
EXACTLY, on seeded synthetic inputs (planted structure + edge cases the
testdata never exercises: empty docs, dead clusters, tiny k).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_embeddings(tmp: str, n: int, dim: int, seed: int, k_clusters: int = 4):
    rng = np.random.RandomState(seed)
    centers = rng.randn(k_clusters, dim).astype(np.float32) * 3
    x = (
        centers[rng.randint(0, k_clusters, n)]
        + rng.randn(n, dim).astype(np.float32) * 0.4
    ).astype(np.float32)
    ids = np.arange(100, 100 + n, dtype=np.int64)
    t = pa.table(
        {
            "vec_id": ids,
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(x.reshape(-1), pa.float32()), dim
            ),
            "label": pa.array(np.zeros(n, np.int32)),
        }
    )
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(t, f"{tmp}/embeddings.parquet")
    return ids, x.astype(np.float64)


def _ref_kmeans(ids, x, k, iters):
    q = np.round(x * 1e6).astype(np.int64)
    seed_rows = np.argsort(ids)[:k]
    cent = q[seed_rows]
    for _ in range(iters):
        d2 = ((q[:, None, :] - cent[None, :, :]) ** 2).sum(2)
        best = d2.argmin(1)
        new = cent.copy()
        for c in range(k):
            m = q[best == c]
            if len(m):
                s = m.sum(0)
                new[c] = np.sign(s) * (np.abs(s) // len(m))
        cent = new
    d2 = ((q[:, None, :] - cent[None, :, :]) ** 2).sum(2)
    best = d2.argmin(1)
    return best, d2[np.arange(len(q)), best]


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_kmeans_matches_reference(ray_session, tmp_path, seed):
    from docling_jobkit_ray.functions.similarity import kmeans_lloyd_embeddings

    d = str(tmp_path / f"km{seed}")
    ids, x = _write_embeddings(d, n=60, dim=8, seed=seed)
    got = kmeans_lloyd_embeddings(d, k=4, iters=3).to_pandas()
    ref_cluster, ref_d2 = _ref_kmeans(ids, x, k=4, iters=3)
    by_id = dict(zip(got["vec_id"].tolist(), zip(got["cluster"].tolist(),
                                                 got["dist2"].tolist())))
    for i, vid in enumerate(ids):
        assert by_id[int(vid)] == (int(ref_cluster[i]), int(ref_d2[i]))


def test_kmeans_dead_cluster_carries_forward(ray_session, tmp_path):
    # two far identical-point groups + k=3 seeds inside them: one seed
    # loses every member after the first update and must keep its centroid
    from docling_jobkit_ray.functions.similarity import kmeans_lloyd_embeddings

    d = str(tmp_path / "kmdead")
    x = np.array(
        [[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5 + [[0.001, 0.0]], np.float32
    )
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(11, dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(x.reshape(-1), pa.float32()), 2
            ),
        }
    )
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, f"{d}/embeddings.parquet")
    got = kmeans_lloyd_embeddings(d, k=3, iters=2).to_pandas()
    ref_cluster, ref_d2 = _ref_kmeans(
        np.arange(11, dtype=np.int64), x.astype(np.float64), k=3, iters=2
    )
    assert got["cluster"].tolist() == ref_cluster.tolist()
    assert got["dist2"].tolist() == ref_d2.tolist()


def _write_documents(tmp: str, n: int, seed: int):
    rng = np.random.RandomState(seed)
    langs = ["de", "en", "fr"]
    vocab = {
        "en": ["the", "cat", "runs", "fast", "shared"],
        "de": ["der", "hund", "rennt", "schnell", "shared"],
        "fr": ["le", "chat", "court", "vite", "shared"],
    }
    rows = {"doc_id": [], "text": [], "lang": [], "source": [], "n_chars": []}
    for i in range(n):
        lang = langs[rng.randint(0, 3)]
        if i % 17 == 0:
            text = "1234 !!"  # zero [a-z]+ tokens: must score the prior
        else:
            own = vocab[lang]
            other = vocab[langs[rng.randint(0, 3)]]
            words = [
                own[rng.randint(0, 5)] if rng.rand() < 0.7 else other[rng.randint(0, 5)]
                for _ in range(rng.randint(3, 30))
            ]
            text = " ".join(words)
        rows["doc_id"].append(1000 + i)
        rows["text"].append(text)
        rows["lang"].append(lang)
        rows["source"].append("syn")
        rows["n_chars"].append(len(text))
    t = pa.table(
        {
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "text": pa.array(rows["text"], pa.string()),
            "lang": pa.array(rows["lang"], pa.string()),
            "source": pa.array(rows["source"], pa.string()),
            "n_chars": pa.array(rows["n_chars"], pa.int64()),
        }
    )
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(t, f"{tmp}/documents.parquet")
    return rows


def _ref_naive_bayes(rows):
    langs = sorted(set(rows["lang"]))
    n_l = {l: rows["lang"].count(l) for l in langs}
    big_n = len(rows["lang"])
    c_lw: dict[tuple[str, str], int] = {}
    c_l = {l: 0 for l in langs}
    vocab = set()
    toks_per_doc = []
    for text, lang in zip(rows["text"], rows["lang"]):
        toks = re.findall(r"[a-z]+", text.lower())
        toks_per_doc.append(toks)
        for w in toks:
            c_lw[(lang, w)] = c_lw.get((lang, w), 0) + 1
            c_l[lang] += 1
            vocab.add(w)
    v = len(vocab)
    denom = {l: float(c_l[l] + v) for l in langs}
    dflt = {l: int(np.round(np.log(1.0 / denom[l]) * 1e6)) for l in langs}
    lp = {
        l: int(np.round(np.log(np.float64(n_l[l]) / np.float64(big_n)) * 1e6))
        for l in langs
    }
    out = []
    for toks in toks_per_doc:
        tf: dict[str, int] = {}
        for w in toks:
            tf[w] = tf.get(w, 0) + 1
        best_lang, best_score = None, None
        for l in langs:  # ascending => first strict improvement wins ties
            s = lp[l] + len(toks) * dflt[l]
            for w, f in tf.items():
                c = c_lw.get((l, w), 0)
                if c > 0:
                    lw = int(np.round(np.log((c + 1.0) / denom[l]) * 1e6))
                    s += f * (lw - dflt[l])
            if best_score is None or s > best_score:
                best_lang, best_score = l, s
        out.append((best_lang, best_score))
    return out


@pytest.mark.parametrize("seed", [3, 19])
def test_naive_bayes_matches_reference(ray_session, tmp_path, seed):
    from docling_jobkit_ray.functions.textstats import naive_bayes_lang_scores

    d = str(tmp_path / f"nb{seed}")
    rows = _write_documents(d, n=80, seed=seed)
    got = naive_bayes_lang_scores(d).to_pandas().set_index("doc_id")
    ref = _ref_naive_bayes(rows)
    for doc_id, (pred, score) in zip(rows["doc_id"], ref):
        assert got.loc[doc_id, "nb_pred"] == pred
        assert int(got.loc[doc_id, "nb_score_e6"]) == score


def _write_baskets(tmp: str, n_orders: int, n_parts: int, n_cust: int, seed: int):
    rng = np.random.RandomState(seed)
    li_o, li_p, o_k, o_c = [], [], [], []
    for ok in range(1, n_orders + 1):
        o_k.append(ok)
        o_c.append(int(rng.randint(1, n_cust + 1)))
        for _ in range(rng.randint(1, 6)):
            li_o.append(ok)
            li_p.append(int(rng.randint(0, n_parts)))  # incl. partkey 0
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(
        pa.table(
            {"l_orderkey": pa.array(li_o, pa.int64()),
             "l_partkey": pa.array(li_p, pa.int64())}
        ),
        f"{tmp}/lineitem.parquet",
    )
    pq.write_table(
        pa.table(
            {"o_orderkey": pa.array(o_k, pa.int64()),
             "o_custkey": pa.array(o_c, pa.int64())}
        ),
        f"{tmp}/orders.parquet",
    )
    pq.write_table(
        pa.table({"c_custkey": pa.array(list(range(1, n_cust + 1)), pa.int64())}),
        f"{tmp}/customer.parquet",
    )
    return li_o, li_p, o_k, o_c


def _ref_recs(li_o, li_p, o_k, o_c, top_pairs, top_n):
    baskets: dict[int, set[int]] = {}
    for o, p in zip(li_o, li_p):
        baskets.setdefault(o, set()).add(p)
    pair_w: dict[tuple[int, int], int] = {}
    for parts in baskets.values():
        for a in parts:
            for b in parts:
                if a != b:
                    pair_w[(a, b)] = pair_w.get((a, b), 0) + 1
    model = sorted(pair_w.items(), key=lambda kv: (-kv[1], kv[0]))[:top_pairs]
    cust_of = dict(zip(o_k, o_c))
    owned: dict[int, set[int]] = {}
    for o, p in zip(li_o, li_p):
        owned.setdefault(cust_of[o], set()).add(p)
    out = []
    for cust, items in owned.items():
        scores: dict[int, int] = {}
        for (a, b), w in model:
            if a in items and b not in items:
                scores[b] = scores.get(b, 0) + w
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
        for p, s in ranked:
            out.append((cust, p, s))
    return sorted(out)


@pytest.mark.parametrize("seed", [7, 23])
def test_recommendations_match_reference(ray_session, tmp_path, seed):
    # tiny top_pairs stresses the model-boundary tie rule; partkey 0 in
    # play stresses the +1 pair-key domain shift
    from docling_jobkit_ray.functions.basket import customer_recommendations

    d = str(tmp_path / f"rec{seed}")
    li_o, li_p, o_k, o_c = _write_baskets(
        d, n_orders=120, n_parts=15, n_cust=12, seed=seed
    )
    got = customer_recommendations(d, top_pairs=10, top_n=2).take_all()
    got_rows = sorted(
        (r["c_custkey"], r["rec_partkey"], r["score"]) for r in got
    )
    assert got_rows == _ref_recs(li_o, li_p, o_k, o_c, top_pairs=10, top_n=2)
