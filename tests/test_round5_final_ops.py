"""Semantic invariants for the round-5 final-session batch (ACF/CCF,
Lloyd k-means, novelty, assortativity, Naive Bayes, Simpson, mutual
information, shuffle autocorrelation) — properties the SQL-parity
contract cannot express.
"""

from __future__ import annotations

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_acf_in_range_and_lag_count(ray_session):
    from docling_jobkit_ray.functions.stats_tests import orders_daily_acf

    t = orders_daily_acf(SF)
    acf = t["acf_ppm"].to_pylist()
    assert len(acf) == 7  # lags 1..7 over a 30-day span
    assert all(-1_000_000 <= v <= 1_000_000 for v in acf)


def test_ccf_symmetric_window_and_range(ray_session):
    from docling_jobkit_ray.functions.stats_tests import events_daily_ccf

    t = events_daily_ccf(SF)
    lags = t["lag"].to_pylist()
    assert lags == list(range(-7, 8))
    assert all(-1_000_000 <= v <= 1_000_000 for v in t["r2s_ppm"].to_pylist())


def test_ccf_lag0_self_correlation_is_one(ray_session):
    # correlating a series against itself at lag 0 must give r2s = 1e6 - eps
    from docling_jobkit_ray.functions.stats_tests import events_daily_ccf

    t = events_daily_ccf(SF, x_type="click", y_type="click")
    row = dict(zip(t["lag"].to_pylist(), t["r2s_ppm"].to_pylist()))
    assert row[0] >= 999_999  # floor division may shave 1 ppm


def test_kmeans_partitions_and_improves_on_seeds(ray_session):
    from docling_jobkit_ray.functions.similarity import kmeans_lloyd_embeddings

    t0 = kmeans_lloyd_embeddings(SF, k=8, iters=0).to_pandas()  # seed assignment only
    t2 = kmeans_lloyd_embeddings(SF, k=8, iters=2).to_pandas()
    assert len(t2) == len(t0) > 0
    assert set(t2["cluster"].tolist()) <= set(range(8))
    # Lloyd never increases total within-cluster SSE on the quantized grid
    # (up to the +-k*dim/2 truncation slack of the integer centroid update
    # — negligible against these distances)
    assert sum(t2["dist2"].tolist()) <= sum(t0["dist2"].tolist())


def test_novelty_first_doc_is_all_new_and_ppm_bounded(ray_session):
    from docling_jobkit_ray.functions.textstats import doc_novelty_scores

    df = doc_novelty_scores(SF).to_pandas()
    first = df.iloc[0]
    # the smallest doc_id introduces every one of its distinct words
    assert first["new_words"] == first["n_distinct"]
    assert (df["new_words"] <= df["n_distinct"]).all()
    assert (df["novelty_ppm"] <= 1_000_000).all()
    # novelty decays: the first-half mean must exceed the second-half mean
    h = len(df) // 2
    assert df["novelty_ppm"][:h].mean() > df["novelty_ppm"][h:].mean()


def test_assortativity_bounded(ray_session):
    from docling_jobkit_ray.functions.graph import degree_assortativity_ps

    t = degree_assortativity_ps(SF)
    assert t.num_rows == 1
    v = t["assort_r2s_ppm"][0].as_py()
    assert -1_000_000 <= v <= 1_000_000
    assert t["n_edges"][0].as_py() > 0


def test_naive_bayes_beats_prior_baseline(ray_session):
    from docling_jobkit_ray.functions.textstats import naive_bayes_lang_scores

    df = naive_bayes_lang_scores(SF).to_pandas()
    acc = (df["lang"] == df["nb_pred"]).mean()
    base = df["lang"].value_counts(normalize=True).iloc[0]
    # the synthetic langs share one token distribution, so NB cannot be
    # perfect — but on its own training corpus it must do at least as well
    # as always predicting the majority class
    assert acc >= base * 0.95
    assert (df["nb_score_e6"] < 0).all()  # log-probs are negative


def test_simpson_bounds_and_effective_vocab(ray_session):
    from docling_jobkit_ray.functions.textstats import simpson_diversity_by_lang

    df = simpson_diversity_by_lang(SF).to_pandas()
    assert (df["simpson_ppm"] > 0).all()
    assert (df["simpson_ppm"] < 1_000_000).all()
    # repeat probability can never be below 1/vocab (uniform bound)
    for _, r in df.iterrows():
        assert r["simpson_ppm"] >= 1_000_000 // r["vocab"]


def test_mutual_info_nonnegative_total(ray_session):
    from docling_jobkit_ray.functions.stats_tests import lang_source_mutual_info

    t = lang_source_mutual_info(SF)
    # per-cell terms go negative, but I(X;Y) = sum/N >= 0 always
    assert sum(t["mi_contrib_e6"].to_pylist()) >= 0


def test_shuffle_autocorr_near_expectation(ray_session):
    from docling_jobkit_ray.functions.webtext import epoch_shuffle_autocorr

    t = epoch_shuffle_autocorr(SF)
    obs = t["obs_ppm"][0].as_py()
    exp = t["exp_ppm"][0].as_py()
    # the Lehmer shuffle is label-blind: observed agreement must sit near
    # the permutation expectation (binomial 5-sigma at n_pairs ~ 1000)
    n_pairs = t["n_pairs"][0].as_py()
    p = exp / 1e6
    sigma_ppm = 5 * 1e6 * np.sqrt(p * (1 - p) / n_pairs)
    assert abs(obs - exp) <= sigma_ppm


def test_transition_entropy_bounded_by_log_types(ray_session):
    from docling_jobkit_ray.pipelines.behavior import events_transition_entropy

    t = events_transition_entropy(SF)
    n_types = t.num_rows
    cap = int(np.log(5) * 1e6) + 1  # 5 event types in the corpus
    for v in t["cond_entropy_e6"].to_pylist():
        assert 0 <= v <= cap


def test_recommendations_never_owned_and_capped(ray_session):
    import duckdb

    from docling_jobkit_ray.functions.basket import customer_recommendations

    df = customer_recommendations(SF).to_pandas()
    assert (df.groupby("c_custkey").size() <= 3).all()
    owned = duckdb.sql(
        f"""SELECT DISTINCT o.o_custkey AS c, l.l_partkey AS p
            FROM read_parquet('{SF}/lineitem.parquet') l
            JOIN read_parquet('{SF}/orders.parquet') o
              ON o.o_orderkey = l.l_orderkey"""
    ).fetchdf()
    owned_keys = set(zip(owned["c"], owned["p"]))
    hits = set(zip(df["c_custkey"], df["rec_partkey"]))
    assert not (hits & owned_keys)  # never recommend what they already buy


def test_vocab_ablation_partition(ray_session):
    import duckdb

    from docling_jobkit_ray.functions.textstats import source_vocab_ablation

    df = source_vocab_ablation(SF).to_pandas()
    assert (df["exclusive"] <= df["vocab"]).all()
    total_vocab = duckdb.sql(
        f"""SELECT count(DISTINCT w) FROM (
              SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
              FROM read_parquet('{SF}/documents.parquet'))"""
    ).fetchone()[0]
    # exclusive sets are disjoint subsets of the corpus vocabulary
    assert df["exclusive"].sum() <= total_vocab


def test_interleaved_curriculum_disperses_languages(ray_session):
    from docling_jobkit_ray.functions.webtext import interleaved_curriculum

    df = interleaved_curriculum(SF).to_pandas()
    assert df["order_key"].is_monotonic_increasing
    assert df["order_key"].is_unique
    # in the interleaved prefix (all langs still live), adjacent docs
    # NEVER share a language — that is the whole construction
    n_min = df.groupby("lang").size().min()
    L = df["lang"].nunique()
    head = df.iloc[: n_min * L]
    same_adj = (head["lang"].values[1:] == head["lang"].values[:-1]).mean()
    assert same_adj == 0.0


def test_auto_join_paths_agree(ray_session):
    import pyarrow as pa
    import ray.data

    from docling_jobkit_ray.pipelines.joins import auto_join, bucketed_join

    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("rk", pa.int64()), ("rv", pa.int64())])
    left = ray.data.from_arrow(
        pa.table({"k": list(range(200)) * 2, "lv": list(range(400))})
    )
    # duplicate right keys + misses on both sides
    right = ray.data.from_arrow(
        pa.table({"rk": [5, 5, 7, 300], "rv": [50, 51, 70, 999]})
    )

    def rows(ds):
        return sorted(
            (r["k"], r["lv"], r.get("rv")) for r in ds.take_all()
        )

    for jt in ("inner", "left outer", "left semi", "left anti"):
        a = auto_join(
            left, right, on="k", right_on="rk", left_schema=ls,
            right_schema=rs, join_type=jt, est_right_rows=4,  # broadcast path
        )
        b = bucketed_join(
            left, right, on="k", right_on="rk", left_schema=ls,
            right_schema=rs, join_type=jt, num_buckets=64,
        )
        assert rows(a) == rows(b), jt


def test_auto_join_refuses_lying_estimate(ray_session):
    import pyarrow as pa
    import ray.data

    from docling_jobkit_ray.pipelines.joins import auto_join

    ls = pa.schema([("k", pa.int64())])
    rs = pa.schema([("rk", pa.int64())])
    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3]}))
    right = ray.data.from_arrow(pa.table({"rk": list(range(50))}))
    with pytest.raises(ValueError, match="refusing to broadcast"):
        auto_join(
            left, right, on="k", right_on="rk", left_schema=ls,
            right_schema=rs, est_right_rows=1, broadcast_threshold=10,
        )
