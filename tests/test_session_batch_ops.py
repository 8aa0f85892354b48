"""Semantic invariants for the final-session operator batches — properties
the SQL-parity contract cannot express (the contract proves both engines
compute the same thing; these prove the thing computed is RIGHT).
"""

from __future__ import annotations

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_apportionment_sums_exactly_to_budget(ray_session):
    from docling_jobkit_ray.functions.webtext import source_token_apportionment

    t = source_token_apportionment(SF, budget=999_983)  # prime: forces top-ups
    alloc = t["alloc"].to_pylist()
    toks = t["tokens"].to_pylist()
    assert sum(alloc) == 999_983  # the whole point of largest-remainder
    # allocation is proportional within +-1 of the exact quota
    total = sum(toks)
    for a, tk in zip(alloc, toks):
        quota = 999_983 * tk / total
        assert quota - 1 <= a <= quota + 1


def test_pps_hits_sum_to_k_and_weight_by_size(ray_session):
    from docling_jobkit_ray.pipelines.warehouse import pps_sample_orders

    df = pps_sample_orders(SF, k=500).to_pandas()
    assert df["n_hits"].sum() == 500  # every sampling point lands exactly once
    assert (df["n_hits"] >= 1).all()
    # PPS property: the sampled orders' mean cents must exceed the
    # population mean (selection is proportional to size)
    import duckdb

    pop_mean = duckdb.sql(
        f"SELECT avg(round(o_totalprice*100)) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()[0]
    assert df["cents"].mean() > pop_mean


def test_division_members_really_cover_every_brand(ray_session):
    import duckdb

    from docling_jobkit_ray.pipelines.warehouse import customers_with_all_brands

    got = customers_with_all_brands(SF).to_pandas()
    assert len(got) > 0  # non-vacuous at driver scale
    # brute-force check one member and one non-member
    con = duckdb.connect()
    cov = con.execute(
        f"""
        WITH bc AS (SELECT p.p_brand b, count(DISTINCT l.l_orderkey) n
                    FROM read_parquet('{SF}/lineitem.parquet') l
                    JOIN read_parquet('{SF}/part.parquet') p ON p.p_partkey=l.l_partkey
                    GROUP BY 1),
        top AS (SELECT b FROM bc ORDER BY n DESC, b LIMIT 5)
        SELECT o.o_custkey, count(DISTINCT p.p_brand)
        FROM read_parquet('{SF}/lineitem.parquet') l
        JOIN read_parquet('{SF}/part.parquet') p ON p.p_partkey=l.l_partkey
        JOIN read_parquet('{SF}/orders.parquet') o ON o.o_orderkey=l.l_orderkey
        JOIN top t ON t.b=p.p_brand
        GROUP BY 1
        """
    ).fetchall()
    full = {ck for ck, n in cov if n == 5}
    assert set(got["custkey"]) == full


def test_division_pulls_no_fact_table_to_driver(ray_session, monkeypatch):
    """The orders and lineitem fact tables stay distributed: a
    ``take_all()`` on either one, read by the query, raises.  The result
    still matches the DuckDB oracle."""
    import duckdb

    from docling_jobkit_ray.pipelines import warehouse

    real_read_table = warehouse.read_table

    def guarded_read_table(sf_dir, name, *args, **kwargs):
        ds = real_read_table(sf_dir, name, *args, **kwargs)
        if name in ("orders", "lineitem"):

            def refuse():
                raise AssertionError(f"take_all() pulled the {name} fact table")

            ds.take_all = refuse
        return ds

    monkeypatch.setattr(warehouse, "read_table", guarded_read_table)
    got = warehouse.customers_with_all_brands(SF).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "part", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.execute(warehouse.CUSTOMERS_WITH_ALL_BRANDS_SQL).fetchall()
    assert len(want) > 0
    assert list(zip(got["custkey"], got["n_brands"])) == want


def test_rbo_bounds_and_self_similarity(ray_session):
    from docling_jobkit_ray.functions.index import _RBO_W, ranking_overlap_rbo

    t = ranking_overlap_rbo(SF).to_pandas().iloc[0]
    # rbo_q is bounded by the weight mass: sum(w_d * d // d) = sum(w_d)
    assert 0 <= t["rbo_q"] <= sum(_RBO_W)
    assert 0 <= t["overlap_at_10"] <= 10
    assert t["overlap_at_10"] <= t["overlap_at_depth"]


def test_ndcg_bounded_and_ideal_dominates(ray_session):
    from docling_jobkit_ray.functions.index import search_ndcg_report

    t = search_ndcg_report(SF).to_pandas().iloc[0]
    assert 0 <= t["ndcg_ppm"] <= 1_000_000
    assert t["dcg_q"] <= t["idcg_q"]
    assert t["idcg_q"] > 0  # query terms occur in the corpus


def test_jaccard_matrix_identities(ray_session):
    from docling_jobkit_ray.pipelines.behavior import user_jaccard_matrix

    df = user_jaccard_matrix(SF).to_pandas()
    assert (df["n_both"] <= df[["n_a", "n_b"]].min(axis=1)).all()
    assert (df["jaccard_ppm"] <= 1_000_000).all()
    # union >= max side
    assert ((df["n_a"] + df["n_b"] - df["n_both"]) >= df[["n_a", "n_b"]].max(axis=1)).all()


def test_kruskal_ranksum_identity(ray_session):
    from docling_jobkit_ray.functions.stats_tests import kruskal_rank_means

    t = kruskal_rank_means(SF).to_pandas()
    n = int(t["n_events"].sum())
    # sum of doubled rank-sums over all groups == N*(N+1) exactly
    assert int(t["ranksum2"].sum()) == n * (n + 1)


def test_mann_kendall_s_matches_bruteforce(ray_session):
    import duckdb

    from docling_jobkit_ray.functions.stats_tests import orders_trend_mann_kendall

    t = orders_trend_mann_kendall(SF).to_pandas().iloc[0]
    rev = duckdb.sql(
        f"""SELECT sum(CAST(round(o_totalprice*100) AS BIGINT)) FROM
            read_parquet('{SF}/orders.parquet')
            GROUP BY epoch_us(CAST(o_orderdate AS TIMESTAMP)) // 86400000000
            ORDER BY epoch_us(CAST(o_orderdate AS TIMESTAMP)) // 86400000000"""
    ).fetchnumpy()
    # NOTE: GROUP BY + ORDER BY the same expr: one row per day in day order
    vals = list(rev.values())[0].astype(np.int64)
    s = int(np.sign(vals[None, :] - vals[:, None])[np.triu_indices(len(vals), 1)].sum())
    assert int(t["s_stat"]) == s
    assert int(t["n_days"]) == len(vals)


def test_t_closeness_zero_for_global_class(ray_session):
    from docling_jobkit_ray.functions.quality_checks import t_closeness_report

    # with one giant len bucket every class IS the global distribution
    # restricted to its lang — EMD is still >= 0 and <= 1e6; and the
    # at_risk flag matches the threshold rule exactly
    df = t_closeness_report(SF).to_pandas()
    assert (df["emd_ppm"] >= 0).all() and (df["emd_ppm"] <= 1_000_000).all()
    assert ((df["emd_ppm"] > 400_000).astype(int) == df["at_risk"]).all()


def test_entropy_bounds(ray_session):
    from docling_jobkit_ray.functions.stats_tests import events_hourly_entropy

    df = events_hourly_entropy(SF).to_pandas()
    # hour entropy can never exceed ln(24)
    assert (df["entropy_e6"] <= round(np.log(24) * 1e6) + 1).all()
    assert (df["entropy_e6"] >= 0).all()
    assert df["peak_hour"].between(0, 23).all()


def test_band_transitions_conserve_orders(ray_session):
    import duckdb

    from docling_jobkit_ray.pipelines.warehouse import order_band_transitions

    df = order_band_transitions(SF).to_pandas()
    n_orders, n_cust = duckdb.sql(
        f"SELECT count(*), count(DISTINCT o_custkey) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()
    # every order except each customer's first contributes one transition
    assert df["n"].sum() == n_orders - n_cust


def test_abc_classes_partition_and_order(ray_session):
    from docling_jobkit_ray.pipelines.warehouse import parts_abc_classification

    df = parts_abc_classification(SF).to_pandas()
    assert set(df["abc_class"]) <= {"A", "B", "C"}
    # cum share is nondecreasing in the (rev desc, partkey) output order
    assert (np.diff(df["cum_ppm"].to_numpy()) >= 0).all()
    assert df["cum_ppm"].iloc[-1] == 1_000_000
    # class boundaries: every A row's cum <= every B row's cum, etc.
    a_max = df.loc[df["abc_class"] == "A", "cum_ppm"].max()
    c_min = df.loc[df["abc_class"] == "C", "cum_ppm"].min()
    assert a_max <= 800_000 + 1
    assert c_min > 950_000
