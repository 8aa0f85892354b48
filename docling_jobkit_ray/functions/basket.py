"""Market-basket association rules over order baskets.

Support / confidence / lift for directed part pairs (a -> b) where the
basket is the set of distinct parts in one order — the classic
co-occurrence mining surface (the retail analogue of the text corpus's
PMI collocations, with per-rule direction and the support threshold that
PMI does not have).

Everything stays exact-integer: supports are counts, confidence and lift
are ppm by FLOOR division (``a * 1000000 // b`` — ``round()`` is hazardous
cross-engine, CLAUDE.md), so the DuckDB oracle hashes identically.

Scale shape — ONE all-to-all carries all three count classes:

- per-batch local ``(order, part)`` distinct, then an ORDER-bucketed
  exchange (an order's basket meets in one bucket);
- per bucket: exact basket dedup, directed-pair emission by vectorized
  self-merge, and THREE partial count classes on a single disjoint int64
  key domain — pair keys ``(a+1) * 2^32 + b`` (>= 2^32 even at partkey
  0), item keys ``part`` (< 2^32), and the order-count key ``-1`` — so one ``groupby(key).sum``
  folds supports, item supports, and N together (never a two-key groupby,
  never a second exchange);
- the folded counts materialize once; the item-support side is
  DIMENSION-bounded (one row per part) and broadcasts into the rule
  finisher as two sorted numpy arrays, while rules stream through a pure
  vectorized map.

Lift multiplies ``supp_ab * N * 1e6`` in int64 — exact up to ~9e18, which
holds to ~1e6 supports on ~1e9 orders; past that the finisher should
switch to a 128-bit path (documented bound, not a silent wrap: the oracle
would diverge loudly).

Reference parity: the reference has no analytics engine; this documents
the Ray-Data-native frequent-pair mining shape (SURVEY.md aggregation
family, next to pmi_collocations).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange

_MIN_SUPPORT = 3

_BASKET_SCHEMA = pa.schema(
    [("okey", pa.int64()), ("part", pa.int64()), ("bucket", pa.int64())]
)
_COUNT_SCHEMA = pa.schema([("key", pa.int64()), ("n", pa.int64())])


def _order_baskets(sf_dir: str, n_buckets: int | None):
    """lineitem's ``(order, part)`` baskets for the order-bucketed
    exchange: -> (the lineitem read, its keyed emit, the bucket count, the
    lineitem row estimate).  The emit dedups ``(okey, part)`` per batch and
    keys each row by order, so an order's basket meets in one bucket."""
    from ..scale import bucket_count, estimate_rows
    from ..sources.pages import read_table

    est = estimate_rows(sf_dir, "lineitem")
    n_b = n_buckets or bucket_count(est)
    mask = pa.scalar(n_b - 1, pa.int64())

    def basket_partial(batch: pa.Table) -> pa.Table:
        t = (
            pa.table({"okey": batch["l_orderkey"], "part": batch["l_partkey"]})
            .group_by(["okey", "part"])
            .aggregate([])
        )
        return t.append_column("bucket", pc.bit_wise_and(t["okey"], mask))

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    return li, basket_partial, n_b, est


def _count_bucket(group: pa.Table, *, items: bool = True) -> pa.Table:
    """One order bucket's baskets -> ``_COUNT_SCHEMA`` partial counts: each
    directed pair key ``(a+1) * 2^32 + b`` with the orders holding both;
    with ``items``, also each item key ``part`` with its orders and the key
    -1 with the number of orders (orders are whole in a bucket)."""
    df = group.select(["okey", "part"]).to_pandas().drop_duplicates()
    # directed pairs within each basket
    m = df.merge(df, on="okey")
    m = m[m["part_x"] != m["part_y"]]
    # +1 shift keeps the pair domain strictly >= 2^32 even for
    # partkey 0 (which otherwise collides with the item-key domain)
    pair_key = ((m["part_x"].to_numpy() + 1) << 32) + m["part_y"].to_numpy()
    keys, ns = np.unique(pair_key, return_counts=True)
    if items:
        ik, in_ = np.unique(df["part"].to_numpy(), return_counts=True)
        keys = np.concatenate([keys, ik, np.array([-1], np.int64)])
        ns = np.concatenate([ns, in_, np.array([df["okey"].nunique()], np.int64)])
    return pa.table({"key": pa.array(keys, pa.int64()), "n": pa.array(ns, pa.int64())})


def _order_counts(sf_dir: str, n_buckets: int | None):
    """The one count fold under the rules and the co-occurrence table:
    -> (counts, item_keys, item_ns, n_orders, n_b).  ``counts`` holds the
    global count of every pair, item and the -1 order key, pinned (each
    caller reads it twice; branching re-executes the shared parent,
    CLAUDE.md); the item side comes back as key-sorted numpy arrays."""
    from ray.data.aggregate import Sum

    li, emit, n_b, _est = _order_baskets(sf_dir, n_buckets)
    counts = (
        bucket_exchange(
            li, _count_bucket, schema=_BASKET_SCHEMA, out_schema=_COUNT_SCHEMA, emit=emit
        )
        .groupby("key")
        .aggregate(Sum(on="n", alias_name="n"))
        .materialize()
    )

    # dimension-bounded side: one row per part, plus the N row at key -1
    def small_side(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _COUNT_SCHEMA.empty_table()
        t = pa.table(
            {"key": pc.cast(batch["key"], pa.int64()), "n": pc.cast(batch["n"], pa.int64())}
        )
        return t.filter(pc.less(t["key"], pa.scalar(2**32, pa.int64())))

    # bounded: one row per part (the part dimension) plus the N row
    small = counts.map_batches(small_side, batch_format="pyarrow").take_all()
    item_keys = np.array([r["key"] for r in small if r["key"] >= 0], np.int64)
    item_ns = np.array([r["n"] for r in small if r["key"] >= 0], np.int64)
    order_item = np.argsort(item_keys)
    n_orders = next((int(r["n"]) for r in small if r["key"] == -1), 0)
    return counts, item_keys[order_item], item_ns[order_item], n_orders, n_b


def basket_association_rules(
    sf_dir: str, *, min_support: int = _MIN_SUPPORT, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Directed association rules (a -> b) with ``supp_ab >= min_support``:
    columns ``a, b, supp_ab, conf_ppm, lift_ppm``, ordered by (a, b)."""
    counts, item_keys, item_ns, n_total, _n_b = _order_counts(sf_dir, n_buckets)

    out_schema = pa.schema(
        [
            ("a", pa.int64()),
            ("b", pa.int64()),
            ("supp_ab", pa.int64()),
            ("conf_ppm", pa.int64()),
            ("lift_ppm", pa.int64()),
        ]
    )
    min_s = pa.scalar(min_support, pa.int64())

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        t = batch.filter(
            pc.and_(
                pc.greater_equal(pc.cast(batch["key"], pa.int64()), pa.scalar(2**32, pa.int64())),
                pc.greater_equal(pc.cast(batch["n"], pa.int64()), min_s),
            )
        )
        if t.num_rows == 0:
            return out_schema.empty_table()
        key = t["key"].to_numpy(zero_copy_only=False)
        s = t["n"].to_numpy(zero_copy_only=False)
        a = (key >> 32) - 1
        b = key - ((a + 1) << 32)
        supp_a = item_ns[np.searchsorted(item_keys, a)]
        supp_b = item_ns[np.searchsorted(item_keys, b)]
        conf = s * 1_000_000 // supp_a
        lift = s * n_total * 1_000_000 // (supp_a * supp_b)
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "supp_ab": pa.array(s, pa.int64()),
                "conf_ppm": pa.array(conf, pa.int64()),
                "lift_ppm": pa.array(lift, pa.int64()),
            }
        )

    return (
        counts.map_batches(finish, batch_format="pyarrow")
        .sort(["a", "b"])
    )


def basket_association_rules_sql(min_support: int = _MIN_SUPPORT) -> str:
    return f"""
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
n AS (SELECT count(DISTINCT o) AS cnt FROM b),
item AS (SELECT p, count(*) AS s FROM b GROUP BY p),
ab AS (SELECT x.p AS a, y.p AS b, count(*) AS s
       FROM b x JOIN b y ON x.o = y.o AND x.p <> y.p
       GROUP BY x.p, y.p)
SELECT ab.a, ab.b,
       CAST(ab.s AS BIGINT) AS supp_ab,
       CAST(ab.s * 1000000 // ia.s AS BIGINT) AS conf_ppm,
       CAST(ab.s * (SELECT cnt FROM n) * 1000000 // (ia.s * ib.s) AS BIGINT)
         AS lift_ppm
FROM ab
JOIN item ia ON ia.p = ab.a
JOIN item ib ON ib.p = ab.b
WHERE ab.s >= {min_support}
ORDER BY ab.a, ab.b
"""


# ---------------------------------------------------------------------------
# item-item co-occurrence similarity — the recsys "customers also bought"
# ---------------------------------------------------------------------------

_COOC_K = 5


def item_cooccurrence_topk(
    sf_dir: str, *, k: int = _COOC_K, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Top-k most-similar items per item by SQUARED cosine over order
    co-occurrence: sim2(a,b) = c_ab^2 / (c_a * c_b) in ppm — the
    item-item collaborative-filtering table ("customers who bought a also
    bought b"), kept exact by scoring the SQUARE of the cosine (no sqrt
    float ever enters; the ranking is identical since cosine >= 0).

    Plan: the SAME one-exchange count fold as the association rules
    (order-bucketed baskets, directed pair keys + item keys on one
    disjoint int64 domain), then the directed pairs — which already carry
    both (a,b) and (b,a) — ride ONE item-bucketed exchange where a
    vectorized lexsort + segment cumcount keeps each item's k best by
    (sim2 DESC, neighbor ASC).  ``c_ab^2 * 1e6`` is exact in int64 up to
    c_ab ~3e6 co-orders per pair (documented bound, same class as the
    rules' lift bound — the oracle diverges loudly past it).
    """
    counts, item_keys, item_ns, _n_orders, n_b = _order_counts(sf_dir, n_buckets)

    scored_schema = pa.schema(
        [("bucket", pa.int64()), ("item", pa.int64()), ("nbr", pa.int64()),
         ("cooc", pa.int64()), ("sim2_ppm", pa.int64())]
    )
    out_schema = pa.schema(
        [("item", pa.int64()), ("nbr", pa.int64()), ("cooc", pa.int64()),
         ("sim2_ppm", pa.int64()), ("rank", pa.int64())]
    )

    def score_pairs(batch: pa.Table) -> pa.Table:
        key = pc.cast(batch["key"], pa.int64()).to_numpy(zero_copy_only=False)
        n = pc.cast(batch["n"], pa.int64()).to_numpy(zero_copy_only=False)
        is_pair = key >= 2**32
        key, n = key[is_pair], n[is_pair]
        if len(key) == 0:
            return scored_schema.empty_table()
        a = (key >> 32) - 1
        b = key - ((a + 1) << 32)
        c_a = item_ns[np.searchsorted(item_keys, a)]
        c_b = item_ns[np.searchsorted(item_keys, b)]
        sim2 = n * n * 1_000_000 // (c_a * c_b)
        return pa.table(
            {
                "bucket": pa.array(a & (n_b - 1), pa.int64()),
                "item": pa.array(a, pa.int64()),
                "nbr": pa.array(b, pa.int64()),
                "cooc": pa.array(n, pa.int64()),
                "sim2_ppm": pa.array(sim2, pa.int64()),
            }
        )

    def topk_bucket(group: pa.Table) -> pa.Table:
        item = np.asarray(group["item"], np.int64)
        nbr = np.asarray(group["nbr"], np.int64)
        cooc = np.asarray(group["cooc"], np.int64)
        sim2 = np.asarray(group["sim2_ppm"], np.int64)
        order = np.lexsort((nbr, -sim2, item))
        item, nbr, cooc, sim2 = item[order], nbr[order], cooc[order], sim2[order]
        # segment cumcount within each item run
        new_seg = np.concatenate([[True], item[1:] != item[:-1]])
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(item)), 0))
        rank = np.arange(len(item)) - seg_start + 1
        keep = rank <= k
        return pa.table(
            {
                "item": pa.array(item[keep], pa.int64()),
                "nbr": pa.array(nbr[keep], pa.int64()),
                "cooc": pa.array(cooc[keep], pa.int64()),
                "sim2_ppm": pa.array(sim2[keep], pa.int64()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    return (
        bucket_exchange(
            counts,
            topk_bucket,
            schema=scored_schema,
            out_schema=out_schema,
            emit=score_pairs,
        )
        .sort(["item", "rank"])
    )


def item_cooccurrence_topk_sql(k: int = _COOC_K) -> str:
    return f"""
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
item AS (SELECT p, count(*) AS c FROM b GROUP BY p),
ab AS (SELECT x.p AS item, y.p AS nbr, count(*) AS cooc
       FROM b x JOIN b y ON x.o = y.o AND x.p <> y.p
       GROUP BY x.p, y.p),
sc AS (SELECT ab.item, ab.nbr, ab.cooc,
              CAST(CAST(ab.cooc AS HUGEINT) * ab.cooc * 1000000
                   // (ia.c * ib.c) AS BIGINT) AS sim2_ppm
       FROM ab JOIN item ia ON ia.p = ab.item JOIN item ib ON ib.p = ab.nbr),
rk AS (SELECT *, row_number() OVER
         (PARTITION BY item ORDER BY sim2_ppm DESC, nbr) AS rank
       FROM sc)
SELECT item, nbr, CAST(cooc AS BIGINT) AS cooc, sim2_ppm, rank
FROM rk WHERE rank <= {k} ORDER BY item, rank
"""


# ---------------------------------------------------------------------------
# per-customer top-N recommendations — the user-facing layer above the
# item-item table: score candidate parts by summed co-occurrence strength
# of the customer's own items, candidates bounded by the global top-K
# association pairs (the production pattern: serve from a small model)
# ---------------------------------------------------------------------------


def customer_recommendations(
    sf_dir: str,
    *,
    top_pairs: int = 200,
    top_n: int = 3,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """"Customers who bought X also bought Y", materialized: for every
    customer, the ``top_n`` parts they do NOT own with the highest summed
    co-occurrence weight over the parts they DO own, where the model is
    the exact global top-``top_pairs`` directed pairs by
    (cooc DESC, a, b).  Bounding candidates to a fixed-size pair model is
    what keeps the op linear at any scale (an unbounded item-item join
    multiplies per-customer work by item degree — quadratic on replicated
    tiers); it is also how a serving system actually works.

    Exactness: scores are integer sums of integer co-occurrence counts;
    per-customer ranking ties break to the smaller part key; the top-K
    model boundary tie-breaks on (cooc DESC, a, b) strictly.

    Plan shape: the rules' order-bucketed pair-count exchange -> exact
    global top-K via per-block partial top-K (counts are final after the
    fold, so local winners contain the global winners) -> ONE
    okey-bucketed tagged co-shuffle resolves lineitem parts to custkeys ->
    ONE cust-bucketed fold dedups ownership globally (a customer lives in
    one bucket), scores candidates against the BROADCAST pair model by
    searchsorted segment expansion, masks owned parts, and keeps top_n
    per customer vectorized."""

    from ..scale import bucket_count, estimate_rows
    from ..sources.pages import read_table

    li, basket_partial, _n_b, est = _order_baskets(sf_dir, n_buckets)

    # NEVER groupby-aggregate the raw pair key: the sort-based aggregate
    # scales with DISTINCT-KEY cardinality (~|pairs| here — measured 13.9 s
    # at sf0.1, the Adamic-Adar lesson).  Hash pairs into buckets instead:
    # a pair's partials co-locate, so in-bucket sums are GLOBAL sums and
    # the in-bucket top-K provably contains the global top-K.
    n_hb = bucket_count(est * 2, min_buckets=64)
    hb_schema = pa.schema(
        [("hb", pa.int64()), ("key", pa.int64()), ("n", pa.int64())]
    )

    def _pair_hb(keys: np.ndarray) -> np.ndarray:
        h = (keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(13)
        return (h & np.uint64(n_hb - 1)).astype(np.int64)

    def pair_bucket(group: pa.Table) -> pa.Table:
        t = _count_bucket(group, items=False)
        return t.add_column(0, "hb", pa.array(_pair_hb(t["key"].to_numpy())))

    def fold_topk(group: pa.Table) -> pa.Table:
        tot = (
            pa.table({"key": group["key"], "n": group["n"]})
            .group_by("key")
            .aggregate([("n", "sum")])
        )
        k = np.asarray(tot["key"], np.int64)
        n = np.asarray(tot["n_sum"], np.int64)
        order = np.lexsort((k, -n))[:top_pairs]
        return pa.table(
            {"key": pa.array(k[order], pa.int64()), "n": pa.array(n[order], pa.int64())}
        )

    pair_counts = bucket_exchange(
        li,
        pair_bucket,
        schema=_BASKET_SCHEMA,
        out_schema=hb_schema,
        emit=basket_partial,
    )
    pair_rows = bucket_exchange(
        pair_counts, fold_topk, key="hb", schema=hb_schema, out_schema=_COUNT_SCHEMA
    ).take_all()  # bounded: <= top_pairs rows per hash bucket
    pk = np.array([int(r["key"]) for r in pair_rows], np.int64)
    pn = np.array([int(r["n"]) for r in pair_rows], np.int64)
    order = np.lexsort((pk, -pn))[:top_pairs]
    pk, pn = pk[order], pn[order]
    left = (pk >> 32) - 1  # model: a -> (b, w)
    nbr = pk & 0xFFFFFFFF
    srt = np.argsort(left, kind="stable")
    left, nbr, wts = left[srt], nbr[srt], pn[srt]

    # --- resolve parts to customers (okey co-shuffle), then score --------
    n_ob = bucket_count(estimate_rows(sf_dir, "orders"), min_buckets=32)
    cmask = pa.scalar(n_ob - 1, pa.int64())
    tag_schema = pa.schema(
        [("bucket", pa.int64()), ("okey", pa.int64()), ("val", pa.int64()),
         ("tag", pa.int64())]
    )

    def li_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return tag_schema.empty_table()
        t = (
            pa.table({"okey": batch["l_orderkey"], "val": batch["l_partkey"]})
            .group_by(["okey", "val"])
            .aggregate([])
        )
        ok = pc.cast(t["okey"], pa.int64())
        return pa.table(
            {
                "bucket": pc.bit_wise_and(ok, cmask),
                "okey": ok,
                "val": pc.cast(t["val"], pa.int64()),
                "tag": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        ).cast(tag_schema)

    def ord_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return tag_schema.empty_table()
        ok = pc.cast(batch["o_orderkey"], pa.int64())
        return pa.table(
            {
                "bucket": pc.bit_wise_and(ok, cmask),
                "okey": ok,
                "val": pc.cast(batch["o_custkey"], pa.int64()),
                "tag": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        ).cast(tag_schema)

    n_cb = bucket_count(estimate_rows(sf_dir, "customer"), min_buckets=32)
    ci_schema = pa.schema(
        [("cbucket", pa.int64()), ("cust", pa.int64()), ("part", pa.int64())]
    )

    def resolve_bucket(group: pa.Table) -> pa.Table:
        tag = np.asarray(group["tag"], np.int64)
        ok = np.asarray(group["okey"], np.int64)
        val = np.asarray(group["val"], np.int64)
        o_keys = ok[tag == 1]
        o_cust = val[tag == 1]
        srt_o = np.argsort(o_keys, kind="stable")
        o_keys, o_cust = o_keys[srt_o], o_cust[srt_o]
        l_keys = ok[tag == 0]
        l_part = val[tag == 0]
        pos = np.searchsorted(o_keys, l_keys)
        ok_mask = (pos < len(o_keys)) & (o_keys[np.minimum(pos, len(o_keys) - 1)] == l_keys)
        cust = o_cust[pos[ok_mask]]
        part = l_part[ok_mask]
        return pa.table(
            {
                "cbucket": pa.array(cust & (n_cb - 1), pa.int64()),
                "cust": pa.array(cust, pa.int64()),
                "part": pa.array(part, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [("c_custkey", pa.int64()), ("rec_partkey", pa.int64()),
         ("score", pa.int64())]
    )

    def score_bucket(group: pa.Table) -> pa.Table:
        ck = np.unique(
            (np.asarray(group["cust"], np.int64) << 32)
            + np.asarray(group["part"], np.int64)
        )  # global-distinct ownership: a customer lives in one bucket
        cust = ck >> 32
        part = ck & 0xFFFFFFFF
        # expand each owned item to its model pairs (left sorted)
        lo = np.searchsorted(left, part, side="left")
        hi = np.searchsorted(left, part, side="right")
        k_i = hi - lo
        total = int(k_i.sum())
        if total == 0:
            return out_schema.empty_table()
        rep_cust = np.repeat(cust, k_i)
        starts = np.repeat(lo, k_i)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(k_i)[:-1]]), k_i
        )
        idx = starts + within
        cand = nbr[idx]
        w = wts[idx]
        skey = (rep_cust << 32) + cand
        # fold scores per (cust, candidate)
        uk, inv = np.unique(skey, return_inverse=True)
        sc = np.zeros(len(uk), np.int64)
        np.add.at(sc, inv, w)
        # mask candidates the customer already owns
        owned = np.isin(uk, ck)
        uk, sc = uk[~owned], sc[~owned]
        if len(uk) == 0:
            return out_schema.empty_table()
        c = uk >> 32
        p = uk & 0xFFFFFFFF
        # top_n per customer by (score desc, part asc)
        order = np.lexsort((p, -sc, c))
        c, p, sc = c[order], p[order], sc[order]
        new_seg = np.concatenate([[True], c[1:] != c[:-1]])
        seg_start = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        rank = np.arange(len(c), dtype=np.int64) - seg_start[seg_id]
        keep = rank < top_n
        return pa.table(
            {
                "c_custkey": pa.array(c[keep], pa.int64()),
                "rec_partkey": pa.array(p[keep], pa.int64()),
                "score": pa.array(sc[keep], pa.int64()),
            }
        )

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    tagged = li.map_batches(
        li_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        orders.map_batches(ord_rows, batch_format="pyarrow", zero_copy_batch=True)
    )
    cust_items = bucket_exchange(
        tagged, resolve_bucket, schema=tag_schema, out_schema=ci_schema
    )
    return bucket_exchange(
        cust_items, score_bucket, key="cbucket", schema=ci_schema, out_schema=out_schema
    ).sort(["c_custkey", "rec_partkey"])


def customer_recommendations_sql(top_pairs: int = 200, top_n: int = 3) -> str:
    return f"""
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
ab AS (SELECT x.p AS a, y.p AS nbr, count(*) AS w
       FROM b x JOIN b y ON x.o = y.o AND x.p <> y.p
       GROUP BY x.p, y.p),
model AS (
  SELECT a, nbr, w FROM (
    SELECT a, nbr, w, row_number() OVER (ORDER BY w DESC, a, nbr) AS rn
    FROM ab) WHERE rn <= {top_pairs}),
ci AS (SELECT DISTINCT o.o_custkey AS cust, l.l_partkey AS part
       FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey),
sc AS (
  SELECT ci.cust, m.nbr, sum(m.w) AS score
  FROM ci JOIN model m ON m.a = ci.part
  WHERE NOT EXISTS (SELECT 1 FROM ci o2
                    WHERE o2.cust = ci.cust AND o2.part = m.nbr)
  GROUP BY ci.cust, m.nbr)
SELECT cust AS c_custkey, nbr AS rec_partkey, CAST(score AS BIGINT) AS score
FROM (
  SELECT cust, nbr, score,
         row_number() OVER (PARTITION BY cust ORDER BY score DESC, nbr) AS rn
  FROM sc) WHERE rn <= {top_n}
ORDER BY c_custkey, rec_partkey
"""
