"""Distributed connected components (iterative min-label propagation).

The missing last step of every pairwise-dedup pipeline: LSH / Jaccard /
simhash emit *pairs*, but "keep one doc per duplicate CLUSTER" needs the
transitive closure — A~B and B~C must collapse A, B, C together even when
A and C never matched directly.  The reference has no graph surface at all
(its dedup story stops at per-key grouping); this implements the standard
distributed label-propagation algorithm (Kang et al., HCC/PEGASUS, ICDM'09)
on Ray Data primitives:

    label(v) <- min(label(v), min_{(u,v) in E} label(u))     until fixpoint

Every iteration is two bounded exchanges — a bucketed hash join
(edges x labels, `pipelines/joins.bucketed_join`, sized off the edge count)
and a groupby-min whose shuffle is cut by a per-batch partial min — plus a
`materialize()` (an iterative algorithm MUST pin each round: branching a
lazy Dataset re-executes the whole parent chain, see CLAUDE.md).  The
convergence check is one scalar aggregate (labels only ever decrease, so
`sum(label)` is a strictly-decreasing potential until the fixpoint — no
join-against-previous needed).  Iterations needed = component diameter;
duplicate clusters are near-cliques, so 2-3 rounds in practice.

Scale notes: rows crossing any exchange are (int64, int64) pairs — text
never rides this shuffle; bucket counts derive from the edge-count estimate;
nothing materializes on the driver except the per-round scalar.  Small edge
sets (the common case: dedup pairs are sparse relative to the corpus) take
a byte-bounded driver union-find fast path instead — the same hybrid
small-side/bucketed split the minhash verifier uses.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange

_EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
_LABEL_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])


def union_find_components(a, b) -> tuple[list[int], list[int]]:
    """Pure union-find (path compression, union-by-min) over parallel edge
    arrays.  Returns (sorted nodes, component id per node) where the
    component id is the MIN node id of the component.  Kept pure (no Ray,
    no Arrow) so its invariants are hypothesis-fuzzable against a BFS
    reference."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(a, b):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            # union by MIN id so the representative is the component min
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    nodes = sorted(parent)
    return nodes, [find(n) for n in nodes]


def _collect_arrow(ds: ray.data.Dataset) -> pa.Table | None:
    """Pull a SMALL dataset to the driver as one Arrow table, with the
    empty-block hygiene every driver collection here needs: empty shuffle
    blocks can arrive column-less, and Ray skips pyarrow-format UDFs on
    empty blocks so untyped empty pandas frames can leak through
    ``to_arrow_refs`` — drop/coerce before concat.  Returns None if empty."""
    import ray as _ray

    raw = _ray.get(ds.to_arrow_refs())
    tables = []
    for t in raw:
        if isinstance(t, pd.DataFrame):
            if len(t) == 0:
                continue
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows:
            tables.append(t)
    return pa.concat_tables(tables) if tables else None


def _driver_union_find(sym: ray.data.Dataset) -> ray.data.Dataset:
    """Small-graph fast path: union-find on the driver.  Near-dup edge sets
    are tiny relative to the corpus (pairs, not docs); below the
    byte-bounded limit a single driver pass beats 3-5 rounds of distributed
    jobs by ~50x wall-clock (measured: 67s of iteration overhead for a
    256-edge graph at sf0.1)."""
    import ray as _ray

    # an empty shuffle block can arrive with a DEGRADED (column-less)
    # schema — seen only once inputs split into enough blocks (sf1-shape
    # sweep, round 4); drop empties before concat or the schema unification
    # fails.  An empty block can ALSO arrive as a raw pandas DataFrame:
    # Ray skips the upstream pyarrow-format UDF on empty blocks, so a
    # pandas-block producer (e.g. the near-dup map_groups) leaks its empty
    # frames through to_arrow_refs untyped — coerce before filtering.
    raw = _ray.get(sym.to_arrow_refs())
    tables = []
    for t in raw:
        if isinstance(t, pd.DataFrame):
            if len(t) == 0:
                continue
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows:
            tables.append(t)
    if not tables:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())})
        )
    t = pa.concat_tables(tables)
    nodes, comp = union_find_components(
        t["src"].to_numpy(zero_copy_only=False).tolist(),
        t["dst"].to_numpy(zero_copy_only=False).tolist(),
    )
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64()), "component": pa.array(comp, pa.int64())})
    )


def connected_components(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    est_edges: int | None = None,
    max_iters: int = 50,
    small_graph_limit: int = 1_000_000,
) -> ray.data.Dataset:
    """Connected components over an int64 edge list.

    ``edges`` needs each undirected edge ONCE in either direction; it is
    symmetrized here.  Returns a Dataset of (node, component) for every
    node appearing in an edge (isolated nodes are trivially their own
    component and never need to enter the shuffle), where ``component`` is
    the minimum node id of the component.

    Hybrid execution (the minhash-verify recipe): a graph whose symmetrized
    edge count is <= ``small_graph_limit`` (16-byte rows -> <=16 MB at the
    default) collapses in one driver union-find pass; larger graphs run the
    distributed propagation loop.  The branch is decided by the COUNT of
    the materialized edge list, never by an estimate.
    """
    from ..pipelines.joins import bucketed_join

    _EDGE_OUT = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def symmetrize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # empty blocks may arrive column-less from an upstream shuffle;
            # rebuild the declared schema instead of indexing into nothing
            return _EDGE_OUT.empty_table()
        a = pc.cast(batch[src], pa.int64()).combine_chunks()
        b = pc.cast(batch[dst], pa.int64()).combine_chunks()
        return pa.table(
            {
                "src": pa.chunked_array([a, b]).combine_chunks(),
                "dst": pa.chunked_array([b, a]).combine_chunks(),
            }
        )

    # pin the (symmetrized) edge list once: it is re-joined every round
    sym = edges.map_batches(
        symmetrize, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_sym = sym.count()
    if n_sym == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())})
        )
    if n_sym <= small_graph_limit:
        return _driver_union_find(sym)
    n_edges = est_edges if est_edges is not None else n_sym

    def init_labels(batch: pa.Table) -> pa.Table:
        # per-batch distinct before the global distinct groupby
        t = pa.table({"node": batch["src"]})
        return t.group_by("node").aggregate([]).select(["node"])

    from ray.data.aggregate import Count, Min

    labels = (
        sym.map_batches(init_labels, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(Count(alias_name="_n"))
        .map_batches(
            lambda b: pa.table({"node": b["node"], "label": b["node"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def partial_min(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by("node")
            .aggregate([("label", "min")])
            .rename_columns(["node", "label"])
        )

    prev_potential: int | None = None
    converged = False
    for _ in range(max_iters):
        # candidate labels: each edge forwards its src's label to dst
        joined = bucketed_join(
            sym,
            labels,
            on="src",
            right_on="node",
            left_schema=_EDGE_SCHEMA,
            right_schema=_LABEL_SCHEMA,
            est_rows=n_edges,
        )
        cand = joined.map_batches(
            lambda b: pa.table({"node": b["dst"], "label": b["label"]}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        labels = (
            cand.union(labels)
            .map_batches(partial_min, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        potential = int(labels.sum("label"))
        if potential == prev_potential:
            converged = True
            break
        prev_potential = potential

    if not converged:
        # a component with diameter > max_iters hops would carry WRONG
        # labels if we returned silently (ADVICE r3): min-label propagation
        # only guarantees the fixpoint when the potential stabilizes.
        raise RuntimeError(
            f"connected_components: label propagation did not converge in "
            f"{max_iters} iterations (graph diameter likely exceeds "
            f"max_iters); raise max_iters"
        )
    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "component": b["label"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def dup_components(sf_dir: str, *, threshold: float = 0.6) -> ray.data.Dataset:
    """Duplicate CLUSTERS of the documents table: connected components over
    the exact n-gram-Jaccard pair graph (``dedup.ngram_jaccard_pairs``) —
    the pairs-to-clusters consolidation a dedup pipeline runs before
    keeping one representative per cluster."""
    from ..scale import estimate_rows
    from .dedup import ngram_jaccard_pairs

    edges = ngram_jaccard_pairs(sf_dir, threshold=threshold).select_columns(
        ["doc_a", "doc_b"]
    )
    comp = connected_components(
        edges,
        src="doc_a",
        dst="doc_b",
        # pair count is unknown pre-run; the doc count is a fine bucket-count
        # driver (pairs per doc are near-constant for near-dup graphs)
        est_edges=estimate_rows(sf_dir, "documents"),
    )
    return comp.map_batches(
        lambda b: pa.table({"doc_id": b["node"], "component": b["component"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).sort("doc_id")


def dup_components_sql(threshold: float = 0.6, shingle_k: int = 3) -> str:
    """DuckDB oracle: the same pair graph (``ngram_jaccard_sql``) closed
    transitively with a recursive CTE (min reachable node id per node)."""
    from .dedup import ngram_jaccard_sql

    pair_sql = ngram_jaccard_sql(threshold=threshold, shingle_k=shingle_k)
    return f"""
WITH RECURSIVE
pairs AS (SELECT doc_a, doc_b FROM ({pair_sql}) p),
edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION SELECT doc_b, doc_a FROM pairs),
nodes AS (SELECT DISTINCT a AS v FROM edges),
walk(v, lbl) AS (
  SELECT v, v FROM nodes
  UNION
  SELECT e.b, w.lbl FROM walk w JOIN edges e ON e.a = w.v
)
SELECT v AS doc_id, CAST(min(lbl) AS BIGINT) AS component
FROM walk GROUP BY v ORDER BY doc_id
"""


def dedup_cluster_docs(sf_dir: str, *, threshold: float = 0.6) -> ray.data.Dataset:
    """MATERIALIZED near-dup dedup: the documents table with every
    near-duplicate CLUSTER collapsed to its min-doc_id representative —
    what the training run reads after near-dup removal (the cluster-level
    counterpart of ``dedup.dedup_exact_docs``).

    Drop-set = cluster members that are NOT their component's min (tiny:
    one int per clustered doc).  Survivors come from an ANTI join of the
    documents scan against the drop-set through the bucketed shuffle —
    texts cross the exchange exactly once, ids-only on the other side,
    nothing reaches the driver."""
    from ..pipelines.joins import bucketed_join
    from ..scale import estimate_rows
    from ..sources.pages import read_table

    comp = dup_components(sf_dir, threshold=threshold)
    drop = comp.map_batches(
        lambda b: b.filter(pc.not_equal(b["doc_id"], b["component"])).select(["doc_id"]).rename_columns(["drop_doc_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = bucketed_join(
        docs,
        drop,
        on="doc_id",
        right_on="drop_doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        right_schema=pa.schema([("drop_doc_id", pa.int64())]),
        join_type="left anti",
        est_rows=estimate_rows(sf_dir, "documents"),
    )
    return out.sort("doc_id")


def dedup_cluster_docs_sql(threshold: float = 0.6, shingle_k: int = 3) -> str:
    """DuckDB oracle: drop every node of the recursive-CTE component graph
    that is not its component's min id."""
    comp_sql = dup_components_sql(threshold=threshold, shingle_k=shingle_k)
    return f"""
SELECT doc_id, text FROM documents
WHERE doc_id NOT IN (
  SELECT doc_id FROM ({comp_sql}) c WHERE doc_id <> component
)
ORDER BY doc_id
"""


def dup_cluster_size_histogram(sf_dir: str, *, threshold: float = 0.6) -> ray.data.Dataset:
    """Duplicate-cluster SIZE distribution — the dedup health report every
    corpus audit prints (a fat tail of giant clusters means boilerplate or
    a crawler loop, not legitimate near-dups).  Two tiny folds over the
    components output: component -> size, size -> n_clusters; both key
    spaces are bounded by the (already small) duplicate-cluster count."""
    from ray.data.aggregate import Count

    comp = dup_components(sf_dir, threshold=threshold)
    sizes = comp.groupby("component").aggregate(Count(alias_name="size"))
    return (
        sizes.groupby("size")
        .aggregate(Count(alias_name="n_clusters"))
        .map_batches(
            lambda b: (
                pa.schema([("size", pa.int64()), ("n_clusters", pa.int64())]).empty_table()
                if b.num_rows == 0 or b.num_columns == 0
                else pa.table(
                    {
                        "size": pc.cast(b["size"], pa.int64()),
                        "n_clusters": pc.cast(b["n_clusters"], pa.int64()),
                    }
                )
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort("size")
    )


def dup_cluster_size_histogram_sql(threshold: float = 0.6, shingle_k: int = 3) -> str:
    return f"""
WITH comp AS ({dup_components_sql(threshold=threshold, shingle_k=shingle_k).replace("ORDER BY doc_id", "")})
SELECT size, count(*) AS n_clusters
FROM (SELECT component, count(*) AS size FROM comp GROUP BY component)
GROUP BY size ORDER BY size
"""


# ---------------------------------------------------------------------------
# PageRank (synchronous, integer-scaled) over the part<->supplier graph
# ---------------------------------------------------------------------------

_SHARE_SCHEMA = pa.schema([("snode", pa.int64()), ("share", pa.int64())])
_CSUM_SCHEMA = pa.schema([("node", pa.int64()), ("c", pa.int64())])
_DEG_SCHEMA = pa.schema([("node", pa.int64()), ("deg", pa.int64())])
_DEGJ_SCHEMA = pa.schema([("dnode", pa.int64()), ("degd", pa.int64())])


def _driver_pagerank(
    sym: ray.data.Dataset, *, iters: int, scale_e12: int, damping_pct: int
) -> ray.data.Dataset:
    """Small-graph fast path: the identical int64 PageRank recurrence run
    with numpy on the driver (all quantities nonnegative, so numpy floor
    division == the distributed path == DuckDB's truncating ``//``)."""
    t = _collect_arrow(sym)
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    nodes, src_idx = np.unique(src, return_inverse=True)
    dst_idx = np.searchsorted(nodes, dst)  # sym is symmetric: dst ⊆ nodes
    n = len(nodes)
    deg = np.bincount(src_idx, minlength=n).astype(np.int64)
    r = np.full(n, scale_e12 // n, np.int64)
    base = (100 - damping_pct) * scale_e12 // (100 * n)
    for _ in range(iters):
        c = np.zeros(n, np.int64)
        np.add.at(c, dst_idx, (r // deg)[src_idx])  # exact int64 bin sums
        r = base + (damping_pct * c) // 100
    node_type = np.where(nodes % 2 == 0, "part", "supplier")
    key = nodes // 2
    order = np.lexsort((key, node_type))
    return ray.data.from_arrow(
        pa.table(
            {
                "node_type": pa.array(node_type[order]),
                "key": pa.array(key[order], pa.int64()),
                "rank_e12": pa.array(r[order], pa.int64()),
            }
        )
    )


def pagerank_part_supplier(
    sf_dir: str,
    *,
    iters: int = 5,
    scale_e12: int = 10**12,
    damping_pct: int = 85,
    small_graph_limit: int = 1_000_000,
    node_budget: int = 2_000_000,
) -> ray.data.Dataset:
    """Distributed synchronous PageRank over the bipartite part<->supplier
    graph induced by lineitem (an undirected edge per DISTINCT
    (l_partkey, l_suppkey) pair) — the canonical iterative graph algorithm
    next to ``connected_components``, and the influence/centrality scorer a
    webtext pipeline runs over its link graph.

    Kept HASH-EXACT against a DuckDB oracle by running the whole iteration
    in scaled int64 arithmetic (every quantity nonnegative, so Python
    floor-division == DuckDB truncating ``//``):

        share(u)  = r(u) // deg(u)
        r'(v)     = (100-d)*S // (100*N)  +  d * sum_{u~v} share(u) // 100

    with S = 1e12, d = 85, N = node count; the oracle unrolls ``iters``
    rounds as chained CTEs computing the identical integer recurrence.
    Every node has deg >= 1 by construction (nodes come FROM edges) so
    there is no dangling-mass correction on either side.

    Three-tier hybrid execution, decided by MEASURED counts (never
    estimates), all three running the identical integer recurrence:

    1. edges <= ``small_graph_limit`` (16 MB of int64 pairs): numpy on the
       driver — 5 rounds of distributed overhead would dominate a tiny
       graph ~50x.
    2. nodes <= ``node_budget`` (48 MB of rank/degree arrays at the 2M
       default): ranks BROADCAST, edges streamed — each round is one
       embarrassingly-parallel pass over the (possibly 100 TB) edge list
       plus one bounded groupby; this is the webtext regime (billions of
       edges, millions of hosts).
    3. otherwise fully distributed: degrees attached to the edge list once,
       then per round one bucketed hash join (edges x ranks, bucket count
       derived from the edge count) + one groupby-sum cut by per-batch
       partial folds, with a ``materialize()`` per round (iteration rounds
       MUST pin — branching a lazy Dataset re-executes the parent chain).
    """
    from ray.data.aggregate import Count, Sum

    from ..pipelines.joins import bucketed_join
    from ..scale import estimate_rows
    from ..sources.pages import read_table

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def pair_key(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("pair", pa.int64())]).empty_table()
        pair = pc.add(
            pc.multiply(pc.cast(batch["l_partkey"], pa.int64()), 2**32),
            pc.cast(batch["l_suppkey"], pa.int64()),
        )
        # per-batch distinct before the global distinct groupby
        return pa.table({"pair": pair}).group_by("pair").aggregate([])

    pairs = (
        li.map_batches(pair_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pair")
        .aggregate(Count(alias_name="_n"))
    )

    def to_adj(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _EDGE_SCHEMA.empty_table()
        pair = batch["pair"]
        p = pc.divide(pair, 2**32)
        s = pc.subtract(pair, pc.multiply(p, 2**32))
        pn = pc.multiply(p, 2)  # part node id = 2k
        sn = pc.add(pc.multiply(s, 2), 1)  # supplier node id = 2k+1
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [pc.cast(pn, pa.int64()).combine_chunks(),
                     pc.cast(sn, pa.int64()).combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [pc.cast(sn, pa.int64()).combine_chunks(),
                     pc.cast(pn, pa.int64()).combine_chunks()]
                ),
            }
        )

    sym = pairs.map_batches(
        to_adj, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_edges = sym.count()

    if n_edges <= small_graph_limit:
        # byte-bounded driver fast path (the connected_components hybrid):
        # below ~16 MB of (int64, int64) edges, 5 numpy rounds beat
        # 10 distributed exchanges of overhead by ~50x wall-clock.  The
        # arithmetic is the IDENTICAL int64 recurrence, so the branch is
        # invisible to the oracle.
        return _driver_pagerank(
            sym, iters=iters, scale_e12=scale_e12, damping_pct=damping_pct
        )

    deg = (
        sym.groupby("src")
        .aggregate(Count(alias_name="deg"))
        .map_batches(
            lambda b: pa.table(
                {"node": b["src"], "deg": pc.cast(b["deg"], pa.int64())}
            )
            if b.num_rows and b.num_columns
            else _DEG_SCHEMA.empty_table(),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    n_nodes = deg.count()
    r0 = scale_e12 // n_nodes
    base = (100 - damping_pct) * scale_e12 // (100 * n_nodes)

    if n_nodes <= node_budget:
        # broadcast-ranks tier: the rank/degree arrays fit a bounded
        # worker-heap budget (3 int64 arrays = 48 MB at the 2M default)
        # even when the EDGE list is enormous — ranks are per-node, edges
        # per-pair.  Each round is ONE embarrassingly-parallel pass over
        # the materialized edge list (shares shipped via closure capture:
        # once per stage into the object store, never per batch) + one
        # groupby whose shuffle carries <= n_nodes partials per block +
        # a driver update of exactly n_nodes rows.  Scales in EDGES;
        # node growth past the budget falls through to the bucketed tier.
        nd = _collect_arrow(deg)
        nodes_arr = nd["node"].to_numpy(zero_copy_only=False)
        order = np.argsort(nodes_arr, kind="stable")
        nodes_arr = np.ascontiguousarray(nodes_arr[order])
        deg_arr = np.ascontiguousarray(
            nd["deg"].to_numpy(zero_copy_only=False)[order]
        )
        r = np.full(n_nodes, r0, np.int64)
        for _ in range(iters):
            shares = r // deg_arr

            def contrib(
                batch: pa.Table, na=nodes_arr, sh=shares
            ) -> pa.Table:
                if batch.num_rows == 0 or batch.num_columns == 0:
                    return _CSUM_SCHEMA.empty_table()
                src = batch["src"].to_numpy(zero_copy_only=False)
                dst = batch["dst"].to_numpy(zero_copy_only=False)
                sv = sh[np.searchsorted(na, src)]
                uniq, inv = np.unique(dst, return_inverse=True)
                c = np.zeros(len(uniq), np.int64)
                np.add.at(c, inv, sv)  # exact int64 partial sums
                return pa.table(
                    {"node": pa.array(uniq, pa.int64()), "c": pa.array(c)}
                )

            csum = (
                sym.map_batches(
                    contrib, batch_format="pyarrow", zero_copy_batch=True
                )
                .groupby("node")
                .aggregate(Sum("c", alias_name="c"))
            )
            ct = _collect_arrow(csum)
            cn = ct["node"].to_numpy(zero_copy_only=False)
            cc = ct["c"].to_numpy(zero_copy_only=False).astype(np.int64)
            c_full = np.zeros(n_nodes, np.int64)
            c_full[np.searchsorted(nodes_arr, cn)] = cc
            r = base + (damping_pct * c_full) // 100
        node_type = np.where(nodes_arr % 2 == 0, "part", "supplier")
        key = nodes_arr // 2
        oo = np.lexsort((key, node_type))
        return ray.data.from_arrow(
            pa.table(
                {
                    "node_type": pa.array(node_type[oo]),
                    "key": pa.array(key[oo], pa.int64()),
                    "rank_e12": pa.array(r[oo], pa.int64()),
                }
            )
        )

    # fully-distributed tier: nodes exceed the broadcast budget.  Attach
    # deg(dst) to the edge list ONCE so a round never needs a second join
    # to re-acquire degrees: per round = 1 bucketed hash join (edges x
    # ranks) + 1 groupby-sum (per-batch partial fold), then materialize
    # (iteration rounds MUST pin — branching a lazy Dataset re-executes
    # the parent chain).
    degj = deg.map_batches(
        lambda b: pa.table({"dnode": b["node"], "degd": b["deg"]})
        if b.num_rows and b.num_columns
        else _DEGJ_SCHEMA.empty_table(),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    symd_schema = pa.schema(
        [("src", pa.int64()), ("dst", pa.int64()), ("degd", pa.int64())]
    )
    symd = bucketed_join(
        sym,
        degj,
        on="dst",
        right_on="dnode",
        left_schema=_EDGE_SCHEMA,
        right_schema=_DEGJ_SCHEMA,
        est_rows=n_edges,
    ).materialize()

    state_schema = pa.schema(
        [("node", pa.int64()), ("deg", pa.int64()), ("r", pa.int64())]
    )
    state = deg.map_batches(
        lambda b: b.append_column("r", pa.array([r0] * b.num_rows, pa.int64()))
        if b.num_rows and b.num_columns
        else state_schema.empty_table(),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    def to_shares(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _SHARE_SCHEMA.empty_table()
        return pa.table(
            {
                "snode": batch["node"],
                "share": pc.cast(pc.divide(batch["r"], batch["deg"]), pa.int64()),
            }
        )

    partial_schema = pa.schema(
        [("node", pa.int64()), ("c", pa.int64()), ("deg", pa.int64())]
    )

    def partial_csum(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return partial_schema.empty_table()
        t = (
            pa.table(
                {"node": batch["dst"], "c": batch["share"], "deg": batch["degd"]}
            )
            .group_by("node")
            .aggregate([("c", "sum"), ("deg", "min")])
        )
        return t.rename_columns(["node", "c", "deg"])

    from ray.data.aggregate import Min

    for _ in range(iters):
        shares = state.map_batches(
            to_shares, batch_format="pyarrow", zero_copy_batch=True
        )
        joined = bucketed_join(
            symd,
            shares,
            on="src",
            right_on="snode",
            left_schema=symd_schema,
            right_schema=_SHARE_SCHEMA,
            est_rows=n_edges,
        )
        csum = (
            joined.map_batches(
                partial_csum, batch_format="pyarrow", zero_copy_batch=True
            )
            .groupby("node")
            .aggregate(Sum("c", alias_name="c"), Min("deg", alias_name="deg"))
        )
        state = csum.map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"],
                    "deg": pc.cast(b["deg"], pa.int64()),
                    "r": pc.cast(
                        pc.add(
                            base,
                            pc.divide(pc.multiply(b["c"], damping_pct), 100),
                        ),
                        pa.int64(),
                    ),
                }
            )
            if b.num_rows and b.num_columns
            else state_schema.empty_table(),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()

    def project(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("node_type", pa.string()),
                    ("key", pa.int64()),
                    ("rank_e12", pa.int64()),
                ]
            ).empty_table()
        node = batch["node"]
        return pa.table(
            {
                "node_type": pc.if_else(
                    pc.equal(pc.bit_wise_and(node, 1), 0),
                    pa.scalar("part"),
                    pa.scalar("supplier"),
                ),
                "key": pc.cast(pc.divide(node, 2), pa.int64()),
                "rank_e12": batch["r"],
            }
        )

    return state.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["node_type", "key"])


def pagerank_part_supplier_sql(
    iters: int = 5, scale_e12: int = 10**12, damping_pct: int = 85
) -> str:
    head = f"""
WITH edges AS (SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem),
adj AS (SELECT p * 2 AS src, s * 2 + 1 AS dst FROM edges
        UNION ALL SELECT s * 2 + 1, p * 2 FROM edges),
deg AS (SELECT src AS node, count(*) AS deg FROM adj GROUP BY src),
nn AS (SELECT count(*) AS n FROM deg),
r0 AS (SELECT node, CAST({scale_e12} // nn.n AS BIGINT) AS r FROM deg, nn)"""
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(f""",
c{i} AS (
  SELECT a.dst AS node, sum(r{i - 1}.r // d.deg) AS c
  FROM adj a
  JOIN r{i - 1} ON r{i - 1}.node = a.src
  JOIN deg d ON d.node = a.src
  GROUP BY a.dst
),
r{i} AS (
  SELECT c{i}.node,
         CAST({(100 - damping_pct) * scale_e12} // (100 * nn.n)
              + ({damping_pct} * c{i}.c) // 100 AS BIGINT) AS r
  FROM c{i}, nn
)""")
    return (
        head
        + "".join(rounds)
        + f"""
SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS node_type,
       node // 2 AS key,
       r AS rank_e12
FROM r{iters}
ORDER BY node_type, key
"""
    )


# ---------------------------------------------------------------------------
# BFS hop distances (the third member of the graph trio: components /
# pagerank / shortest unweighted paths)
# ---------------------------------------------------------------------------

BFS_SEED_SUPPLIERS = (1, 2, 3)
BFS_MAX_HOPS = 4


def bfs_hops_part_supplier(
    sf_dir: str,
    *,
    seed_suppliers: tuple[int, ...] = BFS_SEED_SUPPLIERS,
    max_hops: int = BFS_MAX_HOPS,
    small_graph_limit: int = 1_000_000,
    node_budget: int = 2_000_000,
) -> ray.data.Dataset:
    """Unweighted shortest-path (BFS) hop distance from a seed supplier set
    over the bipartite part<->supplier graph induced by lineitem — the
    reachability/radius query of the graph family.  Returns every node
    within ``max_hops`` hops as (node_type, key, hop), hop = exact minimum.

    Three-tier hybrid (the pagerank recipe, every tier decided by MEASURED
    counts): edges <= ``small_graph_limit`` run synchronous rounds of
    vectorized ``np.minimum.at`` relaxation on the driver; nodes <=
    ``node_budget`` run frontier-BROADCAST edge streaming — per round the
    sorted frontier id array rides the UDF closure (once per stage, never
    per batch) and ONE embarrassingly-parallel pass over the pinned edge
    list emits per-batch-distinct discovered nodes, whose distinct fold
    (bounded by n_nodes) updates a driver-side distance vector: NO join
    shuffle per round, measured 15x faster than the bucketed-join
    loop at sf0.1 (10 s vs 156 s — per-round all-to-alls over the full edge
    list dominate BFS, whose frontier is tiny relative to edges); beyond
    the budget, bucketed-join frontier expansion with a min-fold union.
    All tiers compute the identical recurrence the recursive-CTE oracle
    unrolls; iteration-round Datasets are materialized (branching a lazy
    Dataset re-executes the parent chain)."""
    from ray.data.aggregate import Count, Min

    from ..pipelines.joins import bucketed_join
    from ..sources.pages import read_table

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def pair_key(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("pair", pa.int64())]).empty_table()
        pair = pc.add(
            pc.multiply(pc.cast(batch["l_partkey"], pa.int64()), 2**32),
            pc.cast(batch["l_suppkey"], pa.int64()),
        )
        return pa.table({"pair": pair}).group_by("pair").aggregate([])

    pairs = (
        li.map_batches(pair_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pair")
        .aggregate(Count(alias_name="_n"))
    )

    def to_adj(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _EDGE_SCHEMA.empty_table()
        pair = batch["pair"]
        p = pc.divide(pair, 2**32)
        s = pc.subtract(pair, pc.multiply(p, 2**32))
        pn = pc.multiply(p, 2)
        sn = pc.add(pc.multiply(s, 2), 1)
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [pc.cast(pn, pa.int64()).combine_chunks(),
                     pc.cast(sn, pa.int64()).combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [pc.cast(sn, pa.int64()).combine_chunks(),
                     pc.cast(pn, pa.int64()).combine_chunks()]
                ),
            }
        )

    sym = pairs.map_batches(
        to_adj, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_edges = sym.count()
    seed_nodes = sorted(2 * s + 1 for s in seed_suppliers)

    def finish(tbl: pa.Table) -> ray.data.Dataset:
        order = pc.sort_indices(
            tbl, sort_keys=[("node_type", "ascending"), ("key", "ascending")]
        )
        return ray.data.from_arrow(tbl.take(order))

    def decode(node: np.ndarray, hop: np.ndarray) -> pa.Table:
        kind = np.where(node % 2 == 0, "part", "supplier")
        return pa.table(
            {
                "node_type": pa.array(kind, pa.string()),
                "key": pa.array(node // 2, pa.int64()),
                "hop": pa.array(hop, pa.int64()),
            }
        )

    if n_edges <= small_graph_limit:
        t = _collect_arrow(sym)
        if t is None:
            return ray.data.from_arrow(decode(np.empty(0, np.int64), np.empty(0, np.int64)))
        src = t["src"].to_numpy()
        dst = t["dst"].to_numpy()
        nodes = np.unique(src)  # sym is symmetric: src covers every node
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        inf = np.int64(1) << 60
        dist = np.full(len(nodes), inf, np.int64)
        present = np.isin(np.asarray(seed_nodes, np.int64), nodes)
        dist[np.searchsorted(nodes, np.asarray(seed_nodes, np.int64)[present])] = 0
        for _ in range(max_hops):
            nd = dist[si] + 1  # snapshot BEFORE update: synchronous rounds
            np.minimum.at(dist, di, nd)
        keep = dist <= max_hops
        return finish(decode(nodes[keep], dist[keep]))

    # node count decides the broadcast tier (nodes are far fewer than
    # edges; the distinct fold carries one int64 per node)
    def node_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": batch["src"]}).group_by("node").aggregate([])

    from ray.data.aggregate import Count as _Count

    nodes_ds = (
        sym.map_batches(node_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(_Count(alias_name="_n"))
        .materialize()
    )
    n_nodes = nodes_ds.count()

    if n_nodes <= node_budget:
        # frontier-broadcast tier: one streaming pass over the edge list
        # per round, driver state = two bounded arrays (node ids + hops)
        nt = _collect_arrow(nodes_ds)
        nodes_arr = np.sort(nt["node"].to_numpy(zero_copy_only=False))
        inf = np.int64(1) << 60
        dist = np.full(n_nodes, inf, np.int64)
        seeds_np = np.asarray(seed_nodes, np.int64)
        present = np.isin(seeds_np, nodes_arr)
        seed_idx = np.searchsorted(nodes_arr, seeds_np[present])
        dist[seed_idx] = 0
        frontier = np.sort(nodes_arr[seed_idx])
        for r in range(1, max_hops + 1):
            if len(frontier) == 0:
                break

            def expand(batch: pa.Table, fr=frontier) -> pa.Table:
                if batch.num_rows == 0 or batch.num_columns == 0:
                    return pa.schema([("node", pa.int64())]).empty_table()
                src = batch["src"].to_numpy(zero_copy_only=False)
                idx = np.searchsorted(fr, src)
                idx[idx == len(fr)] = 0
                hit = fr[idx] == src
                dsts = np.unique(batch["dst"].to_numpy(zero_copy_only=False)[hit])
                return pa.table({"node": pa.array(dsts, pa.int64())})

            reached = _collect_arrow(
                sym.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)
                .groupby("node")
                .aggregate(_Count(alias_name="_n"))
            )
            if reached is None:
                break
            cand = reached["node"].to_numpy(zero_copy_only=False)
            ci = np.searchsorted(nodes_arr, cand)
            newly = dist[ci] > r
            dist[ci[newly]] = r
            frontier = np.sort(cand[newly])
        keep = dist <= max_hops
        return finish(decode(nodes_arr[keep], dist[keep]))

    # fully-distributed tier: bucketed-join frontier expansion
    label_schema = pa.schema([("node", pa.int64()), ("hop", pa.int64())])
    seed_arr = pa.array(seed_nodes, pa.int64())

    def seed_init(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return label_schema.empty_table()
        hits = batch.filter(pc.is_in(batch["src"], value_set=seed_arr))
        t = pa.table({"node": hits["src"]}).group_by("node").aggregate([])
        return pa.table(
            {
                "node": t["node"],
                "hop": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
            }
        )

    dist = (
        sym.map_batches(seed_init, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(Min("hop", alias_name="hop"))
        .materialize()
    )
    frontier = dist

    def partial_min(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by("node")
            .aggregate([("hop", "min")])
            .rename_columns(["node", "hop"])
        )

    for r in range(1, max_hops + 1):
        joined = bucketed_join(
            sym,
            frontier,
            on="src",
            right_on="node",
            left_schema=_EDGE_SCHEMA,
            right_schema=label_schema,
            est_rows=n_edges,
        )
        cand = joined.map_batches(
            lambda b, _r=r: (
                label_schema.empty_table()
                if b.num_rows == 0 or b.num_columns == 0
                else pa.table(
                    {
                        "node": b["dst"],
                        "hop": pc.add(b["hop"], pa.scalar(1, pa.int64())),
                    }
                )
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        dist = (
            cand.union(dist)
            .map_batches(partial_min, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("node")
            .aggregate(Min("hop", alias_name="hop"))
            .materialize()
        )
        frontier = dist.map_batches(
            lambda b, _r=r: (
                label_schema.empty_table()
                if b.num_rows == 0 or b.num_columns == 0
                else b.filter(pc.equal(b["hop"], pa.scalar(_r, pa.int64())))
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        if frontier.count() == 0:
            break

    def decode_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("node_type", pa.string()), ("key", pa.int64()), ("hop", pa.int64())]
            ).empty_table()
        node = batch["node"].to_numpy()
        return decode(node, batch["hop"].to_numpy())

    return dist.map_batches(
        decode_batch, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["node_type", "key"])


def bfs_hops_part_supplier_sql(
    seed_suppliers: tuple[int, ...] = BFS_SEED_SUPPLIERS,
    max_hops: int = BFS_MAX_HOPS,
) -> str:
    seeds = ", ".join(str(2 * s + 1) for s in seed_suppliers)
    return f"""
WITH RECURSIVE
edges AS (SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem),
adj AS (SELECT p * 2 AS src, s * 2 + 1 AS dst FROM edges
        UNION ALL SELECT s * 2 + 1, p * 2 FROM edges),
seeds AS (SELECT DISTINCT src AS v FROM adj WHERE src IN ({seeds})),
bfs(v, hop) AS (
  SELECT v, 0 FROM seeds
  UNION
  SELECT a.dst, bfs.hop + 1 FROM bfs JOIN adj a ON a.src = bfs.v
  WHERE bfs.hop < {max_hops}
)
SELECT CASE WHEN v % 2 = 0 THEN 'part' ELSE 'supplier' END AS node_type,
       CAST(v // 2 AS BIGINT) AS key,
       CAST(min(hop) AS BIGINT) AS hop
FROM bfs GROUP BY v
ORDER BY node_type, key
"""


# ---------------------------------------------------------------------------
# triangle counting (the third classic graph kernel, after components,
# PageRank and BFS): exact per-vertex triangle participation counts over
# the part co-purchase graph
# ---------------------------------------------------------------------------

_TRI_PAIR_SCHEMA = pa.schema(
    [("okey", pa.int64()), ("part", pa.int64()), ("bucket", pa.int64())]
)
_TRI_WEDGE_SCHEMA = pa.schema(
    [("qkey", pa.int64()), ("b", pa.int64()), ("bucket", pa.int64())]
)


def part_triangle_counts(
    sf_dir: str, *, min_qty: int = 35, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Exact per-part triangle counts over the co-purchase graph: an
    undirected edge joins two DISTINCT parts that appear in the same order
    (both lineitems with ``l_quantity >= min_qty`` — the thinning predicate
    that keeps the graph sparse; co-occurrence graphs saturate without
    one).  A part's count is the number of triangles it participates in —
    the local clustering signal used to find tightly-bundled product
    groups, and on a webtext link graph, mirror farms.

    The classic compact-forward shape, expressed as bucketed exchanges
    (bucket counts derived from the lineitem footer row count):

    1. ORDER-bucketed exchange: lineitems of one order meet in one bucket;
       a vectorized self-merge emits candidate edges ``u < v`` (local
       dedup only — the same pair can arise from many orders in many
       buckets).
    2. Global edge DISTINCT: int64-keyed ``groupby(edge).aggregate([])``
       (u*2^32+v — single combined key, never a two-key groupby).
    3. CENTER-bucketed wedge emission: each edge lands at both endpoints
       (lower endpoint tagged "above", upper tagged "below"); per center
       vertex b, below x above cross-product emits wedges a < b < c with
       query key a*2^32+c.
    4. Membership co-shuffle: wedges and edges ride ONE tagged-union
       exchange keyed by the (a,c) pair key; a wedge whose closing edge
       is present in its bucket is a triangle (``pc.is_in`` per bucket —
       no join materializes).  Per-bucket partial (part, n) counts fold
       the three corners immediately, so triangle rows never cross again.
    5. Bounded ``groupby(partkey).sum`` finishes.

    No stage materializes the graph on the driver; every intermediate is
    proportional to edges + wedges, and wedge volume is bounded by the
    thinned degree distribution (sum over centers of below*above).

    Reference parity: the reference has no graph engine; this documents
    the Ray-Data-native triangle-count shape (SURVEY.md graph family,
    alongside connected_components / pagerank / bfs_hops).
    """
    from ray.data.aggregate import Sum

    from ..scale import bucket_count, estimate_rows

    est = estimate_rows(sf_dir, "lineitem")
    n_b = n_buckets or bucket_count(est)
    edges = _tri_edges_ds(sf_dir, min_qty, n_b)
    return (
        _tri_partials_ds(edges, n_b)
        .groupby("partkey")
        .aggregate(Sum(on="n", alias_name="n_triangles"))
        .sort("partkey")
    )


def _tri_edges_ds(sf_dir: str, min_qty: int, n_b: int) -> ray.data.Dataset:
    """Distinct co-purchase edges ``u < v`` packed as ``u*2^32 + v``
    (column ``edge``), materialized once — the wedge and member sides both
    branch from it (CLAUDE.md: branching re-executes the shared parent)."""
    from ray.data.aggregate import Count

    from ..sources.pages import read_table

    mask = pa.scalar(n_b - 1, pa.int64())
    qty = pa.scalar(float(min_qty))

    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_partkey", "l_quantity"]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch["l_quantity"], qty)
        t = batch.filter(keep)
        # local (order, part) distinct before the exchange (duplicate
        # lineitems of one part collapse; global dedup is at edge level)
        t = (
            pa.table({"okey": t["l_orderkey"], "part": t["l_partkey"]})
            .group_by(["okey", "part"])
            .aggregate([])
        )
        return t.append_column("bucket", pc.bit_wise_and(t["okey"], mask))

    def edge_bucket(group: pa.Table) -> pa.Table:
        df = group.select(["okey", "part"]).to_pandas()
        m = df.merge(df, on="okey")
        m = m[m["part_x"] < m["part_y"]]
        edge = (m["part_x"].to_numpy() << 32) + m["part_y"].to_numpy()
        return pa.table({"edge": pa.array(np.unique(edge), pa.int64())})

    return (
        bucket_exchange(
            li,
            edge_bucket,
            schema=_TRI_PAIR_SCHEMA,
            out_schema=pa.schema([("edge", pa.int64())]),
            emit=pair_partial,
        )
        .groupby("edge")
        .aggregate(Count(alias_name="_n"))
        .materialize()
    )


def _tri_partials_ds(edges: ray.data.Dataset, n_b: int) -> ray.data.Dataset:
    """Per-bucket ``(partkey, n)`` triangle-corner partials from the
    distinct edge set: compact-forward wedge emission + the membership
    co-shuffle that closes wedges without a join (steps 3-4 of the
    part_triangle_counts plan)."""
    mask = pa.scalar(n_b - 1, pa.int64())

    def wedge_emit(batch: pa.Table) -> pa.Table:
        e = pc.cast(batch["edge"], pa.int64())
        u = pc.divide(e, 2**32)  # nonnegative: floor == trunc
        v = pc.subtract(e, pc.multiply(u, 2**32))
        # qkey < 0 marks endpoint roles pre-wedge: row at center v sees
        # neighbor u below it (-1), row at center u sees v above (-2)
        center = pa.concat_arrays(
            [pc.cast(v, pa.int64()).combine_chunks(),
             pc.cast(u, pa.int64()).combine_chunks()]
        )
        other = pa.concat_arrays(
            [pc.cast(u, pa.int64()).combine_chunks(),
             pc.cast(v, pa.int64()).combine_chunks()]
        )
        side = pa.concat_arrays(
            [pa.array([0] * len(batch), pa.int64()),
             pa.array([1] * len(batch), pa.int64())]
        )
        return pa.table(
            {
                "qkey": other,
                "b": pc.add(pc.multiply(center, 2), side),  # center*2 + side
                "bucket": pc.bit_wise_and(center, mask),
            }
        )

    def wedge_bucket(group: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "center": group["b"].to_numpy(zero_copy_only=False) >> 1,
                "side": group["b"].to_numpy(zero_copy_only=False) & 1,
                "other": group["qkey"].to_numpy(zero_copy_only=False),
            }
        )
        below = df[df["side"] == 0][["center", "other"]]
        above = df[df["side"] == 1][["center", "other"]]
        w = below.merge(above, on="center")  # a < center < c by key order
        qkey = (w["other_x"].to_numpy() << 32) + w["other_y"].to_numpy()
        return pa.table(
            {
                "qkey": pa.array(qkey, pa.int64()),
                "b": pa.array(w["center"].to_numpy(), pa.int64()),
                "bucket": pa.array(qkey & (n_b - 1), pa.int64()),
            }
        )

    wedges = bucket_exchange(
        edges,
        wedge_bucket,
        schema=_TRI_WEDGE_SCHEMA,
        out_schema=_TRI_WEDGE_SCHEMA,
        emit=wedge_emit,
    )

    def member_emit(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _TRI_WEDGE_SCHEMA.empty_table()
        e = pc.cast(batch["edge"], pa.int64())
        return pa.table(
            {
                "qkey": e,
                "b": pa.array([-1] * len(batch), pa.int64()),
                "bucket": pc.bit_wise_and(e, mask),
            }
        )

    members = edges.map_batches(
        member_emit, batch_format="pyarrow", zero_copy_batch=True
    )

    out_schema = pa.schema([("partkey", pa.int64()), ("n", pa.int64())])

    def close_bucket(group: pa.Table) -> pa.Table:
        is_mem = pc.equal(group["b"], pa.scalar(-1, pa.int64()))
        mem = pc.filter(group["qkey"], is_mem).combine_chunks()
        w = group.filter(pc.invert(is_mem))
        if w.num_rows == 0 or len(mem) == 0:
            return out_schema.empty_table()
        tri = w.filter(pc.is_in(w["qkey"], value_set=mem))
        if tri.num_rows == 0:
            return out_schema.empty_table()
        a = pc.divide(tri["qkey"], 2**32)
        c = pc.subtract(tri["qkey"], pc.multiply(a, 2**32))
        parts = pa.concat_arrays(
            [pc.cast(a, pa.int64()).combine_chunks(),
             pc.cast(tri["b"], pa.int64()).combine_chunks(),
             pc.cast(c, pa.int64()).combine_chunks()]
        )
        partial = (
            pa.table(
                {"partkey": parts, "n": pa.array([1] * len(parts), pa.int64())}
            )
            .group_by("partkey")
            .aggregate([("n", "sum")])
        )
        return partial.rename_columns(["partkey", "n"])

    return bucket_exchange(
        wedges.union(members),
        close_bucket,
        schema=_TRI_WEDGE_SCHEMA,
        out_schema=out_schema,
    )


def part_clustering_coeff(
    sf_dir: str, *, min_qty: int = 35, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Local clustering coefficient per part over the co-purchase graph:
    ``cc(v) = 2*T(v) / (deg(v) * (deg(v) - 1))`` for every node with
    degree >= 2, emitted as ppm by integer floor division — the
    community-tightness signal next to the raw triangle counts (a node in
    a clique scores 1e6; a pure hub scores 0).

    Same exchanges as part_triangle_counts plus one: the distinct edge
    set additionally emits per-endpoint degree partials, and BOTH partial
    streams (triangle corners tagged ``deg=0``, degrees tagged ``n=0``)
    fold through ONE ``groupby(partkey)`` — a tagged union instead of a
    partkey join, so the all-to-all count stays at the triangle plan + 0
    (the edge set is already materialized).  Nodes with degree >= 2 and
    no triangles keep cc = 0 rows (never filter-to-empty: an all-filtered
    Dataset loses its schema).

    Exactness: T <= deg*(deg-1)/2 so ``2*T*1e6`` stays int64 up to
    deg ~ 3e6 — beyond any thinned co-purchase degree; floor division is
    identical in numpy and DuckDB ``//`` for nonnegative ints.
    """
    from ray.data.aggregate import Sum

    from ..scale import bucket_count, estimate_rows

    est = estimate_rows(sf_dir, "lineitem")
    n_b = n_buckets or bucket_count(est)
    edges = _tri_edges_ds(sf_dir, min_qty, n_b)

    tri_schema = pa.schema(
        [("partkey", pa.int64()), ("n", pa.int64()), ("deg", pa.int64())]
    )

    def tri_tag(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return tri_schema.empty_table()
        return pa.table(
            {
                "partkey": batch["partkey"],
                "n": batch["n"],
                "deg": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
            }
        )

    def deg_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return tri_schema.empty_table()
        e = pc.cast(batch["edge"], pa.int64())
        u = pc.divide(e, 2**32)
        v = pc.subtract(e, pc.multiply(u, 2**32))
        nodes = pa.concat_arrays(
            [pc.cast(u, pa.int64()).combine_chunks(),
             pc.cast(v, pa.int64()).combine_chunks()]
        )
        part = (
            pa.table(
                {"partkey": nodes, "deg": pa.array([1] * len(nodes), pa.int64())}
            )
            .group_by("partkey")
            .aggregate([("deg", "sum")])
            .rename_columns(["partkey", "deg"])
        )
        return pa.table(
            {
                "partkey": part["partkey"],
                "n": pa.array(np.zeros(part.num_rows, np.int64), pa.int64()),
                "deg": part["deg"],
            }
        )

    both = (
        _tri_partials_ds(edges, n_b)
        .map_batches(tri_tag, batch_format="pyarrow", zero_copy_batch=True)
        .union(
            edges.map_batches(deg_partial, batch_format="pyarrow", zero_copy_batch=True)
        )
    )

    out = both.groupby("partkey").aggregate(
        Sum(on="n", alias_name="n_triangles"),
        Sum(on="deg", alias_name="degree"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("partkey", pa.int64()),
                ("degree", pa.int64()),
                ("n_triangles", pa.int64()),
                ("cc_ppm", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        batch = batch.filter(
            pc.greater_equal(batch["degree"], pa.scalar(2, pa.int64()))
        )
        d = batch["degree"]
        cc = pc.divide(
            pc.multiply(batch["n_triangles"], pa.scalar(2_000_000, pa.int64())),
            pc.multiply(d, pc.subtract(d, pa.scalar(1, pa.int64()))),
        )
        return pa.table(
            {
                "partkey": batch["partkey"],
                "degree": d,
                "n_triangles": batch["n_triangles"],
                "cc_ppm": pc.cast(cc, pa.int64()),
            }
        )

    return out.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True
    ).sort("partkey")


def part_clustering_coeff_sql(min_qty: int = 35) -> str:
    return f"""
WITH f AS (SELECT l_orderkey, l_partkey FROM lineitem
           WHERE l_quantity >= {min_qty}),
e AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
      FROM f a JOIN f b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
deg AS (SELECT partkey, count(*) AS degree
        FROM (SELECT u AS partkey FROM e UNION ALL SELECT v FROM e)
        GROUP BY partkey),
tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM e e1
        JOIN e e2 ON e1.v = e2.u
        JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v),
tcnt AS (SELECT partkey, count(*) AS n_triangles
         FROM (SELECT a AS partkey FROM tri
               UNION ALL SELECT b FROM tri
               UNION ALL SELECT c FROM tri)
         GROUP BY partkey)
SELECT d.partkey, d.degree,
       coalesce(t.n_triangles, 0) AS n_triangles,
       (2 * coalesce(t.n_triangles, 0) * 1000000)
         // (d.degree * (d.degree - 1)) AS cc_ppm
FROM deg d LEFT JOIN tcnt t USING (partkey)
WHERE d.degree >= 2
ORDER BY d.partkey
"""


def part_triangle_counts_sql(min_qty: int = 35) -> str:
    return f"""
WITH f AS (SELECT l_orderkey, l_partkey FROM lineitem
           WHERE l_quantity >= {min_qty}),
e AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
      FROM f a JOIN f b
      ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM e e1
        JOIN e e2 ON e1.v = e2.u
        JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v)
SELECT partkey, count(*) AS n_triangles
FROM (SELECT a AS partkey FROM tri
      UNION ALL SELECT b FROM tri
      UNION ALL SELECT c FROM tri)
GROUP BY partkey
ORDER BY partkey
"""


# ---------------------------------------------------------------------------
# Adamic-Adar link prediction over the supplier-part bipartite graph
# ---------------------------------------------------------------------------

_AA_MIN_QTY = 45
_AA_TOP_K = 100


def adamic_adar_part_pairs(
    sf_dir: str,
    *,
    min_qty: int = _AA_MIN_QTY,
    k: int = _AA_TOP_K,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Adamic-Adar link prediction (Adamic & Adar 2003) over the
    supplier-part bipartite graph: the top-k part pairs most likely to be
    "related" because they share suppliers, where each shared supplier s
    contributes 1/ln(deg(s)) — a rare boutique supplier carrying both
    parts is strong evidence, a supplier that stocks everything is weak
    evidence.  The classic common-neighbor recommender score that raw
    co-occurrence counting (``item_cooccurrence_topk``) cannot express.

    Exactness: each supplier's weight quantizes ONCE to
    ``round(1e6 / ln(deg))`` (the quantized-log discipline — exact .5
    after an irrational ln is measure-zero, and numpy vs DuckDB double
    ``ln``/division agree bit-for-bit on these magnitudes); pair scores
    are then exact int64 SUMS of quantized weights.  Degree-1 suppliers
    emit no pairs, so ln(1)=0 never divides.

    Plan shape: the basket pair-emission pattern — high-quantity lineitem
    rows thin the bipartite graph (|edges| stays supplier-degree-bounded),
    ONE suppkey-bucketed exchange co-locates each supplier's part list,
    the in-bucket kernel dedups edges / computes degrees / emits
    weight-summed pair partials vectorized, and a global int64-keyed
    groupby-sum + top-k sort finishes.  Pairs are quadratic per SUPPLIER
    degree, never per corpus — the same bound as triangle counting
    (graph.py part_triangle_counts).
    """

    from ..scale import bucket_count, estimate_rows
    from ..sources.pages import read_table

    est = estimate_rows(sf_dir, "lineitem")
    n_b = n_buckets or bucket_count(est)
    mask = pa.scalar(n_b - 1, pa.int64())

    li = read_table(
        sf_dir, "lineitem", columns=["l_suppkey", "l_partkey", "l_quantity"]
    )

    edge_schema = pa.schema(
        [("s", pa.int64()), ("p", pa.int64()), ("bucket", pa.int64())]
    )
    pair_schema = pa.schema([("key", pa.int64()), ("w", pa.int64())])
    cand_schema = pair_schema.insert(0, pa.field("pbucket", pa.int64()))

    def edge_partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.greater_equal(batch["l_quantity"], pa.scalar(float(min_qty)))
        )
        t = (
            pa.table(
                {
                    "s": pc.cast(t["l_suppkey"], pa.int64()),
                    "p": pc.cast(t["l_partkey"], pa.int64()),
                }
            )
            .group_by(["s", "p"])
            .aggregate([])
        )
        return t.append_column("bucket", pc.bit_wise_and(t["s"], mask))

    def pair_bucket(group: pa.Table) -> pa.Table:
        # global-distinct edges via ONE combined int64 key (batch-local
        # distinct is not global distinct), sorted so segment members are
        # ascending by part — pair keys come out a<b for free
        ek = np.unique(
            (np.asarray(group["s"], np.int64) << 32)
            + np.asarray(group["p"], np.int64)
        )
        s = ek >> 32
        p = ek & 0xFFFFFFFF
        new_seg = np.concatenate([[True], s[1:] != s[:-1]])
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(s)), 0))
        seg_id = np.cumsum(new_seg) - 1
        deg = np.bincount(seg_id).astype(np.int64)
        w_seg = np.where(
            deg >= 2, np.round(1_000_000 / np.log(np.maximum(deg, 2))), 0
        ).astype(np.int64)
        # upper-triangle emission, fully vectorized: row i at position r in
        # a segment of size d pairs with the d-1-r parts after it
        r = np.arange(len(s)) - seg_start
        counts = deg[seg_id] - 1 - r
        total = int(counts.sum())
        if total == 0:
            return cand_schema.empty_table()
        out_start = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pos = np.arange(total) - np.repeat(out_start, counts)
        left_rows = np.repeat(np.arange(len(s)), counts)
        right_rows = left_rows + 1 + pos
        key = (p[left_rows] << 32) + p[right_rows]
        w = w_seg[seg_id[left_rows]]
        order = np.argsort(key, kind="stable")
        key, w = key[order], w[order]
        uk, start = np.unique(key, return_index=True)
        sums = np.add.reduceat(w, start)
        return pa.table(
            {
                "pbucket": pa.array(uk % n_b, pa.int64()),
                "key": pa.array(uk, pa.int64()),
                "w": pa.array(sums, pa.int64()),
            }
        )

    def topk_pair_bucket(group: pa.Table) -> pa.Table:
        # a pair's partials all hash to this bucket, so in-bucket sums are
        # GLOBAL sums and the bucket's local top-k provably contains every
        # global-top-k member — never groupby() a ~|parts|^2-cardinality
        # pair key directly (Ray's sort-aggregate cost scales with distinct
        # keys: measured 16s at 2M keys vs 3s at 1k on 2.6M rows)
        key = np.asarray(group["key"], np.int64)
        w = np.asarray(group["w"], np.int64)
        order = np.argsort(key, kind="stable")
        key, w = key[order], w[order]
        uk, start = np.unique(key, return_index=True)
        sums = np.add.reduceat(w, start)
        top = np.lexsort((uk, -sums))[:k]
        return pa.table(
            {"key": pa.array(uk[top], pa.int64()), "w": pa.array(sums[top], pa.int64())}
        )

    out_schema = pa.schema(
        [("part_a", pa.int64()), ("part_b", pa.int64()), ("aa_e6", pa.int64())]
    )

    def decode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        key = pc.cast(batch["key"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part_a": pa.array(key >> 32, pa.int64()),
                "part_b": pa.array(key & 0xFFFFFFFF, pa.int64()),
                "aa_e6": pc.cast(batch["w"], pa.int64()),
            }
        )

    pairs = bucket_exchange(
        li, pair_bucket, schema=edge_schema, out_schema=cand_schema, emit=edge_partial
    )
    return (
        bucket_exchange(
            pairs,
            topk_pair_bucket,
            key="pbucket",
            schema=cand_schema,
            out_schema=pair_schema,
        )
        # bounded: <= n_buckets x k candidate rows survive to this sort
        .sort(["w", "key"], descending=[True, False])
        .limit(k)
        .map_batches(decode, batch_format="pyarrow")
    )


def adamic_adar_part_pairs_sql(
    min_qty: int = _AA_MIN_QTY, k: int = _AA_TOP_K
) -> str:
    return f"""
WITH e AS (SELECT DISTINCT l_suppkey AS s, l_partkey AS p
           FROM lineitem WHERE l_quantity >= {min_qty}),
d AS (SELECT s, count(*) AS deg FROM e GROUP BY s),
w AS (SELECT s, CAST(round(1000000 / ln(deg)) AS BIGINT) AS w
      FROM d WHERE deg >= 2),
pr AS (SELECT a.p AS pa, b.p AS pb, w.w
       FROM e a JOIN e b ON a.s = b.s AND a.p < b.p JOIN w ON w.s = a.s),
aa AS (SELECT pa, pb, sum(w) AS aa FROM pr GROUP BY 1, 2)
SELECT pa AS part_a, pb AS part_b, CAST(aa AS BIGINT) AS aa_e6
FROM aa
ORDER BY aa DESC, pa, pb LIMIT {k}
"""


# ---------------------------------------------------------------------------
# Weighted single-source shortest paths (Bellman-Ford, bounded hops) —
# the weighted completion of the bfs_hops unweighted-reachability kernel
# ---------------------------------------------------------------------------

SSSP_SEED_SUPPLIERS = (1, 2, 3)
SSSP_MAX_HOPS = 4

_WEDGE_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("w", pa.int64())]
)
_DIST_SCHEMA = pa.schema([("node", pa.int64()), ("d", pa.int64())])


def _sssp_weighted_adj(sf_dir: str) -> ray.data.Dataset:
    """Symmetric weighted adjacency over the part<->supplier graph: one
    undirected edge per DISTINCT (l_partkey, l_suppkey) pair, weighted by
    the MIN lineitem extendedprice in integer cents (per-row quantize ->
    exact integer min, the money rule).  Node ids: part 2k / supplier
    2k+1 (the pagerank/bfs encoding)."""
    from ray.data.aggregate import Min

    from ..sources.pages import read_table

    li = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_extendedprice"]
    )

    pair_schema = pa.schema([("pair", pa.int64()), ("w", pa.int64())])

    def pair_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pair_schema.empty_table()
        pair = pc.add(
            pc.multiply(pc.cast(batch["l_partkey"], pa.int64()), 2**32),
            pc.cast(batch["l_suppkey"], pa.int64()),
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], pa.scalar(100.0))),
            pa.int64(),
        )
        # per-batch min before the global min groupby
        return (
            pa.table({"pair": pair, "w": cents})
            .group_by("pair")
            .aggregate([("w", "min")])
            .rename_columns(["pair", "w"])
        )

    pairs = (
        li.map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pair")
        .aggregate(Min("w", alias_name="w"))
    )

    def to_adj(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _WEDGE_SCHEMA.empty_table()
        pair = batch["pair"]
        p = pc.divide(pair, 2**32)
        s = pc.subtract(pair, pc.multiply(p, 2**32))
        pn = pc.cast(pc.multiply(p, 2), pa.int64()).combine_chunks()
        sn = pc.cast(pc.add(pc.multiply(s, 2), 1), pa.int64()).combine_chunks()
        w = pc.cast(batch["w"], pa.int64()).combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([pn, sn]),
                "dst": pa.concat_arrays([sn, pn]),
                "w": pa.concat_arrays([w, w]),
            }
        )

    return pairs.map_batches(
        to_adj, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()


def sssp_cost_part_supplier(
    sf_dir: str,
    *,
    seed_suppliers: tuple[int, ...] = SSSP_SEED_SUPPLIERS,
    max_hops: int = SSSP_MAX_HOPS,
    small_graph_limit: int = 1_000_000,
    node_budget: int = 2_000_000,
) -> ray.data.Dataset:
    """Weighted single-source shortest paths (synchronous Bellman-Ford,
    ``max_hops`` relaxation rounds) from a seed supplier set over the
    part<->supplier graph, edge weight = MIN extendedprice cents of the
    lineitems that induce the edge.  Returns every reachable node as
    (node_type, key, cost_cents) with cost = exact min-cost path of at
    most ``max_hops`` edges — the weighted completion of ``bfs_hops``
    (unweighted reachability) in the graph family, and the shape of a
    cheapest-route / lowest-latency-mirror query over a host graph.

    All arithmetic is int64 cents (distances are sums of <= max_hops
    nonnegative cent weights — no overflow anywhere near 2^63), so every
    tier computes the IDENTICAL recurrence the oracle unrolls:

        r_0    = {seed: 0}
        r_i(v) = min(r_{i-1}(v), min over edges (u,v) of r_{i-1}(u) + w)

    Three-tier hybrid, decided by MEASURED counts (the pagerank recipe):
    edges <= ``small_graph_limit``: numpy relaxation on the driver (a
    snapshot before ``np.minimum.at`` keeps rounds synchronous); nodes <=
    ``node_budget``: the distance array rides the UDF closure (once per
    stage into the object store) and each round is ONE embarrassingly-
    parallel pass over the pinned edge list emitting per-batch partial
    mins folded by a bounded groupby — the webtext regime (billions of
    edges, millions of hosts); beyond that, per round one bucketed hash
    join (edges x distances) + a min fold, materialized per round
    (branching a lazy Dataset re-executes the parent chain)."""
    from ray.data.aggregate import Min

    from ..pipelines.joins import bucketed_join

    sym = _sssp_weighted_adj(sf_dir)
    n_edges = sym.count()
    seed_nodes = sorted(2 * s + 1 for s in seed_suppliers)
    inf = np.int64(1) << 60

    out_schema = pa.schema(
        [("node_type", pa.string()), ("key", pa.int64()), ("cost_cents", pa.int64())]
    )

    def decode(node: np.ndarray, dist: np.ndarray) -> pa.Table:
        kind = np.where(node % 2 == 0, "part", "supplier")
        order = np.lexsort((node // 2, kind))
        return pa.table(
            {
                "node_type": pa.array(kind[order], pa.string()),
                "key": pa.array((node // 2)[order], pa.int64()),
                "cost_cents": pa.array(dist[order], pa.int64()),
            }
        )

    if n_edges <= small_graph_limit:
        t = _collect_arrow(sym)
        if t is None:
            return ray.data.from_arrow(out_schema.empty_table())
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        nodes = np.unique(src)  # sym is symmetric: src covers every node
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        dist = np.full(len(nodes), inf, np.int64)
        seeds_np = np.asarray(seed_nodes, np.int64)
        present = np.isin(seeds_np, nodes)
        dist[np.searchsorted(nodes, seeds_np[present])] = 0
        for _ in range(max_hops):
            nd = dist[si] + w  # snapshot BEFORE update: synchronous rounds
            np.minimum.at(dist, di, nd)
        keep = dist < inf
        return ray.data.from_arrow(decode(nodes[keep], dist[keep]))

    from ray.data.aggregate import Count as _Count

    def node_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": batch["src"]}).group_by("node").aggregate([])

    nodes_ds = (
        sym.map_batches(node_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(_Count(alias_name="_n"))
        .materialize()
    )
    n_nodes = nodes_ds.count()

    if n_nodes <= node_budget:
        # broadcast-distances tier: dist is per-NODE (bounded), edges can
        # be enormous; per round one streaming pass + one bounded fold
        nt = _collect_arrow(nodes_ds)
        nodes_arr = np.sort(nt["node"].to_numpy(zero_copy_only=False))
        dist = np.full(n_nodes, inf, np.int64)
        seeds_np = np.asarray(seed_nodes, np.int64)
        present = np.isin(seeds_np, nodes_arr)
        dist[np.searchsorted(nodes_arr, seeds_np[present])] = 0
        for _ in range(max_hops):

            def relax(batch: pa.Table, na=nodes_arr, dd=dist) -> pa.Table:
                if batch.num_rows == 0 or batch.num_columns == 0:
                    return _DIST_SCHEMA.empty_table()
                src = batch["src"].to_numpy(zero_copy_only=False)
                dst = batch["dst"].to_numpy(zero_copy_only=False)
                w = batch["w"].to_numpy(zero_copy_only=False)
                sd = dd[np.searchsorted(na, src)]
                ok = sd < (np.int64(1) << 60)
                if not ok.any():
                    return _DIST_SCHEMA.empty_table()
                cand = sd[ok] + w[ok]
                uniq, inv = np.unique(dst[ok], return_inverse=True)
                m = np.full(len(uniq), np.int64(1) << 60, np.int64)
                np.minimum.at(m, inv, cand)  # per-batch partial mins
                return pa.table(
                    {"node": pa.array(uniq, pa.int64()), "d": pa.array(m)}
                )

            ct = _collect_arrow(
                sym.map_batches(relax, batch_format="pyarrow", zero_copy_batch=True)
                .groupby("node")
                .aggregate(Min("d", alias_name="d"))
            )
            if ct is None:
                break
            cn = ct["node"].to_numpy(zero_copy_only=False)
            cd = ct["d"].to_numpy(zero_copy_only=False).astype(np.int64)
            ci = np.searchsorted(nodes_arr, cn)
            np.minimum.at(dist, ci, cd)
        keep = dist < inf
        return ray.data.from_arrow(decode(nodes_arr[keep], dist[keep]))

    # fully-distributed tier: dist as a Dataset, one bucketed join + one
    # min fold per round
    from ray.data.aggregate import Min as _Min

    seed_arr = pa.array(seed_nodes, pa.int64())

    def seed_init(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _DIST_SCHEMA.empty_table()
        hits = batch.filter(pc.is_in(batch["src"], value_set=seed_arr))
        t = pa.table({"node": hits["src"]}).group_by("node").aggregate([])
        return pa.table(
            {"node": t["node"], "d": pa.nulls(t.num_rows, pa.int64()).fill_null(0)}
        )

    dist_ds = (
        sym.map_batches(seed_init, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(_Min("d", alias_name="d"))
        .materialize()
    )

    def partial_min(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _DIST_SCHEMA.empty_table()
        return (
            batch.group_by("node")
            .aggregate([("d", "min")])
            .rename_columns(["node", "d"])
        )

    for _ in range(max_hops):
        joined = bucketed_join(
            sym,
            dist_ds,
            on="src",
            right_on="node",
            left_schema=_WEDGE_SCHEMA,
            right_schema=_DIST_SCHEMA,
            est_rows=n_edges,
        )
        cand = joined.map_batches(
            lambda b: (
                _DIST_SCHEMA.empty_table()
                if b.num_rows == 0 or b.num_columns == 0
                else pa.table({"node": b["dst"], "d": pc.add(b["d"], b["w"])})
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        dist_ds = (
            cand.union(dist_ds)
            .map_batches(partial_min, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("node")
            .aggregate(_Min("d", alias_name="d"))
            .materialize()
        )

    def decode_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        node = batch["node"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node_type": pa.array(
                    np.where(node % 2 == 0, "part", "supplier"), pa.string()
                ),
                "key": pa.array(node // 2, pa.int64()),
                "cost_cents": pc.cast(batch["d"], pa.int64()),
            }
        )

    return dist_ds.map_batches(
        decode_batch, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["node_type", "key"])


def sssp_cost_part_supplier_sql(
    seed_suppliers: tuple[int, ...] = SSSP_SEED_SUPPLIERS,
    max_hops: int = SSSP_MAX_HOPS,
) -> str:
    """Unrolled synchronous Bellman-Ford (the pagerank oracle shape — one
    CTE pair per round, linear in rounds, never the walk-enumerating
    recursive UNION ALL which is combinatorial on dense graphs)."""
    seeds = ", ".join(str(2 * s + 1) for s in seed_suppliers)
    head = f"""
WITH edges AS (
  SELECT l_partkey AS p, l_suppkey AS s,
         min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS w
  FROM lineitem GROUP BY l_partkey, l_suppkey
),
adj AS (SELECT p * 2 AS src, s * 2 + 1 AS dst, w FROM edges
        UNION ALL SELECT s * 2 + 1, p * 2, w FROM edges),
r0 AS (SELECT DISTINCT src AS node, CAST(0 AS BIGINT) AS d
       FROM adj WHERE src IN ({seeds}))"""
    rounds = []
    for i in range(1, max_hops + 1):
        rounds.append(f""",
c{i} AS (
  SELECT a.dst AS node, min(r.d + a.w) AS d
  FROM adj a JOIN r{i - 1} r ON r.node = a.src GROUP BY a.dst
),
r{i} AS (
  SELECT node, CAST(min(d) AS BIGINT) AS d FROM (
    SELECT node, d FROM r{i - 1} UNION ALL SELECT node, d FROM c{i}
  ) GROUP BY node
)""")
    return (
        head
        + "".join(rounds)
        + f"""
SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS node_type,
       CAST(node // 2 AS BIGINT) AS key,
       d AS cost_cents
FROM r{max_hops}
ORDER BY node_type, key
"""
    )


# ---------------------------------------------------------------------------
# k-core decomposition (iterative peeling) — the degeneracy/community
# kernel of the graph family (mirror-farm and spam-cluster detection on a
# host graph)
# ---------------------------------------------------------------------------

KCORE_K = 2
KCORE_MIN_QTY = 50
KCORE_MAX_ROUNDS = 16


def kcore_part_supplier(
    sf_dir: str,
    *,
    k: int = KCORE_K,
    min_qty: int = KCORE_MIN_QTY,
    max_rounds: int = KCORE_MAX_ROUNDS,
    small_graph_limit: int = 1_000_000,
    node_budget: int = 2_000_000,
) -> ray.data.Dataset:
    """k-core of the thinned part<->supplier graph (edges = DISTINCT
    (l_partkey, l_suppkey) pairs with ``l_quantity >= min_qty`` — the
    triangle-count thinning predicate; co-occurrence graphs saturate
    without one): iteratively peel nodes of degree < k until a fixed
    point, then return every surviving node as (node_type, key, core_deg)
    with its degree WITHIN the core.  The peeling cascade is real at every
    test scale (6/4/4 rounds at sf0.001/0.01/0.1 with the defaults).

    Synchronous peeling rounds so every tier matches the oracle's
    unrolled recurrence exactly:

        alive_0     = all nodes
        alive_{i+1} = { v in alive_i : deg_{alive_i}(v) >= k }

    Convergence is BOUNDED: the oracle unrolls ``max_rounds`` rounds
    statically, and the implementation raises if the cascade has not
    reached its fixed point by then (it converges in <= 6 rounds at every
    tested scale; a fixed-point round is idempotent, so extra unrolled
    oracle rounds after convergence are no-ops — only the impl-side guard
    must hold).

    Two execution tiers by MEASURED counts: edges <= ``small_graph_limit``
    peel in numpy on the driver; otherwise the alive set is per-NODE
    state (bounded by ``node_budget``) broadcast via the UDF closure, and
    each round is ONE streaming pass over the pinned edge list emitting
    per-batch partial degree counts folded by a bounded groupby — the
    label-propagation recipe.  Node counts beyond ``node_budget`` raise
    (documented seam: the bucketed two-sided semi-join round exists in
    bfs/pagerank form and would slot here)."""
    from ray.data.aggregate import Count, Sum

    from ..sources.pages import read_table

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_quantity"])

    def pair_key(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("pair", pa.int64())]).empty_table()
        f = batch.filter(pc.greater_equal(batch["l_quantity"], pa.scalar(float(min_qty))))
        pair = pc.add(
            pc.multiply(pc.cast(f["l_partkey"], pa.int64()), 2**32),
            pc.cast(f["l_suppkey"], pa.int64()),
        )
        return pa.table({"pair": pair}).group_by("pair").aggregate([])

    pairs = (
        li.map_batches(pair_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pair")
        .aggregate(Count(alias_name="_n"))
    )

    def to_adj(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return _EDGE_SCHEMA.empty_table()
        pair = batch["pair"]
        p = pc.divide(pair, 2**32)
        s = pc.subtract(pair, pc.multiply(p, 2**32))
        pn = pc.cast(pc.multiply(p, 2), pa.int64()).combine_chunks()
        sn = pc.cast(pc.add(pc.multiply(s, 2), 1), pa.int64()).combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([pn, sn]),
                "dst": pa.concat_arrays([sn, pn]),
            }
        )

    sym = pairs.map_batches(
        to_adj, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_edges = sym.count()

    out_schema = pa.schema(
        [("node_type", pa.string()), ("key", pa.int64()), ("core_deg", pa.int64())]
    )

    def finish(nodes: np.ndarray, deg: np.ndarray) -> ray.data.Dataset:
        kind = np.where(nodes % 2 == 0, "part", "supplier")
        order = np.lexsort((nodes // 2, kind))
        return ray.data.from_arrow(
            pa.table(
                {
                    "node_type": pa.array(kind[order], pa.string()),
                    "key": pa.array((nodes // 2)[order], pa.int64()),
                    "core_deg": pa.array(deg[order], pa.int64()),
                }
            )
        )

    if n_edges <= small_graph_limit:
        t = _collect_arrow(sym)
        if t is None:
            return ray.data.from_arrow(out_schema.empty_table())
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        nodes = np.unique(src)
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        alive = np.ones(len(nodes), bool)
        for rounds in range(1, max_rounds + 1):
            m = alive[si] & alive[di]
            deg = np.bincount(si[m], minlength=len(nodes)).astype(np.int64)
            new_alive = alive & (deg >= k)
            if (new_alive == alive).all():
                break
            alive = new_alive
        else:
            raise RuntimeError(
                f"k-core did not converge in {max_rounds} rounds — raise "
                "max_rounds (and regenerate the unrolled oracle) for this graph"
            )
        keep = alive & (deg > 0)
        return finish(nodes[keep], deg[keep])

    # broadcast-alive tier: alive flags are per-node (bounded); each round
    # is one streaming degree pass over the pinned edge list
    def node_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": batch["src"]}).group_by("node").aggregate([])

    nodes_ds = (
        sym.map_batches(node_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(Count(alias_name="_n"))
        .materialize()
    )
    n_nodes = nodes_ds.count()
    if n_nodes > node_budget:
        raise NotImplementedError(
            "k-core beyond the per-node broadcast budget needs the bucketed "
            "two-sided semi-join round (see bfs_hops tier 3)"
        )
    nt = _collect_arrow(nodes_ds)
    nodes_arr = np.sort(nt["node"].to_numpy(zero_copy_only=False))
    alive_ids = nodes_arr  # sorted alive node ids
    deg_last = np.zeros(len(nodes_arr), np.int64)
    for rounds in range(1, max_rounds + 1):

        def degree_partial(batch: pa.Table, al=alive_ids) -> pa.Table:
            if batch.num_rows == 0 or batch.num_columns == 0:
                return _CSUM_SCHEMA.empty_table()
            src = batch["src"].to_numpy(zero_copy_only=False)
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            si = np.searchsorted(al, src)
            si[si == len(al)] = 0
            di = np.searchsorted(al, dst)
            di[di == len(al)] = 0
            m = (al[si] == src) & (al[di] == dst)
            uniq, inv = np.unique(src[m], return_inverse=True)
            c = np.zeros(len(uniq), np.int64)
            np.add.at(c, inv, 1)
            return pa.table({"node": pa.array(uniq, pa.int64()), "c": pa.array(c)})

        ct = _collect_arrow(
            sym.map_batches(degree_partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("node")
            .aggregate(Sum("c", alias_name="c"))
        )
        if ct is None:
            alive_ids = np.empty(0, np.int64)
            deg_last = np.empty(0, np.int64)
            break
        cn = ct["node"].to_numpy(zero_copy_only=False)
        cc = ct["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        deg_full = np.zeros(len(alive_ids), np.int64)
        deg_full[np.searchsorted(alive_ids, cn)] = cc
        keep = deg_full >= k
        if keep.all():
            deg_last = deg_full
            break
        alive_ids = alive_ids[keep]
    else:
        raise RuntimeError(
            f"k-core did not converge in {max_rounds} rounds — raise "
            "max_rounds (and regenerate the unrolled oracle) for this graph"
        )
    nz = deg_last > 0
    return finish(alive_ids[nz], deg_last[nz])


def kcore_part_supplier_sql(
    k: int = KCORE_K,
    min_qty: int = KCORE_MIN_QTY,
    max_rounds: int = KCORE_MAX_ROUNDS,
) -> str:
    """Statically unrolled peeling (a fixed-point round is idempotent, so
    rounds after convergence are no-ops; the implementation guards that
    convergence happens within the unroll).  Every CTE is MATERIALIZED:
    each round references the previous alive set TWICE, so plain
    (inlinable) CTEs would expand the plan tree exponentially in rounds —
    2^16 copies of the base scan blows the process fd limit before the
    optimizer ever runs."""
    head = f"""
WITH edges AS MATERIALIZED (
  SELECT DISTINCT l_partkey AS p, l_suppkey AS s
  FROM lineitem WHERE l_quantity >= {min_qty}),
adj AS MATERIALIZED (
  SELECT p * 2 AS src, s * 2 + 1 AS dst FROM edges
  UNION ALL SELECT s * 2 + 1, p * 2 FROM edges),
s0 AS MATERIALIZED (SELECT DISTINCT src AS node FROM adj)"""
    rounds = []
    for i in range(1, max_rounds + 1):
        rounds.append(f""",
s{i} AS MATERIALIZED (
  SELECT a.src AS node FROM adj a
  JOIN s{i - 1} x ON x.node = a.src
  JOIN s{i - 1} y ON y.node = a.dst
  GROUP BY a.src HAVING count(*) >= {k}
)""")
    return (
        head
        + "".join(rounds)
        + f"""
SELECT CASE WHEN a.src % 2 = 0 THEN 'part' ELSE 'supplier' END AS node_type,
       CAST(a.src // 2 AS BIGINT) AS key,
       CAST(count(*) AS BIGINT) AS core_deg
FROM adj a
JOIN s{max_rounds} x ON x.node = a.src
JOIN s{max_rounds} y ON y.node = a.dst
GROUP BY a.src
ORDER BY node_type, key
"""
    )


# ---------------------------------------------------------------------------
# degree assortativity of the part-supplier bipartite graph — do
# high-degree parts connect to high-degree suppliers?  The one-number
# topology fingerprint (Newman 2002) next to the local structure ops
# (triangles, clustering coefficient, Adamic-Adar).
# ---------------------------------------------------------------------------


def degree_assortativity_ps(sf_dir: str) -> pa.Table:
    """Degree-degree Pearson correlation over the DISTINCT (supplier,
    part) edges: x = deg(part) (distinct suppliers), y = deg(supplier)
    (distinct parts).  Negative assortativity = hub suppliers serve
    niche parts (dis-assortative, the usual supply-chain shape).

    Exactness: the sqrt in Pearson's r is a float hazard, so the output
    is the SIGNED SQUARED correlation on the ppm grid (the
    events_daily_ccf convention): with exact integer sums n, Sx, Sy,
    Sxy, Sxx, Syy over edges, num = n*Sxy - Sx*Sy, dx = n*Sxx - Sx^2,
    dy = n*Syy - Sy^2, r2s_ppm = sign(num) * num^2 * 1e6 // (dx*dy) —
    Python big ints here, HUGEINT in the oracle.

    Plan shape: batch-local distinct edge partials -> ONE suppkey-bucketed
    exchange (global edge dedup + deg(s) in-bucket, every edge of s
    co-located) -> ONE partkey-bucketed exchange (deg(p) in-bucket,
    emitting only the six per-bucket integer partial sums) -> driver
    finish from |buckets| rows.  No per-edge row ever reaches the driver
    and no degree table is ever broadcast."""
    from ..scale import bucket_count, estimate_rows
    from ..sources.pages import read_table

    est = estimate_rows(sf_dir, "lineitem")
    n_b = bucket_count(est)
    mask = pa.scalar(n_b - 1, pa.int64())

    li = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    edge_schema = pa.schema(
        [("s", pa.int64()), ("p", pa.int64()), ("bucket", pa.int64())]
    )

    def edge_partial(batch: pa.Table) -> pa.Table:
        t = (
            pa.table(
                {
                    "s": pc.cast(batch["l_suppkey"], pa.int64()),
                    "p": pc.cast(batch["l_partkey"], pa.int64()),
                }
            )
            .group_by(["s", "p"])
            .aggregate([])
        )
        return t.append_column("bucket", pc.bit_wise_and(t["s"], mask))

    mid_schema = pa.schema(
        [("p", pa.int64()), ("degs", pa.int64()), ("bucket", pa.int64())]
    )

    def supp_bucket(group: pa.Table) -> pa.Table:
        ek = np.unique(
            (np.asarray(group["s"], np.int64) << 32)
            + np.asarray(group["p"], np.int64)
        )
        s = ek >> 32
        p = ek & 0xFFFFFFFF
        # run-length degree per supplier (ek sorted => s grouped ascending)
        new_seg = np.concatenate([[True], s[1:] != s[:-1]])
        seg_id = np.cumsum(new_seg) - 1
        degs = np.bincount(seg_id)[seg_id].astype(np.int64)
        return pa.table(
            {
                "p": pa.array(p, pa.int64()),
                "degs": pa.array(degs, pa.int64()),
                "bucket": pa.array(p & (n_b - 1), pa.int64()),
            }
        )

    sums_schema = pa.schema(
        [
            ("n", pa.int64()),
            ("sx", pa.int64()),
            ("sy", pa.int64()),
            ("sxy", pa.int64()),
            ("sxx", pa.int64()),
            ("syy", pa.int64()),
        ]
    )

    def part_bucket(group: pa.Table) -> pa.Table:
        p = np.asarray(group["p"], np.int64)
        y = np.asarray(group["degs"], np.int64)
        order = np.argsort(p, kind="stable")
        p, y = p[order], y[order]
        new_seg = np.concatenate([[True], p[1:] != p[:-1]])
        seg_id = np.cumsum(new_seg) - 1
        x = np.bincount(seg_id)[seg_id].astype(np.int64)  # deg(part)
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
            }
        )

    mids = bucket_exchange(
        li, supp_bucket, schema=edge_schema, out_schema=mid_schema, emit=edge_partial
    )
    parts = bucket_exchange(
        mids, part_bucket, schema=mid_schema, out_schema=sums_schema
    ).take_all()  # bounded: one 6-int row per bucket
    n = sx = sy = sxy = sxx = syy = 0
    for r in parts:
        n += int(r["n"])
        sx += int(r["sx"])
        sy += int(r["sy"])
        sxy += int(r["sxy"])
        sxx += int(r["sxx"])
        syy += int(r["syy"])
    num = n * sxy - sx * sy
    dx = n * sxx - sx * sx
    dy = n * syy - sy * sy
    if dx == 0 or dy == 0:
        r2s = 0
    else:
        q = (num * num * 1_000_000) // (dx * dy)
        r2s = q if num >= 0 else -q
    return pa.table(
        {
            "n_edges": pa.array([n], pa.int64()),
            "assort_r2s_ppm": pa.array([r2s], pa.int64()),
        }
    )


DEGREE_ASSORTATIVITY_PS_SQL = """
WITH e AS (SELECT DISTINCT l_suppkey AS s, l_partkey AS p FROM lineitem),
ds AS (SELECT s, count(*) AS degs FROM e GROUP BY s),
dp AS (SELECT p, count(*) AS degp FROM e GROUP BY p),
j AS (
  SELECT CAST(dp.degp AS HUGEINT) AS x, CAST(ds.degs AS HUGEINT) AS y
  FROM e JOIN ds ON ds.s = e.s JOIN dp ON dp.p = e.p),
t AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * y) AS sxy, sum(x * x) AS sxx, sum(y * y) AS syy
  FROM j)
SELECT CAST(n AS BIGINT) AS n_edges,
       CAST(CASE WHEN (n * sxx - sx * sx) = 0 OR (n * syy - sy * sy) = 0 THEN 0
                 ELSE (CASE WHEN (n * sxy - sx * sy) >= 0 THEN 1 ELSE -1 END)
                      * (((n * sxy - sx * sy) * (n * sxy - sx * sy) * 1000000)
                         // ((n * sxx - sx * sx) * (n * syy - sy * sy)))
            END AS BIGINT) AS assort_r2s_ppm
FROM t
"""


# ---------------------------------------------------------------------------
# keep-BEST cluster dedup — the policy-variant of dedup_cluster_docs: a
# production dedup keeps the highest-quality member of each near-dup
# cluster, not the accidental min id
# ---------------------------------------------------------------------------


def dedup_keep_best_docs(sf_dir: str, *, threshold: float = 0.6) -> ray.data.Dataset:
    """Materialized near-dup dedup keeping each cluster's BEST member:
    representative = argmax by (n_chars DESC, doc_id ASC) — the longest
    member wins (truncated crawls lose to their full originals), ties
    break deterministically to the smaller id.  Exactly
    ``dedup_cluster_docs`` with the keep policy swapped from min-id to
    quality-argmax — the two outputs differ precisely on clusters whose
    longest member is not the smallest id.

    Plan shape: the component labels join their n_chars through one
    bucketed exchange (ids + one int — texts stay out), a component-
    bucketed vectorized argmax picks winners, and the survivors come from
    the same ids-only ANTI join; texts cross the shuffle exactly once."""
    from ..pipelines.joins import bucketed_join
    from ..scale import bucket_count, estimate_rows
    from ..sources.pages import read_table

    n_docs = estimate_rows(sf_dir, "documents")
    comp = dup_components(sf_dir, threshold=threshold)

    chars = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    labeled = bucketed_join(
        comp,
        chars.map_batches(
            lambda b: pa.table(
                {
                    "ch_id": pc.cast(b["doc_id"], pa.int64()),
                    "n_chars": pc.cast(b["n_chars"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on="doc_id",
        right_on="ch_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("component", pa.int64())]),
        right_schema=pa.schema([("ch_id", pa.int64()), ("n_chars", pa.int64())]),
        join_type="inner",
        est_rows=n_docs,
    )

    n_cb = bucket_count(n_docs, min_buckets=32)
    lab_schema = pa.schema(
        [("doc_id", pa.int64()), ("component", pa.int64()), ("n_chars", pa.int64())]
    )
    drop_schema = pa.schema([("drop_doc_id", pa.int64())])

    def add_cbucket(batch: pa.Table) -> pa.Table:
        batch = batch.select(lab_schema.names).cast(lab_schema)
        return batch.append_column(
            "cb", pc.bit_wise_and(batch["component"], pa.scalar(n_cb - 1, pa.int64()))
        )

    def pick_losers(group: pa.Table) -> pa.Table:
        comp_k = np.asarray(group["component"], np.int64)
        ids = np.asarray(group["doc_id"], np.int64)
        ch = np.asarray(group["n_chars"], np.int64)
        order = np.lexsort((ids, -ch, comp_k))
        comp_s = comp_k[order]
        keep_first = np.concatenate([[True], comp_s[1:] != comp_s[:-1]])
        losers = ids[order][~keep_first]
        return pa.table({"drop_doc_id": pa.array(losers, pa.int64())})

    drop = bucket_exchange(
        labeled,
        pick_losers,
        key="cb",
        schema=lab_schema.append(pa.field("cb", pa.int64())),
        out_schema=drop_schema,
        emit=add_cbucket,
    )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = bucketed_join(
        docs,
        drop,
        on="doc_id",
        right_on="drop_doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        right_schema=drop_schema,
        join_type="left anti",
        est_rows=n_docs,
    )
    return out.sort("doc_id")


def dedup_keep_best_docs_sql(threshold: float = 0.6, shingle_k: int = 3) -> str:
    comp_sql = dup_components_sql(threshold=threshold, shingle_k=shingle_k)
    return f"""
SELECT doc_id, text FROM documents
WHERE doc_id NOT IN (
  SELECT doc_id FROM (
    SELECT c.doc_id,
           row_number() OVER (
               PARTITION BY c.component
               ORDER BY d.n_chars DESC, c.doc_id) AS rn
    FROM ({comp_sql}) c JOIN documents d ON d.doc_id = c.doc_id
  ) WHERE rn > 1
)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# split-leakage audit — do near-duplicate clusters straddle the
# train/val/test boundary?  The eval-contamination check every training
# pipeline needs: a deterministic split is not leak-free if two near-dups
# land on opposite sides.
# ---------------------------------------------------------------------------


def split_leakage_report(
    sf_dir: str, *, threshold: float = 0.6, train: float = 0.8, val: float = 0.1
) -> ray.data.Dataset:
    """Per near-dup cluster (``dup_components`` over the exact Jaccard
    pair graph): member count, the number of DISTINCT train/val/test
    splits its members land in under the corpus's own deterministic
    Lehmer split (webtext.train_val_test_split thresholds), and the split
    bitmask (train=1, val=2, test=4).  n_splits > 1 is eval leakage — the
    cluster's test member is a near-copy of a training doc.  The fix is
    cluster-level splitting (assign by min doc_id); this op is the audit
    that says whether you need it.

    Plan shape: split assignment is PURE ARITHMETIC on doc_id (no join
    ever); one component-bucketed fold ORs the per-member bitmasks and
    counts, vectorized by segment boundaries."""
    from ..scale import bucket_count, estimate_rows
    from .webtext import _LEHMER_A, _LEHMER_M

    t1 = int(train * _LEHMER_M)
    t2 = int((train + val) * _LEHMER_M)
    n_cb = bucket_count(estimate_rows(sf_dir, "documents"), min_buckets=32)

    comp = dup_components(sf_dir, threshold=threshold)

    lab_schema = pa.schema(
        [("cb", pa.int64()), ("component", pa.int64()), ("m", pa.int64())]
    )

    def add_split(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        h = ((ids % _LEHMER_M) * _LEHMER_A) % _LEHMER_M
        m = np.where(h < t1, 1, np.where(h < t2, 2, 4)).astype(np.int64)
        compk = batch["component"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "cb": pa.array(compk & (n_cb - 1), pa.int64()),
                "component": pa.array(compk, pa.int64()),
                "m": pa.array(m, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            ("component", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_splits", pa.int64()),
            ("split_mask", pa.int64()),
        ]
    )
    _POP = np.array([bin(i).count("1") for i in range(8)], np.int64)

    def fold(group: pa.Table) -> pa.Table:
        c = np.asarray(group["component"], np.int64)
        m = np.asarray(group["m"], np.int64)
        order = np.argsort(c, kind="stable")
        c, m = c[order], m[order]
        new_seg = np.concatenate([[True], c[1:] != c[:-1]])
        seg_id = np.cumsum(new_seg) - 1
        n = np.bincount(seg_id).astype(np.int64)
        mask = np.zeros(len(n), np.int64)
        np.bitwise_or.at(mask, seg_id, m)
        return pa.table(
            {
                "component": pa.array(c[new_seg], pa.int64()),
                "n_docs": pa.array(n, pa.int64()),
                "n_splits": pa.array(_POP[mask], pa.int64()),
                "split_mask": pa.array(mask, pa.int64()),
            }
        )

    return (
        bucket_exchange(
            comp,
            fold,
            key="cb",
            schema=lab_schema,
            out_schema=out_schema,
            emit=add_split,
        )
        .sort("component")
    )


def split_leakage_report_sql(
    threshold: float = 0.6,
    shingle_k: int = 3,
    train: float = 0.8,
    val: float = 0.1,
) -> str:
    from .webtext import _LEHMER_A, _LEHMER_M

    t1 = int(train * _LEHMER_M)
    t2 = int((train + val) * _LEHMER_M)
    comp_sql = dup_components_sql(threshold=threshold, shingle_k=shingle_k)
    return f"""
WITH comp AS ({comp_sql}),
lab AS (
  SELECT component,
         CASE WHEN ((doc_id % {_LEHMER_M}) * {_LEHMER_A}) % {_LEHMER_M} < {t1}
                THEN 1
              WHEN ((doc_id % {_LEHMER_M}) * {_LEHMER_A}) % {_LEHMER_M} < {t2}
                THEN 2
              ELSE 4 END AS m
  FROM comp)
SELECT component, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT m) AS BIGINT) AS n_splits,
       CAST(bit_or(m) AS BIGINT) AS split_mask
FROM lab GROUP BY component ORDER BY component
"""


# ---------------------------------------------------------------------------
# dedup threshold ladder — how threshold choice reshapes the cluster graph
# ---------------------------------------------------------------------------

_PROFILE_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


def dedup_threshold_profile(
    sf_dir: str, *, thresholds: tuple[float, ...] = _PROFILE_THRESHOLDS
) -> pa.Table:
    """Single-link dendrogram profile of the near-dup graph: for each
    Jaccard threshold, the pair count, component count, clustered-doc
    count and largest cluster — the table a dedup operator reads to pick
    the threshold (too low: giant components chain unrelated docs; too
    high: misses near-dups).  Filtering a higher threshold from the SAME
    pair set is exactly hierarchical single-link clustering cut at
    different heights.

    Plan shape: the exact pair join runs ONCE at min(thresholds) and
    materializes (five consumers branch — the re-execution hazard);
    each rung filters edges (the c/union double is the identical
    exactly-rounded division in both engines, so >= t agrees) and runs
    connected components; only per-component counts reach the driver."""
    from .dedup import ngram_jaccard_pairs

    ts = sorted(thresholds)
    edges_all = ngram_jaccard_pairs(sf_dir, threshold=ts[0]).materialize()

    rows = {
        "threshold_ppm": [], "n_pairs": [], "n_components": [],
        "n_clustered_docs": [], "largest_cluster": [],
    }
    for t in ts:
        sel = edges_all.map_batches(
            lambda b, t=t: b.filter(
                pc.greater_equal(b["jaccard"], pa.scalar(float(t), pa.float64()))
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        n_pairs = sel.count()
        comp = connected_components(
            sel.map_batches(
                lambda b: b.select(["doc_a", "doc_b"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            src="doc_a",
            dst="doc_b",
            est_edges=max(1, n_pairs),
        )
        sizes = (
            comp.groupby("component").count().take_all()
        )  # bounded: one row per cluster
        counts = np.array([int(r["count()"]) for r in sizes], np.int64)
        rows["threshold_ppm"].append(int(round(t * 1_000_000)))
        rows["n_pairs"].append(int(n_pairs))
        rows["n_components"].append(len(counts))
        rows["n_clustered_docs"].append(int(counts.sum()) if len(counts) else 0)
        rows["largest_cluster"].append(int(counts.max()) if len(counts) else 0)
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


def dedup_threshold_profile_sql(
    thresholds: tuple[float, ...] = _PROFILE_THRESHOLDS, shingle_k: int = 3
) -> str:
    from .dedup import ngram_jaccard_sql

    blocks = []
    for t in sorted(thresholds):
        pair_sql = ngram_jaccard_sql(threshold=t, shingle_k=shingle_k)
        blocks.append(
            f"""
SELECT * FROM (
  WITH RECURSIVE
  pairs AS (SELECT doc_a, doc_b FROM ({pair_sql}) p),
  edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
            UNION SELECT doc_b, doc_a FROM pairs),
  nodes AS (SELECT DISTINCT a AS v FROM edges),
  walk(v, lbl) AS (
    SELECT v, v FROM nodes
    UNION
    SELECT e.b, w.lbl FROM walk w JOIN edges e ON e.a = w.v),
  comp AS (SELECT v, min(lbl) AS c FROM walk GROUP BY v),
  sizes AS (SELECT c, count(*) AS n FROM comp GROUP BY c)
  SELECT CAST({int(round(t * 1_000_000))} AS BIGINT) AS threshold_ppm,
         CAST((SELECT count(*) FROM pairs) AS BIGINT) AS n_pairs,
         CAST((SELECT count(*) FROM sizes) AS BIGINT) AS n_components,
         CAST((SELECT coalesce(sum(n), 0) FROM sizes) AS BIGINT)
           AS n_clustered_docs,
         CAST((SELECT coalesce(max(n), 0) FROM sizes) AS BIGINT)
           AS largest_cluster
)"""
        )
    return " UNION ALL ".join(blocks) + " ORDER BY threshold_ppm"
