"""Iterative link-graph analytics over edge Datasets: PageRank.

The crawl engine's natural downstream consumer — the links.txt /
side-write tables ARE an edge list (reference output: crawler.py:93-97) —
and the canonical "iterative algorithm on Ray Data" shape: the edge set
is hash-bucketed ONCE and stays put; only node-sized rank rows move per
iteration, exactly like the large-star/small-star connected-components
rounds in ``functions/dedup.py``.

Two rank-transport paths, result-equal (asserted in
``tests/test_graph.py``):

* **broadcast** — ranks live in one numpy array ``ray.put`` per
  iteration; every map task does a vectorized ``searchsorted`` lookup.
  Right whenever the node table fits comfortably in a worker heap
  (node-count ≤ ~1e8 at 16 B/node); per iteration: one broadcast + one
  node-keyed combine.
* **bucketed** — ranks stay a Dataset; each iteration co-groups edges
  and ranks on ``hash(src)`` (the union-then-groupby join the rest of
  the repo uses, see ``pipelines/queries.py`` revenue_by_priority) and
  re-combines contributions on ``hash(dst)``.  Nothing node- or
  edge-sized ever lands on the driver; this is the 100 TB path.

Dangling mass (outdegree-0 nodes) is redistributed uniformly each
iteration, so ranks always sum to 1.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset
from ray.data.aggregate import Sum

from ..ops import add_hash_bucket_int
from ..util import cached_get, from_pandas_clean


def _distinct_edges(edges: Dataset, src: str, dst: str, n_buckets: int) -> Dataset:
    """Distinct (src, dst) pairs via one hash(src) bucketed shuffle —
    buckets hold whole src keys, so a per-group drop_duplicates is exact."""
    bucketed = add_hash_bucket_int(edges.select_columns([src, dst]), src, n_buckets)

    def _dedup(g: pd.DataFrame) -> pa.Table:
        return from_pandas_clean(
            g.drop_duplicates([src, dst]).drop(columns="__bucket")
        )

    return bucketed.groupby("__bucket").map_groups(_dedup, batch_format="pandas")


def _node_table(edges: Dataset, src: str, dst: str) -> Dataset:
    """(node, outdeg) for the full node universe — src-side counts union
    dst-side zero rows, ONE combine; dst-only nodes land with outdeg 0."""

    def _partial(t: pa.Table) -> pa.Table:
        s = t[src].to_numpy()
        d = t[dst].to_numpy()
        u_s, c_s = np.unique(s, return_counts=True)
        u_d = np.unique(d)
        node = np.concatenate([u_s, u_d])
        deg = np.concatenate([c_s.astype(np.int64), np.zeros(len(u_d), np.int64)])
        return pa.table({"node": pa.array(node), "outdeg": pa.array(deg)})

    return (
        edges.map_batches(_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("outdeg", alias_name="outdeg"))
    )


def pagerank(
    edges: Dataset,
    n_iter: int = 10,
    d: float = 0.85,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    transport: str = "auto",
    broadcast_max_nodes: int = 50_000_000,
    n_buckets: int | None = None,
    assume_distinct: bool = False,
) -> pd.DataFrame:
    """PageRank over a directed edge Dataset; returns (node, rank) for
    every node, ranks summing to 1.  ``transport`` picks the per-iteration
    rank movement: ``"broadcast"`` / ``"bucketed"`` / ``"auto"`` (bucketed
    past ``broadcast_max_nodes`` nodes).  The driver holds node-sized
    state only on the broadcast path and only result-sized output on
    both (at extreme node counts, take the bucketed internals and
    ``write_parquet`` the final ranks Dataset instead of collecting)."""
    if n_buckets is None:
        n_buckets = max(16, 2 * int(ray.cluster_resources().get("CPU", 8)))
    if not assume_distinct:
        edges = _distinct_edges(edges, src_col, dst_col, n_buckets)
    edges = edges.materialize()  # iterated over n_iter times — pin it

    # materialize: the node table feeds the zero-fill union EVERY
    # iteration on the bucketed path — lazy, its groupby would re-run
    nodes = _node_table(edges, src_col, dst_col).materialize()
    if transport == "auto":
        transport = "bucketed" if nodes.count() > broadcast_max_nodes else "broadcast"
    if transport == "broadcast":
        return _pagerank_broadcast(edges, nodes, n_iter, d, src_col, dst_col)
    return _pagerank_bucketed(edges, nodes, n_iter, d, src_col, dst_col, n_buckets)


def _pagerank_broadcast(
    edges: Dataset, nodes: Dataset, n_iter: int, d: float, src: str, dst: str
) -> pd.DataFrame:
    nd = nodes.to_pandas().sort_values("node").reset_index(drop=True)
    node_ids = nd["node"].to_numpy(np.int64)
    outdeg = nd["outdeg"].to_numpy(np.int64)
    n = len(node_ids)
    ranks = np.full(n, 1.0 / n)
    dangling_mask = outdeg == 0
    safe_deg = np.where(dangling_mask, 1, outdeg).astype(np.float64)

    for _ in range(n_iter):
        w_ref = ray.put((node_ids, ranks / safe_deg))

        # block-combined SPARSE partials (compacted idx, sum) — and the
        # driver finishes the reduce: the broadcast transport already
        # holds node-sized arrays on the driver, so a Ray all-to-all per
        # iteration buys nothing here (it cost ~2 s/iter at 600k edges);
        # driver ingress is Σ per-block distinct dst ≤ edge count
        def _contrib(t: pa.Table, _ref=w_ref) -> pa.Table:
            ids, w = cached_get(_ref)
            s = t[src].to_numpy()
            c = w[np.searchsorted(ids, s)]
            di = np.searchsorted(ids, t[dst].to_numpy())
            df = pd.DataFrame({"idx": di, "c": c})
            g = df.groupby("idx", as_index=False)["c"].sum()  # combiner
            return from_pandas_clean(g)

        csum = np.zeros(n)
        for b in edges.map_batches(_contrib, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            np.add.at(csum, b["idx"].to_numpy(), b["c"].to_numpy())
        dangling = ranks[dangling_mask].sum()
        ranks = (1.0 - d) / n + d * (csum + dangling / n)

    return pd.DataFrame({"node": node_ids, "rank": ranks})


def _pagerank_bucketed(
    edges: Dataset,
    nodes: Dataset,
    n_iter: int,
    d: float,
    src: str,
    dst: str,
    n_buckets: int,
) -> pd.DataFrame:
    """Distributed transport: ranks are a (node, rank, outdeg) Dataset.
    Per iteration — (1) a node-sized filter+Sum for the dangling scalar,
    (2) ONE hash(src) co-group of pre-bucketed edges with rank rows
    emitting per-group dst-combined contributions, (3) ONE hash(node)
    combine union-zero-filled against the node table.  Edge payloads
    shuffle once total (before the loop); per-iteration traffic is
    node-sized (24 B rows) plus the contribution partials."""
    n = nodes.count()

    def _tag_edge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t[src],
                "dst": t[dst],
                "w": pa.array(np.zeros(t.num_rows)),
                "tag": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )

    edges_b = add_hash_bucket_int(
        edges.map_batches(_tag_edge, batch_format="pyarrow"), "k", n_buckets
    ).materialize()

    def _init(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "rank": pa.array(np.full(t.num_rows, 1.0 / n)),
                "outdeg": t["outdeg"],
            }
        )

    ranks_ds = nodes.map_batches(_init, batch_format="pyarrow").materialize()

    # one upfront count: a graph with NO sinks (common after symmetrizing
    # a link graph) skips the per-iteration dangling reduction entirely
    def _ndang(t: pa.Table) -> pa.Table:
        deg = t["outdeg"].to_numpy()
        return pa.table({"n": pa.array([int((deg == 0).sum())])})

    n_dangling = int(
        nodes.map_batches(_ndang, batch_format="pyarrow").aggregate(
            Sum("n", alias_name="n")
        )["n"]
        or 0
    )

    for _ in range(n_iter):
        if n_dangling == 0:
            dangling = 0.0
        else:
            def _dang_partial(t: pa.Table) -> pa.Table:
                deg = t["outdeg"].to_numpy()
                r = t["rank"].to_numpy()
                return pa.table({"s": pa.array([float(r[deg == 0].sum())])})

            dang_row = ranks_ds.map_batches(
                _dang_partial, batch_format="pyarrow"
            ).aggregate(Sum("s", alias_name="s"))
            dangling = float(dang_row["s"] or 0.0)

        def _tag_rank(t: pa.Table) -> pa.Table:
            deg = t["outdeg"].to_numpy().astype(np.float64)
            w = t["rank"].to_numpy() / np.where(deg == 0, 1.0, deg)
            return pa.table(
                {
                    "k": t["node"],
                    "dst": pa.array(np.zeros(t.num_rows, np.int64)),
                    "w": pa.array(w),
                    "tag": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )

        ranks_b = add_hash_bucket_int(
            ranks_ds.map_batches(_tag_rank, batch_format="pyarrow"), "k", n_buckets
        )

        def _cogroup(g: pd.DataFrame) -> pa.Table:
            rk = g[g["tag"] == 1]
            ed = g[g["tag"] == 0]
            if not len(ed):
                return pa.table({"node": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.float64())})
            w = ed["k"].map(pd.Series(rk["w"].to_numpy(), index=rk["k"].to_numpy()))
            out = (
                pd.DataFrame({"node": ed["dst"].to_numpy(), "c": w.to_numpy()})
                .groupby("node", as_index=False)["c"].sum()
            )
            return from_pandas_clean(out)

        contrib = (
            edges_b.union(ranks_b)
            .groupby("__bucket")
            .map_groups(_cogroup, batch_format="pandas")
        )

        # zero-fill: union node rows (c=0, carries outdeg/base) with the
        # contribution partials, ONE combine — no driver-side node state
        def _zero(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": t["node"],
                    "c": pa.array(np.zeros(t.num_rows)),
                    "outdeg": t["outdeg"],
                }
            )

        def _pad(t: pa.Table) -> pa.Table:
            return t.append_column(
                "outdeg", pa.array(np.zeros(t.num_rows, np.int64))
            )

        base = float((1.0 - d) / n + d * dangling / n)
        merged = (
            nodes.map_batches(_zero, batch_format="pyarrow")
            .union(contrib.map_batches(_pad, batch_format="pyarrow"))
            .groupby("node")
            .aggregate(Sum("c", alias_name="c"), Sum("outdeg", alias_name="outdeg"))
        )

        def _newrank(t: pa.Table, _base=base) -> pa.Table:
            r = _base + d * t["c"].to_numpy()
            return pa.table(
                {"node": t["node"], "rank": pa.array(r), "outdeg": t["outdeg"]}
            )

        ranks_ds = merged.map_batches(_newrank, batch_format="pyarrow").materialize()

    out = ranks_ds.select_columns(["node", "rank"]).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


def label_propagation(
    edges: Dataset,
    n_iter: int = 5,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Synchronous label propagation community detection (Raghavan et al.
    2007, arXiv:0709.2938) over the UNDIRECTED graph: ``label(v)`` starts
    as ``v``; each iteration every node adopts the MOST FREQUENT label
    among its neighbors (ties → smallest label; isolated nodes keep
    theirs).  Synchronous updates + the deterministic tie rule make the
    result seed-free and test-pinnable.

    Transport mirrors ``pagerank``'s split: edges are deduped, mirrored,
    bucket-keyed on ``hash(dst)`` once and ``materialize``d; per
    iteration the label array broadcasts (``ray.put`` + per-worker
    ``cached_get``) and each bucket group computes its nodes' EXACT
    neighbor-label mode in place (a bucket holds every in-edge of its
    nodes), returning ONE row per node — driver ingress is node-sized
    per iteration.  The per-iteration ``groupby`` re-partitions the
    materialized edge rows (one sort-based all-to-all of 24 B rows per
    round, the same cost profile as the bucketed pagerank transport);
    the mode itself never leaves the bucket."""
    import ray as _ray

    if n_buckets is None:
        n_buckets = max(8, 2 * int(_ray.cluster_resources().get("CPU", 8)))

    def _mirror(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy().astype(np.int64)
        d = t[dst_col].to_numpy().astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, d])),
                "dst": pa.array(np.concatenate([d, s])),
            }
        )

    und = _distinct_edges(
        edges.map_batches(_mirror, batch_format="pyarrow"), "src", "dst", n_buckets
    )
    bucketed = add_hash_bucket_int(und, "dst", n_buckets).materialize()

    nodes = (
        _node_table(und, "src", "dst").to_pandas().sort_values("node")
    )
    node_ids = nodes["node"].to_numpy(np.int64)
    labels = node_ids.copy()

    out_schema = pa.schema([("node", pa.int64()), ("new_label", pa.int64())])

    for _ in range(n_iter):
        ref = ray.put((node_ids, labels))

        def _mode(g: pd.DataFrame, _ref=ref) -> pa.Table:
            ids, lab = cached_get(_ref)
            nb = lab[np.searchsorted(ids, g["src"].to_numpy(np.int64))]
            df = pd.DataFrame({"d": g["dst"].to_numpy(np.int64), "lab": nb})
            cnt = df.groupby(["d", "lab"], sort=False).size().reset_index(name="c")
            cnt = cnt.sort_values(
                ["d", "c", "lab"], ascending=[True, False, True], kind="mergesort"
            )
            top = cnt.groupby("d", sort=False).head(1)
            return from_pandas_clean(
                pd.DataFrame(
                    {
                        "node": top["d"].to_numpy(np.int64),
                        "new_label": top["lab"].to_numpy(np.int64),
                    }
                ),
                out_schema,
            )

        new = (
            bucketed.groupby("__bucket")
            .map_groups(_mode, batch_format="pandas")
            .to_pandas()
        )
        nl = labels.copy()
        pos = np.searchsorted(node_ids, new["node"].to_numpy(np.int64))
        nl[pos] = new["new_label"].to_numpy(np.int64)
        if np.array_equal(nl, labels):
            break
        labels = nl

    return pd.DataFrame({"node": node_ids, "label": labels.astype(np.int64)})


def triangle_count(
    edges: Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Exact global triangle count over the UNDIRECTED simple graph, with
    the standard degree-ordered orientation (each edge directed from its
    lower-(degree, id) endpoint, so every triangle is generated exactly
    once from its minimal vertex and per-vertex wedge fan-out is bounded
    by the oriented out-degree — the O(m^1.5) MapReduce plan of Suri &
    Vassilvitskii, WWW'11, not the id-ordered variant a hub-heavy graph
    blows up).  Returns one row: (n_nodes, n_edges, n_triangles).

    Shuffles: edge dedup (hash min-endpoint), degree aggregate, TWO
    degree-attach co-groups (the collocation shape — no join operator),
    wedge/edge existence co-group on a packed (lo<<32|hi) pair key.  All
    rows are 16-24 B; payloads never exist."""
    import ray as _ray
    from ray.data.aggregate import Sum

    from ..util import from_pandas_clean, pack_id_pair

    if n_buckets is None:
        n_buckets = max(8, 2 * int(_ray.cluster_resources().get("CPU", 8)))

    def _norm(t: pa.Table) -> pa.Table:
        a = t[src_col].to_numpy().astype(np.int64)
        b = t[dst_col].to_numpy().astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"a": pa.array(lo), "b": pa.array(hi)})

    und = _distinct_edges(
        edges.map_batches(_norm, batch_format="pyarrow"), "a", "b", n_buckets
    ).materialize()
    n_edges = und.count()

    def _deg_partial(t: pa.Table) -> pa.Table:
        node = np.concatenate([t["a"].to_numpy(), t["b"].to_numpy()])
        u, c = np.unique(node, return_counts=True)
        return pa.table({"node": pa.array(u), "deg": pa.array(c.astype(np.int64))})

    degs = (
        und.map_batches(_deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("deg", alias_name="deg"))
    )
    n_nodes = degs.count()

    # attach (deg_a, deg_b) via two tagged co-groups keyed on the endpoint
    s1_schema = pa.schema(
        [("kind", pa.int64()), ("k", pa.int64()), ("a", pa.int64()),
         ("b", pa.int64()), ("deg_a", pa.int64())]
    )

    def _deg_rows(t: pa.Table) -> pa.Table:
        z = np.zeros(t.num_rows, np.int64)
        return pa.table(
            {
                "kind": pa.array(z),
                "k": t["node"].cast(pa.int64()),
                "a": t["node"].cast(pa.int64()),
                "b": pa.array(z),
                "deg_a": t["deg"].cast(pa.int64()),
            }
        )

    def _edge_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.ones(t.num_rows, np.int64)),
                "k": t["a"].cast(pa.int64()),
                "a": t["a"].cast(pa.int64()),
                "b": t["b"].cast(pa.int64()),
                "deg_a": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )

    from ..ops import add_hash_bucket_int

    tagged1 = degs.map_batches(_deg_rows, batch_format="pyarrow").union(
        und.map_batches(_edge_rows, batch_format="pyarrow")
    )

    def _attach_a(g: pd.DataFrame):
        dmap = g.loc[g["kind"] == 0].set_index("k")["deg_a"]
        e = g.loc[g["kind"] == 1]
        out_e = pd.DataFrame(
            {
                "kind": np.ones(len(e), np.int64),
                "k": e["b"].to_numpy(np.int64),
                "a": e["a"].to_numpy(np.int64),
                "b": e["b"].to_numpy(np.int64),
                "deg_a": e["a"].map(dmap).to_numpy(np.int64),
            }
        )
        d = g.loc[g["kind"] == 0]
        return from_pandas_clean(
            pd.concat([out_e, d[["kind", "k", "a", "b", "deg_a"]]],
                      ignore_index=True),
            s1_schema,
        )

    s1 = (
        add_hash_bucket_int(tagged1, "k", n_buckets)
        .groupby("__bucket")
        .map_groups(_attach_a, batch_format="pandas")
    )

    or_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def _orient(g: pd.DataFrame):
        dmap = g.loc[g["kind"] == 0].set_index("k")["deg_a"]
        e = g.loc[g["kind"] == 1]
        deg_b = e["b"].map(dmap).to_numpy(np.int64)
        deg_a = e["deg_a"].to_numpy(np.int64)
        a = e["a"].to_numpy(np.int64)
        b = e["b"].to_numpy(np.int64)
        # direct from lower (deg, id); (deg, id) is a total order
        a_first = (deg_a < deg_b) | ((deg_a == deg_b) & (a < b))
        src = np.where(a_first, a, b)
        dst = np.where(a_first, b, a)
        return from_pandas_clean(pd.DataFrame({"src": src, "dst": dst}), or_schema)

    oriented = (
        add_hash_bucket_int(s1, "k", n_buckets)
        .groupby("__bucket")
        .map_groups(_orient, batch_format="pandas")
    )

    # wedges from each src's oriented out-neighborhood; existence check on
    # a packed undirected pair key
    pair_schema = pa.schema([("kind", pa.int64()), ("pk", pa.int64())])

    def _wedges(g: pd.DataFrame):
        pks = []
        for _, grp in g.groupby("src", sort=False):
            d = np.unique(grp["dst"].to_numpy(np.int64))
            if len(d) < 2:
                continue
            i, j = np.triu_indices(len(d), k=1)
            pks.append(pack_id_pair(d[i], d[j]))
        pk = np.concatenate(pks) if pks else np.empty(0, np.int64)
        return from_pandas_clean(
            pd.DataFrame({"kind": np.zeros(len(pk), np.int64), "pk": pk}),
            pair_schema,
        )

    def _edge_keys(t: pa.Table) -> pa.Table:
        pk = pack_id_pair(t["a"].to_numpy(), t["b"].to_numpy())
        return pa.table(
            {
                "kind": pa.array(np.ones(len(pk), np.int64)),
                "pk": pa.array(pk),
            }
        )

    wedges = (
        add_hash_bucket_int(oriented, "src", n_buckets)
        .groupby("__bucket")
        .map_groups(_wedges, batch_format="pandas")
    )
    tagged2 = wedges.union(und.map_batches(_edge_keys, batch_format="pyarrow"))

    cnt_schema = pa.schema([("n", pa.int64())])

    def _count(g: pd.DataFrame):
        have = set(g.loc[g["kind"] == 1, "pk"].to_numpy())
        w = g.loc[g["kind"] == 0, "pk"]
        n = int(w.isin(have).sum())
        return from_pandas_clean(pd.DataFrame({"n": [n]}), cnt_schema)

    total = (
        add_hash_bucket_int(tagged2, "pk", n_buckets)
        .groupby("__bucket")
        .map_groups(_count, batch_format="pandas")
        .to_pandas()["n"]
        .sum()
    )
    return pd.DataFrame(
        {
            "n_nodes": [int(n_nodes)],
            "n_edges": [int(n_edges)],
            "n_triangles": [int(total)],
        }
    )


def k_core(
    edges: Dataset,
    k: int,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    max_iters: int = 100,
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """The k-core of the undirected simple graph: the maximal subgraph
    where every node has degree >= k, by iterative peeling (Matula &
    Beck 1983).  Each round: one distributed degree aggregate over the
    surviving edges (per-batch unique-count partials → groupby sum), then
    the shrinking survivor set broadcasts (``ray.put`` + per-worker
    cache) and a map-side filter drops edges touching peeled nodes.
    Converges in <= n rounds, usually few; the driver holds only the
    node-sized survivor set (the same bound as the label/rank vectors of
    the other graph ops).  Returns the surviving (node, deg) rows —
    empty when the graph has no k-core."""
    import ray as _ray
    from ray.data.aggregate import Sum

    if n_buckets is None:
        n_buckets = max(8, 2 * int(_ray.cluster_resources().get("CPU", 8)))

    def _norm(t: pa.Table) -> pa.Table:
        a = t[src_col].to_numpy().astype(np.int64)
        b = t[dst_col].to_numpy().astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"a": pa.array(lo), "b": pa.array(hi)})

    cur = _distinct_edges(
        edges.map_batches(_norm, batch_format="pyarrow"), "a", "b", n_buckets
    ).materialize()

    def _degrees(e: Dataset) -> pd.DataFrame:
        def _p(t: pa.Table) -> pa.Table:
            node = np.concatenate([t["a"].to_numpy(), t["b"].to_numpy()])
            u, c = np.unique(node, return_counts=True)
            return pa.table(
                {"node": pa.array(u), "deg": pa.array(c.astype(np.int64))}
            )

        return (
            e.map_batches(_p, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("deg", alias_name="deg"))
            .to_pandas()
        )

    degs = _degrees(cur)
    for _ in range(max_iters):
        keep = degs.loc[degs["deg"] >= k, "node"].to_numpy(np.int64)
        if len(keep) == len(degs):
            break
        if len(keep) == 0:
            return pd.DataFrame({"node": np.empty(0, np.int64),
                                 "deg": np.empty(0, np.int64)})
        ref = ray.put(np.sort(keep))

        def _filter(t: pa.Table, _ref=ref) -> pa.Table:
            from ..util import cached_get as _cg

            kp = _cg(_ref)
            a = t["a"].to_numpy()
            b = t["b"].to_numpy()
            ok = (kp[np.clip(np.searchsorted(kp, a), 0, len(kp) - 1)] == a) & (
                kp[np.clip(np.searchsorted(kp, b), 0, len(kp) - 1)] == b
            )
            return t.filter(pa.array(ok))

        cur = cur.map_batches(_filter, batch_format="pyarrow").materialize()
        degs = _degrees(cur)
        if len(degs) == 0:
            return pd.DataFrame({"node": np.empty(0, np.int64),
                                 "deg": np.empty(0, np.int64)})
    degs["node"] = degs["node"].astype("int64")
    degs["deg"] = degs["deg"].astype("int64")
    return degs.sort_values("node").reset_index(drop=True)
