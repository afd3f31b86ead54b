"""PageRank (functions/graph.py): both rank-transport paths vs a dense
numpy oracle, dangling-node mass handling, and the rows-only driver
query's pinned properties."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from crawler_uni_ray.functions.graph import pagerank


def dense_pagerank(edge_list, n_iter=10, d=0.85):
    nodes = sorted({s for s, _ in edge_list} | {t for _, t in edge_list})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n, np.int64)
    for s, _ in set(edge_list):
        out[idx[s]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        c = np.zeros(n)
        for s, t in set(edge_list):
            c[idx[t]] += r[idx[s]] / out[idx[s]]
        dang = r[out == 0].sum()
        r = (1 - d) / n + d * (c + dang / n)
    return pd.DataFrame({"node": nodes, "rank": r})


# a graph with a hub, a cycle, a dangling sink (6) and a dst-only node (7),
# plus a duplicate edge (must be deduped before outdegree counting)
EDGES = [(1, 2), (1, 3), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4), (4, 6), (2, 7), (1, 2)]


def _edges_ds():
    return ray.data.from_items([{"src": s, "dst": t} for s, t in EDGES])


@pytest.mark.parametrize("transport", ["broadcast", "bucketed"])
def test_pagerank_matches_dense_oracle(ray_session, transport):
    got = pagerank(_edges_ds(), n_iter=10, transport=transport)
    want = dense_pagerank(EDGES, n_iter=10)
    got = got.sort_values("node").reset_index(drop=True)
    assert list(got["node"]) == list(want["node"])
    np.testing.assert_allclose(got["rank"], want["rank"], atol=1e-12)
    # ranks are a distribution (dangling mass redistributed, never lost)
    assert got["rank"].sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_transports_agree(ray_session):
    a = pagerank(_edges_ds(), n_iter=7, transport="broadcast")
    b = pagerank(_edges_ds(), n_iter=7, transport="bucketed")
    pd.testing.assert_frame_equal(
        a.sort_values("node").reset_index(drop=True),
        b.sort_values("node").reset_index(drop=True),
        atol=1e-12,
        check_exact=False,
    )


def test_pagerank_star_graph_known_answer(ray_session):
    # N leaves all pointing at a hub; hub dangles.  Symmetry pins the
    # leaf ranks equal; hub rank must exceed every leaf.
    n_leaves = 5
    edges = [(i, 100) for i in range(n_leaves)]
    ds = ray.data.from_items([{"src": s, "dst": t} for s, t in edges])
    got = pagerank(ds, n_iter=20, transport="broadcast").set_index("node")["rank"]
    leaves = got[got.index != 100]
    assert leaves.max() - leaves.min() < 1e-12
    assert got[100] > leaves.max()
    want = dense_pagerank(edges, n_iter=20).set_index("node")["rank"]
    np.testing.assert_allclose(got.sort_index(), want.sort_index(), atol=1e-12)


def test_lineitem_pagerank_query_pinned(ray_session):
    """The driver query vs a dense recompute of the same bipartite graph
    at sf0.001 — pins values, not just row counts."""
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    got = entrymod.queries()["lineitem_pagerank"](sf)
    pairs = duckdb.connect().execute(
        f"SELECT DISTINCT l_partkey, l_suppkey FROM read_parquet('{sf}/lineitem.parquet')"
    ).fetchall()
    edges = [(p, s + 1_000_000) for p, s in pairs] + [
        (s + 1_000_000, p) for p, s in pairs
    ]
    want = dense_pagerank(edges, n_iter=10)
    got = got.sort_values("node").reset_index(drop=True)
    assert list(got["node"]) == list(want["node"])
    np.testing.assert_allclose(got["rank"], want["rank"], atol=1e-9)


def _lpa_reference(edge_pairs, n_iter=5):
    """Dense synchronous LPA: most-frequent neighbor label, tie -> min."""
    from collections import Counter

    und = set()
    for s, d in edge_pairs:
        if s != d:
            und.add((s, d))
            und.add((d, s))
        else:
            und.add((s, d))
    nodes = sorted({x for e in und for x in e})
    idx = {n: i for i, n in enumerate(nodes)}
    nbrs = [[] for _ in nodes]
    for s, d in und:
        nbrs[idx[d]].append(idx[s])  # in-neighbors of d (mirrored = undirected)
    labels = list(range(len(nodes)))
    for _ in range(n_iter):
        new = labels[:]
        for v in range(len(nodes)):
            if not nbrs[v]:
                continue
            c = Counter(labels[u] for u in nbrs[v])
            best = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            new[v] = best
        if new == labels:
            break
        labels = new
    return {nodes[i]: labels[i] for i in range(len(nodes))}, nodes


def test_label_propagation_matches_dense_reference(ray_session):
    """Distributed LPA ≡ the dense synchronous reference on a seeded
    random graph — labels compared as NODE IDS (the reference tracks
    positional labels; both start label(v)=v so positions map back), and
    two planted cliques each converge to one label."""
    import numpy as np
    import ray.data

    from crawler_uni_ray.functions.graph import label_propagation

    rng = np.random.RandomState(7)
    # two dense cliques + sparse noise
    a = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    b = [(i, j) for i in range(20, 32) for j in range(i + 1, 32)]
    noise = [(int(rng.randint(0, 32)), int(rng.randint(40, 60))) for _ in range(30)]
    pairs = a + b + noise
    import pyarrow as pa

    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([p[0] for p in pairs], pa.int64()),
                "dst": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    )
    got = label_propagation(edges, n_iter=5)
    ref_pos, nodes = _lpa_reference(pairs, n_iter=5)
    # reference labels are positions into `nodes`; map back to node ids
    want = {n: nodes[ref_pos[n]] for n in nodes}
    got_map = dict(zip(got["node"], got["label"]))
    assert got_map == want
    # each clique shares one label
    assert len({got_map[i] for i in range(10)}) == 1
    assert len({got_map[i] for i in range(20, 32)}) == 1


def test_triangle_count_known_graphs(ray_session):
    """K4 = 4 triangles, C4 = 0, triangle+pendant with duplicate /
    reversed / self edges = 1 (normalization + dedup hold)."""
    import pyarrow as pa
    import ray.data

    from crawler_uni_ray.functions.graph import triangle_count

    def g(pairs):
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array([p[0] for p in pairs], pa.int64()),
                    "dst": pa.array([p[1] for p in pairs], pa.int64()),
                }
            )
        )

    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert triangle_count(g(k4)).iloc[0]["n_triangles"] == 4
    assert triangle_count(g([(0, 1), (1, 2), (2, 3), (3, 0)])).iloc[0][
        "n_triangles"
    ] == 0
    r = triangle_count(g([(0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 3)]))
    assert r.iloc[0]["n_triangles"] == 1 and r.iloc[0]["n_edges"] == 4


def test_triangle_count_rejects_ids_beyond_pair_key(ray_session):
    """Ids ≥ 2**32 do not fit a half of the packed (lo << 32 | hi) pair
    key, where they would collide with other pairs."""
    import pyarrow as pa
    import ray.data

    from crawler_uni_ray.functions.graph import triangle_count

    big = 2**32 + 1
    edges = [(0, 1), (1, big), (0, big), (5, 6)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([e[0] for e in edges], pa.int64()),
                "dst": pa.array([e[1] for e in edges], pa.int64()),
            }
        )
    )
    # the kernel's ValueError reaches the caller wrapped by Ray Data
    with pytest.raises(Exception, match="ValueError: ids in .* do not fit a 32-bit pair key"):
        triangle_count(ds)


def test_lineitem_communities_query_pinned(ray_session):
    """The driver query vs the dense synchronous reference on the same
    sf0.001 bipartite graph — pins labels, not just row counts."""
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    got = entrymod.queries()["lineitem_communities"](sf)
    pairs = duckdb.connect().execute(
        f"SELECT DISTINCT l_partkey, l_suppkey FROM read_parquet('{sf}/lineitem.parquet')"
    ).fetchall()
    edges = [(p, s + 1_000_000) for p, s in pairs]
    ref_pos, nodes = _lpa_reference(edges, n_iter=5)
    want = {n: nodes[ref_pos[n]] for n in nodes}
    got_map = dict(zip(got["node"], got["label"]))
    assert got_map == want


def test_k_core_matches_peeling_reference(ray_session):
    """Distributed k-core ≡ a sequential peeling reference on a seeded
    random graph, plus known answers: a clique survives its own k, a tree
    has no 2-core."""
    import pyarrow as pa
    import ray.data

    from crawler_uni_ray.functions.graph import k_core

    def g(pairs):
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array([p[0] for p in pairs], pa.int64()),
                    "dst": pa.array([p[1] for p in pairs], pa.int64()),
                }
            )
        )

    def ref_k_core(pairs, k):
        adj = {}
        for s, d in pairs:
            if s == d:
                continue
            adj.setdefault(s, set()).add(d)
            adj.setdefault(d, set()).add(s)
        changed = True
        while changed:
            changed = False
            for v in list(adj):
                if len(adj[v]) < k:
                    for u in adj[v]:
                        adj[u].discard(v)
                    del adj[v]
                    changed = True
        return {v: len(ns) for v, ns in adj.items()}

    rng = np.random.RandomState(3)
    pairs = [(int(rng.randint(0, 60)), int(rng.randint(0, 60))) for _ in range(200)]
    for k in (2, 3, 4):
        got = k_core(g(pairs), k)
        want = ref_k_core(pairs, k)
        assert dict(zip(got["node"], got["deg"])) == want, k
    # K5 survives k=4; a path graph has no 2-core
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert len(k_core(g(k5), 4)) == 5
    assert len(k_core(g([(0, 1), (1, 2), (2, 3)]), 2)) == 0


def test_parts_copurchase_kcore_query_pinned(ray_session):
    """The driver k-core query vs sequential peeling over DuckDB-generated
    co-purchase edges at sf0.001 — k=65 peels a non-trivial fringe while
    leaving a large core (both sides asserted)."""
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    got = entrymod.queries()["parts_copurchase_kcore"](sf)
    pairs = duckdb.connect().execute(
        f"""WITH li AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM read_parquet('{sf}/lineitem.parquet'))
            SELECT DISTINCT x.l_partkey, y.l_partkey FROM li x JOIN li y
            ON x.l_orderkey = y.l_orderkey AND x.l_partkey < y.l_partkey"""
    ).fetchall()
    adj = {}
    for s, d in pairs:
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    n_total = len(adj)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) < 65:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
                changed = True
    want = {v: len(ns) for v, ns in adj.items()}
    assert dict(zip(got["node"], got["deg"])) == want
    assert 0 < len(got) < n_total
