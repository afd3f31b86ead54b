"""Similarity search over an embedding column (``list<float>``).

* ``ann_bruteforce`` — exact cosine top-k: the query matrix is broadcast
  once (``ray.put``); each batch does ONE numpy matmul against it and
  emits only its local top-k rows per query (a per-batch combiner), so the
  driver-side merge sees ``n_batches × n_queries × k`` rows, never the
  corpus.  This is the correctness baseline and the SQL-checkable path.
* ``ann_lsh`` — the scale path: random-hyperplane bucket codes partition
  the corpus; each query probes only its own (multi-probe) buckets.  The
  all-to-all moves (bucket, id, vec) once — index build — and queries
  touch a vanishing fraction of the data.  Approximate by construction, so
  no SQL oracle.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

from ..util import cached_get


def _as_matrix(col) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float32) for v in col])


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)


def ann_bruteforce(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list[int],
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Exact cosine top-k: returns (query_id, neighbor_id, cosine, rank).
    Deterministic tie-break: (-cosine, neighbor_id)."""
    qmat = _normalize(np.asarray(queries, dtype=np.float32))
    qref = ray.put(qmat)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        q = cached_get(qref)
        mat = _normalize(_as_matrix(df[vec_col].to_numpy()))
        sims = q @ mat.T  # (n_queries, batch)
        ids = df[id_col].to_numpy()
        out = {"qi": [], "neighbor_id": [], "cosine": []}
        top = min(k, sims.shape[1])
        for qi in range(sims.shape[0]):
            # local top-k by (-sim, id): sort a k-sized argpartition slice
            part = np.argpartition(-sims[qi], top - 1)[:top]
            for j in part:
                out["qi"].append(qi)
                out["neighbor_id"].append(int(ids[j]))
                out["cosine"].append(float(sims[qi, j]))
        return pd.DataFrame(out)

    partials = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    rows = []
    for qi, qid in enumerate(query_ids):
        cand = partials[partials["qi"] == qi]
        best = heapq.nsmallest(
            k, cand.itertuples(index=False), key=lambda r: (-r.cosine, r.neighbor_id)
        )
        for rank, r in enumerate(best):
            rows.append((int(qid), int(r.neighbor_id), round(float(r.cosine), 6), rank + 1))
    return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cosine", "rank"])


def derive_sample_mod(n_rows: int, max_sample_rows: int = 100_000) -> int:
    """Smallest ``mod`` such that ~``n_rows / mod`` ≤ ``max_sample_rows`` —
    the enforced bound on what k-means may collect to the driver."""
    return max(1, -(-int(n_rows) // int(max_sample_rows)))


def _id_hash_mask(ids: np.ndarray, mod: int) -> np.ndarray:
    """Deterministic Bernoulli(1/mod) row mask from a Fibonacci hash of the
    id — NOT ``id % mod``: structured id spaces (e.g. every id a multiple
    of the derived mod) would defeat a raw modulus and collect far more
    than the intended sample (ADVICE r3)."""
    h = np.asarray(ids, dtype=np.int64).astype(np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    return ((h >> np.uint64(33)) % np.uint64(mod)) == 0


def kmeans_centroids(
    ds: Dataset,
    n_centroids: int = 16,
    n_iters: int = 10,
    seed: int = 7,
    sample_mod: int | None = None,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_sample_rows: int = 100_000,
) -> np.ndarray:
    """Spherical k-means over a bounded deterministic sample (rows whose
    id-HASH ≡ 0 mod ``sample_mod`` — see :func:`_id_hash_mask`) — the IVF
    coarse quantizer.  The sample is collected once to the driver; Lloyd
    iterations run driver-side on it.  ``sample_mod=None`` (default)
    derives the mod from ``ds.count()`` so the collected sample stays ≤
    ``max_sample_rows`` at ANY corpus scale — enforced in code by a final
    driver-side truncation (hash sampling is ~1/mod but not exact;
    ADVICE r3: a raw ``id % mod`` filter could collect the whole table on
    structured id spaces).  Deterministic: seeded init, stable assignment
    tie-break (argmax takes the lowest index)."""
    if sample_mod is None:
        sample_mod = derive_sample_mod(ds.count(), max_sample_rows)
    sampled = ds.select_columns([id_col, vec_col])
    if sample_mod > 1:

        def _keep(df: pd.DataFrame) -> pd.DataFrame:
            return df[_id_hash_mask(df[id_col].to_numpy(), sample_mod)]

        sampled = sampled.map_batches(_keep, batch_format="pandas")
    rows = sampled.to_pandas()
    if len(rows) > max_sample_rows:
        # hash-sample binomial overshoot (or mod=1 edge): hard-cap
        # deterministically on the smallest ids
        rows = rows.nsmallest(max_sample_rows, id_col)
    # introspection hook for tests: prove the driver collect stayed bounded
    kmeans_centroids.last_sample_rows = len(rows)
    mat = _normalize(_as_matrix(rows.sort_values(id_col)[vec_col].to_numpy()))
    rng = np.random.RandomState(seed)
    cent = mat[rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)]
    for _ in range(n_iters):
        assign = np.argmax(mat @ cent.T, axis=1)
        for c in range(len(cent)):
            members = mat[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def build_ivf_index(
    ds: Dataset,
    centroids: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> Dataset:
    """IVF list assignment: one pass tagging each vector with its nearest
    centroid (``ivf_list``).  Centroids broadcast once; the output is the
    reusable index (at scale you'd ``write_parquet`` it partitioned by
    list id so probes prune row groups, exactly like the corpus fetch)."""
    cref = ray.put(np.asarray(centroids, dtype=np.float32))

    def _assign(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:  # zero-row batch: np.stack would raise (ADVICE r3)
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "ivf_list": pd.Series(dtype="int64"),
                    vec_col: pd.Series(dtype=object),
                }
            )
        c = cached_get(cref)
        mat = _normalize(_as_matrix(df[vec_col].to_numpy()))
        assign = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(), "ivf_list": assign, vec_col: list(mat)}
        )

    return ds.map_batches(_assign, batch_format="pandas")


def _probe_order(cent: np.ndarray, qmat: np.ndarray, nprobe: int) -> np.ndarray:
    """Per-query probe lists: the ``nprobe`` nearest centroids."""
    return np.argsort(-(qmat @ cent.T), axis=1, kind="stable")[:, :nprobe].astype(
        np.int64
    )


def _ivf_search(
    indexed: Dataset,
    order: np.ndarray,
    qmat: np.ndarray,
    query_ids: list[int],
    k: int,
    vec_col: str,
    id_col: str,
) -> pd.DataFrame:
    """Probe-filtered scan over an ``ivf_list``-tagged dataset with the
    bounded per-batch top-k combiner (driver merge ≤ n_batches × n_queries
    × k rows).  Shared by the in-memory and persisted-index paths so their
    results are identical by construction."""
    pref = ray.put((qmat, order))

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        qm, probes = cached_get(pref)
        out = {"qi": [], "neighbor_id": [], "cosine": []}
        lists = df["ivf_list"].to_numpy()
        for qi in range(len(qm)):
            sub = df[np.isin(lists, probes[qi])]
            if len(sub) == 0:
                continue
            mat = np.stack(sub[vec_col].to_numpy())
            sims = mat @ qm[qi]
            ids = sub[id_col].to_numpy()
            local = heapq.nsmallest(
                k, zip(sims.tolist(), ids.tolist()), key=lambda t: (-t[0], t[1])
            )
            for sim, nid in local:
                out["qi"].append(qi)
                out["neighbor_id"].append(int(nid))
                out["cosine"].append(float(sim))
        return pd.DataFrame(out)

    partials = indexed.map_batches(_partial, batch_format="pandas").to_pandas()
    return _merge_topk_partials(partials, query_ids, k)


def _merge_topk_partials(
    partials: pd.DataFrame, query_ids: list[int], k: int
) -> pd.DataFrame:
    """Driver merge of per-batch top-k partials (≤ n_batches × n_queries
    × k rows — bounded for any corpus size).  Shared by every ANN path."""
    rows = []
    for qi, qid in enumerate(query_ids):
        cand = partials[partials["qi"] == qi] if len(partials) else partials
        if len(cand) == 0:
            continue
        best = heapq.nsmallest(
            k, cand.itertuples(index=False), key=lambda r: (-r.cosine, r.neighbor_id)
        )
        for rank, r in enumerate(best):
            rows.append(
                (int(qid), int(r.neighbor_id), round(float(r.cosine), 6), rank + 1)
            )
    return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cosine", "rank"])


def ann_ivf(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list[int],
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    n_iters: int = 10,
    seed: int = 7,
    sample_mod: int | None = None,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """IVF approximate top-k: k-means coarse quantizer → per-vector list
    assignment → each query scans only its ``nprobe`` nearest lists.
    ``nprobe == n_centroids`` degrades to exact brute force (the
    equivalence test hook).  This path rebuilds the index per call and
    scans every batch (probes prune compute, not I/O) — use
    ``write_ivf_index`` + ``ann_ivf_persisted`` when the index is reused:
    that path's I/O is proportional to the probed lists."""
    cent = kmeans_centroids(
        ds, n_centroids=n_centroids, n_iters=n_iters, seed=seed,
        sample_mod=sample_mod, vec_col=vec_col, id_col=id_col,
    )
    indexed = build_ivf_index(ds, cent, vec_col=vec_col, id_col=id_col)
    qmat = _normalize(np.asarray(queries, dtype=np.float32))
    order = _probe_order(cent, qmat, min(nprobe, len(cent)))
    return _ivf_search(indexed, order, qmat, query_ids, k, vec_col, id_col)


def semdedup_keep_ids(
    ds: Dataset,
    n_clusters: int = 8,
    tau: float = 0.35,
    n_iters: int = 10,
    seed: int = 7,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """SemDeDup-style semantic dedup / diversity pruning (Abbas et al.
    2023, arXiv:2303.09540): k-means cluster the L2-normalized embeddings,
    then WITHIN each cluster greedily drop every vector whose cosine
    similarity to an already-kept lower-id vector exceeds ``tau``.  The
    published trick is that the quadratic compare is confined to single
    clusters — cluster assignment is one broadcast ``map_batches`` pass
    (centroids ``ray.put`` once), the prune is one ``groupby(cluster)``
    shuffle whose group working set is a cluster, never the corpus.  At
    near-dup thresholds (τ≈0.95+) this removes semantic duplicates; at
    low τ it is a diversity filter.  Deterministic: seeded bounded-sample
    k-means + id-ordered greedy keep.  Returns the kept ``(id, cluster)``
    rows sorted by id."""
    cent = kmeans_centroids(
        ds, n_centroids=n_clusters, n_iters=n_iters, seed=seed,
        vec_col=vec_col, id_col=id_col,
    )
    indexed = build_ivf_index(ds, cent, vec_col=vec_col, id_col=id_col)

    def _prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col).reset_index(drop=True)
        mat = _as_matrix(g[vec_col].to_numpy())  # normalized by build_ivf_index
        keep: list[int] = []
        for i in range(len(g)):
            if keep and (mat[keep] @ mat[i] > tau).any():
                continue
            keep.append(i)
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy()[keep],
                "cluster": g["ivf_list"].to_numpy()[keep].astype(np.int64),
            }
        )

    out = (
        indexed.groupby("ivf_list")
        .map_groups(_prune, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(id_col).reset_index(drop=True)


#: target rows a single index-writer group task materializes (its pandas
#: frame ≈ this × (dim × 4 B + 8 B) heap, ~270 MB at 1M rows × 64 dims).
INDEX_WRITER_ROWS_PER_GROUP = 1_000_000


def _writer_plan(
    n_rows: int | None, n_parts: int | None, rows_per_group: int
) -> tuple[int, int]:
    """Size the index-writer shuffle (VERDICT r4 #1).  Returns
    ``(n_shards, n_sub)``:

    * ``n_shards`` — write-group count, derived from the corpus size so a
      group holds ≈ ``rows_per_group`` rows (the old static 32 gave
      ~corpus/32-row pandas frames per task — multi-GB at 10^9 vectors).
      Capped at 4096 groups (groupby per-group overhead dominates past
      that; 4096 × 1M rows ≈ 10^9.6 vectors before the cap binds).
    * ``n_sub`` — id-hash sub-parts PER partition value, derived from the
      expected rows/partition so one hot list/bucket can't blow a single
      group: a partition's rows split across ``n_sub`` (part, sub) cells,
      each landing in its own deterministic group.  Under k× skew a cell
      is k× the target — bounded degradation, not corpus/32.

    ``n_rows=None`` (unknown size) falls back to the legacy 32 groups.
    """
    if n_rows is None:
        return 32, 1
    n_shards = max(1, min(4096, -(-int(n_rows) // max(1, rows_per_group))))
    n_sub = 1
    if n_parts:
        per_part = int(n_rows) / max(1, int(n_parts))
        n_sub = max(1, min(256, -(-int(per_part) // max(1, rows_per_group))))
    return n_shards, n_sub


def _write_partitioned_index(
    indexed: Dataset,
    base_dir: str,
    part_col: str,
    dir_prefix: str,
    vec_col: str,
    id_col: str,
    n_rows: int | None = None,
    n_parts: int | None = None,
    rows_per_group: int | None = None,
    stats_out: dict | None = None,
) -> None:
    """Persist an (id, vec, partition) dataset as ``{dir_prefix}_NNNN/``
    parquet dirs — retry-idempotent, fan-out-bounded (VERDICT r3 #1) and
    group-memory-bounded (VERDICT r4 #1):

    * ONE bucketed shuffle on the (partition, id-hash sub-part) cell
      co-locates each cell's rows in a single group task.  ``n_shards``
      is derived from ``n_rows`` (≈ ``rows_per_group`` rows per group —
      see :func:`_writer_plan`), never a static fraction of the corpus;
      ``n_sub`` splits hot partition values by id hash so a skewed
      list/bucket can't concentrate in one task.  Fan-out stays bounded:
      ≤ ``n_sub`` files per partition dir, never tasks × values.
    * Each group writes its cells id-sorted under DETERMINISTIC names
      (``part-{sub:05d}.parquet``) via tmp → ``os.rename``: the cell →
      group assignment is a pure function of (partition, id), so a
      retried / speculatively re-executed group regenerates byte-identical
      content under the same name — no duplicate vectors, no torn files
      (the ``_side_write_results`` discipline, pipelines/crawl.py).

    Two persisted-format choices (both read-back traps, kept from the
    original writers): vectors as PLAIN ``fixed_size_list<float32>`` (a
    pandas ndarray block would round-trip through Ray's tensor extension
    and poison future reads) and ``{prefix}_NNNN`` naming, not hive
    ``col=N`` (``=`` dirs trigger hive-partition inference on read-back).

    ``stats_out`` (tests/diagnostics) receives ``n_shards``, ``n_sub``,
    ``n_rows_written`` and ``max_group_rows`` — the memory-bound proof.
    """
    import os

    import pyarrow.parquet as _wpq

    if rows_per_group is None:
        rows_per_group = INDEX_WRITER_ROWS_PER_GROUP
    n_shards, n_sub = _writer_plan(n_rows, n_parts, rows_per_group)

    def _shard(t: pa.Table) -> pa.Table:
        parts = np.asarray(t[part_col].to_numpy(), dtype=np.int64)
        ids = np.asarray(t[id_col].to_numpy(), dtype=np.int64)
        # deterministic id-hash sub-part (splitmix-style multiplicative
        # mix — plain id % n_sub would alias patterned id spaces)
        sub = (
            (ids.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
        ).astype(np.int64) % n_sub
        cell = parts * n_sub + sub
        shard = ((cell * 2654435761) & 0x7FFFFFFF) % n_shards
        t = t.replace_schema_metadata(None)
        return t.append_column("__sub", pa.array(sub)).append_column(
            "__shard", pa.array(shard)
        )

    def _write_group(g: pd.DataFrame) -> pd.DataFrame:
        parts = np.asarray(g[part_col].to_numpy(), dtype=np.int64)
        subs = np.asarray(g["__sub"].to_numpy(), dtype=np.int64)
        cell = parts * n_sub + subs
        for cv in np.unique(cell):
            pv, sv = int(cv) // n_sub, int(cv) % n_sub
            sub = g[cell == cv].sort_values(id_col)
            mat = np.stack(sub[vec_col].to_numpy()).astype(np.float32)
            t = pa.table(
                {
                    id_col: pa.array(sub[id_col].to_numpy()),
                    vec_col: pa.FixedSizeListArray.from_arrays(
                        pa.array(mat.ravel(), pa.float32()), mat.shape[1]
                    ),
                }
            )
            d = os.path.join(base_dir, f"{dir_prefix}_{int(pv):04d}")
            os.makedirs(d, exist_ok=True)
            final = os.path.join(d, f"part-{int(sv):05d}.parquet")
            tmpf = f"{final}.{os.getpid()}.tmp"
            _wpq.write_table(t, tmpf, row_group_size=4096)
            os.rename(tmpf, final)
        return pd.DataFrame({"n": [len(g)]})

    # consume the write pipeline; only n_shards tiny count rows reach the
    # driver — they double as the group-memory proof (max_group_rows)
    group_rows = (
        indexed.map_batches(_shard, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(
            lambda g: _write_group(g.drop(columns=["__shard"])),
            batch_format="pandas",
        )
        .to_pandas()["n"]
    )
    if stats_out is not None:
        stats_out.update(
            n_shards=n_shards,
            n_sub=n_sub,
            n_rows_written=int(group_rows.sum()),
            max_group_rows=int(group_rows.max()) if len(group_rows) else 0,
        )


def write_ivf_index(
    ds: Dataset,
    index_dir: str,
    n_centroids: int = 16,
    n_iters: int = 10,
    seed: int = 7,
    sample_mod: int | None = None,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    rows_per_group: int | None = None,
    stats_out: dict | None = None,
) -> np.ndarray:
    """Build and PERSIST the IVF index once: ``centroids.npy`` (tiny,
    driver-side) plus the normalized vector assignment written as parquet
    partitioned by list id (``lists/ivf_list=<i>/``).  Queries served via
    :func:`ann_ivf_persisted` then read only their probed lists' files —
    I/O ∝ probed lists, the same file-pruning discipline as the corpus
    fetch (stages/fetch.py ``_PartitionIndex``).  At 100 TB the build is
    one pass over the corpus; every subsequent query touches ~nprobe/
    n_centroids of the index.  Written via the retry-idempotent bounded
    writer :func:`_write_partitioned_index`."""
    import os

    cent = kmeans_centroids(
        ds, n_centroids=n_centroids, n_iters=n_iters, seed=seed,
        sample_mod=sample_mod, vec_col=vec_col, id_col=id_col,
    )
    indexed = build_ivf_index(ds, cent, vec_col=vec_col, id_col=id_col)
    lists_dir = os.path.join(index_dir, "lists")
    os.makedirs(lists_dir, exist_ok=True)
    # n_rows sizes the writer shuffle (VERDICT r4 #1); for a parquet-read
    # input this is a metadata count, not an execution
    _write_partitioned_index(
        indexed, lists_dir, "ivf_list", "list", vec_col, id_col,
        n_rows=ds.count(), n_parts=n_centroids,
        rows_per_group=rows_per_group, stats_out=stats_out,
    )
    np.save(os.path.join(index_dir, "centroids.npy"), cent)
    return cent


def ann_ivf_persisted(
    index_dir: str,
    queries: np.ndarray,
    query_ids: list[int],
    k: int = 10,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> tuple[pd.DataFrame, dict]:
    """Query a persisted IVF index (see :func:`write_ivf_index`): load the
    centroids (tiny), pick each query's ``nprobe`` lists, and read ONLY
    those lists' parquet files.  The list tag is recomputed per batch from
    the broadcast centroids (one matmul vs n_centroids — the partition
    column isn't stored in the files; vectors were persisted normalized so
    the argmax reproduces the stored assignment exactly).  Returns
    ``(result, stats)`` with ``stats["rows_read"]`` proving I/O ∝ probed
    lists.  Results are identical to :func:`ann_ivf` at equal centroids/
    nprobe by construction (shared ``_ivf_search``)."""
    import os

    import pyarrow.parquet as _pq

    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    qmat = _normalize(np.asarray(queries, dtype=np.float32))
    order = _probe_order(cent, qmat, min(nprobe, len(cent)))
    probed = sorted({int(x) for x in order.ravel()})
    files: list[str] = []
    for p in probed:
        d = os.path.join(index_dir, "lists", f"list_{int(p):04d}")
        if os.path.isdir(d):
            files += [
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            ]
    stats = {
        "probed_lists": probed,
        "files_read": len(files),
        "rows_read": sum(_pq.ParquetFile(f).metadata.num_rows for f in files),
    }
    if not files:
        empty = pd.DataFrame(columns=["query_id", "neighbor_id", "cosine", "rank"])
        return empty, stats
    cref = ray.put(np.asarray(cent, dtype=np.float32))

    def _tag(t):
        # arrow in/out: appending the tag without a pandas round-trip
        # keeps the list<float> column out of Ray's pandas TensorDtype
        # path, whose block re-conversion is unreliable for object
        # columns of ndarrays
        import pyarrow as _pa

        if len(t) == 0:  # reshape(-1) can't infer from size 0 (ADVICE r3)
            return t.append_column("ivf_list", _pa.array([], _pa.int64()))
        c = cached_get(cref)
        col = t[vec_col].combine_chunks()
        mat = np.asarray(col.flatten(), dtype=np.float32).reshape(len(t), -1)
        assign = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        return t.append_column("ivf_list", _pa.array(assign))

    indexed = ray.data.read_parquet(files).map_batches(_tag, batch_format="pyarrow")
    return _ivf_search(indexed, order, qmat, query_ids, k, vec_col, id_col), stats


def build_lsh_index(
    ds: Dataset,
    n_planes: int = 10,
    seed: int = 23,
    dim: int = 64,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> tuple[Dataset, np.ndarray]:
    """Index build: one pass assigning each vector its hyperplane sign
    code.  Returns (bucketed dataset, planes)."""
    rng = np.random.RandomState(seed)
    planes = rng.normal(size=(dim, n_planes)).astype(np.float32)
    pref = ray.put(planes)

    def _code(df: pd.DataFrame) -> pd.DataFrame:
        p = cached_get(pref)
        mat = _normalize(_as_matrix(df[vec_col].to_numpy()))
        codes = ((mat @ p) > 0).astype(np.int64) @ (1 << np.arange(n_planes, dtype=np.int64))
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(), "bucket": codes, vec_col: list(mat)}
        )

    return ds.map_batches(_code, batch_format="pandas"), planes


def _lsh_probe_sets(
    qmat: np.ndarray, planes: np.ndarray, n_planes: int, multiprobe_bits: int
) -> list[set[int]]:
    """Per-query probe codes: own bucket + all codes within
    ``multiprobe_bits`` bit flips (shared by the in-memory and persisted
    LSH paths so their probe semantics are identical)."""
    qcodes = ((qmat @ planes) > 0).astype(np.int64) @ (
        1 << np.arange(n_planes, dtype=np.int64)
    )
    probe_sets = []
    for c in qcodes:
        probes = {int(c)}
        probes |= {int(c) ^ (1 << b) for b in range(n_planes)}
        if multiprobe_bits >= 2:
            probes |= {
                int(c) ^ (1 << b1) ^ (1 << b2)
                for b1 in range(n_planes)
                for b2 in range(b1 + 1, n_planes)
            }
        probe_sets.append(probes)
    return probe_sets


def ann_lsh(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list[int],
    k: int = 10,
    n_planes: int = 10,
    multiprobe_bits: int = 2,
    seed: int = 23,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Approximate top-k: search only the query's code bucket plus all
    codes within ``multiprobe_bits`` bit flips."""
    dim = int(np.asarray(queries).shape[1])
    indexed, planes = build_lsh_index(
        ds, n_planes=n_planes, seed=seed, dim=dim, vec_col=vec_col, id_col=id_col
    )
    qmat = _normalize(np.asarray(queries, dtype=np.float32))
    probe_sets = _lsh_probe_sets(qmat, planes, n_planes, multiprobe_bits)
    # per-batch partial top-k (same combiner as ann_bruteforce): the
    # driver merge sees ≤ n_batches × n_queries × k rows — bounded for
    # ANY query-set size, never the candidate set itself
    pref = ray.put((qmat, probe_sets))

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        qm, probes_per_q = cached_get(pref)
        out = {"qi": [], "neighbor_id": [], "cosine": []}
        for qi, probes in enumerate(probes_per_q):
            sub = df[df["bucket"].isin(probes)]
            if len(sub) == 0:
                continue
            mat = np.stack(sub[vec_col].to_numpy())
            sims = mat @ qm[qi]
            ids = sub[id_col].to_numpy()
            local = heapq.nsmallest(
                k, zip(sims.tolist(), ids.tolist()), key=lambda t: (-t[0], t[1])
            )
            for sim, nid in local:
                out["qi"].append(qi)
                out["neighbor_id"].append(int(nid))
                out["cosine"].append(float(sim))
        return pd.DataFrame(out)

    partials = indexed.map_batches(_partial, batch_format="pandas").to_pandas()
    return _merge_topk_partials(partials, query_ids, k)


def write_lsh_index(
    ds: Dataset,
    index_dir: str,
    n_planes: int = 10,
    seed: int = 23,
    dim: int = 64,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    rows_per_group: int | None = None,
    stats_out: dict | None = None,
) -> np.ndarray:
    """Build and PERSIST the hyperplane-LSH index once: ``planes.npy``
    (tiny, driver-side) plus the normalized vectors written as parquet
    partitioned by bucket code (``buckets/bucket_NNNN/``, same plain
    fixed_size_list + non-hive naming discipline as
    :func:`write_ivf_index`).  Queries served via
    :func:`ann_lsh_persisted` read only their multiprobe buckets' files —
    I/O ∝ probed buckets.  Written via the retry-idempotent bounded writer
    :func:`_write_partitioned_index`: ≤ ``n_sub`` deterministic files per
    bucket (one at sandbox scale), so the 2^n_planes bucket dirs no longer
    multiply by the task count (the round-3 small-file explosion)."""
    import os

    indexed, planes = build_lsh_index(
        ds, n_planes=n_planes, seed=seed, dim=dim, vec_col=vec_col, id_col=id_col
    )
    buckets_dir = os.path.join(index_dir, "buckets")
    os.makedirs(buckets_dir, exist_ok=True)
    # n_parts = occupied buckets ≤ 2^n_planes; use the full code space as
    # the partition count — per-part expectation only UNDERestimates when
    # codes concentrate, and n_shards still bounds each group's total
    _write_partitioned_index(
        indexed, buckets_dir, "bucket", "bucket", vec_col, id_col,
        n_rows=ds.count(), n_parts=2 ** n_planes,
        rows_per_group=rows_per_group, stats_out=stats_out,
    )
    np.save(os.path.join(index_dir, "planes.npy"), planes)
    return planes


def ann_lsh_persisted(
    index_dir: str,
    queries: np.ndarray,
    query_ids: list[int],
    k: int = 10,
    multiprobe_bits: int = 2,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> tuple[pd.DataFrame, dict]:
    """Query a persisted LSH index (see :func:`write_lsh_index`): load the
    planes (tiny), compute each query's multiprobe code set, and read ONLY
    those buckets' parquet files.  The bucket code is recomputed per batch
    from the broadcast planes (vectors were persisted normalized, so the
    sign code reproduces the stored assignment exactly).  Returns
    ``(result, stats)`` with ``stats["rows_read"]`` proving I/O ∝ probed
    buckets.  Results ≡ :func:`ann_lsh` at equal planes/multiprobe by
    construction (shared :func:`_lsh_probe_sets` +
    :func:`_merge_topk_partials` kernels)."""
    import os

    import pyarrow.parquet as _pq

    planes = np.load(os.path.join(index_dir, "planes.npy"))
    n_planes = planes.shape[1]
    qmat = _normalize(np.asarray(queries, dtype=np.float32))
    probe_sets = _lsh_probe_sets(qmat, planes, n_planes, multiprobe_bits)
    probed = sorted(set().union(*probe_sets))
    files: list[str] = []
    for code in probed:
        d = os.path.join(index_dir, "buckets", f"bucket_{int(code):04d}")
        if os.path.isdir(d):
            files += [
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            ]
    stats = {
        "probed_buckets": len(probed),
        "files_read": len(files),
        "rows_read": sum(_pq.ParquetFile(f).metadata.num_rows for f in files),
    }
    if not files:
        empty = pd.DataFrame(columns=["query_id", "neighbor_id", "cosine", "rank"])
        return empty, stats
    pref = ray.put((np.asarray(planes, dtype=np.float32), qmat, probe_sets))

    def _partial(t) -> pd.DataFrame:
        if len(t) == 0:  # reshape(-1) can't infer from size 0 (ADVICE r3)
            return pd.DataFrame({"qi": [], "neighbor_id": [], "cosine": []})
        p, qm, probes_per_q = cached_get(pref)
        col = t[vec_col].combine_chunks()
        mat = np.asarray(col.flatten(), dtype=np.float32).reshape(len(t), -1)
        ids = np.asarray(t[id_col])
        codes = ((mat @ p) > 0).astype(np.int64) @ (
            1 << np.arange(n_planes, dtype=np.int64)
        )
        out = {"qi": [], "neighbor_id": [], "cosine": []}
        for qi, probes in enumerate(probes_per_q):
            m = np.isin(codes, np.fromiter(probes, dtype=np.int64))
            if not m.any():
                continue
            sims = mat[m] @ qm[qi]
            sub_ids = ids[m]
            local = heapq.nsmallest(
                k,
                zip(sims.tolist(), sub_ids.tolist()),
                key=lambda t2: (-t2[0], t2[1]),
            )
            for sim, nid in local:
                out["qi"].append(qi)
                out["neighbor_id"].append(int(nid))
                out["cosine"].append(float(sim))
        return pd.DataFrame(out)

    partials = (
        ray.data.read_parquet(files)
        .map_batches(_partial, batch_format="pyarrow")
        .to_pandas()
    )
    return _merge_topk_partials(partials, query_ids, k), stats


def tfidf_cosine_pairs(
    ds,
    threshold: float = 0.3,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_df: int | None = None,
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Exact all-pairs sparse cosine similarity join over L2-normalized
    linear-idf tf·idf vectors (the APSS problem — Bayardo et al. WWW'07 /
    DISCO's term-partitioned form): ``cos(a,b) = Σ_t w_at·w_bt``
    distributes over terms, so each ``hash(term)`` bucket emits partial
    products for the doc pairs sharing its terms — 24 B rows — and ONE
    ``groupby(pair)`` sum finishes every pair exactly.  Per-term pair
    fan-out is O(df²); ``max_df`` is the scale knob (skip terms with
    df > max_df — exact whenever no term exceeds it, and with linear idf
    a term's weight shrinks as 1/df so skipped mass is bounded); None =
    fully exact.  Returns pairs with ``cos >= threshold``, id_a < id_b.

    Plan: per-doc tf rows (text.doc_term_freqs) → hash(term) co-group
    computes df + normalized weights in-bucket (needs each doc's norm:
    a second tiny co-group ships per-doc norms) — concretely: pass 1
    computes per-(doc, term) idf weights and per-doc squared-norm
    partials; norms combine in one node-sized groupby and broadcast;
    pass 2 re-buckets weighted rows by term and emits pair partials."""
    import ray as _ray
    from ray.data.aggregate import Sum

    from ..functions.text import doc_term_freqs
    from ..ops import add_hash_bucket, add_hash_bucket_int
    from ..util import cached_get, from_pandas_clean, pack_id_pair

    if n_buckets is None:
        n_buckets = max(8, 2 * int(_ray.cluster_resources().get("CPU", 8)))

    n_docs = float(ds.count())
    tf = doc_term_freqs(ds, id_col, text_col)

    w_schema = pa.schema(
        [(id_col, pa.int64()), ("term", pa.string()), ("w", pa.float64())]
    )

    def _weights(g: pd.DataFrame):
        dfreq = g.groupby("term", sort=False)["term"].transform("size")
        if max_df is not None:
            g = g.loc[dfreq.to_numpy() <= max_df]
            dfreq = dfreq[dfreq.to_numpy() <= max_df]
        w = g["tf"].to_numpy(np.float64) * (n_docs / dfreq.to_numpy(np.float64))
        return from_pandas_clean(
            pd.DataFrame(
                {
                    id_col: g[id_col].to_numpy(np.int64),
                    "term": g["term"].to_numpy(),
                    "w": w,
                }
            ),
            w_schema,
        )

    weighted = (
        add_hash_bucket(tf, "term", n_buckets)
        .groupby("__bucket")
        .map_groups(_weights, batch_format="pandas")
        .materialize()
    )

    def _norm_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {id_col: t[id_col].to_numpy(), "s": t["w"].to_numpy() ** 2}
        )
        g = df.groupby(id_col, as_index=False)["s"].sum()
        return pa.table(
            {
                id_col: pa.array(g[id_col].to_numpy(np.int64)),
                "s": pa.array(g["s"].to_numpy(np.float64)),
            }
        )

    norms = (
        weighted.map_batches(_norm_partial, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("s", alias_name="s"))
        .to_pandas()
    )
    ids_sorted = norms.sort_values(id_col)
    norm_ref = _ray.put(
        (
            ids_sorted[id_col].to_numpy(np.int64),
            np.sqrt(ids_sorted["s"].to_numpy(np.float64)),
        )
    )

    pair_schema = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("p", pa.float64())]
    )

    def _pair_partials(g: pd.DataFrame):
        ids_arr, nrm = cached_get(norm_ref)
        # deterministic float summation: fix the row order before any sum
        g = g.sort_values(["term", id_col], kind="mergesort")
        out_a, out_b, out_p = [], [], []
        for _, grp in g.groupby("term", sort=False):
            d = grp[id_col].to_numpy(np.int64)
            w = grp["w"].to_numpy(np.float64)
            w = w / nrm[np.searchsorted(ids_arr, d)]
            order = np.argsort(d, kind="stable")
            d, w = d[order], w[order]
            if len(d) < 2:
                continue
            i, j = np.triu_indices(len(d), k=1)
            out_a.append(d[i])
            out_b.append(d[j])
            out_p.append(w[i] * w[j])
        if not out_a:
            return from_pandas_clean(
                pd.DataFrame(
                    {"id_a": np.empty(0, np.int64), "id_b": np.empty(0, np.int64),
                     "p": np.empty(0, np.float64)}
                ),
                pair_schema,
            )
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        p = np.concatenate(out_p)
        # per-bucket combiner: same pair may share several terms here
        dfp = pd.DataFrame({"id_a": a, "id_b": b, "p": p})
        cmb = dfp.groupby(["id_a", "id_b"], as_index=False, sort=False)["p"].sum()
        return from_pandas_clean(cmb, pair_schema)

    partials = (
        add_hash_bucket(weighted, "term", n_buckets)
        .groupby("__bucket")
        .map_groups(_pair_partials, batch_format="pandas")
    )

    def _pack(t: pa.Table) -> pa.Table:
        pk = pack_id_pair(t["id_a"].to_numpy(), t["id_b"].to_numpy())
        return t.append_column("pk", pa.array(pk))

    out_schema = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("cos", pa.float64())]
    )

    def _finish(g: pd.DataFrame):
        g = g.sort_values(["id_a", "id_b", "p"], kind="mergesort")
        s = g.groupby(["id_a", "id_b"], as_index=False, sort=False)["p"].sum()
        s = s.loc[s["p"] >= threshold]
        return from_pandas_clean(
            pd.DataFrame(
                {
                    "id_a": s["id_a"].to_numpy(np.int64),
                    "id_b": s["id_b"].to_numpy(np.int64),
                    "cos": s["p"].to_numpy(np.float64),
                }
            ),
            out_schema,
        )

    out = (
        add_hash_bucket_int(
            partials.map_batches(_pack, batch_format="pyarrow"), "pk", n_buckets
        )
        .groupby("__bucket")
        .map_groups(_finish, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
