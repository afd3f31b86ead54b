"""Canonical readers for the Common-Crawl-style pages corpus
(SURVEY.md §2.1 S5; schema fixed by BASELINE.json input_hint).

The corpus layout is ``part_hash=NN/*.parquet`` hash-partitioned by url
(corpus.write_corpus_parquet / pages_to_corpus_parquet /
bench.ensure_corpus).  Always read with ``columns=`` pruning — a crawl
stage that needs urls must never drag the html payload off storage.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data
from ray.data import Dataset

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def is_partitioned_corpus(path: str | None) -> bool:
    """True when ``path`` is a directory holding ``part_hash=NN/`` shard
    dirs — the layout the partitioned fetch reads."""
    return bool(path) and os.path.isdir(path) and any(
        d.startswith("part_hash=") for d in os.listdir(path)
    )


def read_pages_partition_files(corpus_path: str) -> list[str]:
    """Explicit per-partition file list (sorted) — passing files instead of
    the directory avoids hive-partition column injection and keeps block
    order partition-aligned."""
    return [
        os.path.join(corpus_path, d, f)
        for d in sorted(os.listdir(corpus_path))
        if d.startswith("part_hash")
        for f in sorted(os.listdir(os.path.join(corpus_path, d)))
        if f.endswith(".parquet")
    ]


def read_pages(
    corpus_path: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
) -> Dataset:
    """Column-pruned, partition-aligned read of the pages corpus."""
    files = read_pages_partition_files(corpus_path)
    kwargs = {}
    if columns:
        kwargs["columns"] = columns
    if num_blocks:
        kwargs["override_num_blocks"] = num_blocks
    return ray.data.read_parquet(files, **kwargs)


def corpus_fetch_fn(corpus_path: str, num_shards: int = 8):
    """Driver-side point lookup ``url -> html bytes | None`` over the
    hash-partitioned corpus — for METADATA-SIZED reads only (sitemap
    trees, robots bodies), never the crawl hot path (that's the
    partitioned fetch stage).  Prunes to the url's shard directory and
    pushes a url equality filter into the parquet scan, so each lookup
    reads one shard's matching row groups, not the corpus."""
    import pyarrow.dataset as pads

    from ..urlnorm import url_hash_batch

    def fetch(url: str) -> bytes | None:
        # int() BEFORE the modulo: a scalar np.uint64 % int promotes to
        # float64 (precision loss on 64-bit hashes) — the array form the
        # corpus writer uses does not, so the shards would disagree
        shard = int(url_hash_batch([url])[0]) % num_shards
        d = os.path.join(corpus_path, f"part_hash={shard:02d}")
        if not os.path.isdir(d):
            return None
        files = [
            os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
        ]
        if not files:
            return None
        t = pads.dataset(files).to_table(
            columns=["html"], filter=pads.field("url") == url
        )
        return t["html"][0].as_py() if t.num_rows else None

    return fetch


def pages_to_corpus_parquet(
    pages_ds: Dataset,
    out_dir: str,
    num_shards: int,
    total_bytes: int,
    target_group_bytes: int = 256 << 20,
) -> str:
    """Write a pages Dataset (at least ``url``, ``html``) as the engine's
    corpus layout: ``part_hash=NN/`` dirs of url-sorted files (row-group
    pruning — what ``fetch_partitioned`` reads).

    ONE bucketed shuffle on ``url_hash % (num_shards × k)``, ``k`` sized
    from ``total_bytes`` to ≈``target_group_bytes`` per group (a
    map_groups task holds its whole group in memory, so group count tracks
    data size, not the directory fan-out).  ``num_shards`` divides the
    modulus, so each group lands wholly inside its shard directory as ONE
    file under a deterministic name (``part-{group:05d}.parquet``,
    tmp→rename) — task retries are idempotent.  Nothing materializes on
    the driver."""
    import pandas as pd
    import pyarrow.parquet as pq

    from ..ops import add_hash_bucket

    k = max(1, -(-total_bytes // (num_shards * target_group_bytes)))  # ceil
    n_groups = num_shards * k

    os.makedirs(out_dir, exist_ok=True)
    for s in range(num_shards):
        os.makedirs(os.path.join(out_dir, f"part_hash={s:02d}"), exist_ok=True)

    def _write_group(g: pd.DataFrame) -> pa.Table:
        from ..util import ensure_worker_thread_limits, from_pandas_clean

        ensure_worker_thread_limits()
        grp = int(g["__bucket"].iloc[0])
        s = grp % num_shards  # ≡ url_hash % num_shards — the fetch layout
        g = g.drop(columns=["__bucket"]).sort_values("url", kind="mergesort")
        final = os.path.join(
            out_dir, f"part_hash={s:02d}", f"part-{grp:05d}.parquet"
        )
        tmp = final + ".tmp"
        pq.write_table(from_pandas_clean(g), tmp)
        os.replace(tmp, final)
        return pa.table({"part": pa.array([s], pa.int64()),
                         "n": pa.array([len(g)], pa.int64())})

    counts = (
        add_hash_bucket(pages_ds, "url", n_groups)
        .groupby("__bucket")
        .map_groups(_write_group, batch_format="pandas")
    )
    counts.count()  # drive the sink
    return out_dir
