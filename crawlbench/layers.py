"""Per-layer metrics of the traced run (``--trace 1``).

Everything here is measured from the benchmark's side of each layer's
public functions, on the workload's own data: the last measured round's
checkpoint (its level frontiers, results and manifests) and its corpus.
Each call is wrapped in a span named after the layer.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from crawler_uni_ray.extract import extract_links_and_text
from crawler_uni_ray.stages.extract_stage import extract_stage
from crawler_uni_ray.stages.fetch import fetch_partitioned
from crawler_uni_ray.stages.schedule import schedule_flags_pandas
from crawler_uni_ray.state.seen import ShardedSeen
from crawler_uni_ray.urlnorm import clean_url, url_hash_batch
from workloads import (
    CORPUS_SHARDS, DOMAIN, close_seen, dir_mb, level_dir, manifests, parquet_files,
)

MIN_LOOP_S = 0.2  # micro-measurements repeat their pass until this long


def _rate(fn, n_items: int) -> float:
    """Items per second of ``fn`` (one pass over n_items), repeated until
    MIN_LOOP_S has passed."""
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        dt = time.perf_counter() - t0
        if dt >= MIN_LOOP_S:
            return n_items * reps / dt


def level_frontiers(wl, ckpt: str, corpus_urls: list[str], levels: list[int]) -> list:
    """Input frontier (pandas: url, host, priority, seq) of each level."""
    from crawler_uni_ray.stages.frontier import frontier_table

    first = sorted(corpus_urls) if wl.mode == "level" else [f"https://{DOMAIN}"]
    out = []
    for k in levels:
        if k == 0:
            t = frontier_table(first)
        else:
            t = pa.concat_tables(
                [pq.read_table(f) for f in parquet_files(level_dir(ckpt, k - 1, "frontier_next"))]
            )
        out.append(t.select(["url", "host", "priority", "seq"]).to_pandas())
    return out


def level_results(ckpt: str, k: int) -> pa.Table:
    files = parquet_files(level_dir(ckpt, k, "results"))
    return pa.concat_tables(
        [pq.read_table(f, columns=["url", "host", "fetch_status", "outlinks"]) for f in files]
    )


def row_groups_read(corpus_path: str, urls: list[str]) -> tuple[int, int]:
    """(row groups, rows) a pruned lookup of ``urls`` reads: per corpus
    partition, every row group whose url min/max range holds a query url."""
    part = url_hash_batch(urls) % CORPUS_SHARDS
    rgs = rows = 0
    for p in np.unique(part):
        q = np.array(sorted(u for u, x in zip(urls, part) if x == p), dtype=object)
        d = os.path.join(corpus_path, f"part_hash={int(p):02d}")
        for f in parquet_files(d):
            meta = pq.ParquetFile(f).metadata
            col = meta.schema.to_arrow_schema().get_field_index("url")
            for i in range(meta.num_row_groups):
                rg = meta.row_group(i)
                st = rg.column(col).statistics
                j = np.searchsorted(q, st.min) if st is not None else 0
                if st is None or (j < len(q) and q[j] <= st.max):
                    rgs += 1
                    rows += rg.num_rows
    return rgs, rows


def layer_metrics(wl, rounds: list[dict], ckpt: str, corpus_path: str,
                  corpus: dict, tracer) -> dict[str, float]:
    last = rounds[-1]
    cfg = last["cfg"]
    man = manifests(ckpt)
    levels = [m["level"] for m in man]
    m = {}

    # pipelines.crawl — levels and their commit-to-commit times
    level_s, prev = [], last["t_call"]
    for x in man:
        level_s.append(x["mtime"] - prev)
        prev = x["mtime"]
    paths = Counter(x["metrics"]["path"] for x in man)
    m["crawl.levels"] = len(man)
    # run()/process_frontier() to its first level commit
    m["crawl.first_level_s"] = statistics.median(r["first_level_s"] for r in rounds)
    m["crawl.links_s"] = statistics.median(r["links_s"] for r in rounds)  # save_links_txt
    m["crawl.level_s.p50"] = statistics.median(level_s)
    m["crawl.level_s.max"] = max(level_s)
    m["crawl.distributed_levels"] = paths.get("distributed", 0)
    m["crawl.small_levels"] = paths.get("small", 0)
    m["crawl.deferred_rows"] = sum(x["metrics"]["n_deferred"] for x in man)

    frontiers = level_frontiers(wl, ckpt, corpus["url"], levels)
    batches = [f["url"].tolist() for f in frontiers if len(f)]
    n_urls = sum(map(len, batches))

    # state.seen — the workload's level batches at its shard count and backend
    def fresh_seen():
        s = ShardedSeen(num_shards=cfg.num_seen_shards, backend=cfg.seen_backend,
                        n_bits=cfg.bloom_bits)
        s.total_size()  # actors up before timing
        return s

    seen = fresh_seen()
    for op in ("add", "contains"):
        with tracer.span(f"state.seen.{op}", urls=n_urls):
            t0 = time.perf_counter()
            for b in batches:
                getattr(seen, op)(b)
            m[f"seen.{op}_urls_per_s"] = n_urls / (time.perf_counter() - t0)
    close_seen(seen)
    seen = fresh_seen()
    with tracer.span("state.seen.check_and_add", urls=n_urls):
        t0 = time.perf_counter()
        for b in batches:
            seen.check_and_add(b)
        m["seen.check_and_add_urls_per_s"] = n_urls / (time.perf_counter() - t0)
    close_seen(seen)
    # one RPC per shard a batch touches, per call
    m["seen.rpcs"] = sum(
        len(np.unique(url_hash_batch(b) % cfg.num_seen_shards)) for b in batches
    )

    # stages.schedule — the pure kernel over each level's frontier
    n_rows = sum(map(len, frontiers))
    with tracer.span("stages.schedule.schedule_flags_pandas", rows=n_rows):
        m["schedule.rows_per_s"] = _rate(
            lambda: [schedule_flags_pandas(f, cfg.budget) for f in frontiers], n_rows
        )
    hot = 0
    if cfg.skew_threshold is not None:
        hot = sum(int((f["host"].value_counts() > cfg.skew_threshold).sum()) for f in frontiers)
    m["schedule.hot_hosts"] = hot

    # stages.fetch / stages.extract_stage — one call per level, as the engine makes
    fetch_s = extract_s = 0.0
    hits = rgs = rows_read = 0
    htmls, srcs, hrefs = [], [], []
    html_of = dict(zip(corpus["url"], corpus["html"]))
    for k in levels:
        res = level_results(ckpt, k)
        if res.num_rows == 0:
            continue
        urls = res["url"].to_pylist()
        align = res.num_rows > cfg.fetch_align_threshold
        with tracer.span("stages.fetch.fetch_partitioned", level=k, rows=res.num_rows):
            t0 = time.perf_counter()
            fetched = fetch_partitioned(
                ray.data.from_arrow(res.select(["url", "host"])), corpus_path,
                CORPUS_SHARDS, align=align,
            ).materialize()
            fetch_s += time.perf_counter() - t0
        with tracer.span("stages.extract_stage.extract_stage", level=k):
            t0 = time.perf_counter()
            extract_stage(fetched, depth=k).materialize()
            extract_s += time.perf_counter() - t0
        ok = [u for u, s in zip(urls, res["fetch_status"].to_pylist()) if s]
        hits += len(ok)
        g, r = row_groups_read(corpus_path, urls)
        rgs, rows_read = rgs + g, rows_read + r
        htmls.extend((html_of[u], u) for u in ok)
        for u, outs in zip(urls, res["outlinks"].to_pylist()):
            srcs.extend([u] * len(outs))
            hrefs.extend(outs)
    m["fetch.s"] = fetch_s
    m["fetch.hits"] = hits
    m["fetch.row_groups_read"] = rgs
    m["fetch.read_amplification"] = rows_read / max(hits, 1)
    m["extract_stage.s"] = extract_s

    # extract — single process over the fetched pages
    mb = sum(len(h) for h, _ in htmls) / 2**20
    with tracer.span("extract.extract_links_and_text", pages=len(htmls)):
        t0 = time.perf_counter()
        for h, u in htmls:
            extract_links_and_text(h, u)
        dt = time.perf_counter() - t0
    m["extract.pages_per_s"] = len(htmls) / dt
    m["extract.html_mb_per_s"] = mb / dt

    # urlnorm — the committed outlinks, resolved against their page
    pairs = list(zip(hrefs, srcs))
    with tracer.span("urlnorm.clean_url", urls=len(pairs)):
        m["urlnorm.clean_url_per_s"] = _rate(
            lambda: [clean_url(h, b) for h, b in pairs], len(pairs)
        )
    with tracer.span("urlnorm.url_hash_batch", urls=len(hrefs)):
        m["urlnorm.url_hash_per_s"] = _rate(lambda: url_hash_batch(hrefs), len(hrefs))

    # state.storage — committed part files and checkpoint size
    m["storage.parts"] = sum(len(p) for x in man for p in x["partitions"].values())
    m["storage.ckpt_mb"] = dir_mb(ckpt)

    # Ray processes over the timed crawl calls
    cores = min(len(os.sched_getaffinity(0)), int(ray.cluster_resources()["CPU"]))
    m["ray.cpu_s.driver"] = statistics.median(r["cpu_driver_s"] for r in rounds)
    m["ray.cpu_s.workers"] = statistics.median(r["cpu_workers_s"] for r in rounds)
    m["ray.idle_share"] = statistics.median(
        1 - r["cpu_s"] / (r["crawl_s"] * cores) for r in rounds
    )
    return m
