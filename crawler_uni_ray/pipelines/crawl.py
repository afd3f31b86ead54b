"""The synchronous-BFS crawl driver loop (SURVEY.md §3.2) — the Ray-Data
re-expression of the reference's thread/queue worker loop
(/root/reference/crawler.py:48-91).

Each BFS level runs:

    frontier_k → seen-filter (ShardedSeen actors) → robots gate [NR]
              → per-host politeness schedule with skew salting [NR]
              → mark-seen → fetch (corpus replay) → extract
              → checkpoint level artifacts

The level barrier (checkpoint write + re-read) is what makes BFS ordering
and resume EXACT: a level is a pure function of (frontier_k, seen_{k-1},
corpus), committed atomically by writing ``manifest.json`` last after the
level artifacts are published.  ALL durability primitives go through the
storage seam (state/storage.py): ``storage="posix"`` commits by renaming
a staged dir (single node / NFS-like shared FS), ``storage="manifest"``
commits by atomically publishing a per-artifact manifest (the
object-store protocol — no directory rename anywhere on the path).  Resume finds the max committed level, replays the
``results`` url columns into fresh seen shards, and restarts from the
stored ``frontier_next``.  The reference's broken SIGINT partial save
(crawler.py:104-109 calls an undefined ``stop()``) is subsumed: every
completed level is durable.

Two control-plane paths per level, SAME semantics (shared pure kernels:
schedule_flags_pandas, robots_mask, the seen RPC interface):

* **distributed** (``n_frontier > small_level_rows``): the control-plane
  stages (seen filter, robots, bucketed scheduling, frontier dedup) run as
  Dataset shuffles/map_batches — the 100 TB shape.
* **small-level fast path**: a BFS frontier level that fits comfortably on
  the driver (default ≤ 50k rows — seeds, crawl tails, test corpora) runs
  its control plane as vectorized driver-side Arrow/pandas + batched actor
  RPCs, avoiding several fixed-cost Ray executions per level.

The data plane — mark-seen → fetch → extract → results write — is the
same distributed Dataset pipeline in BOTH paths (html never transits the
driver), with exactly one fetch per corpus source: an in-memory
``corpus_dict`` → ``broadcast``, a ``part_hash=NN/`` Parquet dir →
``partitioned``, the live web → ``http`` (stages/fetch.py).  The mode is
resolved and checked once, when the engine is built.

Checkpoint layout::

    ckpt/level_K/results/part-*.parquet        url,host,depth,fetch_status,n_outlinks,text,outlinks
    ckpt/level_K/frontier_next/part-*.parquet  url,host,depth,priority
    ckpt/level_K/manifest.json                 written LAST = commit record

(outlinks are stored inside results as a list<string> column and exploded
on demand by ``outlinks_dataset`` — one write per level, not two.)
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data import Dataset

from ..ops import add_hash_bucket, dedup_exact
from ..stages.extract_stage import extract_stage, flatten_outlinks
from ..sources.pages import is_partitioned_corpus
from ..stages.fetch import fetch_broadcast, fetch_http, fetch_partitioned
from ..stages.frontier import FRONTIER_SCHEMA, frontier_table
from ..stages.priority import (
    combine_frontier_pandas,
    deferred_partials_pandas,
    new_partials_pandas,
)
from ..stages.robots import _build_parsers, robots_filter, robots_mask
from ..stages.schedule import host_counts, schedule_flags_pandas, schedule_level_fused
from ..stages.seen_stage import seen_add, seen_filter
from ..state.seen import SHARD_CPUS, ShardedSeen
from ..state.storage import make_storage
from ..urlnorm import hosts_batch_cleaned


@dataclass
class CrawlConfig:
    domain: str
    ckpt_dir: str
    corpus_path: str | None = None  # hash-partitioned parquet dir (scale path)
    corpus_dict: dict[str, bytes] | None = None  # in-memory corpus (tests)
    seeds: list[str] | None = None  # default: [f"https://{domain}"] (crawler.py:76)
    budget: int | None = None  # [NR] per-host fetches per level; None = unlimited
    priority_policy: str = "none"  # [NR] "none" | "indegree" (stages/priority.py)
    robots: dict[str, str] | None = None  # [NR] host → robots.txt body
    seen_backend: str = "exact"  # "exact" | "bloom"
    num_seen_shards: int = 4
    bloom_bits: int = 1 << 24
    # one fetch per corpus source: "broadcast" (corpus_dict),
    # "partitioned" (corpus_path of part_hash=NN dirs), "http" (live web);
    # "auto" picks broadcast for corpus_dict, else partitioned
    fetch_mode: str = "auto"
    http_timeout: float = 10.0  # http mode: per-request timeout (crawler.py:30)
    http_concurrency: int | tuple = (1, 4)  # http mode: fetch actor pool size
    http_rate_per_host: float | None = None  # http mode: wall-clock req/s per host
    http_obey_crawl_delay: bool = True  # http mode: robots.txt Crawl-delay
    # directives (cfg.robots) become per-host rate overrides (1/delay
    # req/s) on the fetcher's token bucket, aggregate across the pool
    # partitioned fetch: levels above this re-bucket the frontier by the
    # corpus url-hash first — one pruned read and one task per corpus
    # partition (the unaligned path batches 8192 urls per task, so a
    # 43k-row level ran fetch+extract as ~5 fat tasks: 13.3 s vs 8.6 s
    # aligned at 32 CPUs); smaller levels skip that all-to-all and look up
    # per batch (a few extra pruned reads beat a shuffle's fixed cost)
    fetch_align_threshold: int = 1_000
    num_corpus_shards: int = 8  # partitioning of corpus_path
    n_buckets: int = 32  # scheduling/dedup hash buckets
    n_salts: int = 8
    skew_threshold: int | None = None
    max_levels: int = 1000
    max_pages: int | None = None  # [NR] stop once ≥ this many URLs scheduled
    # (level-granular: the running level completes; every level stays durable)
    small_level_rows: int = 50_000  # driver fast-path threshold (0 = always distributed)
    storage: str = "posix"  # durability backend (state/storage.py):
    # "posix" = rename commits on one shared filesystem; "manifest" =
    # write-then-manifest, the object-store protocol (no dir renames);
    # "fakeobj" = audited PUT/LIST/DELETE-only emulator (protocol proof)
    verbose: bool = False  # print one progress line as each level commits


# frontier read-back blocks of a distributed level: ~LEVEL_ROWS_PER_BLOCK
# rows per block, clamped to [1, LEVEL_READ_BLOCKS].  Tail levels (hundreds
# of rows) otherwise run every map wave as ~90 three-row tasks and every
# sort with ~90 partitions: pure barrier latency, no parallelism gain
LEVEL_READ_BLOCKS = 64
LEVEL_ROWS_PER_BLOCK = 1000
# dynamic-block-split target: extract is the dominant compute and the
# fetch groups emit one ~128 MB html block per corpus partition → one
# 60+ s extract task each (straggler-bound at high CPU counts); 32 MB
# splits each into ~4 tasks (A/B: ~25% faster level at 32 CPUs, neutral
# at 8)
TARGET_BLOCK_SIZE = 32 * 1024 * 1024


@dataclass
class LevelMetrics:
    level: int
    n_frontier: int
    n_candidates: int
    n_scheduled: int
    n_deferred: int
    n_fetched: int
    n_fetch_miss: int
    n_outlinks: int
    n_frontier_next: int
    path: str = "distributed"
    extra: dict = field(default_factory=dict)


def _write_atomic(store, ds: Dataset, final_dir: str) -> int:
    """write_parquet into a staged area, commit through the storage seam
    (a crashed write leaves only invisible staging litter, never a
    half-committed artifact)."""
    staged = store.begin_dir(final_dir)
    # zstd: ~2-3× smaller than snappy on html/text columns — checkpoint
    # phases are I/O-bound, so the ratio win beats the cpu cost at scale
    ds.write_parquet(staged, arrow_parquet_args_fn=lambda: {"compression": "zstd"})
    store.commit_dir(final_dir, staged)
    return store.count_rows(final_dir)


def _write_atomic_table(store, tbl: pa.Table, final_dir: str) -> int:
    """Driver-side single-file variant for small artifacts.  The part goes
    through ``store.write_part`` (single-object PUT) so the whole staged
    commit stays on the seam's primitives."""
    staged = store.begin_dir(final_dir)
    store.write_part(staged, "part-0.parquet", tbl)
    store.commit_dir(final_dir, staged)
    return tbl.num_rows


# combine-input rows for the frontier merge (stages/priority.py):
# frontier columns + partial indegree count (deferred rows carry -1)
_COMBINE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.float64()),
        ("discovered_from", pa.string()),
        ("__cnt", pa.int64()),
    ]
)

_SEED_CNT = -2  # __cnt marker for combine-group seed rows (dropped in combine)


def _bucket_seed_table(n_buckets: int) -> pa.Table:
    """One marker row per frontier-dedup bucket (combine-input schema +
    ``__bucket``) so every combine group fires even when a bucket's only
    real input is on-disk deferred partials."""
    n = n_buckets
    return pa.table(
        {
            "url": pa.array([""] * n, pa.string()),
            "host": pa.array([""] * n, pa.string()),
            "depth": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
            "priority": pa.array(np.zeros(n), pa.float64()),
            "discovered_from": pa.array([""] * n, pa.string()),
            "__cnt": pa.array(np.full(n, _SEED_CNT, dtype=np.int64), pa.int64()),
            "__bucket": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        }
    )


def _deferred_partials_writer(deferred_dir: str, dedup_buckets: int, store):
    """Writer handed to the fused scheduler: converts a deferred-rows table
    to combine-input partials, partitions them by the frontier-dedup
    bucket, and publishes one part per (dedup bucket, schedule bucket) —
    deterministic names through ``store.write_part`` ⇒ idempotent under
    task retries.  The frontier combine reads them back per bucket; that
    read is safe because the combine sits behind a later all-to-all in the
    same execution (every schedule task, hence every side-write, completes
    before any combine group runs)."""

    def write(deferred: pa.Table, sched_bucket: int) -> None:
        from ..urlnorm import url_hash_batch

        part = deferred_partials_pandas(deferred.to_pandas())
        db = (
            url_hash_batch(part["url"].to_numpy(dtype=object)) % dedup_buckets
        ).astype(np.int64)
        for d in np.unique(db):
            sub = part[db == d]
            t = pa.Table.from_pandas(
                sub, schema=_COMBINE_SCHEMA, preserve_index=False
            ).replace_schema_metadata(None)
            store.write_part(
                deferred_dir, f"d{int(d):05d}-s{sched_bucket:05d}.parquet", t
            )

    return write


def _host_counts_table(hosts: pd.Series) -> pa.Table:
    vc = hosts.value_counts()
    return pa.table(
        {
            "host": pa.array(vc.index.astype(str)),
            "n": pa.array(vc.to_numpy(dtype=np.int64)),
        }
    )


def _next_partials(t: pa.Table) -> pa.Table:
    """Combiner over exploded outlinks → combine-input partial rows of the
    in-scope ones (one row per distinct url per batch with its partial
    referrer count — hub-heavy outlink batches collapse before any shuffle
    moves rows)."""
    m = np.asarray(t["in_scope"].to_pylist(), dtype=bool)
    t = t.filter(pa.array(m))
    g = new_partials_pandas(
        t["url"].to_pylist(),
        t["host"].to_pylist(),
        t["depth"].to_pylist(),
        t["src_url"].to_pylist(),
    )
    return pa.Table.from_pandas(
        g, schema=_COMBINE_SCHEMA, preserve_index=False
    ).replace_schema_metadata(None)


def _side_write_results(results: Dataset, staged_dir: str, store) -> Dataset:
    """Durably write each results block (content-derived names through
    ``store.write_part`` ⇒ idempotent under retries; urls are unique per
    level so distinct blocks never collide) and stream on only
    url/depth/outlinks — the html/text payload never transits the frontier
    phase, and the level needs no results read-back execution."""

    def _w(t: pa.Table) -> pa.Table:
        if t.num_rows:
            import hashlib

            urls = t["url"].to_pylist()
            h = hashlib.sha1("\x00".join(urls).encode()).hexdigest()[:20]
            store.write_part(staged_dir, f"block-{h}.parquet", t)
        return t.select(["url", "depth", "outlinks"])

    return results.map_batches(_w, batch_format="pyarrow", batch_size=None)


def _resolve_fetch_mode(cfg: CrawlConfig) -> str:
    """The one fetch path for the config's corpus source: ``corpus_dict``
    → broadcast, a ``part_hash=NN/`` Parquet dir → partitioned, the live
    web → http.  Raises when the named source is missing."""
    mode = cfg.fetch_mode
    if mode == "auto":
        if cfg.corpus_dict is not None:
            mode = "broadcast"
        elif cfg.corpus_path is not None:
            mode = "partitioned"
        else:
            raise ValueError(
                "fetch_mode='auto' needs a corpus_dict or a corpus_path; "
                "pass fetch_mode='http' to fetch from the live web"
            )
    if mode == "broadcast" and cfg.corpus_dict is None:
        raise ValueError("fetch_mode='broadcast' needs a corpus_dict")
    # a corpus_path that does not exist yet passes: a caller may write the
    # corpus after building the engine (crawlbench's set-up does)
    path = cfg.corpus_path
    if mode == "partitioned" and (
        path is None or (os.path.exists(path) and not is_partitioned_corpus(path))
    ):
        raise ValueError(
            "fetch_mode='partitioned' needs a corpus_path of part_hash=NN "
            f"dirs, got {path!r} (convert flat pages parquet with "
            "sources.pages.pages_to_corpus_parquet)"
        )
    if mode not in ("broadcast", "partitioned", "http"):
        raise ValueError(
            f"fetch_mode must be auto, broadcast, partitioned or http: {mode!r}"
        )
    return mode


class CrawlEngine:
    RESULTS_SCHEMA = pa.schema(
        [
            ("url", pa.string()),
            ("host", pa.string()),
            ("depth", pa.int32()),
            ("fetch_status", pa.int32()),
            ("n_outlinks", pa.int32()),
            ("text", pa.string()),
            ("outlinks", pa.list_(pa.string())),
        ]
    )
    OUTLINKS_SCHEMA = pa.schema(
        [
            ("src_url", pa.string()),
            ("url", pa.string()),
            ("host", pa.string()),
            ("in_scope", pa.bool_()),
            ("depth", pa.int32()),
        ]
    )

    def __init__(self, config: CrawlConfig):
        self.cfg = config
        # both checks run before any shard actor exists: a bad config
        # fails here, not inside a Ray task mid-level (or as a hang)
        self._fetch_mode = _resolve_fetch_mode(config)
        cpus = ray.cluster_resources().get("CPU", 0)
        reserved = SHARD_CPUS * config.num_seen_shards
        if cpus - reserved < 1:
            raise ValueError(
                f"{config.num_seen_shards} seen shards reserve {reserved:g} of "
                f"the session's {cpus:g} CPUs, leaving less than the 1 CPU "
                "every Ray Data task needs (the crawl would hang); lower "
                "num_seen_shards or start Ray with more CPUs"
            )
        self.store = make_storage(config.storage)
        self.metrics: list[LevelMetrics] = []
        self.seen = ShardedSeen(
            num_shards=config.num_seen_shards,
            backend=config.seen_backend,
            n_bits=config.bloom_bits,
        )
        self._corpus_ref = (
            ray.put(config.corpus_dict) if self._fetch_mode == "broadcast" else None
        )
        self._robots_ref = ray.put(config.robots) if config.robots else None
        self._robots_parsers = _build_parsers(config.robots) if config.robots else None

    def close(self) -> None:
        """Release the engine's seen-shard actors (the checkpoint stays;
        a new engine can ``resume()`` from it)."""
        self.seen.close()

    # ----------------------------------------------------------- ckpt paths
    def _lvl(self, k: int, name: str = "") -> str:
        p = os.path.join(self.cfg.ckpt_dir, f"level_{k:04d}")
        return os.path.join(p, name) if name else p

    def committed_levels(self) -> list[int]:
        out = []
        if os.path.isdir(self.cfg.ckpt_dir):
            for d in sorted(os.listdir(self.cfg.ckpt_dir)):
                if d.startswith("level_") and os.path.exists(
                    os.path.join(self.cfg.ckpt_dir, d, "manifest.json")
                ):
                    out.append(int(d.split("_")[1]))
        return out

    # ----------------------------------------------------------- fetch dispatch
    def _fetch(self, scheduled: Dataset, n_rows: int = -1) -> Dataset:
        if self._fetch_mode == "broadcast":
            return fetch_broadcast(scheduled, self._corpus_ref)
        if self._fetch_mode == "http":
            host_rates = None
            if self.cfg.http_obey_crawl_delay and self.cfg.robots:
                from ..stages.robots import crawl_delays

                host_rates = {
                    h: 1.0 / d for h, d in crawl_delays(self.cfg.robots).items()
                } or None
            return fetch_http(
                scheduled,
                timeout=self.cfg.http_timeout,
                concurrency=self.cfg.http_concurrency,
                rate_per_host=self.cfg.http_rate_per_host,
                host_rates=host_rates,
            )
        align = n_rows < 0 or n_rows > self.cfg.fetch_align_threshold
        return fetch_partitioned(
            scheduled, self.cfg.corpus_path, self.cfg.num_corpus_shards, align=align
        )

    def _fetch_extract_write(self, scheduled: Dataset, k: int, n_rows: int = -1) -> int:
        """The data plane: fetch + extract + results write — always a
        distributed Dataset pipeline (html payloads never hit the driver)."""
        marked = seen_add(scheduled, self.seen)
        fetched = self._fetch(marked, n_rows)
        results = extract_stage(fetched, depth=k)
        return _write_atomic(self.store, results, self._lvl(k, "results"))

    def _results_counts(self, k: int) -> tuple[int, int]:
        """(fetch misses, outlinks) of level ``k``'s committed results —
        one read of two int columns."""
        n_miss = n_outlinks = 0
        for f in self.store.list_parts(self._lvl(k, "results")):
            t = pq.read_table(f, columns=["fetch_status", "n_outlinks"])
            n_miss += t.num_rows - int(pc.sum(t["fetch_status"]).as_py() or 0)
            n_outlinks += int(pc.sum(t["n_outlinks"]).as_py() or 0)
        return n_miss, n_outlinks

    # ----------------------------------------------------------- level step
    def _run_level_small(self, k: int, frontier_tbl: pa.Table) -> int:
        """Driver fast path: control plane as vectorized Arrow/pandas +
        batched seen-actor RPCs; data plane distributed (see module doc)."""
        cfg = self.cfg
        n_frontier = frontier_tbl.num_rows
        urls = frontier_tbl["url"].to_pylist()
        mask = ~self.seen.contains(urls)
        if self._robots_parsers is not None:
            mask &= robots_mask(
                urls, frontier_tbl["host"].to_pylist(), self._robots_parsers
            )
        cand = frontier_tbl.filter(pa.array(mask))
        df = cand.select(["url", "host", "priority", "seq"]).to_pandas()
        flags = schedule_flags_pandas(df, cfg.budget)
        scheduled_tbl = cand.filter(pa.array(flags))
        deferred_tbl = cand.filter(pa.array(~flags))

        if scheduled_tbl.num_rows == 0:
            n_results = _write_atomic_table(
                self.store, self.RESULTS_SCHEMA.empty_table(), self._lvl(k, "results")
            )
        else:
            n_results = self._fetch_extract_write(
                ray.data.from_arrow(scheduled_tbl), k, scheduled_tbl.num_rows
            )

        # next frontier = in-scope outlinks ∪ deferred, combined per url by
        # the priority policy (stages/priority.py — deterministic merge)
        n_miss, n_outlinks = self._results_counts(k)
        res = self.store.read_table(
            self._lvl(k, "results"), self.RESULTS_SCHEMA, columns=["url", "outlinks"]
        )
        col = res["outlinks"].combine_chunks()
        flat = pa.compute.list_flatten(col)
        srcs = pa.compute.take(
            res["url"].combine_chunks(), pa.compute.list_parent_indices(col)
        )
        out_urls = flat.to_pylist()
        out_hosts = hosts_batch_cleaned(out_urls)  # outlinks are cleaned urls
        out_scope = out_hosts.str.endswith(cfg.domain).fillna(False).to_numpy(dtype=bool)
        parts = [
            new_partials_pandas(
                np.asarray(out_urls, dtype=object)[out_scope],
                out_hosts.to_numpy(dtype=object)[out_scope],
                np.full(int(out_scope.sum()), k + 1, dtype=np.int32),
                np.asarray(srcs.to_pylist(), dtype=object)[out_scope],
            )
        ]
        if deferred_tbl.num_rows:
            parts.append(deferred_partials_pandas(deferred_tbl.to_pandas()))
        next_df = combine_frontier_pandas(
            pd.concat(parts, ignore_index=True), cfg.priority_policy
        )
        next_tbl = pa.Table.from_pandas(
            next_df, schema=FRONTIER_SCHEMA, preserve_index=False
        ).replace_schema_metadata(None)
        n_next = _write_atomic_table(self.store, next_tbl, self._lvl(k, "frontier_next"))

        self._finish_level(
            k,
            LevelMetrics(
                level=k,
                n_frontier=n_frontier,
                n_candidates=cand.num_rows,
                n_scheduled=n_results,
                n_deferred=deferred_tbl.num_rows,
                n_fetched=n_results - n_miss,
                n_fetch_miss=n_miss,
                n_outlinks=n_outlinks,
                n_frontier_next=n_next,
                path="small",
            ),
        )
        return n_next

    def _load_hot_hosts(self, k: int) -> set[str] | None:
        """Hot hosts for level ``k`` from the PREVIOUS level's side-written
        frontier host counts (a tiny driver-side read — one row per
        (host, bucket)).  None → the caller runs its own count pass over
        the frontier when it is big enough to matter (level 0, small-path
        predecessor, resume without the artifact)."""
        if self.cfg.skew_threshold is None or k == 0:
            return None
        files = self.store.list_files(self._lvl(k - 1, "host_counts"))
        if not files:
            return None
        t = pa.concat_tables(pq.read_table(f) for f in files)
        df = t.to_pandas().groupby("host", as_index=False)["n"].sum()
        return set(df.loc[df["n"] > self.cfg.skew_threshold, "host"])

    def _run_level_big(self, k: int, frontier: Dataset, n_frontier: int) -> int:
        """Distributed path: every control-plane stage is a Dataset op,
        FUSED into one streaming execution per level: the schedule shuffle
        streams into seen-add → fetch → extract, results are side-written
        per block (idempotent names), and the projected outlinks continue
        in the SAME execution through the frontier-combine shuffle — no
        results read-back and no per-phase execution barrier.  Deferred
        rows are side-written as combine-input partials partitioned by the
        frontier-dedup bucket and read back inside the combine groups
        (safe: the combine sits behind a later all-to-all, so every
        schedule-side write is durable first)."""
        import time as _time

        _t0 = _time.time()
        cfg = self.cfg
        # datasets SNAPSHOT the DataContext at creation — a frontier built
        # before this engine (bench/driver code) carries the defaults, so
        # override on the instance (derived datasets inherit it)
        frontier.context.op_resource_reservation_enabled = False
        frontier.context.target_max_block_size = TARGET_BLOCK_SIZE
        candidates = seen_filter(frontier, self.seen)
        if self._robots_ref is not None:
            candidates = robots_filter(candidates, self._robots_ref)

        # ONE partitioning key reused across the level: the frontier-dedup
        # modulus matches the corpus's url-hash partitioning so
        # frontier_next files come out partition-aligned and the next
        # level's fetch touches ~1 corpus partition per batch
        dedup_buckets = (
            cfg.num_corpus_shards if self._fetch_mode == "partitioned" else cfg.n_buckets
        )

        hc_dir = None
        if cfg.skew_threshold is not None:
            # side-product: per-host counts of the NEXT frontier, so the
            # next level's hot-host detection needs no count execution
            hc_dir = self._lvl(k, "host_counts")
            self.store.prepare_side_dir(hc_dir)

        deferred_dir = None  # on-disk deferred partials (budgeted levels)
        hot = self._load_hot_hosts(k)
        if cfg.budget is None:
            scheduled = candidates
        else:
            if (
                hot is None
                and cfg.skew_threshold is not None
                and (n_frontier < 0 or n_frontier > cfg.skew_threshold)
            ):
                # no side-written counts (level 0 / resume / small-path
                # predecessor): one count pass over the frontier urls — a
                # pre-seen-filter upper bound, which only ever salts MORE
                # hosts; skipped when the whole frontier is below the
                # threshold (no host can be hot).  Unknown size
                # (n_frontier < 0, e.g. process_frontier without a count)
                # is treated as LARGE — silently skipping the count would
                # disable salting exactly when it matters (ADVICE r3)
                hc = host_counts(frontier)
                hot = set(hc.loc[hc["n"] > cfg.skew_threshold, "host"])
            deferred_dir = self._lvl(k, "deferred")
            self.store.prepare_side_dir(deferred_dir)
            writer = _deferred_partials_writer(deferred_dir, dedup_buckets, self.store)
            scheduled = schedule_level_fused(
                candidates,
                cfg.budget,
                writer,
                n_buckets=cfg.n_buckets,
                n_salts=cfg.n_salts,
                hot_hosts=hot or set(),
            )

        results_final = self._lvl(k, "results")
        results_staged = self.store.begin_dir(results_final)

        marked = seen_add(scheduled, self.seen)
        # n_frontier is an upper bound on the scheduled rows — the right
        # scale signal for the align-vs-per-batch fetch choice
        fetched = self._fetch(marked, n_frontier)
        results = extract_stage(fetched, depth=k)
        slim = _side_write_results(results, results_staged, self.store)

        outlinks = flatten_outlinks(slim, cfg.domain)
        # local pre-aggregation (combiner): one row per distinct url per
        # batch with its partial referrer count
        next_candidates = outlinks.map_batches(_next_partials, batch_format="pyarrow")
        bucketed = add_hash_bucket(next_candidates, "url", dedup_buckets)
        if deferred_dir is not None:
            # seed one marker row per bucket so every combine group fires
            # even when its only real input is on-disk deferred partials
            bucketed = bucketed.union(
                ray.data.from_arrow(_bucket_seed_table(dedup_buckets))
            )
        store = self.store  # closure capture: the seam object, not self
        policy = cfg.priority_policy

        def _combine(g: pd.DataFrame) -> pa.Table:
            b = int(g["__bucket"].iloc[0])
            g = g[g["__cnt"] != _SEED_CNT].drop(columns=["__bucket"])
            if deferred_dir is not None:
                files = store.list_files(deferred_dir, f"d{b:05d}-*.parquet")
                if files:
                    g = pd.concat(
                        [g] + [pq.read_table(f).to_pandas() for f in files],
                        ignore_index=True,
                    )
            out = combine_frontier_pandas(g, policy)
            if hc_dir is not None and len(out):
                store.write_part(
                    hc_dir, f"b{b:05d}.parquet", _host_counts_table(out["host"])
                )
            return pa.Table.from_pandas(
                out, schema=FRONTIER_SCHEMA, preserve_index=False
            ).replace_schema_metadata(None)

        frontier_next = bucketed.groupby("__bucket").map_groups(
            _combine, batch_format="pandas"
        )
        n_next = _write_atomic(self.store, frontier_next, self._lvl(k, "frontier_next"))
        _t_main = _time.time() - _t0

        # the big execution is done: commit the side-written results dir
        self.store.commit_dir(results_final, results_staged)
        n_results = self.store.count_rows(results_final)

        n_deferred_rows = (
            self.store.count_rows(deferred_dir) if deferred_dir is not None else 0
        )
        n_miss, n_outlinks = self._results_counts(k)
        _t_next = _time.time() - _t0 - _t_main
        self._finish_level(
            k,
            LevelMetrics(
                level=k,
                n_frontier=n_frontier,
                n_candidates=n_results + n_deferred_rows,
                n_scheduled=n_results,
                n_deferred=n_deferred_rows,
                n_fetched=n_results - n_miss,
                n_fetch_miss=n_miss,
                n_outlinks=n_outlinks,
                n_frontier_next=n_next,
                path="distributed",
                extra={"t_main": round(_t_main, 2), "t_next": round(_t_next, 2)},
            ),
        )
        return n_next

    def _finish_level(self, k: int, m: LevelMetrics) -> None:
        self.metrics.append(m)
        self._commit_manifest(k, m)
        if self.cfg.verbose:  # streaming progress surface (per-level)
            print(
                f"level {k}: frontier={m.n_frontier} scheduled={m.n_scheduled} "
                f"fetched={m.n_fetched} miss={m.n_fetch_miss} "
                f"deferred={m.n_deferred} next={m.n_frontier_next} [{m.path}]",
                flush=True,
            )

    def _commit_manifest(self, k: int, m: LevelMetrics) -> None:
        """The commit record — written last.  Per-partition lineage: every
        artifact file with its row count (north_rule: per-partition
        lineage + metrics)."""
        lineage = {}
        for art in ("results", "frontier_next", "deferred"):
            d = self._lvl(k, art)
            lineage[art] = [
                {"file": os.path.basename(f), "rows": pq.ParquetFile(f).metadata.num_rows}
                for f in self.store.list_parts(d)
            ]
        manifest = {
            "level": k,
            "metrics": m.__dict__,
            "partitions": lineage,
        }
        self.store.write_json(self._lvl(k, "manifest.json"), manifest)

    # ----------------------------------------------------------- entry points
    @contextmanager
    def _ctx_overrides(self):
        """Scope the engine's DataContext tuning to its own executions.

        The fused level is one long operator DAG (~10 operators); Ray
        Data's default per-operator resource reservation splits the
        cluster budget across ALL of them and starves the heavyweight
        extract operator on small clusters (measured: a 100k-URL level at
        8 CPUs ran 250 s reserved vs 89 s unreserved — extract got ~2
        concurrent tasks out of 8).  The level's per-operator outputs are
        bounded (combiner partials, projected slim rows), so
        reservation-free scheduling cannot livelock here.  Datasets
        SNAPSHOT the context at creation, so the overrides apply while
        the engine builds/executes its levels and are RESTORED on exit —
        unrelated pipelines later in the process keep Ray's defaults."""
        ctx = ray.data.DataContext.get_current()
        saved = (ctx.op_resource_reservation_enabled, ctx.target_max_block_size)
        ctx.op_resource_reservation_enabled = False
        ctx.target_max_block_size = TARGET_BLOCK_SIZE
        try:
            yield
        finally:
            ctx.op_resource_reservation_enabled, ctx.target_max_block_size = saved

    def run(self) -> list[LevelMetrics]:
        """Fresh crawl from the seed list."""
        self.store.remove_dir(self.cfg.ckpt_dir)  # prefix DELETE on the seam
        os.makedirs(self.cfg.ckpt_dir, exist_ok=True)
        seeds = self.cfg.seeds or [f"https://{self.cfg.domain}"]
        with self._ctx_overrides():
            return self._loop(0, seed_tbl=frontier_table(seeds))

    def resume(self) -> list[LevelMetrics]:
        """Restart after the last committed level: replay seen deltas from
        durable results, reload the stored next frontier."""
        done = self.committed_levels()
        if not done:
            return self.run()
        last = max(done)
        with open(self._lvl(last, "manifest.json")) as f:
            fmt = json.load(f).get("frontier_format", "combined")
        if fmt != "combined":
            # older engines could end a level at un-merged next-frontier
            # partials; this engine reads only the combined frontier
            raise ValueError(
                f"level {last} of {self.cfg.ckpt_dir} committed its next "
                f"frontier as {fmt!r}, a hand-off format this engine no longer "
                "reads; start a fresh crawl with run()"
            )
        # drop any uncommitted partial level directories
        for d in list(os.listdir(self.cfg.ckpt_dir)):
            if d.startswith("level_") and int(d.split("_")[1]) > last:
                self.store.remove_dir(os.path.join(self.cfg.ckpt_dir, d))
        with self._ctx_overrides():
            self._replay_seen(done)
            return self._loop(last + 1)

    def _replay_seen(self, levels: list[int]) -> None:
        """Rebuild the seen-set from committed ``results`` urls.  The total
        row count comes from the manifests' per-partition lineage (no
        parquet touch).  Small resumes replay driver-side; past
        ``small_level_rows`` the replay is a distributed ``map_batches``
        over the results url column — every task routes its batch straight
        to the seen shards, so rebuild cost scales with the cluster instead
        of one driver process iterating 10^10 rows (the adds are idempotent
        and commutative, so block order is free).  Records the path taken
        in ``self.seen_replay_path`` for tests/metrics."""
        files, total = [], 0
        for k in levels:
            files.extend(self.store.list_parts(self._lvl(k, "results")))
            try:
                with open(self._lvl(k, "manifest.json")) as f:
                    man = json.load(f)
                total += sum(p["rows"] for p in man["partitions"]["results"])
            except (OSError, KeyError, json.JSONDecodeError):
                total += self.store.count_rows(self._lvl(k, "results"))
        if not files:
            self.seen_replay_path = "empty"
            return
        if total <= self.cfg.small_level_rows:
            self.seen_replay_path = "driver"
            for f in files:
                self.seen.add(pq.read_table(f, columns=["url"])["url"].to_pylist())
            return
        self.seen_replay_path = "distributed"
        seen = self.seen

        def _add(t: pa.Table) -> pa.Table:
            seen.add(t["url"].to_pylist())
            return pa.table({"n": pa.array([t.num_rows], pa.int64())})

        replayed = (
            ray.data.read_parquet(files, columns=["url"])
            .map_batches(_add, batch_format="pyarrow", batch_size=8192)
            .sum("n")
        )
        if (replayed or 0) != total:
            raise RuntimeError(
                f"seen replay incomplete: {replayed} of {total} result urls"
            )

    def _frontier_input(self, k_prev: int) -> tuple[list[str], int]:
        """(files, total rows) of level ``k_prev``'s committed next frontier."""
        files = self.store.list_parts(self._lvl(k_prev, "frontier_next"))
        return files, sum(pq.ParquetFile(f).metadata.num_rows for f in files)

    def _loop(self, start: int, seed_tbl: pa.Table | None = None) -> list[LevelMetrics]:
        cfg = self.cfg
        k = start
        while k < cfg.max_levels:
            if seed_tbl is not None and k == start:
                n_frontier, files = seed_tbl.num_rows, None
            else:
                files, n_frontier = self._frontier_input(k - 1)
            if n_frontier == 0:
                break
            if n_frontier <= cfg.small_level_rows:
                if files is None:
                    tbl = seed_tbl
                elif files:
                    tbl = pa.concat_tables(pq.read_table(f) for f in files)
                else:
                    tbl = FRONTIER_SCHEMA.empty_table()
                n_next = self._run_level_small(k, tbl)
            else:
                # two regimes (A/B-measured): tiny levels are pure wave
                # latency — one block ends the 90-tiny-task waves; real
                # levels floor at 32 blocks so the sort-partition count
                # (which tracks input blocks) keeps fetch/extract parallel
                rpb = LEVEL_ROWS_PER_BLOCK
                if n_frontier < 2 * rpb:
                    nb = -(-n_frontier // rpb)
                else:
                    nb = min(LEVEL_READ_BLOCKS, max(32, n_frontier // rpb))
                ds = (
                    ray.data.from_arrow(seed_tbl)
                    if files is None
                    else ray.data.read_parquet(files, override_num_blocks=nb)
                )
                n_next = self._run_level_big(k, ds, n_frontier)
            if n_next == 0:
                break
            if (
                cfg.max_pages is not None
                and sum(m.n_scheduled for m in self.metrics) >= cfg.max_pages
            ):
                break  # [NR] page-budget guard (level-granular)
            k += 1
        return self.metrics

    def process_frontier(
        self, frontier: Dataset, k: int = 0, n_frontier: int = -1
    ) -> LevelMetrics:
        """Run ONE fully-distributed BFS level over an arbitrary frontier —
        the steady-state unit of a web-scale crawl (at 10^10 URLs every
        level is huge and this is where all the time goes).  Used by the
        bench scaling harness; semantics identical to the loop's levels.
        Pass ``n_frontier`` if known (from source metadata) to avoid a
        counting execution."""
        os.makedirs(self.cfg.ckpt_dir, exist_ok=True)
        with self._ctx_overrides():
            self._run_level_big(k, frontier, n_frontier)
        return self.metrics[-1]

    # ----------------------------------------------------------- artifacts
    def results_dataset(self) -> Dataset:
        files = []
        for k in self.committed_levels():
            files.extend(self.store.list_parts(self._lvl(k, "results")))
        if not files:
            return ray.data.from_arrow(self.RESULTS_SCHEMA.empty_table())
        return ray.data.read_parquet(files)

    def outlinks_dataset(self) -> Dataset:
        """(src_url, url, host, in_scope, depth) — exploded on demand from
        the per-level results' outlinks list column (column-pruned read)."""
        files = []
        for k in self.committed_levels():
            files.extend(self.store.list_parts(self._lvl(k, "results")))
        if not files:
            return ray.data.from_arrow(self.OUTLINKS_SCHEMA.empty_table())
        ds = ray.data.read_parquet(files, columns=["url", "depth", "outlinks"])
        return flatten_outlinks(ds, self.cfg.domain)

    def all_links_sorted(self) -> Dataset:
        """The reference's links.txt artifact (crawler.py:93-97): every
        extracted link (in-scope or not), exact-deduped, globally sorted
        (range-partitioned shuffle)."""
        links = self.outlinks_dataset().select_columns(["url"])
        return dedup_exact(links, "url", n_buckets=self.cfg.n_buckets).sort("url")

    def visited_depth(self) -> dict[str, int]:
        """url → level fetched (for conformance tests; small corpora)."""
        out: dict[str, int] = {}
        for k in self.committed_levels():
            for f in self.store.list_parts(self._lvl(k, "results")):
                t = pq.read_table(f, columns=["url", "depth"])
                for u, d in zip(t["url"].to_pylist(), t["depth"].to_pylist()):
                    out[u] = d
        return out

    def export_warc(self, out_dir: str, compress: bool = True) -> int:
        """Export every successfully fetched page as WARC archives
        (sources/warc.py) — the standard interchange for crawl output.
        The payload is the byte-identical extracted text (M5: text ≡ the
        page bytes decoded); misses (fetch_status false) are skipped.
        One streaming map_batches chain: results parquet → project →
        idempotent content-named archive files.  Returns pages written."""
        from ..sources.warc import write_warc

        def _to_pages(t: pa.Table) -> pa.Table:
            # fetch_status is stored as int (0/1); misses carry null text
            t = t.filter(pc.cast(t["fetch_status"], pa.bool_()))
            return pa.table(
                {
                    "url": t["url"],
                    "html": pa.array(
                        [(s or "").encode("utf-8") for s in t["text"].to_pylist()],
                        pa.binary(),
                    ),
                }
            )

        pages = (
            self.results_dataset()
            .select_columns(["url", "text", "fetch_status"])
            .map_batches(_to_pages, batch_format="pyarrow")
        )
        return write_warc(pages, out_dir, compress=compress).count()

    def save_links_txt(self, filename: str) -> int:
        """Conformance artifact: one sorted unique link per line, UTF-8 —
        byte-equal to the reference's links.txt (crawler.py:93-97)."""
        n = 0
        with open(filename, "w", encoding="utf-8") as f:
            for b in self.all_links_sorted().iter_batches(
                batch_size=65536, batch_format="pyarrow"
            ):
                urls = b["url"].to_pylist()
                if urls:
                    f.write("\n".join(urls) + "\n")
                    n += len(urls)
        return n
