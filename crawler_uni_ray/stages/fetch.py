"""Fetch = corpus replay: look the scheduled frontier up in the pages
table (SURVEY.md §2.1 S2).  A lookup miss is a fetch failure — the URL
stays visited with zero outlinks, matching the reference's silent
exception-swallow (/root/reference/crawler.py:45-46).  One physical mode
per corpus source:

* ``broadcast`` — an in-memory corpus dict shipped once via ``ray.put``,
  looked up per batch.  Tests / small corpora only (≪ worker heap).
* ``partitioned`` — the scale path.  The corpus lives as ``part_hash=NN/``
  parquet dirs hash-partitioned by url (corpus.write_corpus_parquet,
  sources.pages.pages_to_corpus_parquet); the frontier is bucketed by the
  SAME hash and each bucket reads only its partition's files with an
  ``url ∈ scheduled`` pyarrow filter (row-group pruning).  Per-level I/O is
  proportional to the touched partitions, not the corpus — the analog of an
  indexed KV fetch at 100 TB.
* ``http`` — REAL network fetch (T2): an actor pool of ``HttpFetcher``s,
  each holding one ``requests.Session`` (connection pool + desktop UA,
  the reference's shared-session shape, crawler.py:18-21) with
  ``timeout=10`` and ``raise_for_status`` — any exception → the row stays
  with ``fetched=False`` and zero outlinks (crawler.py:30-31,45-46).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from ..urlnorm import url_hash_batch
from ..util import cached_get, ensure_worker_thread_limits

def fetch_broadcast(ds: Dataset, corpus_ref) -> Dataset:
    """Corpus dict shipped once via ray.put, deserialized once per worker
    process (util.cached_get), looked up per batch."""

    def _fetch(t: pa.Table) -> pa.Table:
        corpus = cached_get(corpus_ref)
        urls = t["url"].to_pylist()
        htmls = [corpus.get(u) for u in urls]
        fetched = np.fromiter((h is not None for h in htmls), bool, count=len(htmls))
        return t.append_column("html", pa.array(htmls, pa.binary())).append_column(
            "fetched", pa.array(fetched)
        )

    return ds.map_batches(_fetch, batch_format="pyarrow")


class HttpFetcher:
    """Stateful fetch actor (SURVEY.md §2.4 T2): the per-actor
    ``requests.Session`` is built ONCE in ``__init__`` (connection pool +
    spoofed desktop UA header, mirroring /root/reference/crawler.py:18-21);
    ``__call__`` fetches one batch, parallelizing the network wait over a
    small thread pool (the reference's 10-thread I/O concurrency,
    crawler.py:75, lives *inside* each actor here).  Error semantics are
    reference-exact: ``raise_for_status`` + any exception → ``html=None``,
    ``fetched=False`` — the page stays visited with zero outlinks
    (crawler.py:30-31,45-46)."""

    USER_AGENT = (
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/120.0 Safari/537.36"
    )

    def __init__(
        self,
        timeout: float = 10.0,
        threads: int = 10,
        rate_per_host: float | None = None,
        burst: float = 1.0,
        host_rates: dict[str, float] | None = None,
    ):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        import requests

        self.session = requests.Session()
        self.session.headers.update({"User-Agent": self.USER_AGENT})
        self.timeout = timeout
        self.pool = ThreadPoolExecutor(max_workers=threads)
        # wall-clock politeness (T5 "wall-clock mode", SURVEY §2.4): a
        # per-host token bucket — ``rate_per_host`` requests/sec with
        # ``burst`` capacity — throttles THIS actor's threads.  The
        # deterministic per-level budget upstream stays the conformance
        # semantics; this bounds the instantaneous request rate a live
        # host sees.  The bucket is per actor; ``fetch_http`` (the only
        # constructor of this pool) divides the configured per-host rate
        # by the pool's max size before it reaches here, so the AGGREGATE
        # rate a host sees across the whole pool never exceeds the cap —
        # conservative when the autoscaling pool runs below max.
        self.rate = rate_per_host
        # per-host rate OVERRIDES (req/s), e.g. derived from robots.txt
        # Crawl-delay — an override throttles its host even when no
        # global rate_per_host is configured
        self.host_rates = host_rates or {}
        self.burst = max(1.0, float(burst))
        self._buckets: dict[str, tuple[float, float]] = {}
        self._lock = threading.Lock()

    def _acquire(self, host: str, rate: float) -> None:
        """Block until the host's bucket yields one token at ``rate``."""
        import time

        while True:
            with self._lock:
                now = time.monotonic()
                tokens, last = self._buckets.get(host, (self.burst, now))
                tokens = min(self.burst, tokens + (now - last) * rate)
                if tokens >= 1.0:
                    self._buckets[host] = (tokens - 1.0, now)
                    return
                self._buckets[host] = (tokens, now)
                wait = (1.0 - tokens) / rate
            time.sleep(wait)

    def _get(self, url: str) -> bytes | None:
        try:
            if self.rate or self.host_rates:
                from urllib.parse import urlparse

                host = urlparse(url).netloc
                rate = self.host_rates.get(host, self.rate)
                if rate:
                    self._acquire(host, rate)
            resp = self.session.get(url, timeout=self.timeout)
            resp.raise_for_status()  # non-2xx → exception → miss
            return resp.content
        except Exception:
            return None  # timeout / refused / DNS / non-2xx — all silent

    def __call__(self, t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        htmls = list(self.pool.map(self._get, urls))
        fetched = np.fromiter((h is not None for h in htmls), bool, count=len(htmls))
        return t.append_column("html", pa.array(htmls, pa.binary())).append_column(
            "fetched", pa.array(fetched)
        )


def fetch_http(
    ds: Dataset,
    timeout: float = 10.0,
    concurrency: int | tuple[int, int] = (1, 4),
    batch_size: int = 64,
    rate_per_host: float | None = None,
    host_rates: dict[str, float] | None = None,
) -> Dataset:
    """Actor-pool live fetch.  Sizing: each actor overlaps ~10 in-flight
    requests; scale the pool (``concurrency``) to the politeness budget —
    the per-host scheduler upstream already bounds per-host pressure.

    ``rate_per_host`` adds a wall-clock per-host token bucket (requests/
    sec) on top of the deterministic per-level budget.  The rate is a cap
    on what the host sees from the WHOLE pool: each actor's bucket gets
    ``rate_per_host / max_pool_size``, so the aggregate can never exceed
    the configured rate even when a host's URLs land on several actors
    (conservative — an autoscaled pool running below max under-uses the
    budget).  ``host_rates`` overrides (e.g. robots Crawl-delay) are
    aggregate caps too and are divided the same way."""
    max_pool = concurrency if isinstance(concurrency, int) else concurrency[1]
    div = max(1, int(max_pool))
    actor_rate = rate_per_host / div if rate_per_host is not None else None
    actor_host_rates = {h: r / div for h, r in (host_rates or {}).items()}
    return ds.map_batches(
        HttpFetcher,
        fn_constructor_kwargs={
            "timeout": timeout,
            "rate_per_host": actor_rate,
            "host_rates": actor_host_rates,
        },
        concurrency=concurrency,
        batch_size=batch_size,
        batch_format="pyarrow",
    )


class _PartitionIndex:
    """Per-worker cached index of one corpus partition: parquet file
    handles + per-row-group (min, max) url statistics.  A lookup reads
    ONLY the row groups whose url range intersects the (sorted) query
    list — at the 10^10-URL design point a partition holds ~10^7 urls in
    thousands of row groups and a batch touches a handful, so fetch I/O is
    proportional to the frontier, not the corpus.  (On a tiny sandbox
    corpus most row groups match; the pruning is the scale story.)"""

    def __init__(self, part_dir: str):
        import os

        import pyarrow.parquet as pq

        self.files = []
        for f in sorted(os.listdir(part_dir)):
            if not f.endswith(".parquet"):
                continue
            pf = pq.ParquetFile(os.path.join(part_dir, f))
            url_idx = pf.schema_arrow.get_field_index("url")
            stats = []
            for rg in range(pf.num_row_groups):
                st = pf.metadata.row_group(rg).column(url_idx).statistics
                stats.append((st.min, st.max) if st is not None else (None, None))
            self.files.append((pf, stats))

    def read_hits(self, urls: list[str]) -> dict[str, bytes]:
        q = np.array(sorted(urls), dtype=object)
        out: dict[str, bytes] = {}
        qset = set(urls)
        for pf, stats in self.files:
            rgs = []
            for i, (lo, hi) in enumerate(stats):
                if lo is None:
                    rgs.append(i)
                    continue
                j = np.searchsorted(q, lo)
                if j < len(q) and q[j] <= hi:
                    rgs.append(i)
            if not rgs:
                continue
            tbl = pf.read_row_groups(rgs, columns=["url", "html"])
            for u, h in zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()):
                if u in qset:
                    out[u] = h
        return out


def _fetch_batch(t: pa.Table, corpus_path: str, num_shards: int) -> pa.Table:
    """Shared lookup kernel: group the batch's urls by partition, read
    matching row groups via the cached per-partition index."""
    ensure_worker_thread_limits()
    if len(t) == 0:
        return t.append_column("html", pa.array([], pa.binary())).append_column(
            "fetched", pa.array([], pa.bool_())
        )
    urls = t["url"].to_pylist()
    parts = url_hash_batch(urls) % num_shards
    lookup: dict[str, bytes] = {}
    for part in np.unique(parts):
        part_dir = f"{corpus_path}/part_hash={int(part):02d}"
        index = cached_get(part_dir, build=_PartitionIndex, key=part_dir)
        sel = [u for u, p in zip(urls, parts) if p == part]
        lookup.update(index.read_hits(sel))
    htmls = [lookup.get(u) for u in urls]
    fetched = np.fromiter((h is not None for h in htmls), bool, count=len(htmls))
    return t.append_column("html", pa.array(htmls, pa.binary())).append_column(
        "fetched", pa.array(fetched)
    )


def fetch_partitioned(
    ds: Dataset, corpus_path: str, num_shards: int, align: bool = True
) -> Dataset:
    """Look the frontier up in the hash(url)-partitioned corpus.

    ``align=True`` (default): re-bucket the frontier by the corpus's url
    hash first — a shuffle of TINY url rows (~100 B each) that buys
    exactly ONE pruned read per corpus partition per level.  Fetch I/O
    becomes ∝ corpus-partitions-touched, never url-batch × partition.
    ``align=False`` skips the shuffle and looks up per batch — right when
    the input is already partition-aligned or tiny."""
    if not align:
        return ds.map_batches(
            lambda t: _fetch_batch(t, corpus_path, num_shards),
            batch_format="pyarrow",
            batch_size=8192,
        )

    def _bucket(t: pa.Table) -> pa.Table:
        b = (url_hash_batch(t["url"].to_pylist()) % num_shards).astype(np.int64)
        return t.append_column("__part", pa.array(b))

    def _fetch_group(t: pa.Table) -> pa.Table:
        if "__part" in t.column_names:
            t = t.drop_columns(["__part"])
        return _fetch_batch(t, corpus_path, num_shards)

    return (
        ds.map_batches(_bucket, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_fetch_group, batch_format="pyarrow")
    )
