"""Per-host politeness scheduling with skew salting — [NR] stage
(north_rule; the reference has zero rate limiting — a tight loop on 10
threads, /root/reference/crawler.py:75-83).

Semantics (shared spec with oracle.py): per host and level, order
candidates by ``(-priority, url, seq)`` and keep the first ``budget``; the rest
are DEFERRED (never dropped) and carry into the next level's frontier.

Physical plan (:func:`schedule_level_fused`, the distributed level's one
scheduler): hash-bucket the frontier by host and apply ONE vectorized
pandas ranking per bucket.  Skew (north_rule: Zipf host mass): hosts whose
candidate count exceeds ``skew_threshold`` — found from partial counts
(:func:`host_counts` or the previous level's side-written counts), not a
second full shuffle — get salted keys ``(host, url_hash % n_salts)`` so
one hot host spreads over up to ``n_salts`` buckets; each salted sub-queue
keeps its local top-``budget`` (a superset of the global top-``budget``),
then a second per-host groupby of the survivors re-trims exactly.  Net
effect ≡ unsalted plan (SURVEY.md §4.4), but no single bucket holds a hot
host's full mass.  Small levels run the same ranking driver-side
(:func:`schedule_flags_pandas`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from ..urlnorm import url_hash_batch


def host_counts(ds: Dataset, url_col: str = "url") -> pd.DataFrame:
    """(host, n) via per-batch partial counts → groupby-sum over partials
    (combiner pattern: the shuffle moves one row per host per batch, not
    one per URL)."""

    def _partial(t: pa.Table) -> pa.Table:
        vc = pd.Series(t["host"].to_pylist()).value_counts()
        return pa.Table.from_arrays(
            [pa.array(vc.index.astype(str)), pa.array(vc.to_numpy(dtype=np.int64))],
            names=["host", "n"],
        )

    from ray.data.aggregate import Sum

    out = ds.map_batches(_partial, batch_format="pyarrow").groupby("host").aggregate(
        Sum("n", alias_name="n")
    )
    return out.to_pandas()  # one row per host — metadata-sized


def _rank_within(g: pd.DataFrame, by: list[str]) -> np.ndarray:
    # (-priority, url, seq): url is unique per level so seq is the stable
    # last-resort tiebreak (SURVEY.md §1.2); absent on ad-hoc frames
    keys = ["priority", "url"] + (["seq"] if "seq" in g.columns else [])
    asc = [False] + [True] * (len(keys) - 1)
    order = g.sort_values(keys, ascending=asc, kind="mergesort")
    rank = order.groupby(by, sort=False).cumcount()
    return rank.reindex(g.index).to_numpy()


def schedule_flags_pandas(df: pd.DataFrame, budget: int | None) -> np.ndarray:
    """Pure scheduling kernel: bool mask of rows kept under the per-host
    budget, ordered by (-priority, url, seq).  Shared by the distributed
    per-bucket stage and the crawl loop's small-level driver path — ONE
    source of truth for the politeness semantics (mirrored in oracle.py)."""
    if budget is None or len(df) == 0:
        return np.ones(len(df), dtype=bool)
    return _rank_within(df, ["host"]) < budget


def schedule_level_fused(
    ds: Dataset,
    budget: int,
    deferred_writer,
    *,
    n_buckets: int = 32,
    n_salts: int = 8,
    hot_hosts: set[str],
) -> Dataset:
    """The distributed level's scheduler: the group ops RETURN only the
    scheduled rows — which flow straight into the fused seen-add → fetch
    → extract stages — and SIDE-WRITE their deferred rows via
    ``deferred_writer(table, sched_bucket)`` (the crawl loop supplies a
    writer that emits combine-input partials partitioned by the
    frontier-dedup bucket, with deterministic per-bucket file names, so
    Ray task retries are idempotent).  Because the frontier combine sits
    BEHIND a later all-to-all in the same execution, every side-write is
    durable before any combine group runs.

    1. bucket by ``hash(host)``, except rows of ``hot_hosts``, which get
       ``hash(host#salt)`` with ``salt = url_hash % n_salts`` (one hot host
       spreads over ≤ ``n_salts`` buckets); each group keeps every host's
       local top-``budget`` — for a hot host a superset of its global
       top-``budget`` — and the rest are definitively deferred;
    2. only when ``hot_hosts`` is non-empty: re-key the survivors by
       ``hash(host)`` (each hot host's ≤ ``n_salts``×``budget`` survivors
       meet in ONE group; cold rows already sit in their host's bucket)
       and re-trim exactly; rows trimmed here are deferred too, written
       under the disjoint ``sched_bucket = n_buckets + bucket`` namespace
       so stage-1 files are never clobbered.

    Net semantics: each host's global top-``budget`` by
    ``(-priority, url, seq)``, salted or not; no bucket ever holds a hot
    host's full candidate mass."""
    salted = bool(hot_hosts)

    def _host_bucket(hosts) -> np.ndarray:
        return (url_hash_batch(hosts) % n_buckets).astype(np.int64)

    def _bucket(t: pa.Table) -> pa.Table:
        hosts = np.asarray(t["host"].to_pylist(), dtype=object)
        bucket = _host_bucket(hosts)
        if salted:
            hot = np.fromiter((h in hot_hosts for h in hosts), bool, count=len(hosts))
            if hot.any():
                urls = np.asarray(t["url"].to_pylist(), dtype=object)[hot]
                salts = url_hash_batch(urls) % n_salts
                bucket[hot] = _host_bucket(
                    [f"{h}#{s}" for h, s in zip(hosts[hot], salts)]
                )
        return t.append_column("__bucket", pa.array(bucket))

    def _keep_top(namespace: int, rekey: bool):
        def _sched(g: pd.DataFrame) -> pa.Table:
            from ..util import ensure_worker_thread_limits, from_pandas_clean

            ensure_worker_thread_limits()
            bid = int(g["__bucket"].iloc[0])
            g = g.drop(columns=["__bucket"])
            kept = _rank_within(g, ["host"]) < budget
            t = from_pandas_clean(g)  # convert before filtering: keeps types on empty
            deferred = t.filter(pa.array(~kept))
            if deferred.num_rows:
                deferred_writer(deferred, namespace + bid)
            t = t.filter(pa.array(kept))
            if rekey:
                t = t.append_column(
                    "__bucket", pa.array(_host_bucket(t["host"].to_pylist()))
                )
            return t

        return _sched

    scheduled = (
        ds.map_batches(_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_keep_top(0, rekey=salted), batch_format="pandas")
    )
    if salted:
        scheduled = scheduled.groupby("__bucket").map_groups(
            _keep_top(n_buckets, rekey=False), batch_format="pandas"
        )
    return scheduled
