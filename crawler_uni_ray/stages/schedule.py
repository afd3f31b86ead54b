"""Per-host politeness scheduling with skew salting — [NR] stage
(north_rule; the reference has zero rate limiting — a tight loop on 10
threads, /root/reference/crawler.py:75-83).

Semantics (shared spec with oracle.py): per host and level, order
candidates by ``(-priority, url, seq)`` and keep the first ``budget``; the rest
are DEFERRED (never dropped) and carry into the next level's frontier.

Physical plan: hash-bucket the frontier by host (the single scheduling
shuffle) and apply ONE vectorized pandas ranking per bucket.  Skew
(north_rule: Zipf host mass): hosts whose candidate count exceeds
``skew_threshold`` — found via a partial-count combiner, not a second full
shuffle — get salted keys ``(host, url_hash % n_salts)`` so one hot host
spreads over up to ``n_salts`` buckets; each salted sub-queue keeps its
local top-``budget`` (a superset of the global top-``budget``), then a tiny
second per-host pass re-trims exactly.  Net effect ≡ unsalted plan
(SURVEY.md §4.4), but no single bucket holds a hot host's full mass.
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
) -> Dataset:
    """Single-execution scheduling (no hot-host salting): the per-bucket
    group op RETURNS only the scheduled rows — which flow straight into
    the fused seen-add → fetch → extract stages — and SIDE-WRITES its
    deferred rows via ``deferred_writer(table, bucket_id)`` (the crawl
    loop supplies a writer that emits combine-input partials partitioned
    by the frontier-dedup bucket, with deterministic per-bucket file
    names and tmp→rename, so Ray task retries are idempotent).  This
    removes the materialize + second pass the split variant pays — one
    groupby shuffle is the level's only barrier, and because the frontier
    combine sits BEHIND a later all-to-all in the same execution, every
    side-write is durable before any combine group runs."""

    def _bucket(t: pa.Table) -> pa.Table:
        hosts = t["host"].to_pylist()
        bucket = (url_hash_batch(hosts) % n_buckets).astype(np.int64)
        return t.append_column("__bucket", pa.array(bucket))

    def _sched(g: pd.DataFrame) -> pa.Table:
        from ..util import ensure_worker_thread_limits, from_pandas_clean

        ensure_worker_thread_limits()
        bid = int(g["__bucket"].iloc[0])
        g = g.drop(columns=["__bucket"])
        rank = _rank_within(g, ["host"])
        t = from_pandas_clean(g)  # convert before filtering: keeps types on empty
        kept = rank < budget
        deferred = t.filter(pa.array(~kept))
        if deferred.num_rows:
            deferred_writer(deferred, bid)
        return t.filter(pa.array(kept))

    return (
        ds.map_batches(_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_sched, batch_format="pandas")
    )


def _salted_bucket_fn(hot_ref: set[str], n_salts: int, n_buckets: int):
    """Shared stage-1 bucketing for the salted schedulers: hot-host rows
    get ``hash(host#salt)`` keys (one hot host spreads over ≤ ``n_salts``
    buckets), cold rows ``hash(host#0)``."""

    def _bucket(t: pa.Table) -> pa.Table:
        hosts = np.asarray(t["host"].to_pylist(), dtype=object)
        salts = np.zeros(len(hosts), dtype=np.int64)
        hot = np.fromiter((h in hot_ref for h in hosts), bool, count=len(hosts))
        if hot.any():
            salts[hot] = (
                url_hash_batch(np.asarray(t["url"].to_pylist(), object)[hot])
                % n_salts
            ).astype(np.int64)
        keys = [f"{h}#{s}" for h, s in zip(hosts, salts)]
        bucket = (url_hash_batch(keys) % n_buckets).astype(np.int64)
        return (
            t.append_column("__salt", pa.array(salts))
            .append_column("__hot", pa.array(hot))
            .append_column("__bucket", pa.array(bucket))
        )

    return _bucket


def schedule_level_fused_salted_stage1(
    ds: Dataset,
    budget: int,
    deferred_writer,
    *,
    n_buckets: int = 32,
    n_salts: int = 8,
    hot_hosts: set[str],
    hotkeys_writer,
) -> Dataset:
    """Stage 1 of the salted scheduler with the exact per-host re-trim
    FOLDED into the caller's fetch-align groupby — one fewer all-to-all
    barrier per salted level than :func:`schedule_level_fused_salted`.

    Identical per-(host, salt) local top-``budget`` + deferred side-writes
    as the two-stage variant; but instead of re-keying the survivors
    through a second groupby, each group side-writes the SORT KEYS
    (host, url, priority[, seq]) of its hot-host survivors via
    ``hotkeys_writer(keys_table, bucket_id)``.  The caller's fetch-align
    groups — a later all-to-all in the SAME streaming execution, so every
    key file is durable before any group runs (the deferred-partials
    invariant) — read the keys back, reconstruct each hot host's global
    top-``budget`` set, and trim exactly (crawl.py ``_pre_fetch_trim``).
    Returns the survivor SUPERSET: hot rows still pending that exact trim,
    and NOT yet seen-marked (the trim decides scheduled-vs-deferred, and
    deferred rows must stay eligible next level)."""
    hot_ref = hot_hosts
    _bucket = _salted_bucket_fn(hot_ref, n_salts, n_buckets)

    def _sched(g: pd.DataFrame) -> pa.Table:
        from ..util import ensure_worker_thread_limits, from_pandas_clean

        ensure_worker_thread_limits()
        bid = int(g["__bucket"].iloc[0])
        rank = _rank_within(g, ["host", "__salt"])
        kept_mask = rank < budget
        hot_m = g["__hot"].to_numpy(dtype=bool)
        g = g.drop(columns=["__salt", "__bucket"])
        t = from_pandas_clean(g)  # convert before filtering: keeps types on empty
        deferred = t.filter(pa.array(~kept_mask)).drop_columns(["__hot"])
        if deferred.num_rows:
            deferred_writer(deferred, bid)
        hot_kept = hot_m & kept_mask
        if hot_kept.any():
            cols = ["host", "url", "priority"] + (
                ["seq"] if "seq" in g.columns else []
            )
            hotkeys_writer(from_pandas_clean(g.loc[hot_kept, cols]), bid)
        return t.filter(pa.array(kept_mask)).drop_columns(["__hot"])

    return (
        ds.map_batches(_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_sched, batch_format="pandas")
    )


def schedule_level_fused_salted(
    ds: Dataset,
    budget: int,
    deferred_writer,
    *,
    n_buckets: int = 32,
    n_salts: int = 8,
    hot_hosts: set[str],
) -> Dataset:
    """Single-execution scheduling WITH hot-host salting: the salted
    variant of :func:`schedule_level_fused`.  Two chained in-stream
    groupbys, zero materialize barriers:

    1. bucket by ``hash(host#salt)`` → per-(host, salt) local
       top-``budget`` (rows past it are definitively deferred →
       side-written via ``deferred_writer``; a salted sub-queue's local
       top-``budget`` is a superset of the host's global top-``budget``);
    2. re-key the survivors — hot-host rows by ``hash(host)`` so each hot
       host's ≤ ``n_salts``×``budget`` survivors land in ONE group, cold
       rows keep their (already balanced) schedule bucket — and re-trim
       hot hosts exactly; rows trimmed here are deferred too, side-written
       under the disjoint ``sched_bucket = n_buckets + key`` namespace so
       retries stay idempotent and stage-1 files are never clobbered.

    Net semantics ≡ :func:`schedule_level` (same kernels, same ordering
    spec), but the whole level stays ONE streaming execution: both
    side-write stages sit ahead of the frontier-combine's all-to-all, so
    every deferred partial is durable before any combine group reads it.
    The second shuffle moves only the scheduled rows (url-sized), and at
    most ``n_salts``×``budget`` rows per hot host reach a re-trim group —
    no bucket ever holds a hot host's full candidate mass.
    """
    hot_ref = hot_hosts
    _bucket = _salted_bucket_fn(hot_ref, n_salts, n_buckets)

    def _sched(g: pd.DataFrame) -> pa.Table:
        from ..util import ensure_worker_thread_limits, from_pandas_clean

        ensure_worker_thread_limits()
        bid = int(g["__bucket"].iloc[0])
        rank = _rank_within(g, ["host", "__salt"])
        kept_mask = rank < budget
        hot_m = g["__hot"].to_numpy(dtype=bool)
        key2 = np.full(len(g), bid, dtype=np.int64)
        if hot_m.any():
            key2[hot_m] = (
                url_hash_batch(g["host"].to_numpy(dtype=object)[hot_m]) % n_buckets
            ).astype(np.int64)
        g = g.drop(columns=["__salt", "__bucket"]).copy()
        g["__key2"] = key2
        t = from_pandas_clean(g)  # convert before filtering: keeps types on empty
        deferred = t.filter(pa.array(~kept_mask)).drop_columns(["__hot", "__key2"])
        if deferred.num_rows:
            deferred_writer(deferred, bid)
        return t.filter(pa.array(kept_mask))

    def _retrim(g: pd.DataFrame) -> pa.Table:
        from ..util import ensure_worker_thread_limits, from_pandas_clean

        ensure_worker_thread_limits()
        kid = int(g["__key2"].iloc[0])
        hot_m = g["__hot"].to_numpy(dtype=bool)
        t = from_pandas_clean(g.drop(columns=["__key2"]))
        if not hot_m.any():
            return t.drop_columns(["__hot"])
        keep = np.ones(len(g), dtype=bool)
        rank = _rank_within(g.loc[hot_m], ["host"])
        keep[hot_m] = rank < budget  # positional: .loc[mask] preserves order
        trimmed = t.filter(pa.array(~keep)).drop_columns(["__hot"])
        if trimmed.num_rows:
            deferred_writer(trimmed, n_buckets + kid)
        return t.filter(pa.array(keep)).drop_columns(["__hot"])

    return (
        ds.map_batches(_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_sched, batch_format="pandas")
        .groupby("__key2")
        .map_groups(_retrim, batch_format="pandas")
    )


def schedule_level(
    ds: Dataset,
    budget: int | None,
    *,
    n_buckets: int = 32,
    n_salts: int = 8,
    skew_threshold: int | None = None,
    hot_hosts: set[str] | None = None,
) -> Dataset:
    """Append a bool ``scheduled`` column; False rows are the deferred set.

    ``budget=None`` → everything scheduled, zero shuffles (the pure
    reference-semantics path).  ``hot_hosts`` (optional) skips the
    distributed count pass: the crawl loop supplies frontier host counts
    side-written by the previous level's combine — a pre-seen-filter
    upper bound, which only ever salts MORE hosts, and the salted plan is
    ≡ the unsalted plan (test_skew_salting_equals_unsalted_plan).
    """
    if budget is None:

        def _all(t: pa.Table) -> pa.Table:
            return t.append_column("scheduled", pa.array(np.ones(len(t), dtype=bool)))

        return ds.map_batches(_all, batch_format="pyarrow")

    if hot_hosts is None:
        hot_hosts = set()
        if skew_threshold is not None:
            hc = host_counts(ds)
            hot_hosts = set(hc.loc[hc["n"] > skew_threshold, "host"])

    def _bucket(t: pa.Table) -> pa.Table:
        hosts = np.asarray(t["host"].to_pylist(), dtype=object)
        salts = np.zeros(len(hosts), dtype=np.int64)
        if hot_hosts:
            hot = np.fromiter((h in hot_hosts for h in hosts), bool, count=len(hosts))
            if hot.any():
                salts[hot] = (
                    url_hash_batch(np.asarray(t["url"].to_pylist(), object)[hot])
                    % n_salts
                ).astype(np.int64)
        keys = [f"{h}#{s}" for h, s in zip(hosts, salts)]
        bucket = (url_hash_batch(keys) % n_buckets).astype(np.int64)
        return t.append_column("__salt", pa.array(salts)).append_column(
            "__bucket", pa.array(bucket)
        )

    def _local_schedule(g: pd.DataFrame) -> pa.Table:
        from ..util import from_pandas_clean

        rank = _rank_within(g, ["host", "__salt"])
        g = g.drop(columns=["__bucket"])
        g["scheduled"] = rank < budget
        return from_pandas_clean(g)

    flagged = (
        ds.map_batches(_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_local_schedule, batch_format="pandas")
    )
    if not hot_hosts:
        return flagged.drop_columns(["__salt"])

    # hot hosts: local pass kept ≤ n_salts×budget per host; branch → re-trim
    flagged = flagged.materialize()  # level working set — bounded, reused 3×
    hot_ref = hot_hosts

    def _is_hot(t: pa.Table, invert: bool = False) -> pa.Table:
        hosts = t["host"].to_pylist()
        m = np.fromiter((h in hot_ref for h in hosts), bool, count=len(hosts))
        return t.filter(pa.array(~m if invert else m))

    def _by_flag(keep: bool):
        def f(t: pa.Table) -> pa.Table:
            m = np.asarray(t["scheduled"].to_pylist(), dtype=bool)
            return t.filter(pa.array(m if keep else ~m))

        return f

    cold = flagged.map_batches(lambda t: _is_hot(t, invert=True), batch_format="pyarrow")
    hot = flagged.map_batches(_is_hot, batch_format="pyarrow")
    hot_kept = hot.map_batches(_by_flag(True), batch_format="pyarrow")
    hot_dropped = hot.map_batches(_by_flag(False), batch_format="pyarrow")

    def _retrim(g: pd.DataFrame) -> pa.Table:
        from ..util import from_pandas_clean

        rank = _rank_within(g, ["host"])
        g = g.copy()
        g["scheduled"] = rank < budget
        return from_pandas_clean(g)

    hot_final = hot_kept.groupby("host").map_groups(_retrim, batch_format="pandas")
    return cold.union(hot_final).union(hot_dropped).drop_columns(["__salt"])
