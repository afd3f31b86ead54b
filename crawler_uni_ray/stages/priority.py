"""Frontier priority policies — [NR] stage (north_rule "priority queue";
the reference's queue is pure FIFO, /root/reference/crawler.py:16).

Policies
--------
* ``none``     — every frontier row gets priority 0.0 (pure reference
  semantics; scheduling order degenerates to lexicographic url).
* ``indegree`` — a newly-discovered URL's priority = number of distinct
  pages at the current level linking to it (per-page outlinks are already
  set-deduped, so occurrences ≡ distinct referrers).  Hub pages get
  fetched first under a politeness budget — the classic crawl-frontier
  heuristic.  Rules, shared verbatim by the engine (both physical paths)
  and the oracle (oracle.py):

  - seeds: priority 0.0;
  - deferred rows KEEP their existing priority;
  - a URL both deferred and re-discovered takes
    ``max(deferred priority, new indegree)`` (order-insensitive → exact
    under any partitioning);
  - ``discovered_from`` = lexicographically-min non-empty referrer;
  - ``depth`` = min over merged rows (earliest discovery level).

Scheduling order is ``(-priority, url, seq)`` (stages/schedule.py); url is
unique per level, so conformance with the ``none`` policy is unchanged.

The combine runs as the frontier-dedup shuffle's per-bucket kernel — it
REPLACES the plain ``dedup_exact`` (same single shuffle, same bucket key),
so the indegree policy costs no extra pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

PRIORITY_POLICIES = ("none", "indegree")


def check_policy(policy: str) -> None:
    """Raise on a priority policy name outside ``PRIORITY_POLICIES``."""
    if policy not in PRIORITY_POLICIES:
        raise ValueError(f"priority_policy must be one of {PRIORITY_POLICIES}: {policy!r}")

# combine-input frame: FRONTIER columns + __cnt (partial indegree of new
# discoveries; deferred rows carry __cnt = -1 and a real priority)
_COMBINE_COLS = ["url", "host", "depth", "priority", "discovered_from", "__cnt"]


def new_partials_pandas(
    urls, hosts, depths, srcs
) -> pd.DataFrame:
    """Per-batch partial aggregation of newly-discovered outlinks:
    one row per distinct url with its within-batch referrer count and
    min referrer.  The shuffle then moves one row per (url, batch), not
    one per link occurrence (combiner pattern)."""
    df = pd.DataFrame(
        {"url": urls, "host": hosts, "depth": depths, "discovered_from": srcs}
    )
    g = df.groupby("url", as_index=False).agg(
        host=("host", "first"),
        depth=("depth", "min"),
        discovered_from=("discovered_from", "min"),
        __cnt=("url", "size"),
    )
    g["priority"] = 0.0
    return g[_COMBINE_COLS]


def deferred_partials_pandas(df: pd.DataFrame) -> pd.DataFrame:
    """Deferred frontier rows in combine-input form (__cnt = -1 marker)."""
    out = df[["url", "host", "depth", "priority", "discovered_from"]].copy()
    out["__cnt"] = -1
    return out[_COMBINE_COLS]


def combine_frontier_pandas(df: pd.DataFrame, policy: str) -> pd.DataFrame:
    """Merge combine-input rows into one frontier row per url (the rules
    in the module docstring).  Deterministic regardless of row order —
    the single source of truth, applied per bucket distributed and
    whole-frame on the driver fast path."""
    new_cnt = df["__cnt"].where(df["__cnt"] > 0, 0)
    # '' → U+FFFF sentinel (sorts after any url) so the vectorized groupby
    # min yields the min NON-EMPTY referrer; pure strings throughout — a
    # NaN/None in an object column would break pandas' min fallback
    dfrom = df["discovered_from"].fillna("").replace("", "￿")
    df = df.assign(__new=new_cnt, __dfrom=dfrom)
    g = df.groupby("url", as_index=False).agg(
        host=("host", "first"),
        depth=("depth", "min"),
        __maxpr=("priority", "max"),
        __sumnew=("__new", "sum"),
        discovered_from=("__dfrom", "min"),
    )
    g["discovered_from"] = g["discovered_from"].replace("￿", "")
    if policy == "indegree":
        g["priority"] = np.maximum(g["__maxpr"], g["__sumnew"].astype(float))
    else:
        g["priority"] = g["__maxpr"]
    g = g.sort_values("url", kind="mergesort").reset_index(drop=True)
    g["seq"] = np.arange(len(g), dtype=np.int64)
    g["depth"] = g["depth"].astype("int32")
    return g[["url", "host", "depth", "priority", "discovered_from", "seq"]]
