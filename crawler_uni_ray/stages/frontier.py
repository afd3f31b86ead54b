"""Frontier schema and construction.

Frontier schema (SURVEY.md §1.2): ``url:string, host:string, depth:int32,
priority:float64, discovered_from:string, seq:int64``.  ``host`` is
computed once here and reused as THE partitioning key by the scheduler;
``priority`` is set by the configured priority policy (stages/priority.py)
and drives per-host scheduling order ``(-priority, url, seq)``;
``discovered_from`` is the lexicographically-min referrer (lineage);
``seq`` is a deterministic intra-level tiebreak (url is already unique, so
seq is the stable last-resort key).
"""

from __future__ import annotations

import pyarrow as pa

from ..urlnorm import hosts_batch

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.float64()),
        ("discovered_from", pa.string()),
        ("seq", pa.int64()),
    ]
)


def frontier_table(
    urls: list[str],
    hosts: list[str] | None = None,
    depth: int = 0,
    priorities=None,
    discovered_from=None,
    seqs=None,
) -> pa.Table:
    """Build a frontier table with defaults for the optional columns."""
    n = len(urls)
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(hosts if hosts is not None else list(hosts_batch(urls)), pa.string()),
            pa.array([depth] * n, pa.int32()),
            pa.array(priorities if priorities is not None else [0.0] * n, pa.float64()),
            pa.array(
                discovered_from if discovered_from is not None else [""] * n, pa.string()
            ),
            pa.array(seqs if seqs is not None else list(range(n)), pa.int64()),
        ],
        schema=FRONTIER_SCHEMA,
    )
