"""Per-worker-process object cache for broadcast state.

Stateless map_batches tasks are cheaper than actor pools for light stages
(no pool spin-up per Dataset execution), but naively calling ``ray.get`` on
a broadcast ObjectRef inside every task re-deserializes the payload per
call.  Ray worker processes persist across tasks and executions, so a
module-level cache keyed by ObjectRef gives once-per-process
deserialization — the broadcast-small-side pattern without actor pools.
Derived state (e.g. parsed robots rules) caches via ``build``.
"""

from __future__ import annotations

from typing import Any, Callable

import ray

_PROC_CACHE: dict[str, Any] = {}
_THREADS_TUNED = False


def ensure_worker_thread_limits(cpu: int = 1, io: int = 2) -> None:
    """Cap pyarrow's per-process thread pools inside Ray worker tasks.

    pyarrow defaults both pools to os.cpu_count(); with 32 single-CPU Ray
    workers that is 32×32 threads fighting for 32 cores — parquet
    read/decompress then ANTI-scales with cluster size.  Call this at the
    top of every I/O-heavy batch kernel (idempotent, once per process)."""
    global _THREADS_TUNED
    # without a session there is no task to cap, and get_runtime_context()
    # would start one (library code never starts Ray)
    if _THREADS_TUNED or not ray.is_initialized():
        return
    try:  # only cap inside Ray tasks/actors — never throttle the driver
        if ray.get_runtime_context().get_task_id() is None:
            return
    except Exception:
        return
    import pyarrow as pa

    pa.set_cpu_count(cpu)
    pa.set_io_thread_count(io)
    _THREADS_TUNED = True


_SCHEMA_WARN_FILTERED = False


def silence_empty_block_schema_warning() -> None:
    """Drop the streaming executor's "RefBundle with a different schema …
    new schema: ." warning — and ONLY that variant.

    Whenever a bucketed shuffle runs with more partitions than distinct
    keys (routine here: n_buckets is sized to the cluster, vocab/host
    counts to the data), Ray's hash-shuffle aggregator emits schema-LESS
    empty blocks for the empty partitions and warns once per block.  The
    UDF is never invoked for those partitions (verified on ray 2.49), so
    no kernel-side "explicit empty schema" can prevent it; the engine's
    kernels are schema-stable for every non-empty block.  Warnings about
    genuinely MISMATCHED non-empty schemas still pass through."""
    global _SCHEMA_WARN_FILTERED
    if _SCHEMA_WARN_FILTERED:
        return
    import logging

    class _DropEmptySchemaWarn(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            return not (
                "produced a RefBundle with a different schema" in msg
                and "new schema: ." in msg
            )

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_DropEmptySchemaWarn())
    _SCHEMA_WARN_FILTERED = True


def from_pandas_clean(df, schema=None):
    """pandas → Arrow with NO pandas schema metadata.  Blocks that carry
    ``b'pandas'`` metadata defeat Ray's block-schema dedup in shuffle
    reduce tasks ("Failed to hash the schemas … unhashable type: 'dict'"
    warning spam) — every map_groups/map_batches kernel that builds its
    output from a DataFrame should return through here."""
    import pyarrow as pa

    t = pa.Table.from_pandas(df, schema=schema, preserve_index=False)
    return t.replace_schema_metadata(None)


def pack_id_pair(lo, hi):
    """Two int id arrays → one int64 key ``(lo << 32) | hi``.  An id outside
    [0, 2**32) would collide with another pair, so it raises ValueError."""
    import numpy as np

    for ids in (lo, hi):
        if len(ids) and (ids.min() < 0 or ids.max() >= 1 << 32):
            raise ValueError(
                f"ids in [{ids.min()}, {ids.max()}] do not fit a 32-bit pair key half"
            )
    return ((lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64)).view(np.int64)


def cached_get(ref, build: Callable[[Any], Any] | None = None, key: str | None = None):
    if isinstance(ref, ray.ObjectRef):
        k = ref.hex()
    else:
        k = key if key is not None else str(id(ref))
    if build is not None:
        k += ":built"
    if k not in _PROC_CACHE:
        obj = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        _PROC_CACHE[k] = build(obj) if build is not None else obj
    return _PROC_CACHE[k]


def ensure_min_blocks(ds, min_blocks: int | None = None):
    """Repartition ONLY when the plan starts with fewer blocks than the
    cluster can use: a single-file (single-row-group) input otherwise runs
    a CPU-heavy per-doc stage as ONE task — zero parallelism regardless of
    cluster size.  At scale inputs are already many-blocked and this is a
    no-op (no shuffle added).  ``min_blocks`` defaults to the cluster CPU
    count."""
    import ray

    if min_blocks is None:
        try:
            min_blocks = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            return ds
    try:
        n = ds._plan.initial_num_blocks()
    except Exception:
        return ds
    if n is not None and 0 < n < min_blocks:
        return ds.repartition(min_blocks)
    return ds
