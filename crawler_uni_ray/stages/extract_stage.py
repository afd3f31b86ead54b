"""Link + text extraction over fetched pages (map_batches), and the
outlink flatten (the flat_map explosion, SURVEY.md §2.2 M4/M5).

HTML parsing is inherently per-document; the batch wrapper amortizes task
overhead and keeps the html column zero-copy Arrow binary until the row is
parsed.  Outlinks are emitted as a ``list<string>`` column (sorted — the
reference's per-page ``set()`` is order-insensitive, so lexicographic order
is the deterministic representative), then exploded to one (src_url, url)
row per link by ``flatten_outlinks``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..extract import extract_links_and_text
from ..urlnorm import hosts_batch_cleaned

RESULTS_COLS = ["url", "host", "depth", "fetch_status", "n_outlinks", "text", "outlinks"]


def extract_batch(t: pa.Table, depth: int) -> pa.Table:
    """(url, host, html, fetched, …) → results rows with outlinks list."""
    from ..util import ensure_worker_thread_limits

    ensure_worker_thread_limits()
    urls = t["url"].to_pylist()
    htmls = t["html"].to_pylist()
    fetched = t["fetched"].to_pylist()
    texts: list[str | None] = []
    outlinks: list[list[str]] = []
    for url, html, ok in zip(urls, htmls, fetched):
        if not ok or html is None:
            texts.append(None)
            outlinks.append([])
            continue
        links, text = extract_links_and_text(html, url)
        texts.append(text)
        outlinks.append(sorted(links))
    n = len(urls)
    return pa.Table.from_arrays(
        [
            t["url"].combine_chunks() if n else pa.array([], pa.string()),
            pa.array(t["host"].to_pylist(), pa.string()),
            pa.array([depth] * n, pa.int32()),
            pa.array([1 if f else 0 for f in fetched], pa.int32()),
            pa.array([len(o) for o in outlinks], pa.int32()),
            pa.array(texts, pa.string()),
            pa.array(outlinks, pa.list_(pa.string())),
        ],
        names=RESULTS_COLS,
    )


def extract_stage(ds: Dataset, depth: int, batch_size: int | None = None) -> Dataset:
    """batch_size=None → one batch per BLOCK: upstream dynamic block
    splitting (target_max_block_size, 32 MB default in the crawl engine)
    already bounds a batch's html payload, so per-batch heap stays within
    worker limits (SURVEY.md §7 hard part f) WITHOUT row-count bundling —
    a small int here made Ray bundle a small level's many tiny blocks into
    a handful of tasks (8-way extract on a 32-CPU box; A/B-measured
    regression).  Pass an int only to force finer slicing inside a task."""
    return ds.map_batches(
        lambda t: extract_batch(t, depth), batch_format="pyarrow", batch_size=batch_size
    )


def outlinks_table(t: pa.Table, domain: str) -> pa.Table:
    """Explode results rows (``url, depth, outlinks``) → one
    (src_url, url, host, in_scope, depth) row per outlink.

    ``depth`` = src depth + 1 (the level the link would first be fetched).
    Vectorized: pyarrow list flatten + parent-index take, no Python loop
    over links.  The table kernel behind ``flatten_outlinks`` and the
    driver fast path's next frontier (pipelines/crawl.py).
    """
    col = t["outlinks"].combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col)
    parents = pc.list_parent_indices(col)
    src = pc.take(t["url"].combine_chunks(), parents)
    depths = pc.add(pc.take(t["depth"].combine_chunks(), parents), 1).cast(pa.int32())
    urls = flat.to_pylist()
    # outlinks are cleaned urls by construction → vectorized host/scope
    hosts_s = hosts_batch_cleaned(urls)
    hosts = pa.array(hosts_s.tolist(), pa.string())
    scope = pa.array(hosts_s.str.endswith(domain).fillna(False).to_numpy(dtype=bool))
    return pa.Table.from_arrays(
        [src, flat, hosts, scope, depths],
        names=["src_url", "url", "host", "in_scope", "depth"],
    )


def flatten_outlinks(ds: Dataset, domain: str) -> Dataset:
    """Explode results.outlinks per batch (``outlinks_table``)."""

    def _flat(t: pa.Table) -> pa.Table:
        return outlinks_table(t, domain)

    return ds.map_batches(_flat, batch_format="pyarrow")
