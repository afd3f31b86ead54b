"""WARC (ISO 28500) source / sink for the pages corpus.

Web-archive interchange: real crawl corpora (Common Crawl et al.) ship as
WARC — sequences of length-delimited records, each an HTTP response
envelope around the raw page bytes.  The reference engine has no archive
format at all (it holds links in a Python set, /root/reference/
crawler.py:16); this module adds the standard one so the engine can
ingest existing archives and emit its fetched pages as archives, without
any third-party library (the format is headers + Content-Length — the
parser below never splits on payload content, so arbitrary HTML bytes
round-trip exactly).

Ray-Data shape:

* ``write_warc(ds, out_dir)`` — a ``map_batches`` stage: each batch
  serializes to ONE ``.warc`` (or ``.warc.gz``: one gzip member per
  record, the standard member-per-record layout) under a CONTENT-DERIVED
  file name (sha1 of the batch's urls) with tmp→rename, so Ray task
  retries are idempotent — the same batch rewrites the same bytes to the
  same name.  The stage passes url/warc_ts through, so it fuses into a
  larger pipeline or terminates one via ``.count()``.
* ``read_warc(paths)`` — ``ray.data.read_binary_files`` (one block per
  archive file; archives are written batch-sized so block ≈ batch) →
  a ``map_batches`` parser emitting the pages schema subset
  ``(url, warc_ts, html)``.  I/O is streaming: no archive is ever
  whole-corpus materialized.

At 100 TB the unit of parallelism is the archive FILE (Common Crawl
ships ~1 GB segments); ``read_binary_files`` gives one task per file and
the parser is pure per-file compute.  Oversized single archives should be
split at write time (they are here: one file per batch).
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os

import pyarrow as pa
from ray.data import Dataset

_CRLF = b"\r\n"
_HDR_END = b"\r\n\r\n"


def _http_envelope(html: bytes) -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: "
        + str(len(html)).encode()
        + _HDR_END
        + html
    )


def _warc_record(url: str, ts: str, html: bytes) -> bytes:
    """One WARC/1.0 response record.  Record-ID is DETERMINISTIC
    (sha1(url, ts)) so a rewritten batch is byte-identical — the property
    the idempotent writer relies on."""
    payload = _http_envelope(html)
    rid = hashlib.sha1(f"{url}\x00{ts}".encode()).hexdigest()
    headers = (
        b"WARC/1.0\r\n"
        b"WARC-Type: response\r\n"
        b"WARC-Record-ID: <urn:sha1:" + rid.encode() + b">\r\n"
        b"WARC-Date: " + ts.encode() + b"\r\n"
        b"WARC-Target-URI: " + url.encode() + b"\r\n"
        b"Content-Type: application/http;msgtype=response\r\n"
        b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
    )
    return headers + _CRLF + payload + _CRLF + _CRLF


def warc_bytes_from_batch(
    urls: list[str], tss: list[str], htmls: list[bytes], compress: bool = False
) -> bytes:
    """Serialize one batch of pages to WARC bytes.  ``compress=True``
    emits one gzip MEMBER per record (the standard ``.warc.gz`` layout —
    readers can seek to a record and decompress it alone)."""
    if not compress:
        return b"".join(
            _warc_record(u, t, h) for u, t, h in zip(urls, tss, htmls)
        )
    buf = io.BytesIO()
    for u, t, h in zip(urls, tss, htmls):
        # mtime=0: deterministic bytes (gzip headers embed mtime otherwise)
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
            gz.write(_warc_record(u, t, h))
    return buf.getvalue()


def write_warc(
    ds: Dataset, out_dir: str, compress: bool = False, batch_size: int | None = 256
) -> Dataset:
    """Sink stage: pages ``(url, warc_ts?, html)`` → one archive file per
    batch under ``out_dir``.  Returns the slim pass-through Dataset
    (url, warc_ts) — consume it (``.count()`` / further stages) to run.

    Durability matches the repo's side-write contract: content-derived
    names + tmp→``os.replace`` ⇒ retries overwrite their own output.
    """
    os.makedirs(out_dir, exist_ok=True)
    ext = ".warc.gz" if compress else ".warc"

    def _write(t: pa.Table) -> pa.Table:
        from ..util import ensure_worker_thread_limits

        ensure_worker_thread_limits()
        urls = t["url"].to_pylist()
        if "warc_ts" in t.column_names:
            # corpus tables carry warc_ts as timestamp[us]; WARC-Date is a
            # header string — coerce either representation
            tss = [
                x if isinstance(x, str) else (x.isoformat() + "Z" if x else "")
                for x in t["warc_ts"].to_pylist()
            ]
        else:
            tss = ["1970-01-01T00:00:00Z"] * len(urls)
        htmls = [h if h is not None else b"" for h in t["html"].to_pylist()]
        if urls:
            data = warc_bytes_from_batch(urls, tss, htmls, compress=compress)
            name = hashlib.sha1("\x00".join(urls).encode()).hexdigest()[:20]
            final = os.path.join(out_dir, f"w-{name}{ext}")
            tmp = final + ".tmp"
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, final)
        return pa.table({"url": pa.array(urls, pa.string()),
                         "warc_ts": pa.array(tss, pa.string())})

    return ds.map_batches(_write, batch_format="pyarrow", batch_size=batch_size)


def parse_warc_bytes(data: bytes) -> list[tuple[str, str, bytes]]:
    """Pure parser: WARC bytes (plain or multi-member gzip) →
    ``[(url, ts, html)]`` for every ``WARC-Type: response`` record.

    Record boundaries come from ``Content-Length`` ONLY — payload bytes
    are never scanned for markers, so any html round-trips exactly."""
    if data[:2] == b"\x1f\x8b":  # gzip magic; GzipFile drains all members
        data = gzip.GzipFile(fileobj=io.BytesIO(data)).read()
    out: list[tuple[str, str, bytes]] = []
    pos = 0
    n = len(data)
    while pos < n:
        # tolerate inter-record padding / trailing newlines
        while pos < n and data[pos : pos + 2] == _CRLF:
            pos += 2
        if pos >= n:
            break
        hdr_end = data.find(_HDR_END, pos)
        if hdr_end < 0:
            break
        headers: dict[str, str] = {}
        for line in data[pos:hdr_end].split(_CRLF)[1:]:  # [0] = WARC/1.0
            k, _, v = line.partition(b":")
            headers[k.strip().lower().decode()] = v.strip().decode()
        length = int(headers.get("content-length", "0"))
        body_start = hdr_end + len(_HDR_END)
        payload = data[body_start : body_start + length]
        pos = body_start + length
        if headers.get("warc-type") == "response":
            http_end = payload.find(_HDR_END)
            html = payload[http_end + len(_HDR_END) :] if http_end >= 0 else payload
            out.append(
                (
                    headers.get("warc-target-uri", ""),
                    headers.get("warc-date", ""),
                    html,
                )
            )
    return out


def read_warc(paths: str | list[str]) -> Dataset:
    """Source: archive files → Dataset ``(url, warc_ts, html)``.  One read
    task per file; the parse is a fused map (never a driver loop)."""
    import ray.data

    raw = ray.data.read_binary_files(paths)

    def _parse(t: pa.Table) -> pa.Table:
        from ..util import ensure_worker_thread_limits

        ensure_worker_thread_limits()
        urls: list[str] = []
        tss: list[str] = []
        htmls: list[bytes] = []
        for blob in t["bytes"].to_pylist():
            for u, ts, h in parse_warc_bytes(blob):
                urls.append(u)
                tss.append(ts)
                htmls.append(h)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return raw.map_batches(_parse, batch_format="pyarrow")


def warc_to_corpus_parquet(
    warc_paths: str | list[str],
    out_dir: str,
    num_shards: int = 8,
    target_group_bytes: int = 256 << 20,
) -> str:
    """Distributed ingest: WARC archives → the engine's hash(url)-
    partitioned parquet corpus layout (``part_hash=NN/`` dirs, url-sorted
    files for row-group pruning — what ``fetch_partitioned`` reads).  The
    archives' total on-disk bytes size the write groups
    (sources.pages.pages_to_corpus_parquet)."""
    from .pages import pages_to_corpus_parquet

    paths = [warc_paths] if isinstance(warc_paths, str) else list(warc_paths)
    total = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    return pages_to_corpus_parquet(
        read_warc(paths), out_dir, num_shards, total,
        target_group_bytes=target_group_bytes,
    )
