"""End-to-end CLI test: ``python -m crawler_uni_ray`` mirrors the
reference's main() (crawler.py:111-135) — crawl a corpus, write a sorted
unique links.txt byte-identical to the oracle's artifact."""

import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from crawler_uni_ray.corpus import TINY, build_pages_table, write_corpus_parquet
from crawler_uni_ray.oracle import crawl_oracle

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("layout", ["part_hash", "flat"])
def test_cli_end_to_end(tmp_path, layout):
    """Both corpus layouts under the default fetch mode: part_hash=NN
    dirs are read in place; a flat single-dir pages parquet (the paper's
    input shape) is converted once into <ckpt>.corpus first."""
    corpus_dir = str(tmp_path / "corpus")
    if layout == "part_hash":
        write_corpus_parquet(TINY, corpus_dir, num_shards=4)
    else:
        os.makedirs(corpus_dir)
        pq.write_table(build_pages_table(TINY), os.path.join(corpus_dir, "pages.parquet"))
    out = str(tmp_path / "links.txt")
    ckpt = str(tmp_path / "ckpt")
    # own Ray session in a subprocess — the pytest session fixture keeps its
    # own; CLI must not disturb it (and proves the module runs standalone)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "crawler_uni_ray",
            "--domain",
            "https://example.com",  # scheme stripped like crawler.py:121-122
            "--corpus",
            corpus_dir,
            "--ckpt",
            ckpt,
            "--out",
            out,
            "--num-corpus-shards",
            "4",
            # the engine needs 1 CPU beside its 4 seen shards' 0.25 each
            # (it refuses a smaller session); 4 lets fetch and extract
            # tasks run side by side
            "--num-cpus",
            "4",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=420,
        env={**os.environ, "RAY_DEDUP_LOGS": "0"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Crawling completed" in proc.stdout
    assert "level 0:" in proc.stdout  # per-level progress surface

    tbl = build_pages_table(TINY)
    corpus = dict(zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()))
    oracle = crawl_oracle(corpus, "example.com")
    want = "".join(f"{u}\n" for u in oracle.sorted_links)
    with open(out, encoding="utf-8") as f:
        assert f.read() == want  # byte-identical links.txt


def test_cli_takes_shard_count_from_partitioned_corpus(tmp_path):
    """A partitioned corpus keeps its own shard count: 16 part_hash dirs
    crawl completely with no --num-corpus-shards (the default 8 would miss
    every page hashed to shards 8-15)."""
    corpus_dir = str(tmp_path / "corpus")
    write_corpus_parquet(TINY, corpus_dir, num_shards=16)
    out = str(tmp_path / "links.txt")
    proc = subprocess.run(
        [
            sys.executable, "-m", "crawler_uni_ray", "--domain", "example.com",
            "--corpus", corpus_dir, "--ckpt", str(tmp_path / "ckpt"),
            "--out", out, "--num-cpus", "4", "--quiet",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    tbl = build_pages_table(TINY)
    oracle = crawl_oracle(dict(zip(tbl["url"].to_pylist(), tbl["html"].to_pylist())), "example.com")
    with open(out, encoding="utf-8") as f:
        assert f.read() == "".join(f"{u}\n" for u in oracle.sorted_links)


def test_cli_requires_corpus(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "crawler_uni_ray", "--domain", "x.com", "--ckpt", str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and "--corpus is required" in proc.stderr


def test_cli_warc_ingest_sitemap_seed_and_export(tmp_path):
    """Archive-native flow: WARC in (--ingest-warc), sitemap-discovered
    seeds (--sitemap), links.txt ≡ oracle with the same seeds, WARC out
    (--warc-out) parseable and covering the fetched pages."""
    from crawler_uni_ray.sources.sitemap import expand_sitemaps
    from crawler_uni_ray.sources.warc import parse_warc_bytes, warc_bytes_from_batch

    tbl = build_pages_table(TINY)
    corpus = dict(zip(tbl["url"].to_pylist(), tbl["html"].to_pylist()))
    # sitemap tree lives IN the corpus (fetched via corpus_fetch_fn)
    ns = 'xmlns="http://www.sitemaps.org/schemas/sitemap/0.9"'
    leaf_urls = sorted(corpus)[:3]
    corpus["https://example.com/sitemap.xml"] = (
        f'<?xml version="1.0"?><sitemapindex {ns}><sitemap>'
        "<loc>https://example.com/sm1.xml</loc></sitemap></sitemapindex>"
    ).encode()
    corpus["https://example.com/sm1.xml"] = (
        f'<?xml version="1.0"?><urlset {ns}>'
        + "".join(f"<url><loc>{u}</loc></url>" for u in leaf_urls)
        + "</urlset>"
    ).encode()

    urls = sorted(corpus)
    warc_path = str(tmp_path / "in.warc.gz")
    with open(warc_path, "wb") as f:
        f.write(
            warc_bytes_from_batch(
                urls,
                ["2026-01-01T00:00:00Z"] * len(urls),
                [corpus[u] for u in urls],
                compress=True,
            )
        )

    out = str(tmp_path / "links.txt")
    ckpt = str(tmp_path / "ckpt")
    wout = str(tmp_path / "warc_out")
    proc = subprocess.run(
        [
            sys.executable, "-m", "crawler_uni_ray",
            "--domain", "example.com",
            "--ckpt", ckpt,
            "--out", out,
            "--ingest-warc", warc_path,
            "--sitemap", "https://example.com/sitemap.xml",
            "--warc-out", wout,
            "--num-corpus-shards", "4",
            "--num-cpus", "4",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=420,
        env={**os.environ, "RAY_DEDUP_LOGS": "0"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Exported" in proc.stdout

    seeds = expand_sitemaps(corpus.get, ["https://example.com/sitemap.xml"])
    assert seeds == leaf_urls
    oracle = crawl_oracle(corpus, "example.com", seeds=seeds)
    want = "".join(f"{u}\n" for u in oracle.sorted_links)
    with open(out, encoding="utf-8") as f:
        assert f.read() == want

    exported = {}
    for fn in sorted(os.listdir(wout)):
        with open(os.path.join(wout, fn), "rb") as f:
            for u, _ts, html in parse_warc_bytes(f.read()):
                exported[u] = html.decode("utf-8")
    assert exported == oracle.text
