"""Runnable CLI mirroring the reference's ``main()``
(/root/reference/crawler.py:111-135): domain in → BFS crawl → sorted
unique ``links.txt`` out — on the Ray-Data engine, with the [NR] knobs
(politeness budget, priority policy, resume, fetch mode) exposed.

    python -m crawler_uni_ray --domain example.com \
        --corpus /path/to/part_hash_dirs --ckpt /tmp/ckpt --out links.txt

This module OWNS the Ray session (library code never calls ray.init —
CLAUDE.md); the driver/bench/pytest entry points never import it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from urllib.parse import urlparse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crawler_uni_ray",
        description="Ray-Data BFS crawl: domain in, sorted links.txt out.",
    )
    p.add_argument("--domain", required=True, help="crawl scope (scheme stripped)")
    p.add_argument(
        "--corpus",
        help="pages parquet: a dir of part_hash=NN dirs, or flat parquet "
        "(a file or a dir of files), converted once into <ckpt>.corpus",
    )
    p.add_argument("--ckpt", required=True, help="checkpoint dir (durable levels)")
    p.add_argument("--out", default="links.txt", help="links artifact path")
    p.add_argument(
        "--fetch-mode",
        default="auto",
        choices=["auto", "partitioned", "http"],
    )
    p.add_argument("--num-corpus-shards", type=int, default=8)
    p.add_argument("--budget", type=int, help="per-host fetches per level")
    p.add_argument(
        "--priority-policy", default="none", choices=["none", "indegree"]
    )
    p.add_argument(
        "--rate-per-host", type=float,
        help="http mode: wall-clock requests/sec per host (token bucket)",
    )
    p.add_argument("--max-pages", type=int)
    p.add_argument("--max-levels", type=int, default=1000)
    p.add_argument("--seeds", nargs="*", help="override the default https://domain seed")
    p.add_argument(
        "--sitemap", nargs="*", metavar="URL",
        help="seed from sitemap root(s) resolved against --corpus "
        "(sitemaps.org protocol; urlset + sitemapindex trees)",
    )
    p.add_argument(
        "--ingest-warc", nargs="*", metavar="PATH",
        help="WARC archive files to ingest into <ckpt>.warc_corpus, the "
        "crawl corpus when --corpus is unset",
    )
    p.add_argument(
        "--warc-out", metavar="DIR",
        help="after the crawl, export fetched pages as .warc.gz archives here",
    )
    p.add_argument("--resume", action="store_true", help="continue after last committed level")
    p.add_argument("--num-cpus", type=int, help="ray.init num_cpus (default: all)")
    p.add_argument("--quiet", action="store_true", help="suppress per-level progress")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # seed normalization, reference-exact (crawler.py:121-122):
    # strip an http(s):// prefix via urlparse().netloc
    domain = args.domain
    if domain.startswith(("http://", "https://")):
        domain = urlparse(domain).netloc
    if args.fetch_mode not in ("http",) and not args.corpus and not args.ingest_warc:
        print(
            "error: --corpus is required unless --fetch-mode http or --ingest-warc",
            file=sys.stderr,
        )
        return 2

    import ray.data

    if not ray.is_initialized():
        kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
        ray.init(address="local", include_dashboard=False, logging_level="ERROR", **kw)
    try:
        from .pipelines.crawl import CrawlConfig, CrawlEngine
        from .sources.pages import (
            corpus_fetch_fn,
            is_partitioned_corpus,
            pages_to_corpus_parquet,
        )

        # converted corpora go to SIBLINGS of the ckpt dir — run() wipes
        # ckpt itself
        if args.ingest_warc:
            from .sources.warc import warc_to_corpus_parquet

            corpus_dir = args.ckpt.rstrip("/") + ".warc_corpus"
            warc_to_corpus_parquet(
                args.ingest_warc, corpus_dir, num_shards=args.num_corpus_shards
            )
            args.corpus = args.corpus or corpus_dir
        if args.corpus and not is_partitioned_corpus(args.corpus):
            # flat pages parquet → the part_hash=NN layout the partitioned
            # fetch and the sitemap lookup read, once per run
            flat = ray.data.read_parquet(args.corpus, columns=["url", "html"])
            args.corpus = pages_to_corpus_parquet(
                flat,
                args.ckpt.rstrip("/") + ".corpus",
                args.num_corpus_shards,
                sum(os.path.getsize(f) for f in flat.input_files()),
            )

        seeds = args.seeds or None
        if args.sitemap:
            from .sources.sitemap import expand_sitemaps

            fetch = corpus_fetch_fn(args.corpus, args.num_corpus_shards)
            seeds = sorted(set(seeds or []) | set(expand_sitemaps(fetch, args.sitemap)))
            if not seeds:
                print("error: --sitemap produced no seeds", file=sys.stderr)
                return 2

        cfg = CrawlConfig(
            domain=domain,
            ckpt_dir=args.ckpt,
            corpus_path=args.corpus,
            fetch_mode=args.fetch_mode,
            num_corpus_shards=args.num_corpus_shards,
            budget=args.budget,
            http_rate_per_host=args.rate_per_host,
            priority_policy=args.priority_policy,
            max_pages=args.max_pages,
            max_levels=args.max_levels,
            seeds=seeds,
            verbose=not args.quiet,
        )
        eng = CrawlEngine(cfg)
        try:
            t0 = time.time()  # wall-clock print mirrors crawler.py:128-133
            eng.resume() if args.resume else eng.run()
            n_visited = len(eng.visited_depth())
            n_links = eng.save_links_txt(args.out)
            dt = time.time() - t0
            print(f"Crawling completed in {dt:.2f} seconds")
            print(f"Visited {n_visited} URLs over {len(eng.metrics)} levels")
            print(f"Found {n_links} unique links -> {args.out}")
            if args.warc_out:
                n_pages = eng.export_warc(args.warc_out)
                print(f"Exported {n_pages} pages as WARC -> {args.warc_out}")
        finally:
            eng.close()
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
