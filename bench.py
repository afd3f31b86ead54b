#!/usr/bin/env python
"""Benchmark runner (driver contract: prints ONE JSON line).

Modes
-----
default        headline = full BFS crawl (politeness budget + skew salting,
               distributed control plane) over a deterministic synthetic
               corpus, plus representative training-data queries at
               $GRAFT_SF_DIR.  value = crawl wall seconds.
--level        the steady-state unit: ONE fully-distributed BFS level over
               a frontier of every URL in the big corpus (seen-filter →
               schedule → mark-seen → fetch → extract → checkpoint write).
               At the 10^10-URL design point every level is huge and this
               is where all wall-time goes; it is the job used for the
               two-parallelism scaling evidence.
--scaling      runs --level twice in fresh processes at num_cpus=8 and 32
               on the SAME pre-generated input and reports both
               throughputs + efficiency = (rate32/rate8)/4 (north_rule
               N→4N criterion, sandboxed per SURVEY.md §4.6).
--crawl        headline crawl ONLY (no queries) — the quick A/B loop for
               control-plane changes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# full-crawl corpus (headline): BFS from one seed, budget + salting active
CRAWL_HOSTS = int(os.environ.get("GRAFT_BENCH_HOSTS", "50"))
CRAWL_PAGES = int(os.environ.get("GRAFT_BENCH_PAGES", "1000"))  # per host
# single-level corpus (scaling): bigger + heavier pages so compute dominates
LEVEL_HOSTS = int(os.environ.get("GRAFT_LEVEL_HOSTS", "50"))
LEVEL_PAGES = int(os.environ.get("GRAFT_LEVEL_PAGES", "10000"))
LEVEL_FILLER = int(os.environ.get("GRAFT_LEVEL_FILLER", "16"))
CORPUS_SHARDS = 32


def _corpus_dir(hosts: int, pages: int, filler: int) -> str:
    # tmpfs: this VM drops the page cache between runs, so a disk-resident
    # corpus randomly costs a cold virtio re-read — RAM-backed input makes
    # the 8-vs-32 comparison measure the engine, not the hypervisor
    return f"/dev/shm/graft_corpus_h{hosts}_p{pages}_f{filler}"


def ensure_corpus(hosts: int, pages: int, filler: int) -> str:
    """Generate a corpus ONCE (distributed, deterministic) into a
    hash(url)-partitioned parquet layout; cached across runs."""
    out_dir = _corpus_dir(hosts, pages, filler)
    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from crawler_uni_ray.corpus import CorpusSpec, gen_rows
    from crawler_uni_ray.urlnorm import url_hash_batch

    spec = CorpusSpec(
        n_hosts=hosts, pages_per_host=pages, hub_weight=0.5, filler_paras=filler
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    for s in range(CORPUS_SHARDS):
        os.makedirs(os.path.join(out_dir, f"part_hash={s:02d}"), exist_ok=True)

    def _gen(batch):
        ids = batch["id"]
        tbl = gen_rows(spec, ids.tolist())
        shard = (url_hash_batch(tbl["url"].to_pylist()) % CORPUS_SHARDS).astype(np.int64)
        first = int(ids[0])
        for s in set(shard.tolist()):
            sub = tbl.filter(pa.array(shard == s))
            pq.write_table(
                sub, os.path.join(out_dir, f"part_hash={s:02d}", f"rows-{first:09d}.parquet")
            )
        return {"n": np.array([tbl.num_rows])}

    n = (
        ray.data.range(spec.n_rows, override_num_blocks=max(NUM_CPUS * 2, 16))
        .map_batches(_gen, batch_size=4096)
        .sum("n")
    )

    # compact: one url-sorted file per partition with small row groups so
    # the fetch index (min/max url stats) can prune reads, and frontier
    # blocks come out partition-aligned
    def _compact(batch):
        part = int(batch["part"][0])
        d = os.path.join(out_dir, f"part_hash={part:02d}")
        files = [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        tbl = pa.concat_tables(pq.read_table(f) for f in files).sort_by("url")
        pq.write_table(tbl, os.path.join(d, "compact.parquet.tmp"), row_group_size=2048)
        for f in files:
            os.remove(f)
        os.rename(
            os.path.join(d, "compact.parquet.tmp"), os.path.join(d, "part-0.parquet")
        )
        return {"done": np.array([part])}

    ray.data.range(CORPUS_SHARDS, override_num_blocks=CORPUS_SHARDS).map_batches(
        lambda b: {"part": b["id"]}, batch_size=1
    ).map_batches(_compact, batch_size=1).materialize()
    with open(marker, "w") as f:
        f.write(str(n))
    return out_dir


def bench_crawl() -> dict:
    from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    corpus = ensure_corpus(CRAWL_HOSTS, CRAWL_PAGES, 8)
    ckpt = f"/dev/shm/graft_bench_ckpt_{NUM_CPUS}"
    cfg = CrawlConfig(
        domain="example.com",
        ckpt_dir=ckpt,
        corpus_path=corpus,
        fetch_mode="partitioned",
        num_corpus_shards=CORPUS_SHARDS,
        budget=max(100, CRAWL_PAGES // 4),
        skew_threshold=CRAWL_PAGES,  # the hub's frontier mass exceeds this
        n_salts=8,
        n_buckets=max(32, NUM_CPUS),
        small_level_rows=0,  # benchmark the fully-distributed control plane
        seen_backend="exact",
        num_seen_shards=8,
    )
    t0 = time.time()
    eng = CrawlEngine(cfg)
    eng.run()
    dt = time.time() - t0
    eng.close()
    n_visited = sum(m.n_scheduled for m in eng.metrics)
    n_fetched = sum(m.n_fetched for m in eng.metrics)
    shutil.rmtree(ckpt, ignore_errors=True)
    return {
        "crawl_sec": round(dt, 3),
        "crawl_levels": len(eng.metrics),
        "crawl_urls": n_visited,
        "crawl_urls_per_sec": round(n_visited / dt, 1),
        "crawl_pages_fetched_per_sec": round(n_fetched / dt, 1),
    }


def bench_level() -> dict:
    """The scaling job: one distributed BFS level over ALL corpus URLs."""
    import pyarrow as pa
    import ray.data

    from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    corpus = ensure_corpus(LEVEL_HOSTS, LEVEL_PAGES, LEVEL_FILLER)
    ckpt = f"/dev/shm/graft_level_ckpt_{NUM_CPUS}"  # tmpfs: no disk-write noise
    shutil.rmtree(ckpt, ignore_errors=True)
    cfg = CrawlConfig(
        domain="example.com",
        ckpt_dir=ckpt,
        corpus_path=corpus,
        fetch_mode="partitioned",
        num_corpus_shards=CORPUS_SHARDS,
        budget=LEVEL_PAGES,  # politeness machinery on; nothing deferred
        n_buckets=32,
        small_level_rows=0,
        # GRAFT_SEEN_BACKEND=bloom|cuckoo A/Bs the approximate seen-set
        # backends at this 500k-URL scale (default exact).  CAVEAT: a
        # false positive reads as "already seen" ⇒ that page is silently
        # DROPPED — conformance holds only in expectation (negligible at
        # this sizing: 2 MiB/shard over ~62k keys/shard, FP ~1e-11; at the
        # design point size bloom_bits ≈ 10×keys/shard for ~1% FP).
        # Cuckoo supports delete but shares the same FP⇒drop caveat.
        seen_backend=os.environ.get("GRAFT_SEEN_BACKEND", "exact"),
        num_seen_shards=8,
    )

    def _to_frontier(t: pa.Table) -> pa.Table:
        from crawler_uni_ray.stages.frontier import frontier_table

        return frontier_table(t["url"].to_pylist())

    from crawler_uni_ray.sources import read_pages

    frontier = read_pages(
        corpus, columns=["url"], num_blocks=max(NUM_CPUS * 2, 16)
    ).map_batches(_to_frontier, batch_format="pyarrow")

    eng = CrawlEngine(cfg)
    t0 = time.time()
    m = eng.process_frontier(frontier, n_frontier=LEVEL_HOSTS * LEVEL_PAGES + 1)
    dt = time.time() - t0
    eng.close()
    shutil.rmtree(ckpt, ignore_errors=True)
    out = {
        "level_sec": round(dt, 3),
        "level_urls": m.n_scheduled,
        "level_urls_per_sec": round(m.n_scheduled / dt, 1),
        "level_pages_fetched_per_sec": round(m.n_fetched / dt, 1),
        "phase_sec": m.extra,
        "seen_backend": cfg.seen_backend,
    }
    if cfg.seen_backend != "exact":
        # the conformance caveat travels WITH the number: approximate
        # backends drop a page on a seen-set false positive, so these
        # runs are perf evidence, not correctness evidence
        out["seen_backend_caveat"] = (
            "approximate seen set: false positive => page silently "
            "dropped; n_scheduled may undercount vs exact"
        )
    return out


def bench_queries() -> dict:
    from crawler_uni_ray.pipelines import queries as q

    out = {}
    for name, fn in [
        ("lineitem_agg", q.lineitem_agg),
        ("events_windowed", q.events_windowed),
        ("docs_dedup_exact", q.docs_dedup_exact),
        ("docs_minhash_clusters", q.docs_minhash_clusters),
        ("docs_quality", q.docs_quality),
        ("docs_top_terms", q.docs_top_terms),
        ("docs_repetition", q.docs_repetition),
        ("revenue_by_priority", q.revenue_by_priority),
        ("docs_tfidf_top", q.docs_tfidf_top),
        ("docs_dedup_fuzzy", q.docs_dedup_fuzzy),
        ("embeddings_ann", q.embeddings_ann),
        ("docs_decontaminate", q.docs_decontaminate),
        ("docs_dup_spans", q.docs_dup_spans),
        ("embeddings_semdedup", q.embeddings_semdedup),
        ("events_retention", q.events_retention),
        ("docs_pack_chunks", q.docs_pack_chunks),
        ("events_anomalies", q.events_anomalies),
        ("docs_model_score", q.docs_model_score),
        ("lineitem_pagerank", q.lineitem_pagerank),
        ("docs_collocations", q.docs_collocations),
        ("docs_dedup_keep_best", q.docs_dedup_keep_best),
        ("docs_cdc_chunks", q.docs_cdc_chunks),
        ("docs_lm_nll", q.docs_lm_nll),
        ("docs_strip_dup_spans", q.docs_strip_dup_spans),
        ("docs_term_counts_cms", q.docs_term_counts_cms),
        ("docs_tokenize_stats", q.docs_tokenize_stats),
        ("lineitem_communities", q.lineitem_communities),
        ("parts_copurchase_triangles", q.parts_copurchase_triangles),
    ]:
        t0 = time.time()
        fn(SF_DIR)
        out[name] = round(time.time() - t0, 3)
    out["ann_200k"] = bench_ann_scale()
    out.update(bench_ann_ivf_200k())
    out.update(bench_dedup_scale())
    out.update(bench_semdedup_scale())
    out.update(bench_pagerank_scale())
    return out


def bench_pagerank_scale(n_edges: int = 1_000_000, n_nodes: int = 100_000) -> dict:
    """PageRank on the BUCKETED (fully distributed) rank transport at a
    width the sf0.1 lineitem graph can't reach: 1M deterministic edges
    over 100k nodes, 3 iterations.  Edges hash-shuffle ONCE; each
    iteration then moves only node-sized rank rows — this probe times
    the per-iteration co-group + combine machinery, the 100 TB path."""
    import numpy as np
    import ray.data

    from crawler_uni_ray.functions.graph import pagerank

    def _gen(b):
        ids = b["id"].astype(np.int64)
        src = (ids * 2654435761) % n_nodes
        dst = (ids * 40503 + 17) % n_nodes
        return {"src": src, "dst": dst}

    edges = ray.data.range(n_edges, override_num_blocks=64).map_batches(
        _gen, batch_size=16384
    )
    t0 = time.time()
    ranks = pagerank(edges, n_iter=3, transport="bucketed")
    dt = round(time.time() - t0, 3)
    assert len(ranks) == n_nodes and abs(ranks["rank"].sum() - 1.0) < 1e-6
    return {"pagerank_1m_sec": dt}


def bench_dedup_scale(n: int = 100_000) -> dict:
    """Near-dedup at corpus scale (the sf0.1 documents table is only 5k
    rows): MinHash-LSH candidates → row-group-pruned Jaccard verify over
    ``n`` generated docs with ~1 planted near-dup pair per 100-doc group
    (1.6M band rows through the sharded pair generation).  The corpus is
    generated distributed + deterministically and cached on disk."""
    import numpy as np
    import ray.data

    from crawler_uni_ray.functions import dedup as fd

    path = f"/tmp/graft_dedup_corpus_{n}"
    if not os.path.isdir(path):
        vocab = np.array([f"w{i:04d}" for i in range(5000)], dtype=object)

        def _gen(b):
            ids = b["id"].astype(np.int64)
            rng = np.random.default_rng(int(ids[0]) + 999)
            texts = []
            for i in ids:
                if int(i) % 100 < 2:  # 2 docs per 100-group share one text
                    r2 = np.random.default_rng(int(i) // 100 * 100)
                    texts.append(" ".join(vocab[r2.integers(0, len(vocab), 80)]))
                else:
                    texts.append(" ".join(vocab[rng.integers(0, len(vocab), 80)]))
            return {"doc_id": ids, "text": np.array(texts, dtype=object)}

        tmp = path + ".build"
        shutil.rmtree(tmp, ignore_errors=True)
        ray.data.range(n, override_num_blocks=64).map_batches(
            _gen, batch_size=4096
        ).write_parquet(tmp)
        os.rename(tmp, path)
    ds = ray.data.read_parquet(path, columns=["doc_id", "text"])
    t0 = time.time()
    pairs = fd.minhash_lsh_candidates(ds)
    verified = fd.verify_pairs_jaccard_indexed(pairs, path, 0.5)
    n_pairs = verified.count()
    dt = round(time.time() - t0, 3)
    assert n_pairs >= n // 100, n_pairs  # every planted dup pair found
    return {"dedup_100k_sec": dt, "dedup_100k_pairs": n_pairs}


def bench_ann_scale(n: int = 200_000, dim: int = 64) -> float:
    """Vector-scale ANN probe (the sf0.1 embeddings table is only 2k
    rows): exact cosine top-10 for 8 queries over ``n`` vectors generated
    distributed + deterministically (seeded per block) — exercises the
    broadcast-query / per-batch-top-k-combiner plan at real width."""
    import numpy as np

    from crawler_uni_ray.functions.similarity import ann_bruteforce

    ds = _gen_vectors(n, dim)
    q = np.random.default_rng(7).standard_normal((8, dim)).astype(np.float32)
    t0 = time.time()
    res = ann_bruteforce(ds, q, list(range(8)), k=10)
    assert len(res) == 80, len(res)
    return round(time.time() - t0, 3)


def _gen_vectors(n: int, dim: int):
    """Deterministic distributed vector table (seeded per block)."""
    import numpy as np
    import ray.data

    def _gen(b):
        ids = b["id"].astype(np.int64)
        rng = np.random.default_rng(int(ids[0]) + 12345)
        return {
            "vec_id": ids,
            "embedding": rng.standard_normal((len(ids), dim)).astype(np.float32),
        }

    return ray.data.range(n, override_num_blocks=64).map_batches(_gen, batch_size=8192)


def bench_semdedup_scale(n: int = 200_000, dim: int = 64, topics: int = 64) -> dict:
    """SemDeDup at vector scale: a ``topics``-latent-topic corpus (uniform
    vectors would prune nothing at any sane τ) → 64-cluster k-means +
    per-cluster greedy cosine prune at τ=0.9.  Exercises the broadcast
    assignment and the cluster-confined quadratic at real width."""
    import numpy as np
    import ray.data

    def _gen(b):
        ids = b["id"].astype(np.int64)
        base_rng = np.random.default_rng(321)
        base = base_rng.standard_normal((topics, dim)).astype(np.float32)
        rng = np.random.default_rng(int(ids[0]) + 777)
        noise = 0.35 * rng.standard_normal((len(ids), dim)).astype(np.float32)
        return {
            "vec_id": ids,
            "embedding": list(base[ids % topics] + noise),
        }

    ds = (
        ray.data.range(n, override_num_blocks=64)
        .map_batches(_gen, batch_size=8192)
        .materialize()
    )
    from crawler_uni_ray.functions.similarity import semdedup_keep_ids

    t0 = time.time()
    kept = semdedup_keep_ids(ds, n_clusters=64, tau=0.9)
    dt = round(time.time() - t0, 3)
    assert 0 < len(kept) < n, len(kept)
    return {"semdedup_200k_sec": dt, "semdedup_200k_kept": int(len(kept))}


def bench_ann_ivf_200k(n: int = 200_000, dim: int = 64) -> dict:
    """The indexed-ANN scale story: build the persisted list-partitioned
    IVF index ONCE over ``n`` vectors (one pass + k-means on a capped
    sample), then serve 8 queries reading ONLY the probed lists' files —
    query latency and I/O ∝ nprobe/n_centroids of the index, vs the full
    scan every brute-force call pays."""
    import shutil

    import numpy as np

    from crawler_uni_ray.functions.similarity import ann_ivf_persisted, write_ivf_index

    ds = _gen_vectors(n, dim)
    q = np.random.default_rng(7).standard_normal((8, dim)).astype(np.float32)
    idx = f"/tmp/graft_bench_ivf_{NUM_CPUS}"
    shutil.rmtree(idx, ignore_errors=True)
    t0 = time.time()
    write_ivf_index(ds, idx, n_centroids=64)
    t_build = round(time.time() - t0, 3)
    t0 = time.time()
    res, stats = ann_ivf_persisted(idx, q, list(range(8)), k=10, nprobe=8)
    t_query = round(time.time() - t0, 3)
    assert len(res) == 80, len(res)
    assert 0 < stats["rows_read"] < n, stats  # pruned read, not a scan
    shutil.rmtree(idx, ignore_errors=True)
    return {"ann_200k_ivf_build": t_build, "ann_200k_ivf_query": t_query}


def _init_ray():
    import logging
    import warnings

    warnings.filterwarnings("ignore")
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray


def run_once() -> dict:
    ray = _init_ray()
    crawl = bench_crawl()
    queries = bench_queries()
    ray.shutdown()
    return {
        "metric": "crawl_wall_sec",
        "value": crawl["crawl_sec"],
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **crawl,
    }


def run_level_once() -> dict:
    ray = _init_ray()
    out = bench_level()
    ray.shutdown()
    return {
        "metric": "level_wall_sec",
        "value": out["level_sec"],
        "unit": "sec",
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **out,
    }


def measure_cpu_ceiling() -> dict:
    """This VM's OWN scaling ceiling: identical pure-CPU Ray tasks at 8 vs
    32 workers (no I/O, no shuffle).  Anything the pipeline reports should
    be judged against this attainable maximum, not against 1.0."""
    import ray

    out = {}
    for n in (8, 32):
        ray.init(address="local", num_cpus=n, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")

        @ray.remote
        def burn(_):
            s = 0
            for i in range(20_000_000):
                s += i * i
            return s

        t0 = time.time()
        ray.get([burn.remote(i) for i in range(64)])
        out[n] = time.time() - t0
        ray.shutdown()
    return {
        "cpu_ceiling_sec_8": round(out[8], 2),
        "cpu_ceiling_sec_32": round(out[32], 2),
        "cpu_ceiling_efficiency": round((out[8] / out[32]) / 4, 3),
    }


def run_scaling() -> dict:
    def sub(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--level"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    warm = sub(8)  # first run also generates the corpus + warms page cache
    # this VM shows 20-50% run-to-run noise (shared hypervisor); take the
    # best of two timed runs per parallelism level
    r8 = min(sub(8), warm, key=lambda r: r["value"])
    r32 = min(sub(32), sub(32), key=lambda r: r["value"])
    rate8, rate32 = r8["level_urls_per_sec"], r32["level_urls_per_sec"]
    eff = (rate32 / rate8) / (32 / 8)
    ceiling = measure_cpu_ceiling()
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "sec_8": r8["value"],
        "sec_32": r32["value"],
        "urls_per_sec_8": rate8,
        "urls_per_sec_32": rate32,
        "level_urls": r8["level_urls"],
        "warmup_sec_8": warm["value"],
        "relative_to_ceiling": round(eff / ceiling["cpu_ceiling_efficiency"], 3),
        **ceiling,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--level" in sys.argv:
        print(json.dumps(run_level_once()))
    elif "--crawl" in sys.argv:
        ray = _init_ray()
        crawl = bench_crawl()
        ray.shutdown()
        print(json.dumps({"metric": "crawl_wall_sec", "value": crawl["crawl_sec"],
                          "unit": "sec", "num_cpus": NUM_CPUS, **crawl}))
    else:
        print(json.dumps(run_once()))
