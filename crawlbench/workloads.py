"""The two workloads: their corpora, engine configurations, one
measured round each, and the reference each round is checked against.

A round builds a fresh ``CrawlEngine`` (its seen shards are waited for
before any clock starts), runs it, times ``save_links_txt``, reads the
committed checkpoint back with plain pyarrow and checks it.  Every round of
a workload repeats the same operations on the same corpus.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from checks import CrawlOutput, Reference
from crawler_uni_ray.corpus import CorpusSpec, write_corpus_parquet
from crawler_uni_ray.extract import extract_links_and_text
from crawler_uni_ray.oracle import crawl_oracle
from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine

DOMAIN = "example.com"
CORPUS_SHARDS = 8  # CrawlConfig.num_corpus_shards default


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "crawl" | "level"
    hosts: int
    pages: int  # per host
    filler: int  # CorpusSpec.filler_paras (hub_weight stays at its 0.5 default)
    budget: int | None  # per-host fetches per level
    skew_threshold: int | None  # hot-host salting above this many rows
    small_level_rows: int | None  # None = engine default

    def spec(self, seed: int) -> CorpusSpec:
        return CorpusSpec(
            n_hosts=self.hosts, pages_per_host=self.pages, seed=seed,
            filler_paras=self.filler,
        )

    def config(self, corpus_path: str, ckpt_dir: str, **over) -> CrawlConfig:
        kw = dict(
            domain=DOMAIN,
            ckpt_dir=ckpt_dir,
            corpus_path=corpus_path,
            budget=self.budget,
            skew_threshold=self.skew_threshold,
            fetch_mode="partitioned",
            num_corpus_shards=CORPUS_SHARDS,
        )
        if self.small_level_rows is not None:
            kw["small_level_rows"] = self.small_level_rows
        kw.update(over)
        return CrawlConfig(**kw)


WORKLOADS = {
    w.name: w
    for w in (
        # control-plane bound: 9 budget-bound levels of ~45 urls, every
        # level through the distributed shuffles, hub host salted
        Workload(
            "crawl_budget_hub", "crawl", hosts=6, pages=30, filler=0,
            budget=15, skew_threshold=15, small_level_rows=0,
        ),
        # data-plane bound: one distributed level over every url of a
        # markup-heavy corpus, above the aligned-fetch threshold (1000 rows)
        Workload(
            "level_heavy_pages", "level", hosts=4, pages=260, filler=8,
            budget=261, skew_threshold=None, small_level_rows=None,
        ),
    )
}


# --------------------------------------------------------------- corpus
def corpus_path(spec: CorpusSpec, cache_dir: str) -> str:
    """Cache location of ``spec``'s corpus, keyed by every spec field."""
    key = (
        f"{spec.domain}-h{spec.n_hosts}-p{spec.pages_per_host}-s{spec.seed}"
        f"-w{spec.hub_weight}-f{spec.filler_paras}-n{CORPUS_SHARDS}"
    )
    return os.path.join(cache_dir, key)


def ensure_corpus(spec: CorpusSpec, cache_dir: str) -> tuple[str, float]:
    """Hash-partitioned corpus parquet for ``spec``, generated once into
    the cache.  Returns the path and the seconds spent generating (0.0 on
    a cache hit)."""
    path = corpus_path(spec, cache_dir)
    if os.path.exists(os.path.join(path, "_SUCCESS")):
        return path, 0.0
    t0 = time.perf_counter()
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    write_corpus_parquet(spec, tmp, num_shards=CORPUS_SHARDS)
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    return path, time.perf_counter() - t0


def read_corpus(path: str) -> dict[str, list]:
    t = pads.dataset(path, format="parquet").to_table(columns=["url", "html", "text"])
    return {c: t[c].to_pylist() for c in ("url", "html", "text")}


def reference(wl: Workload, path: str, corpus: dict[str, list]) -> Reference:
    """The oracle's answer for this workload, computed without the engine.
    The oracle part is cached beside the corpus (it is a function of the
    corpus and the workload's budget)."""
    html = dict(zip(corpus["url"], corpus["html"]))
    text = dict(zip(corpus["url"], corpus["text"]))
    cached = os.path.join(path, f"_oracle-{wl.mode}-b{wl.budget}.json")
    if os.path.exists(cached):
        with open(cached) as f:
            o = json.load(f)
    else:
        if wl.mode == "level":  # one level over every url
            urls = sorted(html)
            res = crawl_oracle(
                html, DOMAIN, max_per_host_per_level=wl.budget, seeds=urls, max_levels=1
            )
            total = sum(len(extract_links_and_text(html[u], u)[0]) for u in urls)
        else:
            res, total = crawl_oracle(html, DOMAIN, max_per_host_per_level=wl.budget), None
        o = {"depth": res.visited_depth, "links": res.sorted_links, "outlinks_total": total}
        with open(cached + ".tmp", "w") as f:
            json.dump(o, f)
        os.replace(cached + ".tmp", cached)
    return Reference(
        DOMAIN, o["depth"], o["links"], text, wl.budget,
        closure=wl.mode != "level", outlinks_total=o["outlinks_total"],
    )


# --------------------------------------------------------------- checkpoint
def committed_levels(ckpt_dir: str) -> list[int]:
    return sorted(
        int(d.split("_")[1])
        for d in os.listdir(ckpt_dir)
        if d.startswith("level_") and os.path.exists(os.path.join(ckpt_dir, d, "manifest.json"))
    )


def level_dir(ckpt_dir: str, k: int, name: str = "") -> str:
    return os.path.join(ckpt_dir, f"level_{k:04d}", name)


def parquet_files(d: str) -> list[str]:
    if not os.path.isdir(d):
        return []
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def manifests(ckpt_dir: str) -> list[dict]:
    out = []
    for k in committed_levels(ckpt_dir):
        path = level_dir(ckpt_dir, k, "manifest.json")
        with open(path) as f:
            m = json.load(f)
        m["mtime"] = os.stat(path).st_mtime
        out.append(m)
    return out


def dir_mb(d: str) -> float:
    n = 0
    for root, _, files in os.walk(d):
        n += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return n / 2**20


def read_output(ckpt_dir: str, links_path: str, seen_size: int | None) -> CrawlOutput:
    cols = ["url", "host", "depth", "fetch_status", "text", "n_outlinks"]
    data = {c: [] for c in cols}
    for k in committed_levels(ckpt_dir):
        for f in parquet_files(level_dir(ckpt_dir, k, "results")):
            t = pq.read_table(f, columns=cols)
            for c in cols:
                data[c].extend(t[c].to_pylist())
    with open(links_path, encoding="utf-8") as f:
        links = f.read().splitlines()
    levels = [m["metrics"] for m in manifests(ckpt_dir)]
    return CrawlOutput(**data, levels=levels, links=links, seen_size=seen_size)


# --------------------------------------------------------------- rounds
def new_engine(cfg: CrawlConfig) -> CrawlEngine:
    """Construct an engine and wait until its seen shards answer, so actor
    start-up never lands inside a timed crawl."""
    eng = CrawlEngine(cfg)
    eng.seen.total_size()
    return eng


def close_seen(seen) -> None:
    """Kill a seen set's shard actors now.  Left to garbage collection,
    their teardown can overlap the next engine's first Ray Data execution,
    which then stalls for ~20 s."""
    for shard in seen.shards:
        ray.kill(shard)


@dataclass
class Phase:
    """One timed engine call: wall seconds, the wall-clock time it began
    (for manifest commit times) and the process-tree window."""

    crawl_s: float
    t_call: float
    proc: dict


def timed(sampler, fn) -> Phase:
    w = sampler.window_start()
    t_call = time.time()
    t0 = time.perf_counter()
    fn()
    crawl_s = time.perf_counter() - t0
    return Phase(crawl_s, t_call, sampler.window_end(w))


def run_round(wl: Workload, eng: CrawlEngine, ckpt_dir: str, sampler, tracer,
              frontier=None) -> dict:
    """One measured round on a freshly built ``eng``.  Returns the round's
    raw figures; the checkpoint stays on disk for the caller to check."""
    if wl.mode == "crawl":
        with tracer.span("engine.run"):
            ph = timed(sampler, eng.run)
    else:
        ds, n = frontier
        with tracer.span("engine.process_frontier", rows=n):
            ph = timed(sampler, lambda: eng.process_frontier(ds, k=0, n_frontier=n))
    man = manifests(ckpt_dir)

    links_path = ckpt_dir + "-links.txt"
    with tracer.span("engine.save_links_txt"):
        t0 = time.perf_counter()
        eng.save_links_txt(links_path)
        links_s = time.perf_counter() - t0
    seen_size = eng.seen.total_size()
    close_seen(eng.seen)
    scheduled = sum(m["metrics"]["n_scheduled"] for m in man)
    return {
        "crawl_s": ph.crawl_s,
        "urls_per_s": scheduled / ph.crawl_s,
        "first_level_s": man[0]["mtime"] - ph.t_call,
        "links_s": links_s,
        "cpu_s": ph.proc["cpu_driver_s"] + ph.proc["cpu_workers_s"],
        "cpu_driver_s": ph.proc["cpu_driver_s"],
        "cpu_workers_s": ph.proc["cpu_workers_s"],
        "peak_rss_mb": ph.proc["peak_rss_mb"],
        "ckpt_mb": dir_mb(ckpt_dir),
        "scheduled": scheduled,
        "t_call": ph.t_call,
        "links_path": links_path,
        "seen_size": seen_size,
        "cfg": eng.cfg,
    }
