"""Property-style conformance (SURVEY.md §5.3): seeded random link graphs
→ engine seen-set ≡ oracle seen-set, per-depth set equality, identical
sorted all_links.  Graphs are adversarial in shape (dangling links,
off-scope edges, cycles, self-links, duplicate hrefs) but deterministic
per seed."""

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from crawler_uni_ray.oracle import crawl_oracle
from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine
from crawler_uni_ray.urlnorm import url_hash_batch

DOMAIN = "rnd.test"


def random_corpus(seed: int, n_urls: int = 40) -> dict[str, bytes]:
    rng = random.Random(seed)
    hosts = [DOMAIN, f"a.{DOMAIN}", f"b.{DOMAIN}", "elsewhere.org"]
    urls = [f"https://{DOMAIN}"]  # the raw seed must exist sometimes
    for i in range(n_urls):
        host = rng.choice(hosts)
        urls.append(f"https://{host}/p{i}.html")
    corpus: dict[str, bytes] = {}
    for u in urls:
        if rng.random() < 0.15:
            continue  # dangling: linked but absent → fetch-miss
        n_links = rng.randrange(0, 6)
        anchors = []
        for _ in range(n_links):
            target = rng.choice(urls + [f"https://{DOMAIN}/missing{rng.randrange(99)}"])
            anchors.append(f'<a href="{target}">x</a>')
        if rng.random() < 0.3:
            anchors.append('<a href="#self">s</a>')
        if rng.random() < 0.3 and anchors:
            anchors.append(anchors[0])  # duplicate href
        html = "<html><body>" + "".join(anchors) + f"<p>page {u}</p></body></html>"
        corpus[u] = html.encode()
    return corpus


def write_dict_corpus(corpus: dict, out_dir: str, num_shards: int = 4) -> str:
    """dict → the hash(url)-partitioned parquet layout fetch_partitioned
    reads (part_hash=NN/ dirs, url-sorted for row-group pruning)."""
    urls = sorted(corpus)
    tbl = pa.table(
        {"url": pa.array(urls), "html": pa.array([corpus[u] for u in urls], pa.binary())}
    )
    shard = url_hash_batch(urls) % num_shards
    for s in range(num_shards):
        d = os.path.join(out_dir, f"part_hash={s:02d}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            tbl.filter(pa.array(shard == s)), os.path.join(d, "part-0.parquet")
        )
    return out_dir


def _distributed_cfg(corpus_dir: str, ckpt: str, **kw) -> CrawlConfig:
    """The full distributed control plane over the hash-partitioned corpus:
    budget + forced salting (skew_threshold=1 makes every multi-candidate
    host hot) + indegree priorities + the aligned fetch on every level."""
    base = dict(
        domain=DOMAIN,
        ckpt_dir=ckpt,
        corpus_path=corpus_dir,
        fetch_mode="partitioned",
        num_corpus_shards=4,
        fetch_align_threshold=0,
        budget=2,
        skew_threshold=1,
        n_salts=4,
        priority_policy="indegree",
        small_level_rows=0,
    )
    base.update(kw)
    return CrawlConfig(**base)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_random_graph_conformance(ray_session, tmp_path, seed):
    corpus = random_corpus(seed)
    oracle = crawl_oracle(corpus, DOMAIN)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN, ckpt_dir=str(tmp_path / f"c{seed}"), corpus_dict=corpus
        )
    )
    eng.run()
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links


@pytest.mark.parametrize("seed", [11, 13])
def test_random_graph_with_budget(ray_session, tmp_path, seed):
    corpus = random_corpus(seed, n_urls=60)
    oracle = crawl_oracle(corpus, DOMAIN, max_per_host_per_level=3)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / f"c{seed}"),
            corpus_dict=corpus,
            budget=3,
        )
    )
    eng.run()
    assert eng.visited_depth() == oracle.visited_depth


@pytest.mark.parametrize("seed", [17, 23])
def test_random_graph_budget_salted_indegree(ray_session, tmp_path, seed):
    """The full [NR] scheduling stack on adversarial graphs: politeness
    budget + hot-host salting (skew_threshold=1 forces EVERY host through
    the fused salted scheduler's two-stage in-stream plan) + indegree
    priorities — distributed path only.  Engine ≡ oracle per-depth sets is
    the strongest semantic check the salted re-trim must pass."""
    corpus = random_corpus(seed, n_urls=60)
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / f"c{seed}"),
            corpus_dict=corpus,
            budget=2,
            skew_threshold=1,
            n_salts=4,
            priority_policy="indegree",
            small_level_rows=0,
        )
    )
    eng.run()
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links


@pytest.mark.parametrize("seed", [19, 29, 37])
def test_random_graph_full_r4_stack(ray_session, tmp_path, seed):
    """The complete distributed configuration on adversarial graphs:
    budget + forced salting + indegree priorities + the object-store
    manifest storage backend, over the hash-partitioned corpus with the
    aligned fetch — the benchmark's control plane.  Engine ≡ oracle
    per-depth sets and byte-equal sorted links."""
    corpus = random_corpus(seed, n_urls=60)
    corpus_dir = write_dict_corpus(corpus, str(tmp_path / "corpus"))
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )
    eng = CrawlEngine(
        _distributed_cfg(corpus_dir, str(tmp_path / f"c{seed}"), storage="manifest")
    )
    eng.run()
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links


@pytest.mark.parametrize("seed", [29, 31])
def test_random_graph_multi_seed_full_stack(ray_session, tmp_path, seed):
    """Multi-seed crawl (sitemap-style seed lists) under the full
    distributed control plane — budget + salting + indegree + manifest
    storage + partitioned/aligned fetch.  Seeds mix hosts and include one
    dangling url (seed fetch-miss → silent empty, the M6 contract).
    Engine ≡ oracle for the same seed list."""
    from crawler_uni_ray.urlnorm import is_in_scope

    corpus = random_corpus(seed, n_urls=60)
    present = [u for u in sorted(corpus) if is_in_scope(u, DOMAIN)]
    seeds = [present[0], present[len(present) // 2], present[-1],
             f"https://{DOMAIN}/dangling-seed.html"]
    corpus_dir = write_dict_corpus(corpus, str(tmp_path / "corpus"))
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree",
        seeds=seeds,
    )
    eng = CrawlEngine(
        _distributed_cfg(
            corpus_dir, str(tmp_path / f"c{seed}"), storage="manifest", seeds=seeds
        )
    )
    eng.run()
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links


def test_random_graph_robots_none_policy_distributed(ray_session, tmp_path):
    """Robots gating on budgeted distributed levels: each level's frontier
    is robots-filtered before scheduling, while deferred rows re-enter the
    next frontier un-refiltered — correct because they passed the gate
    before they were ever scheduled (robots are static per run).  Also
    covers the ``priority_policy="none"`` frontier combine."""
    corpus = random_corpus(39, n_urls=60)
    corpus_dir = write_dict_corpus(corpus, str(tmp_path / "corpus"))
    robots = {
        "a.rnd.test": "User-agent: *\nDisallow: /p1",
        "b.rnd.test": "User-agent: *\nDisallow: /",
    }
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, robots=robots,
        priority_policy="none",
    )
    eng = CrawlEngine(
        _distributed_cfg(
            corpus_dir, str(tmp_path / "r"), robots=robots, priority_policy="none"
        )
    )
    eng.run()
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links
    assert {m.path for m in eng.metrics} == {"distributed"}


def test_random_graph_max_pages_distributed(ray_session, tmp_path):
    """``max_pages`` is checked between levels: the run stops early, every
    committed distributed level is still exactly the oracle's BFS level,
    and the scheduled total reached the cap."""
    corpus = random_corpus(44, n_urls=60)
    corpus_dir = write_dict_corpus(corpus, str(tmp_path / "corpus"))
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )
    full_depths = set(oracle.visited_depth.values())
    eng = CrawlEngine(_distributed_cfg(corpus_dir, str(tmp_path / "mp"), max_pages=5))
    eng.run()
    committed = eng.committed_levels()
    assert len(committed) < len(full_depths), "cap did not stop the crawl"
    assert sum(m.n_scheduled for m in eng.metrics) >= 5
    want = {u: d for u, d in oracle.visited_depth.items() if d in set(committed)}
    assert eng.visited_depth() == want
