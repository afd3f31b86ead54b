"""Engine ≡ oracle conformance on the tiny corpus (FIXTURES.md §4):
per-depth visited sets, sorted all_links, byte-identical text per url —
never visit *sequences* (the reference's intra-level order is
nondeterministic, SURVEY.md §2.8)."""

import os

import pytest

from crawler_uni_ray.corpus import TINY, build_robots_table, host_name, write_corpus_parquet
from crawler_uni_ray.oracle import crawl_oracle
from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine
from crawler_uni_ray.stages.robots import robots_table_to_dict

DOMAIN = "example.com"
DIS_HOST = host_name(TINY, 2)


def _assert_conformance(eng: CrawlEngine, oracle, check_text=True):
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links
    if check_text:
        texts = {}
        for b in (
            eng.results_dataset()
            .select_columns(["url", "text", "fetch_status"])
            .iter_batches(batch_format="pyarrow")
        ):
            for u, t, s in zip(
                b["url"].to_pylist(), b["text"].to_pylist(), b["fetch_status"].to_pylist()
            ):
                if s:
                    texts[u] = t
        assert texts == oracle.text  # byte-identical extraction invariant


@pytest.mark.parametrize("small_rows", [50_000, 0])
def test_plain_bfs_conformance(ray_session, tiny_corpus, tmp_path, small_rows):
    """small_rows=0 forces the fully-distributed control plane; the default
    exercises the small-level driver fast path — identical semantics."""
    oracle = crawl_oracle(tiny_corpus, DOMAIN)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            small_level_rows=small_rows,
        )
    )
    eng.run()
    _assert_conformance(eng, oracle)
    # level metrics recorded + manifests committed
    assert eng.committed_levels() == list(range(len(eng.metrics)))
    assert eng.metrics[0].n_scheduled == 1  # the seed
    # both paths count every level's outlinks from its results
    assert all(m.n_outlinks >= 0 for m in eng.metrics)
    n_col = eng.results_dataset().sum("n_outlinks")
    assert sum(m.n_outlinks for m in eng.metrics) == n_col > 0


@pytest.mark.parametrize("small_rows", [50_000, 0])
def test_politeness_budget_conformance(ray_session, tiny_corpus, tmp_path, small_rows):
    oracle = crawl_oracle(tiny_corpus, DOMAIN, max_per_host_per_level=2)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            budget=2,
            small_level_rows=small_rows,
        )
    )
    eng.run()
    _assert_conformance(eng, oracle)
    assert any(m.n_deferred > 0 for m in eng.metrics)  # budget actually bound


def test_skew_salting_equals_unsalted_plan(ray_session, tiny_corpus, tmp_path):
    oracle = crawl_oracle(tiny_corpus, DOMAIN, max_per_host_per_level=2)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            budget=2,
            skew_threshold=1,  # force every host through the salted path
            n_salts=4,
            small_level_rows=0,  # salting lives in the distributed path
        )
    )
    eng.run()
    _assert_conformance(eng, oracle, check_text=False)


def test_salting_without_side_counts_matches_unsalted(ray_session, tiny_corpus, tmp_path):
    """The `hot is None` dispatch branch: an arbitrary big frontier fed
    straight to `process_frontier` (no previous-level side-written host
    counts — the resume / steady-state-harness shape) with skew on must
    run its own count pass and schedule exactly like the unsalted plan."""
    import pyarrow as pa
    import ray.data

    from crawler_uni_ray.stages.frontier import frontier_table

    urls = sorted(tiny_corpus)
    frontier = ray.data.from_arrow(frontier_table(urls))

    def run(skew):
        eng = CrawlEngine(
            CrawlConfig(
                domain=DOMAIN,
                ckpt_dir=str(tmp_path / f"c{skew}"),
                corpus_dict=tiny_corpus,
                budget=2,
                skew_threshold=skew,
                n_salts=4,
                small_level_rows=0,
            )
        )
        m = eng.process_frontier(frontier, k=0, n_frontier=len(urls))
        sched = {u for u, d in eng.visited_depth().items()}
        return m, sched

    m_salted, sched_salted = run(1)  # every host hot, counted in-level
    m_plain, sched_plain = run(None)
    assert sched_salted == sched_plain
    assert m_salted.n_scheduled == m_plain.n_scheduled
    assert m_salted.n_deferred > 0  # budget actually bound


def test_robots_gate_conformance(ray_session, tiny_corpus, tmp_path):
    robots = robots_table_to_dict(build_robots_table(TINY))
    oracle = crawl_oracle(tiny_corpus, DOMAIN, robots=robots)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            robots=robots,
        )
    )
    eng.run()
    _assert_conformance(eng, oracle, check_text=False)
    assert not [u for u in eng.visited_depth() if f"{DIS_HOST}/p1" in u]


def test_bloom_backend_conformance(ray_session, tiny_corpus, tmp_path):
    oracle = crawl_oracle(tiny_corpus, DOMAIN)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            seen_backend="bloom",
            bloom_bits=1 << 22,
        )
    )
    eng.run()
    # bloom FPs could legally drop pages; at this corpus size the FP rate
    # is ~0 so exact equality is expected
    _assert_conformance(eng, oracle, check_text=False)


def test_partitioned_fetch_conformance(ray_session, tiny_corpus, tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    write_corpus_parquet(TINY, corpus_dir, num_shards=4)
    oracle = crawl_oracle(tiny_corpus, DOMAIN)
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_path=corpus_dir,
            fetch_mode="partitioned",
            num_corpus_shards=4,
        )
    )
    eng.run()
    _assert_conformance(eng, oracle, check_text=False)


@pytest.fixture
def no_shards(monkeypatch):
    """Make building seen-shard actors fail the test: a config check
    must raise before the engine creates any."""
    from crawler_uni_ray.pipelines import crawl

    def _fail(*a, **kw):
        raise AssertionError("ShardedSeen built for an invalid config")

    monkeypatch.setattr(crawl, "ShardedSeen", _fail)


@pytest.mark.parametrize(
    "mode,source",
    [("broadcast", None), ("partitioned", "flat"), ("auto", None)],
)
def test_fetch_source_checked_at_construction(ray_session, no_shards, tmp_path, mode, source):
    """A fetch mode whose corpus source is missing raises ValueError when
    the engine is built, before any seen-shard actor exists: broadcast
    without corpus_dict, partitioned on flat parquet (no part_hash=NN
    dirs), auto with no corpus at all."""
    import pyarrow.parquet as pq

    from crawler_uni_ray.corpus import build_pages_table

    corpus_path = None
    if source == "flat":
        corpus_path = str(tmp_path / "flat")
        os.makedirs(corpus_path)
        pq.write_table(build_pages_table(TINY), os.path.join(corpus_path, "pages.parquet"))
    with pytest.raises(ValueError, match="fetch_mode"):
        CrawlEngine(
            CrawlConfig(
                domain=DOMAIN,
                ckpt_dir=str(tmp_path / "c"),
                corpus_path=corpus_path,
                fetch_mode=mode,
            )
        )


def test_partitioned_corpus_written_after_construction(ray_session, tiny_corpus, tmp_path):
    """A corpus_path that does not exist yet is accepted: the corpus may
    be written after the engine is built (crawlbench's set-up order)."""
    corpus_dir = str(tmp_path / "corpus")
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_path=corpus_dir,
            num_corpus_shards=4,
            max_levels=2,
        )
    )
    write_corpus_parquet(TINY, corpus_dir, num_shards=4)
    eng.run()
    want = {u: d for u, d in crawl_oracle(tiny_corpus, DOMAIN).visited_depth.items() if d < 2}
    assert eng.visited_depth() == want


def test_too_many_seen_shards_for_session(ray_session, no_shards, tiny_corpus, tmp_path):
    """13 shards × 0.25 CPU leave 0.75 of the session's 4 CPUs: no Ray
    Data task could ever run, so the engine refuses at construction
    instead of hanging mid-level — and creates no shard actor."""
    with pytest.raises(ValueError, match="seen shards reserve"):
        CrawlEngine(
            CrawlConfig(
                domain=DOMAIN,
                ckpt_dir=str(tmp_path / "c"),
                corpus_dict=tiny_corpus,
                num_seen_shards=13,
            )
        )


def test_max_pages_guard(ray_session, tiny_corpus, tmp_path):
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            max_pages=5,
        )
    )
    eng.run()
    full = crawl_oracle(tiny_corpus, DOMAIN)
    assert len(eng.visited_depth()) < len(full.visited_depth)
    # guard is level-granular: every completed level is still committed
    assert eng.committed_levels() == list(range(len(eng.metrics)))


@pytest.mark.parametrize("small_rows", [50_000, 0])
def test_indegree_priority_conformance(ray_session, tiny_corpus, tmp_path, small_rows):
    """A real priority policy (A3): indegree priorities change which URLs
    are scheduled under a tight budget, and the engine still matches the
    oracle exactly on both physical paths."""
    oracle = crawl_oracle(
        tiny_corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )
    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            budget=2,
            priority_policy="indegree",
            small_level_rows=small_rows,
        )
    )
    eng.run()
    _assert_conformance(eng, oracle, check_text=False)
    # the policy is not inert: scheduling differs from the lexicographic
    # none-policy plan under the same budget
    base = crawl_oracle(tiny_corpus, DOMAIN, max_per_host_per_level=2)
    assert oracle.visited_depth != base.visited_depth


def test_frontier_lineage_columns(ray_session, tiny_corpus, tmp_path):
    """frontier_next carries discovered_from (min referrer) and seq
    (stable intra-level tiebreak) — SURVEY.md §1.2 lineage columns."""
    import pyarrow.parquet as pq

    eng = CrawlEngine(
        CrawlConfig(
            domain=DOMAIN,
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            priority_policy="indegree",
        )
    )
    eng.run()
    f = str(tmp_path / "c" / "level_0000" / "frontier_next" / "part-0.parquet")
    t = pq.read_table(f)
    assert {"discovered_from", "seq", "priority"} <= set(t.column_names)
    dfrom = [d for d in t["discovered_from"].to_pylist() if d]
    assert dfrom and all(d.startswith("https://") for d in dfrom)
    # level-0 discoveries all come from the seed page
    assert set(dfrom) == {f"https://{DOMAIN}"}
    # indegree priorities present and positive
    assert max(t["priority"].to_pylist()) >= 1.0


def test_priority_ordering_in_schedule():
    """Higher priority wins under a tight budget; ties break on url."""
    import pandas as pd

    from crawler_uni_ray.stages.schedule import schedule_flags_pandas

    df = pd.DataFrame(
        {
            "host": ["h"] * 4,
            "url": ["https://h/d", "https://h/c", "https://h/b", "https://h/a"],
            "priority": [0.0, 5.0, 5.0, 1.0],
        }
    )
    flags = schedule_flags_pandas(df, budget=2)
    kept = set(df.loc[flags, "url"])
    assert kept == {"https://h/c", "https://h/b"}  # top priority, url tiebreak
