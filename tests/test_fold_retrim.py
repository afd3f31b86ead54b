"""Salted levels on the partitioned fetch: the aligned fetch (every level
above ``fetch_align_threshold=0`` re-buckets by the corpus url-hash) must
leave the salted scheduler's results and accounting exactly as the
unaligned per-batch fetch does: engine ≡ oracle, and aligned ≡ unaligned
run for run, for visited sets, links and the level-by-level
scheduled/deferred/next accounting.  The exact per-host re-trim runs in
the scheduler's own second groupby; no side-dir of survivor keys
(``hotkeys-*``) is written."""

import glob
import os

import pytest

from crawler_uni_ray.oracle import crawl_oracle
from crawler_uni_ray.pipelines.crawl import CrawlEngine

from test_random_graphs import (
    DOMAIN,
    _distributed_cfg,
    random_corpus,
    write_dict_corpus,
)


def _run(corpus_dir, ckpt, **kw):
    eng = CrawlEngine(_distributed_cfg(corpus_dir, ckpt, **kw))
    eng.run()
    return eng


def _folded(ckpt: str) -> bool:
    """Survivor-key side-dirs of a re-trim folded into the fetch exist."""
    return bool(glob.glob(os.path.join(ckpt, "level_*", "hotkeys-*")))


def _retrimmed(ckpt: str, n_buckets: int) -> bool:
    """The scheduler's exact re-trim deferred rows: deferred parts under
    the ``n_buckets + bucket`` namespace exist."""
    parts = glob.glob(os.path.join(ckpt, "level_*", "deferred", "d*-s*.parquet"))
    return any(int(p.rsplit("-s", 1)[1].split(".")[0]) >= n_buckets for p in parts)


@pytest.mark.parametrize("seed", [24, 48])
def test_fold_retrim_conformance(ray_session, tmp_path, seed):
    corpus = random_corpus(seed, n_urls=60)
    corpus_dir = str(tmp_path / "corpus")
    write_dict_corpus(corpus, corpus_dir, num_shards=4)
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )

    eng = _run(corpus_dir, str(tmp_path / "aligned"))
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links
    assert not _folded(eng.cfg.ckpt_dir)
    assert _retrimmed(eng.cfg.ckpt_dir, eng.cfg.n_buckets), (
        "the salted re-trim never deferred a row — test setup no longer salts"
    )

    # aligned ≡ unaligned, level by level (scheduled/deferred accounting
    # too): every level is far below this threshold, so each level runs
    # the per-batch fetch
    ref = _run(corpus_dir, str(tmp_path / "unaligned"), fetch_align_threshold=10_000)
    assert not _folded(ref.cfg.ckpt_dir)
    assert ref.visited_depth() == oracle.visited_depth
    assert [
        (m.level, m.n_scheduled, m.n_deferred, m.n_frontier_next) for m in eng.metrics
    ] == [
        (m.level, m.n_scheduled, m.n_deferred, m.n_frontier_next) for m in ref.metrics
    ]


def test_fold_retrim_on_manifest_backend(ray_session, tmp_path):
    """The salted scheduler's deferred side-writes of both groupbys
    (stage-1 and re-trim namespaces) must hold on the object-store
    manifest backend too, with the aligned fetch."""
    corpus = random_corpus(27, n_urls=60)
    corpus_dir = str(tmp_path / "corpus")
    write_dict_corpus(corpus, corpus_dir, num_shards=4)
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )
    eng = _run(corpus_dir, str(tmp_path / "aligned"), storage="manifest")
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links


def test_fold_retrim_resume(ray_session, tmp_path):
    """Kill after two levels mid-crawl, resume with a FRESH engine: the
    salted, aligned levels' commit records gate the restart, and the
    resumed crawl matches the oracle."""
    corpus = random_corpus(56, n_urls=60)
    corpus_dir = str(tmp_path / "corpus")
    write_dict_corpus(corpus, corpus_dir, num_shards=4)
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )
    ckpt = str(tmp_path / "ckpt")
    partial = _run(corpus_dir, ckpt, max_levels=2)
    assert partial.committed_levels() == [0, 1]

    resumed = CrawlEngine(_distributed_cfg(corpus_dir, ckpt))
    resumed.resume()
    assert resumed.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in resumed.all_links_sorted().take_all()]
    assert links == oracle.sorted_links
