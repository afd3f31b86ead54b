"""Folded re-trim (VERDICT r3 #8): salted levels on the aligned
partitioned fetch path fold the exact per-host re-trim + seen-marking into
the fetch-align groupby — one fewer all-to-all barrier per salted level.
Semantics must be EXACTLY the two-stage salted plan's (which salted levels
at or below ``fetch_align_threshold`` run): engine ≡ oracle, and fold ≡
two-stage run for run, for visited sets, links, and the
deferred/scheduled accounting."""

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
    """The fold engaged: stage-1 survivor-key side-writes exist."""
    return bool(glob.glob(os.path.join(ckpt, "level_*", "hotkeys-*")))


@pytest.mark.parametrize("seed", [24, 48])
def test_fold_retrim_conformance(ray_session, tmp_path, seed):
    corpus = random_corpus(seed, n_urls=60)
    corpus_dir = str(tmp_path / "corpus")
    write_dict_corpus(corpus, corpus_dir, num_shards=4)
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )

    eng = _run(corpus_dir, str(tmp_path / "fold"))
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links
    assert _folded(eng.cfg.ckpt_dir), (
        "folded re-trim never ran — test setup no longer triggers it"
    )

    # fold ≡ two-stage, level by level (scheduled/deferred accounting too):
    # every level is far below this threshold, so each salted level runs
    # the unaligned fetch and the two-stage salted scheduler
    ref = _run(corpus_dir, str(tmp_path / "nofold"), fetch_align_threshold=10_000)
    assert not _folded(ref.cfg.ckpt_dir)
    assert ref.visited_depth() == oracle.visited_depth
    assert [
        (m.level, m.n_scheduled, m.n_deferred, m.n_frontier_next) for m in eng.metrics
    ] == [
        (m.level, m.n_scheduled, m.n_deferred, m.n_frontier_next) for m in ref.metrics
    ]


def test_fold_retrim_on_manifest_backend(ray_session, tmp_path):
    """The fold's side-writes (hotkeys + trimmed-deferred) must hold on the
    object-store manifest backend too."""
    corpus = random_corpus(27, n_urls=60)
    corpus_dir = str(tmp_path / "corpus")
    write_dict_corpus(corpus, corpus_dir, num_shards=4)
    oracle = crawl_oracle(
        corpus, DOMAIN, max_per_host_per_level=2, priority_policy="indegree"
    )
    eng = _run(corpus_dir, str(tmp_path / "fold"), storage="manifest")
    assert eng.visited_depth() == oracle.visited_depth
    links = [r["url"] for r in eng.all_links_sorted().take_all()]
    assert links == oracle.sorted_links


def test_fold_retrim_resume(ray_session, tmp_path):
    """Kill after two levels mid-crawl, resume with a FRESH engine (new run
    tag): the folded levels' commit records gate exactly as before, and the
    resumed run's trim reads ITS OWN hotkeys dirs, never the dead run's."""
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
