"""Both level paths commit the same per-level accounting, and every count in
a level's manifest agrees with that manifest's per-partition lineage."""

import json
import os

import pytest

from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine
from crawler_uni_ray.stages.frontier import FRONTIER_SCHEMA

DOMAIN = "example.com"
COUNTS = (
    "n_frontier",
    "n_candidates",
    "n_scheduled",
    "n_deferred",
    "n_fetched",
    "n_fetch_miss",
    "n_outlinks",
    "n_frontier_next",
)


def _committed(eng: CrawlEngine) -> list[tuple[dict, set[str]]]:
    """(manifest, frontier_next url set) of every committed level."""
    out = []
    for k in eng.committed_levels():
        lvl = os.path.join(eng.cfg.ckpt_dir, f"level_{k:04d}")
        with open(os.path.join(lvl, "manifest.json")) as f:
            man = json.load(f)
        nxt = eng.store.read_table(
            os.path.join(lvl, "frontier_next"), FRONTIER_SCHEMA, columns=["url"]
        )
        out.append((man, set(nxt["url"].to_pylist())))
    return out


@pytest.mark.parametrize("policy", ["none", "indegree"])
def test_both_level_paths_commit_the_same_accounting(
    ray_session, tiny_corpus, tmp_path, policy
):
    runs = {}
    for small_rows in (50_000, 0):
        eng = CrawlEngine(
            CrawlConfig(
                domain=DOMAIN,
                ckpt_dir=str(tmp_path / f"c{small_rows}"),
                corpus_dict=tiny_corpus,
                budget=2,
                priority_policy=policy,
                small_level_rows=small_rows,
            )
        )
        try:
            eng.run()
            runs[small_rows] = _committed(eng)
        finally:
            eng.close()
    small, big = runs[50_000], runs[0]
    assert {m["metrics"]["path"] for m, _ in small} == {"small"}
    assert {m["metrics"]["path"] for m, _ in big} == {"distributed"}
    assert len(small) == len(big) > 2
    for k, ((ms, urls_s), (mb, urls_b)) in enumerate(zip(small, big)):
        assert [ms["metrics"][c] for c in COUNTS] == [mb["metrics"][c] for c in COUNTS], k
        assert urls_s == urls_b, k
    assert any(m["metrics"]["n_deferred"] for m, _ in small)  # the budget bound

    for levels in (small, big):
        prev_next = None
        for man, urls in levels:
            m = man["metrics"]
            rows = {a: sum(p["rows"] for p in ps) for a, ps in man["partitions"].items()}
            assert rows["results"] == m["n_scheduled"] == m["n_fetched"] + m["n_fetch_miss"]
            assert rows["frontier_next"] == m["n_frontier_next"] == len(urls)
            assert m["n_candidates"] == m["n_scheduled"] + m["n_deferred"]
            if m["path"] == "distributed":  # the small path defers in memory
                assert rows["deferred"] == m["n_deferred"]
            if prev_next is not None:
                assert m["n_frontier"] == prev_next
            prev_next = m["n_frontier_next"]
