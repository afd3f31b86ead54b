"""The aligned partitioned fetch must run in a session with fewer than 2
free CPUs: its per-partition groups ask for no more than one CPU, so a
small cluster (or one whose CPUs are held by other actors) never leaves
the first aligned level waiting for resources that cannot appear."""

import gc
import threading
import time

import ray

from crawler_uni_ray.stages.fetch import fetch_partitioned
from crawler_uni_ray.stages.frontier import frontier_table

from test_random_graphs import random_corpus, write_dict_corpus

TIMEOUT_S = 60


@ray.remote(num_cpus=1)
class _Holder:
    def ping(self) -> bool:
        return True


def _free_cpus() -> float:
    return ray.available_resources().get("CPU", 0.0)


def _hold_all_but_one_cpu(holders: list) -> None:
    """Add ``num_cpus=1`` holders until between 1 and 2 CPUs stay free, and
    that reading holds for two looks in a row.  Seen-shard actors of
    earlier tests' engines may still be going away, so the free count can
    grow while this runs."""
    gc.collect()
    last, deadline = None, time.time() + 60
    while time.time() < deadline:
        time.sleep(1)
        free = _free_cpus()
        if 1 <= free < 2 and free == last:
            return
        last = free
        new = [_Holder.remote() for _ in range(int(free) - 1)]
        ray.get([h.ping.remote() for h in new])
        holders += new
    raise AssertionError(f"could not leave 1 <= free CPUs < 2 (free: {_free_cpus()})")


def test_aligned_fetch_with_one_free_cpu(ray_session, tmp_path):
    corpus = random_corpus(5, n_urls=30)
    corpus_dir = write_dict_corpus(corpus, str(tmp_path / "corpus"), num_shards=4)
    urls = sorted([*corpus, "https://rnd.test/not-in-corpus.html"])

    holders: list = []
    out: dict = {}
    try:
        _hold_all_but_one_cpu(holders)

        def _run():
            ds = ray.data.from_arrow(frontier_table(urls))
            out["rows"] = fetch_partitioned(ds, corpus_dir, 4, align=True).take_all()

        th = threading.Thread(target=_run, daemon=True)
        th.start()
        th.join(TIMEOUT_S)
        hung = th.is_alive()
    finally:
        for h in holders:
            ray.kill(h)
    if hung:
        th.join(TIMEOUT_S)  # let the execution drain before later tests
    assert not hung, f"aligned fetch did not finish in {TIMEOUT_S} s with < 2 free CPUs"

    rows = out["rows"]
    assert sorted(r["url"] for r in rows) == urls
    got = {r["url"]: r["html"] for r in rows if r["fetched"]}
    assert got == corpus
