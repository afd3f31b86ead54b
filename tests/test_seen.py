"""Seen-filter backends: bloom math + sharded actor fleet."""

import numpy as np

from crawler_uni_ray.state.seen import BloomFilter, ExactSet


def test_exact_set():
    s = ExactSet()
    assert list(s.contains(["a", "b"])) == [False, False]
    s.add(["a"])
    assert list(s.contains(["a", "b"])) == [True, False]


def test_bloom_no_false_negatives_and_low_fp():
    bf = BloomFilter(n_bits=1 << 20, k=7)
    urls = [f"https://h{i % 50}.com/p{i}" for i in range(20_000)]
    bf.add(urls)
    assert bf.contains(urls).all()  # no false negatives, ever
    probe = [f"https://other{i}.org/x{i}" for i in range(20_000)]
    fp = bf.contains(probe).mean()
    assert fp < 0.01, fp  # 1M bits / 20k keys @ k=7 → ~1e-4 expected


def test_sharded_seen_actors(ray_session):
    from crawler_uni_ray.state.seen import ShardedSeen

    seen = ShardedSeen(num_shards=3, backend="exact")
    urls = [f"https://x.com/p{i}" for i in range(100)]
    assert not seen.contains(urls).any()
    seen.add(urls[:50])
    mask = seen.contains(urls)
    assert mask[:50].all() and not mask[50:].any()
    # check_and_add is an atomic per-shard test-and-set
    fresh = seen.check_and_add(urls)
    assert (~fresh[:50]).all() and fresh[50:].all()
    assert seen.total_size() == 100


def test_cuckoo_filter_semantics():
    from crawler_uni_ray.state.seen import CuckooFilter

    cf = CuckooFilter(n_buckets=1 << 14)
    urls = [f"https://h{i % 20}.com/p{i}" for i in range(30_000)]
    cf.add(urls)
    assert cf.contains(urls).all()  # no false negatives
    probe = [f"https://x{i}.org/q{i}" for i in range(30_000)]
    fp = cf.contains(probe).mean()
    assert fp < 0.02, fp  # 16-bit fingerprints → ~2*4/2^16 per probe
    # deletion — the capability blooms lack
    removed = cf.delete(urls[:1000])
    assert removed.all()
    assert not cf.contains(urls[:1000]).any() or cf.contains(urls[:1000]).mean() < 0.02
    assert cf.contains(urls[1000:2000]).all()
    # idempotent add
    n = len(cf)
    cf.add(urls[5000:6000])
    assert len(cf) == n


def test_cuckoo_backend_conformance(ray_session, tiny_corpus, tmp_path):
    from crawler_uni_ray.oracle import crawl_oracle
    from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    oracle = crawl_oracle(tiny_corpus, "example.com")
    eng = CrawlEngine(
        CrawlConfig(
            domain="example.com",
            ckpt_dir=str(tmp_path / "c"),
            corpus_dict=tiny_corpus,
            seen_backend="cuckoo",
        )
    )
    eng.run()
    assert eng.visited_depth() == oracle.visited_depth


def test_engine_close_kills_seen_shards(ray_session, tiny_corpus, tmp_path):
    import pytest
    import ray

    from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine

    eng = CrawlEngine(
        CrawlConfig(
            domain="example.com", ckpt_dir=str(tmp_path / "ckpt"),
            corpus_dict=tiny_corpus, num_seen_shards=2,
        )
    )
    assert eng.seen.total_size() == 0
    eng.close()
    eng.close()  # idempotent
    for shard in eng.seen.shards:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(shard.size.remote())
