"""Sharded URL-seen filter — the actor-pool stateful stage (north_rule).

The reference holds one process-global ``set`` guarded by a ``Lock``
(/root/reference/crawler.py:14,17,55-59).  Here the seen-set is sharded
across ``num_shards`` Ray actors by ``url_hash % num_shards``; batch tasks
group their URLs per shard and issue ONE batched RPC per shard per batch
(never per URL).  Two backends behind one interface:

* ``ExactSet`` — a Python set per shard; used by every conformance test
  (zero false positives).
* ``BloomFilter`` — numpy-packed bit array, k probes by double hashing of
  the 64-bit siphash.  The scale backend: at the 10^10-URL design point,
  256 shards × ~39M URLs/shard at 12 bits/URL ≈ 56 MiB of bits per shard.
  A false positive drops a page (it is never fetched); the FP rate is a
  config knob and conformance tests always run exact mode.

Checkpointing does NOT snapshot actor heaps: the crawl loop writes each
level's scheduled URLs as a ``seen_delta`` parquet, and resume replays the
deltas into fresh shards (pipelines/crawl.py), which keeps lineage purely
on durable Parquet.
"""

from __future__ import annotations

import numpy as np
import ray

from ..urlnorm import url_hash_batch


class ExactSet:
    """Exact per-shard backend (conformance mode)."""

    def __init__(self) -> None:
        self._set: set[str] = set()

    def contains(self, urls: list[str]) -> np.ndarray:
        s = self._set
        return np.fromiter((u in s for u in urls), dtype=bool, count=len(urls))

    def add(self, urls: list[str]) -> None:
        self._set.update(urls)

    def __len__(self) -> int:
        return len(self._set)


class BloomFilter:
    """Vectorized bloom filter over pre-hashed uint64 keys.

    ``n_bits`` is rounded up to a multiple of 8; ``k`` probes are derived
    from the single 64-bit hash by double hashing (h1 + i*h2), so no second
    string pass is needed.
    """

    def __init__(self, n_bits: int = 1 << 27, k: int = 7) -> None:
        self.n_bits = int(n_bits)
        self.k = int(k)
        self._bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)
        self._count = 0

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        h1 = hashes % np.uint64(self.n_bits)
        h2 = (hashes >> np.uint64(32)) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + i * (h2[None, :] % np.uint64(self.n_bits))) % np.uint64(
            self.n_bits
        )  # shape (k, n)

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(hashes.astype(np.uint64))
        byte, bit = (pos >> 3).astype(np.int64), (pos & 7).astype(np.uint8)
        set_ = (self._bits[byte] >> bit) & 1
        return set_.all(axis=0).astype(bool)

    def add_hashes(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        pos = self._positions(hashes.astype(np.uint64))
        byte, bit = (pos >> 3).astype(np.int64).ravel(), (pos & 7).astype(np.uint8).ravel()
        np.bitwise_or.at(self._bits, byte, np.uint8(1) << bit)
        self._count += len(hashes)

    # string-facing interface parity with ExactSet
    def contains(self, urls: list[str]) -> np.ndarray:
        return self.contains_hashes(url_hash_batch(urls))

    def add(self, urls: list[str]) -> None:
        self.add_hashes(url_hash_batch(urls))

    def __len__(self) -> int:
        return self._count


class CuckooFilter:
    """Cuckoo filter over pre-hashed uint64 keys: 4-slot buckets, 16-bit
    fingerprints, partial-key cuckoo hashing (i2 = i1 XOR H(fp), bucket
    count a power of two so the XOR is an involution).  Supports DELETE —
    the property blooms lack — at ~same space (≈2.4 B/key at 95% load).

    Batch ops are vectorized for the common path (empty-slot insert,
    membership probe); evictions fall back to a per-item kick loop, which
    stays rare below ~90% load."""

    MAX_KICKS = 500

    def __init__(self, n_buckets: int = 1 << 20, slots: int = 4) -> None:
        assert n_buckets & (n_buckets - 1) == 0, "n_buckets must be a power of 2"
        self.n_buckets = n_buckets
        self._table = np.zeros((n_buckets, slots), dtype=np.uint16)
        self._count = 0

    def _fp(self, hashes: np.ndarray) -> np.ndarray:
        fp = (hashes >> np.uint64(48)).astype(np.uint16)
        return np.where(fp == 0, np.uint16(1), fp)  # 0 means empty slot

    def _i1(self, hashes: np.ndarray) -> np.ndarray:
        return (hashes % np.uint64(self.n_buckets)).astype(np.int64)

    def _i2(self, i1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        h = (fp.astype(np.uint64) * np.uint64(0x5BD1E995)) % np.uint64(self.n_buckets)
        return (i1.astype(np.uint64) ^ h).astype(np.int64)

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        hashes = hashes.astype(np.uint64)
        fp = self._fp(hashes)
        i1 = self._i1(hashes)
        i2 = self._i2(i1, fp)
        in1 = (self._table[i1] == fp[:, None]).any(axis=1)
        in2 = (self._table[i2] == fp[:, None]).any(axis=1)
        return in1 | in2

    def _insert_one(self, i1: int, fp: int) -> bool:
        import random as _r

        rng = _r.Random(fp ^ i1)
        idx, f = i1, np.uint16(fp)
        for _ in range(self.MAX_KICKS):
            row = self._table[idx]
            empty = np.nonzero(row == 0)[0]
            if len(empty):
                row[empty[0]] = f
                return True
            slot = rng.randrange(row.shape[0])
            f, row[slot] = row[slot], f
            idx = int(self._i2(np.array([idx]), np.array([f], np.uint16))[0])
        return False  # table effectively full

    def add_hashes(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        hashes = hashes.astype(np.uint64)
        # skip already-present keys (idempotent add, like a set)
        todo = ~self.contains_hashes(hashes)
        fp = self._fp(hashes)[todo]
        i1 = self._i1(hashes)[todo]
        for a, b in zip(i1.tolist(), fp.tolist()):
            if self._insert_one(int(a), int(b)):
                self._count += 1

    def delete_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Remove one matching fingerprint per key; returns removed mask."""
        out = np.zeros(len(hashes), dtype=bool)
        hashes = np.asarray(hashes, dtype=np.uint64)
        fp = self._fp(hashes)
        i1 = self._i1(hashes)
        i2 = self._i2(i1, fp)
        for n, (a, b, f) in enumerate(zip(i1.tolist(), i2.tolist(), fp.tolist())):
            for idx in (a, b):
                row = self._table[idx]
                hit = np.nonzero(row == f)[0]
                if len(hit):
                    row[hit[0]] = 0
                    self._count -= 1
                    out[n] = True
                    break
        return out

    # string-facing interface parity with ExactSet/BloomFilter
    def contains(self, urls: list[str]) -> np.ndarray:
        return self.contains_hashes(url_hash_batch(urls))

    def add(self, urls: list[str]) -> None:
        self.add_hashes(url_hash_batch(urls))

    def delete(self, urls: list[str]) -> np.ndarray:
        return self.delete_hashes(url_hash_batch(urls))

    def __len__(self) -> int:
        return self._count


_BACKENDS = {"exact": ExactSet, "bloom": BloomFilter, "cuckoo": CuckooFilter}


def check_backend(backend: str) -> None:
    """Raise on a seen backend name outside ``_BACKENDS``."""
    if backend not in _BACKENDS:
        raise ValueError(f"seen backend must be one of {sorted(_BACKENDS)}: {backend!r}")


# CPU reservation of one seen shard: a 256-shard fleet shouldn't reserve
# whole cores for what is mostly memory + short vectorized probes.  The
# engine refuses a session that this leaves without 1 CPU for Ray Data
SHARD_CPUS = 0.25


@ray.remote(num_cpus=SHARD_CPUS)
class SeenShard:
    """One shard of the distributed seen-set (``SHARD_CPUS`` each)."""

    def __init__(self, backend: str = "exact", n_bits: int = 1 << 27, k: int = 7):
        check_backend(backend)
        if backend == "exact":
            self._b = ExactSet()
        elif backend == "cuckoo":
            # n_bits here sizes the bloom; give cuckoo a comparable
            # capacity: n_bits/12 keys ≈ buckets*4*0.95
            n_buckets = 1 << max(8, int(np.log2(max(1, n_bits // 48))))
            self._b = CuckooFilter(n_buckets=n_buckets)
        else:
            self._b = BloomFilter(n_bits, k)

    def contains(self, urls: list[str]) -> np.ndarray:
        return self._b.contains(urls)

    def add(self, urls: list[str]) -> int:
        self._b.add(urls)
        return len(self._b)

    def check_and_add(self, urls: list[str]) -> np.ndarray:
        """Atomic per-shard test-and-set: returns was-unseen mask.  The
        actor's serial execution gives the same atomicity the reference got
        from its Lock (crawler.py:55-59), without global coordination."""
        mask = ~self._b.contains(urls)
        self._b.add([u for u, m in zip(urls, mask) if m])
        return mask

    def size(self) -> int:
        return len(self._b)


class ShardedSeen:
    """Client handle: routes batched URL lists to shards by
    ``url_hash % num_shards``.  Serializable — map_batches callables carry
    it into tasks; only actor handles travel."""

    def __init__(self, num_shards: int = 8, backend: str = "exact", n_bits: int = 1 << 27):
        check_backend(backend)  # on the caller, before any shard actor exists
        self.num_shards = num_shards
        self.shards = [
            SeenShard.remote(backend=backend, n_bits=n_bits) for _ in range(num_shards)
        ]

    def _route(self, urls: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        shard_of = (url_hash_batch(urls) % self.num_shards).astype(np.int64)
        idx = [np.nonzero(shard_of == s)[0] for s in range(self.num_shards)]
        return shard_of, idx

    def _scatter_gather(self, urls, method: str) -> np.ndarray:
        urls = np.asarray(urls, dtype=object)
        out = np.zeros(len(urls), dtype=bool)
        if len(urls) == 0:
            return out
        _, idx = self._route(urls)
        futs, slots = [], []
        for s, ix in enumerate(idx):
            if len(ix):
                futs.append(getattr(self.shards[s], method).remote(list(urls[ix])))
                slots.append(ix)
        for ix, mask in zip(slots, ray.get(futs)):
            out[ix] = mask
        return out

    def contains(self, urls) -> np.ndarray:
        return self._scatter_gather(urls, "contains")

    def check_and_add(self, urls) -> np.ndarray:
        return self._scatter_gather(urls, "check_and_add")

    def add(self, urls) -> None:
        urls = np.asarray(urls, dtype=object)
        if len(urls) == 0:
            return
        _, idx = self._route(urls)
        ray.get(
            [
                self.shards[s].add.remote(list(urls[ix]))
                for s, ix in enumerate(idx)
                if len(ix)
            ]
        )

    def total_size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def close(self) -> None:
        """Kill the shard actors now.  Left to garbage collection, their
        teardown can overlap the next Ray Data execution in the session,
        which then stalls for ~20 s.  Idempotent; the handle is unusable
        afterwards (calls raise ``RayActorError``)."""
        for s in self.shards:
            ray.kill(s)
        # ray.kill only sends the kill: a call made right after it can
        # still run on the live actor, so return once every shard is gone
        for s in self.shards:
            while True:
                try:
                    ray.get(s.__ray_ready__.remote())
                except ray.exceptions.RayActorError:
                    break
