"""Output checks, made apart from the engine.

Each check takes what the engine committed (``CrawlOutput``, read back
from the checkpoint with plain pyarrow) and a ``Reference`` computed
without the engine (the single-threaded oracle, the corpus ``text``
column, a single-process extraction pass), and returns a list of
failure messages: empty means the check passed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from urllib.parse import urlsplit

_SHOW = 3  # examples quoted per failure


@dataclass
class CrawlOutput:
    # one entry per committed result row, over every committed level
    url: list[str]
    host: list[str]
    depth: list[int]
    fetch_status: list[int]
    text: list[str | None]
    n_outlinks: list[int]
    levels: list[dict]  # manifest metrics of each committed level
    links: list[str]  # the links artifact, line by line
    seen_size: int | None = None  # ShardedSeen.total_size(), exact backend only


@dataclass
class Reference:
    domain: str
    depth: dict[str, int]  # oracle: url → level first visited
    links: list[str]  # oracle: sorted unique links
    corpus_text: dict[str, str]  # corpus url → text column
    budget: int | None = None
    closure: bool = True  # the crawl ran to completion
    outlinks_total: int | None = None  # single-process extraction total


def _examples(items) -> str:
    items = sorted(items, key=str)
    more = f" (+{len(items) - _SHOW} more)" if len(items) > _SHOW else ""
    return ", ".join(map(str, items[:_SHOW])) + more


def check_depths(out: CrawlOutput, ref: Reference) -> list[str]:
    got = dict(zip(out.url, out.depth))
    errs = []
    missing = ref.depth.keys() - got.keys()
    extra = got.keys() - ref.depth.keys()
    wrong = [u for u in got.keys() & ref.depth.keys() if got[u] != ref.depth[u]]
    if missing:
        errs.append(f"depth: {len(missing)} oracle urls not visited: {_examples(missing)}")
    if extra:
        errs.append(f"depth: {len(extra)} urls visited but not by the oracle: {_examples(extra)}")
    if wrong:
        errs.append(
            f"depth: {len(wrong)} urls at another depth: "
            + _examples(f"{u} {got[u]}!={ref.depth[u]}" for u in wrong)
        )
    return errs


def check_links(out: CrawlOutput, ref: Reference) -> list[str]:
    if out.links == ref.links:
        return []
    got, want = set(out.links), set(ref.links)
    errs = []
    if got - want:
        errs.append(f"links: {len(got - want)} links not in the oracle: {_examples(got - want)}")
    if want - got:
        errs.append(f"links: {len(want - got)} oracle links missing: {_examples(want - got)}")
    if not errs:
        errs.append("links: same set, but not sorted and unique")
    return errs


def check_texts(out: CrawlOutput, ref: Reference) -> list[str]:
    """A fetched url's text is the corpus text; a miss is a url the corpus lacks."""
    bad, fake_miss = [], []
    for u, ok, t in zip(out.url, out.fetch_status, out.text):
        if ok:
            if ref.corpus_text.get(u) != t:
                bad.append(u)
        elif u in ref.corpus_text:
            fake_miss.append(u)
    errs = []
    if bad:
        errs.append(f"text: {len(bad)} fetched urls differ from the corpus: {_examples(bad)}")
    if fake_miss:
        errs.append(f"text: {len(fake_miss)} corpus urls reported as misses: {_examples(fake_miss)}")
    return errs


def check_unique(out: CrawlOutput, ref: Reference) -> list[str]:
    dup = [u for u, n in Counter(out.url).items() if n > 1]
    return [f"unique: {len(dup)} urls fetched more than once: {_examples(dup)}"] if dup else []


def check_budget(out: CrawlOutput, ref: Reference) -> list[str]:
    if ref.budget is None:
        return []
    over = [
        f"level {d} {h}: {n}"
        for (d, h), n in Counter(zip(out.depth, out.host)).items()
        if n > ref.budget
    ]
    return [f"budget: {len(over)} (level, host) over {ref.budget}: {_examples(over)}"] if over else []


def check_level_accounting(out: CrawlOutput, ref: Reference) -> list[str]:
    """n_scheduled = n_fetched + n_fetch_miss on every level, and each count
    matches the level's committed result rows."""
    rows = Counter(out.depth)
    hits = Counter(d for d, ok in zip(out.depth, out.fetch_status) if ok)
    errs = []
    for m in out.levels:
        k = m["level"]
        if m["n_scheduled"] != m["n_fetched"] + m["n_fetch_miss"]:
            errs.append(
                f"level {k}: n_scheduled {m['n_scheduled']} != n_fetched "
                f"{m['n_fetched']} + n_fetch_miss {m['n_fetch_miss']}"
            )
        if m["n_scheduled"] != rows.get(k, 0) or m["n_fetched"] != hits.get(k, 0):
            errs.append(
                f"level {k}: metrics say {m['n_scheduled']} scheduled / "
                f"{m['n_fetched']} fetched, results hold {rows.get(k, 0)} / {hits.get(k, 0)}"
            )
    return [f"accounting: {e}" for e in errs]


def _crawlable(url: str, domain: str) -> bool:
    """In scope (netloc ends with the domain, the reference's predicate)
    and port-free."""
    try:
        parts = urlsplit(url)
        return parts.netloc.endswith(domain) and parts.port is None
    except ValueError:
        return False


def check_closure(out: CrawlOutput, ref: Reference) -> list[str]:
    """BFS closure: every crawlable link of a finished crawl was visited."""
    if not ref.closure:
        return []
    visited = set(out.url)
    left = [u for u in out.links if _crawlable(u, ref.domain) and u not in visited]
    return [f"closure: {len(left)} in-scope links never visited: {_examples(left)}"] if left else []


def check_seen_size(out: CrawlOutput, ref: Reference) -> list[str]:
    if out.seen_size is None or out.seen_size == len(out.url):
        return []
    return [f"seen: total_size {out.seen_size} != {len(out.url)} result urls"]


def check_outlinks(out: CrawlOutput, ref: Reference) -> list[str]:
    if ref.outlinks_total is None:
        return []
    got = sum(out.n_outlinks)
    if got == ref.outlinks_total:
        return []
    return [f"outlinks: engine total {got} != single-process total {ref.outlinks_total}"]


ALL_CHECKS = (
    check_depths,
    check_links,
    check_texts,
    check_unique,
    check_budget,
    check_level_accounting,
    check_closure,
    check_seen_size,
    check_outlinks,
)


def run_checks(out: CrawlOutput, ref: Reference) -> list[str]:
    return [e for check in ALL_CHECKS for e in check(out, ref)]
