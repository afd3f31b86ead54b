"""Vendored reference oracle — single-threaded, network-free transcription
of the reference crawl loop (/root/reference/crawler.py:48-73 worker logic,
24-46 predicates/extraction, 93-97 output), with fetch realized as a lookup
into the synthetic page corpus (the Common-Crawl replay of SURVEY.md §3.2).

The reference's visit ordering is nondeterministic (10 racing threads +
set-iteration enqueue order, SURVEY.md §2.8), so conformance is defined at
BFS-level granularity: this oracle runs the loop level-synchronously and
records the *set* of URLs first visited at each depth.  Semantics kept
bug-for-bug:

* seed enqueued as the RAW ``f"https://{domain}"`` string (crawler.py:13,76);
* dedup at dequeue: ``visited`` check-and-add before fetch (crawler.py:55-59);
* fetch-miss (URL absent from corpus) → page visited, zero outlinks
  (crawler.py:45-46 ``except → set()``);
* every extracted link lands in ``all_links`` (in-scope or not,
  crawler.py:66-67); only in-scope unseen links are enqueued (crawler.py:68);
* final artifact = lexicographically sorted unique links (crawler.py:93-97).

Pages are parsed with the stdlib reference (``extract.parse_html_reference``),
never the engine's regex fast path, so matching the oracle checks that path.

[NR] extensions with no reference counterpart (BASELINE.json north_rule) are
implemented here as THE spec the Ray engine must match: a deterministic
per-host politeness budget (per level, lexicographic order, defer — never
drop) and an optional robots gate (disallowed candidates are dropped before
scheduling; they still appear in ``all_links``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib import robotparser

from .extract import parse_html_reference, resolve_links
from .urlnorm import host_of, is_in_scope


@dataclass
class CrawlResult:
    visited_depth: dict[str, int] = field(default_factory=dict)  # url → level fetched
    all_links: set[str] = field(default_factory=set)
    text: dict[str, str] = field(default_factory=dict)  # fetched url → extracted text
    level_metrics: list[dict] = field(default_factory=list)

    @property
    def sorted_links(self) -> list[str]:
        """= the reference's links.txt lines (crawler.py:93-97)."""
        return sorted(self.all_links)

    def depth_sets(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for url, d in self.visited_depth.items():
            out.setdefault(d, set()).add(url)
        return out


def _build_robots(robots: dict[str, str]) -> dict[str, robotparser.RobotFileParser]:
    parsers = {}
    for host, rules in robots.items():
        rp = robotparser.RobotFileParser()
        rp.parse(rules.splitlines())
        parsers[host] = rp
    return parsers


def crawl_oracle(
    corpus: dict[str, bytes],
    domain: str,
    *,
    max_per_host_per_level: int | None = None,
    robots: dict[str, str] | None = None,
    priority_policy: str = "none",
    max_levels: int = 1000,
    seeds: list[str] | None = None,
) -> CrawlResult:
    """Run the level-synchronous reference loop over an in-memory corpus.

    ``corpus`` maps canonical url → html bytes.  ``max_per_host_per_level``
    is the [NR] politeness budget (None = unlimited, pure reference
    semantics).  ``robots`` maps host → robots.txt body ([NR]; None = off,
    as in the reference, which never reads robots.txt).
    ``priority_policy`` ([NR], spec in stages/priority.py): ``"none"`` →
    per-host scheduling order is lexicographic; ``"indegree"`` → order by
    (-priority, url) with priority = referrer count at discovery level,
    deferred rows keep their priority, merge rule max(deferred, new).
    """
    if priority_policy not in ("none", "indegree"):  # priority.PRIORITY_POLICIES
        raise ValueError(f"priority_policy must be none or indegree: {priority_policy!r}")
    res = CrawlResult()
    rp = _build_robots(robots) if robots else {}
    # frontier: url → priority (the engine's frontier table, driver-sized)
    # default: the raw un-cleaned seed string, crawler.py:76; ``seeds``
    # mirrors CrawlConfig.seeds (multi-seed runs, e.g. sitemap ingestion)
    frontier: dict[str, float] = {
        u: 0.0 for u in (seeds or [f"https://{domain}"])
    }
    level = 0
    while frontier and level < max_levels:
        # dedup at dequeue (crawler.py:55-59); dedup within level too
        candidates = {
            u: p for u, p in frontier.items() if u not in res.visited_depth
        }
        # [NR] robots gate: drop disallowed before scheduling
        if rp:
            candidates = {
                u: p
                for u, p in candidates.items()
                if host_of(u) not in rp or rp[host_of(u)].can_fetch("*", u)
            }
        # [NR] politeness: per host, order by (-priority, url), keep B,
        # defer the rest (priority ≡ 0 under the "none" policy)
        scheduled: list[str] = []
        deferred: dict[str, float] = {}
        if max_per_host_per_level is None:
            scheduled = sorted(candidates)
        else:
            by_host: dict[str, list[str]] = {}
            for u in sorted(candidates, key=lambda u: (-candidates[u], u)):
                by_host.setdefault(host_of(u), []).append(u)
            for host in sorted(by_host):
                urls = by_host[host]
                scheduled.extend(urls[:max_per_host_per_level])
                deferred.update(
                    (u, candidates[u]) for u in urls[max_per_host_per_level:]
                )
        next_frontier: dict[str, float] = dict(deferred)
        new_counts: dict[str, int] = {}
        n_miss = 0
        for url in scheduled:
            res.visited_depth[url] = level
            html = corpus.get(url)
            if html is None:  # fetch failure → zero outlinks (crawler.py:45-46)
                n_miss += 1
                continue
            hrefs, text = parse_html_reference(html)
            links = resolve_links(hrefs, url)
            res.text[url] = text
            for link in sorted(links):
                res.all_links.add(link)
                if is_in_scope(link, domain):
                    # count every in-scope referrer (engine counts before
                    # the seen filter; already-visited urls are filtered
                    # at the next level's dequeue either way)
                    new_counts[link] = new_counts.get(link, 0) + 1
        for link, cnt in new_counts.items():
            if link in res.visited_depth and link not in next_frontier:
                # purely-revisited link: keep out of the frontier dict to
                # keep the loop's termination check meaningful
                continue
            pr = float(cnt) if priority_policy == "indegree" else 0.0
            next_frontier[link] = max(next_frontier.get(link, 0.0), pr)
        res.level_metrics.append(
            {
                "level": level,
                "n_candidates": len(candidates),
                "n_scheduled": len(scheduled),
                "n_deferred": len(deferred),
                "n_fetch_miss": n_miss,
            }
        )
        frontier = next_frontier
        level += 1
    return res
