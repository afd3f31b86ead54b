"""The benchmark's output checks reject corrupted results.

    python -m pytest crawlbench/test_checks.py -q

A small crawl is built by hand, passes every check, and is then corrupted
one way at a time; the check that guards that property must reject it.
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (  # noqa: E402
    CrawlOutput,
    Reference,
    check_budget,
    check_closure,
    check_depths,
    check_level_accounting,
    check_links,
    check_outlinks,
    check_seen_size,
    check_texts,
    check_unique,
    run_checks,
)

D = "example.com"
A, B, C = f"https://{D}", f"https://{D}/p1.html", f"https://sub1.{D}/p2.html"
MISS = f"https://{D}/missing.html"


def good() -> tuple[CrawlOutput, Reference]:
    ref = Reference(
        domain=D,
        depth={A: 0, B: 1, C: 1, MISS: 2},
        links=sorted([B, C, MISS, f"https://{D}:8080/admin", "https://offsite.org/x"]),
        corpus_text={A: "root", B: "page one", C: "page two"},
        budget=2,
        outlinks_total=6,
    )
    out = CrawlOutput(
        url=[A, B, C, MISS],
        host=[D, D, f"sub1.{D}", D],
        depth=[0, 1, 1, 2],
        fetch_status=[1, 1, 1, 0],
        text=["root", "page one", "page two", None],
        n_outlinks=[2, 2, 2, 0],
        levels=[
            {"level": 0, "n_scheduled": 1, "n_fetched": 1, "n_fetch_miss": 0},
            {"level": 1, "n_scheduled": 2, "n_fetched": 2, "n_fetch_miss": 0},
            {"level": 2, "n_scheduled": 1, "n_fetched": 0, "n_fetch_miss": 1},
        ],
        links=list(ref.links),
        seen_size=4,
    )
    return out, ref


def drop(out: CrawlOutput, i: int) -> None:
    for col in ("url", "host", "depth", "fetch_status", "text", "n_outlinks"):
        del getattr(out, col)[i]


def test_good_result_passes():
    assert run_checks(*good()) == []


def test_dropped_url_rejected():
    out, ref = good()
    drop(out, 2)  # C never fetched
    assert check_depths(out, ref)
    assert check_closure(out, ref)
    assert check_seen_size(out, ref)
    assert check_level_accounting(out, ref)


def test_url_fetched_twice_rejected():
    out, ref = good()
    out.url.append(B)
    out.host.append(D)
    out.depth.append(2)
    out.fetch_status.append(1)
    out.text.append("page one")
    out.n_outlinks.append(2)
    assert check_unique(out, ref)
    assert check_level_accounting(out, ref)  # level 2 now holds 2 rows, metrics say 1


def test_host_over_budget_rejected():
    out, ref = good()
    ref.budget = 1
    out.host[2] = D  # level 1 now has two urls of one host
    assert check_budget(out, ref)
    ref.budget = 2
    assert not check_budget(out, ref)


def test_wrong_text_rejected():
    out, ref = good()
    out.text[1] = "page 1"
    assert check_texts(out, ref)


def test_fake_miss_rejected():
    out, ref = good()
    out.fetch_status[1] = 0  # a corpus page reported as a fetch miss
    out.text[1] = None
    assert check_texts(out, ref)
    assert check_level_accounting(out, ref)


def test_wrong_depth_rejected():
    out, ref = good()
    out.depth[1] = 2
    assert check_depths(out, ref)


def test_links_artifact_rejected():
    out, ref = good()
    bad = copy.deepcopy(out)
    bad.links.pop()
    assert check_links(bad, ref)
    bad = copy.deepcopy(out)
    bad.links = list(reversed(out.links))  # same set, wrong order
    assert check_links(bad, ref)
    bad = copy.deepcopy(out)
    bad.links.append(bad.links[-1])  # duplicate line
    assert check_links(bad, ref)


def test_level_accounting_rejected():
    out, ref = good()
    out.levels[1] = {"level": 1, "n_scheduled": 2, "n_fetched": 2, "n_fetch_miss": 1}
    assert check_level_accounting(out, ref)


def test_unvisited_link_breaks_closure():
    out, ref = good()
    out.links.append(f"https://sub2.{D}/p9.html")
    assert check_closure(out, ref)
    ref.closure = False  # a single level is not a finished crawl
    assert not check_closure(out, ref)


def test_port_and_offsite_links_need_no_visit():
    out, ref = good()
    assert not check_closure(out, ref)  # :8080 and offsite links are in the artifact


def test_outlinks_total_rejected():
    out, ref = good()
    out.n_outlinks[0] += 1
    assert check_outlinks(out, ref)


@pytest.mark.parametrize("size", [3, 5])
def test_seen_size_rejected(size):
    out, ref = good()
    out.seen_size = size
    assert check_seen_size(out, ref)
