"""Real-HTTP fetch stage (T2) against a local socket server: error
semantics (miss / timeout / non-200 → silent zero-outlink rows,
/root/reference/crawler.py:30-31,45-46) and downstream conformance with
corpus-replay mode on the same link graph."""

import http.server
import threading
import time

import pytest
import ray.data

from crawler_uni_ray.pipelines.crawl import CrawlConfig, CrawlEngine
from crawler_uni_ray.stages.fetch import fetch_http
from crawler_uni_ray.stages.frontier import frontier_table

PAGES = {
    "index.html": (
        '<a href="a.html">a</a><a href="b.html">b</a>'
        '<a href="missing.html">m</a><a href="slow.html">s</a>'
        '<a href="http://offsite.example.org/x">off</a>'
    ),
    "a.html": '<a href="b.html">b</a>',
    "b.html": '<a href="index.html">home</a>',
}


def _html(body: str) -> bytes:
    return f"<html><body>{body}</body></html>".encode()


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        name = self.path.lstrip("/")
        if name == "slow.html":
            time.sleep(3)  # > the test's http_timeout → client-side miss
        if name in PAGES:
            body = _html(PAGES[name])
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *a):  # keep pytest output clean
        pass


@pytest.fixture
def http_site():
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()


def _recording_server(record: list):
    class _Rec(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            record.append(time.monotonic())
            body = b"<html><body>ok</body></html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Rec)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv


def test_http_rate_limit_spaces_requests_per_host(ray_session):
    """Wall-clock politeness (T5 wall-clock mode): with rate_per_host=10
    the server must see ≥ ~100 ms between a host's requests even though
    the fetcher's thread pool would otherwise issue them all at once —
    and each host fills its own bucket (both hosts still get all rows)."""
    rec_a: list = []
    rec_b: list = []
    srv_a, srv_b = _recording_server(rec_a), _recording_server(rec_b)
    try:
        host_a = f"127.0.0.1:{srv_a.server_address[1]}"
        host_b = f"127.0.0.1:{srv_b.server_address[1]}"
        urls = [f"http://{host_a}/p{i}.html" for i in range(5)] + [
            f"http://{host_b}/p{i}.html" for i in range(5)
        ]
        ds = ray.data.from_arrow(frontier_table(urls))
        out = fetch_http(ds, timeout=5.0, concurrency=1, rate_per_host=10.0)
        assert out.to_pandas()["fetched"].all()
        for rec in (rec_a, rec_b):
            assert len(rec) == 5
            ts = sorted(rec)
            gaps = sorted(b - a for a, b in zip(ts, ts[1:]))
            # arrival times jitter under load (a delayed handler compresses
            # one gap), so assert the robust signals: the 5 requests span
            # ≥ ~4 bucket periods and the MEDIAN gap is near 100 ms —
            # un-rate-limited the pool fires all 5 within a few ms
            assert ts[-1] - ts[0] >= 0.25, gaps
            assert gaps[len(gaps) // 2] >= 0.06, gaps
    finally:
        srv_a.shutdown()
        srv_b.shutdown()


def test_http_rate_limit_global_across_pool(ray_session):
    """VERDICT r4 #5: the host's AGGREGATE request rate across a
    concurrency≥2 actor pool stays under rate_per_host — fetch_http
    divides the rate by the pool's max size, so even if every actor gets
    some of the host's URLs the sum of the per-actor buckets equals the
    configured cap."""
    rec: list = []
    srv = _recording_server(rec)
    try:
        host = f"127.0.0.1:{srv.server_address[1]}"
        n = 10
        urls = [f"http://{host}/p{i}.html" for i in range(n)]
        ds = ray.data.from_arrow(frontier_table(urls)).repartition(4)
        out = fetch_http(
            ds,
            timeout=5.0,
            concurrency=2,
            batch_size=3,
            rate_per_host=10.0,  # global cap: 10 req/s TOTAL, 5/s per actor
        )
        assert out.to_pandas()["fetched"].all()
        assert len(rec) == n
        ts = sorted(rec)
        span = ts[-1] - ts[0]
        # 10 requests at an aggregate ≤ 10/s with burst 1 per actor (2
        # burst tokens total) must span ≥ (10-2)/10 = 0.8 s; allow jitter.
        # Un-capped (or per-actor-scoped at pool size 2) this collapses —
        # per-actor scope would finish in ~(10-2)/20 = 0.4 s.
        assert span >= 0.6, (span, ts)
        # no 1-second window may see more than rate + total burst + 1
        for i, t0 in enumerate(ts):
            in_window = sum(1 for t in ts[i:] if t - t0 <= 1.0)
            assert in_window <= 13, (in_window, ts)
    finally:
        srv.shutdown()


def test_http_fetch_stage_semantics(ray_session, http_site):
    """Hit → bytes; 404 → miss; timeout → miss; refused port → miss —
    never a task failure (errors are data)."""
    urls = [
        f"http://{http_site}/index.html",
        f"http://{http_site}/missing.html",  # 404
        f"http://{http_site}/slow.html",  # sleeps 3 s > timeout
        "http://127.0.0.1:9/none",  # connection refused (discard port)
    ]
    ds = ray.data.from_arrow(frontier_table(urls))
    out = fetch_http(ds, timeout=1.0, concurrency=1).to_pandas().set_index("url")
    assert out.loc[urls[0], "fetched"] and out.loc[urls[0], "html"] == _html(
        PAGES["index.html"]
    )
    for u in urls[1:]:
        assert not out.loc[u, "fetched"] and out.loc[u, "html"] is None


def test_http_crawl_matches_replay(ray_session, http_site, tmp_path):
    """Full BFS over the live server ≡ corpus-replay BFS over the same
    graph: identical visited sets, links artifact and miss rows."""
    domain = http_site  # netloc incl. port — the reference's scope quirk
    seeds = [f"http://{domain}/index.html"]
    eng_http = CrawlEngine(
        CrawlConfig(
            domain=domain,
            seeds=seeds,
            fetch_mode="http",
            http_timeout=1.0,
            ckpt_dir=str(tmp_path / "http"),
        )
    )
    eng_http.run()

    corpus = {f"http://{domain}/{n}": _html(b) for n, b in PAGES.items()}
    # slow.html times out live → equivalently absent from the replay corpus
    eng_rep = CrawlEngine(
        CrawlConfig(
            domain=domain,
            seeds=seeds,
            corpus_dict=corpus,
            fetch_mode="broadcast",
            ckpt_dir=str(tmp_path / "rep"),
        )
    )
    eng_rep.run()

    assert eng_http.visited_depth() == eng_rep.visited_depth()
    links_http = [r["url"] for r in eng_http.all_links_sorted().take_all()]
    links_rep = [r["url"] for r in eng_rep.all_links_sorted().take_all()]
    assert links_http == links_rep
    # misses recorded as visited, fetch_status 0, zero outlinks
    miss = {
        r["url"]: r["fetch_status"]
        for r in eng_http.results_dataset().take_all()
    }
    assert miss[f"http://{domain}/missing.html"] == 0
    assert miss[f"http://{domain}/slow.html"] == 0
    assert miss[f"http://{domain}/index.html"] == 1


def test_crawl_delay_parsing():
    """robots.txt Crawl-delay extraction: per-agent directives, absent or
    zero delays omitted, malformed bodies tolerated."""
    from crawler_uni_ray.stages.robots import crawl_delays

    rules = {
        "a.example.com": "User-agent: *\nCrawl-delay: 2\nDisallow: /private",
        "b.example.com": "User-agent: *\nDisallow:",  # no delay
        "c.example.com": "User-agent: *\nCrawl-delay: 0.5",
        "d.example.com": "Crawl-delay: oops\nUser-agent: *",  # malformed
    }
    d = crawl_delays(rules)
    assert d == {"a.example.com": 2.0, "c.example.com": 0.5}


def test_http_crawl_delay_overrides_throttle_only_their_host(ray_session):
    """robots Crawl-delay as a per-host rate override: with NO global
    rate_per_host, the delay-declaring host's requests are spaced while
    the other host's fire unthrottled."""
    rec_a: list = []
    rec_b: list = []
    srv_a, srv_b = _recording_server(rec_a), _recording_server(rec_b)
    try:
        host_a = f"127.0.0.1:{srv_a.server_address[1]}"
        host_b = f"127.0.0.1:{srv_b.server_address[1]}"
        urls = [f"http://{host_a}/p{i}.html" for i in range(5)] + [
            f"http://{host_b}/p{i}.html" for i in range(5)
        ]
        ds = ray.data.from_arrow(frontier_table(urls))
        out = fetch_http(
            ds, timeout=5.0, concurrency=1,
            host_rates={host_a: 10.0},  # = Crawl-delay: 0.1 on host_a only
        )
        assert out.to_pandas()["fetched"].all()
        assert len(rec_a) == 5 and len(rec_b) == 5
        ts_a, ts_b = sorted(rec_a), sorted(rec_b)
        gaps_a = sorted(b - a for a, b in zip(ts_a, ts_a[1:]))
        assert ts_a[-1] - ts_a[0] >= 0.25, gaps_a  # throttled: ~4 periods
        assert gaps_a[len(gaps_a) // 2] >= 0.06, gaps_a
        assert ts_b[-1] - ts_b[0] < 0.25, ts_b  # unthrottled host is fast
    finally:
        srv_a.shutdown()
        srv_b.shutdown()
