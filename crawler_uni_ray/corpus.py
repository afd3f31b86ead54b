"""Deterministic synthetic Common-Crawl-style page corpus (FIXTURES.md §1).

Schema fixed by BASELINE.json input_hint:
``url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string``.

Every page is a pure function of ``(spec, host_idx, page_idx)`` — per-page
``random.Random((seed, host_idx, page_idx))``, never ``hash()`` or set
iteration — so generation parallelizes embarrassingly (a Ray ``range`` →
``map_batches`` pipeline for bench scale) and reproduces byte-identically.
The ``text`` column is produced by the stdlib reference parser
(:func:`crawler_uni_ray.extract.parse_html_reference`) on the generated
html, so a crawl's text checked against it checks the engine's fast path.

The link graph exercises every extractor/canonicalizer edge case the
reference exhibits (verified against /root/reference/crawler.py:24-46):
relative / root-relative / protocol-relative / absolute hrefs, fragment-only
(self-link), unsorted query params with ``&amp;`` entities, ``;params``
segments (dropped), non-http(s) schemes (dropped), uppercase ``<A HREF>``,
valueless ``href`` (self-link), links inside comments (ignored),
script/style content (excluded from text), same-domain URLs with an explicit
port (saved, never crawled — crawler.py:26), the ``evil-<domain>`` suffix
over-match host (crawled, bug-for-bug), userinfo URLs (crawled, fetch-miss),
dangling hrefs (fetch-miss → zero outlinks, crawler.py:45-46), cycles,
intra-page duplicates, and a Zipf-skewed hub host for skew-salting tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .extract import parse_html_reference

EPOCH_2025 = 1735689600_000000  # 2025-01-01T00:00:00Z in microseconds

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


@dataclass(frozen=True)
class CorpusSpec:
    domain: str = "example.com"
    n_hosts: int = 3
    pages_per_host: int = 8
    seed: int = 42
    hub_weight: float = 0.5  # fraction of cross-host links aimed at the hub
    filler_paras: int = 0  # extra filler paragraphs (bench: realistic page sizes)

    @property
    def n_rows(self) -> int:
        # +1 for the duplicate root-with-slash row (see host_page_url)
        return self.n_hosts * self.pages_per_host + 1


TINY = CorpusSpec(n_hosts=3, pages_per_host=8)
SMALL = CorpusSpec(n_hosts=20, pages_per_host=200)
BENCH = CorpusSpec(n_hosts=100, pages_per_host=2000)


def host_name(spec: CorpusSpec, h: int) -> str:
    if h == 0:
        return spec.domain
    if h == spec.n_hosts - 1 and spec.n_hosts >= 3:
        # suffix over-match host: netloc.endswith("example.com") is True
        return f"evil-{spec.domain}"
    return f"sub{h}.{spec.domain}"


def hub_index(spec: CorpusSpec) -> int:
    return 1 if spec.n_hosts > 1 else 0


def host_page_url(spec: CorpusSpec, h: int, i: int) -> str:
    """Canonical URL of page (h, i).

    Page (0,0) is the bare seed ``https://<domain>`` with NO trailing slash
    — the reference enqueues the raw ``f"https://{domain}"`` string
    (crawler.py:13,76) which is distinct from the cleaned ``…/`` form; the
    corpus carries BOTH so the quirk is exercised.
    """
    host = host_name(spec, h)
    if i == 0:
        return f"https://{host}" if h == 0 else f"https://{host}/"
    return f"https://{host}/p{i}.html"


def _page_links(spec: CorpusSpec, h: int, i: int, rng: random.Random) -> list[str]:
    """href attribute values (raw, pre-resolution) for page (h, i)."""
    pph = spec.pages_per_host
    nxt = (i + 1) % pph  # ring within host → cycles + connectivity
    hub = hub_index(spec)
    links = [
        f"p{nxt}.html" if nxt else "/",  # relative
        f"/p{(i + 2) % pph or 1}.html",  # root-relative
        f"p{nxt}.html",  # duplicate (intra-page set dedup)
        "#sec",  # fragment-only → self-link
        f"/p{(i + 3) % pph or 1}.html?b=2&amp;a=1",  # unsorted query + entity
        f"/p{(i + 4) % pph or 1}.html;sid=XYZ",  # ;params segment (dropped)
        "mailto:someone@example.org",  # dropped scheme
        "javascript:void(0)",  # dropped scheme
    ]
    # protocol-relative cross-host link, Zipf-skewed toward the hub
    for _ in range(2):
        th = hub if rng.random() < spec.hub_weight else rng.randrange(spec.n_hosts)
        ti = rng.randrange(pph)
        links.append("//" + host_name(spec, th) + ("/" if ti == 0 else f"/p{ti}.html"))
    # absolute cross-host
    th = hub if rng.random() < spec.hub_weight else rng.randrange(spec.n_hosts)
    links.append(host_page_url(spec, th, rng.randrange(1, max(2, pph))))
    # rarer edge cases, deterministically sprinkled
    if i % 5 == 0:
        links.append(f"https://{spec.domain}:8080/admin")  # port: saved, not crawled
    if i % 7 == 0:
        links.append("https://offsite.example.org/x")  # off-domain: saved only
    if i % 6 == 0:
        links.append(f"https://user:pw@{spec.domain}/p1.html")  # userinfo: crawled, miss
    if i % 4 == 0:
        links.append(f"/missing{rng.randrange(10**6)}.html")  # dangling → fetch-miss
    return links


_FILLER = [
    "The quick brown fox jumps over the lazy dog.",
    "Pack my box with five dozen liquor jugs.",
    "Sphinx of black quartz, judge my vow.",
    "How vexingly quick daft zebras jump!",
    "Bright vixens jump; dozy fowl quack.",
]


def gen_page_html(spec: CorpusSpec, h: int, i: int) -> bytes:
    """Deterministic HTML for page (h, i)."""
    rng = random.Random(f"{spec.seed}:{h}:{i}")
    links = _page_links(spec, h, i, rng)
    anchors = []
    for k, href in enumerate(links):
        if k == 1:
            anchors.append(f'<A HREF="{href}">UP{k}</A>')  # uppercase tag/attr
        else:
            anchors.append(f'<a href="{href}">link{k}</a>')
    filler = " ".join(rng.choice(_FILLER) for _ in range(3 + i % 4))
    # tag-dense filler: real-world HTML is markup-heavy (lists, spans,
    # entities), which is what makes extraction CPU-bound — long plain-text
    # paragraphs would understate parse cost per byte
    extra = []
    for _ in range(spec.filler_paras):
        words = rng.choice(_FILLER).split()
        items = "".join(
            f'<li class="w"><span>{w}</span> &amp; <em>{w[::-1]}</em></li>'
            for w in words
        )
        extra.append(f"<ul>{items}</ul>")
    parts = [
        '<html><head><meta charset="utf-8"><title>',
        f"Page {h}/{i}",
        "</title>",
        "<style>body { color: #000; } /* not text */</style>",
        '<script>var hidden = "<a href=/script-link.html>no</a>";</script>',
        "</head><body>",
        f"<h1>Host {host_name(spec, h)} page {i}</h1>",
        '<!-- <a href="/comment-link.html">hidden</a> secret comment -->',
        "<p>",
        filler,
        " Entity test: &amp; &lt;ok&gt;.</p>",
        *extra,
        "<a href>self</a>",  # valueless href → self-link
        *anchors,
        "</body></html>",
    ]
    return "".join(parts).encode("utf-8")


def gen_rows(spec: CorpusSpec, row_ids) -> pa.Table:
    """Rows for global indices ``row_ids`` (vector in → Arrow table out).

    Global row id r < n_hosts*pages_per_host maps to (h, i) = divmod(r, pph);
    the final id is the duplicate ``https://<domain>/`` root-with-slash row.
    """
    urls, ts, htmls, texts = [], [], [], []
    pph = spec.pages_per_host
    for r in row_ids:
        r = int(r)
        if r == spec.n_hosts * pph:
            h, i, url = 0, 0, f"https://{spec.domain}/"
        else:
            h, i = divmod(r, pph)
            url = host_page_url(spec, h, i)
        html = gen_page_html(spec, h, i)
        urls.append(url)
        ts.append(EPOCH_2025 + r * 1_000_000)
        htmls.append(html)
        texts.append(parse_html_reference(html)[1])
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(ts, pa.timestamp("us")),
            pa.array(htmls, pa.binary()),
            pa.array(texts, pa.string()),
            pa.array(["en"] * len(urls), pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )


def build_pages_table(spec: CorpusSpec) -> pa.Table:
    """Driver-side build (tiny/small scales)."""
    return gen_rows(spec, range(spec.n_rows))


def write_corpus_parquet(spec: CorpusSpec, out_dir: str, num_shards: int = 8) -> str:
    """Write the corpus as hash(url)-partitioned parquet: one file per
    shard directory ``part_hash=NN/`` so fetch-lookup can prune by shard
    and a 32-way read has enough files to parallelize."""
    import os

    import pyarrow.parquet as pq

    from .urlnorm import url_hash_batch

    tbl = build_pages_table(spec)
    shard = (url_hash_batch(tbl["url"].to_pylist()) % num_shards).astype(np.int64)
    os.makedirs(out_dir, exist_ok=True)
    for s in range(num_shards):
        sub = tbl.filter(pa.array(shard == s))
        d = os.path.join(out_dir, f"part_hash={s:02d}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(sub, os.path.join(d, "part-0.parquet"))
    return out_dir


# ---------------------------------------------------------------------------
# robots fixture (FIXTURES.md §3) — the reference never reads robots.txt;
# this table feeds the engine's [NR] robots gate only.
# ---------------------------------------------------------------------------

ROBOTS_SCHEMA = pa.schema([("host", pa.string()), ("rules", pa.string())])


def build_robots_table(spec: CorpusSpec, disallow_host_idx: int = 2) -> pa.Table:
    """Permissive rules everywhere except one host disallowing /p1*; hosts
    absent from the table are treated allow-all by the gate."""
    hosts, rules = [], []
    for h in range(min(spec.n_hosts, 3)):
        name = host_name(spec, h)
        if h == disallow_host_idx:
            hosts.append(name)
            rules.append("User-agent: *\nDisallow: /p1\n")
        else:
            hosts.append(name)
            rules.append("User-agent: *\nAllow: /\n")
    return pa.Table.from_arrays(
        [pa.array(hosts, pa.string()), pa.array(rules, pa.string())],
        schema=ROBOTS_SCHEMA,
    )
