"""Extractor contract tests (SURVEY.md §2.3): stdlib-HTMLParser semantics
equivalent to the reference crawler's BeautifulSoup(html, 'html.parser')
usage (crawler.py:32-44).  Every case runs on both parsers — the
regex fast path behind ``parse_html`` and ``parse_html_reference`` — and
the two are checked for equality on every generated corpus page and on
random token soup."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawler_uni_ray.corpus import TINY, CorpusSpec, gen_page_html
from crawler_uni_ray.extract import (
    decode_html,
    parse_html,
    parse_html_reference,
    parse_subset,
    resolve_links,
)

BASE = "https://ex.com/base.html"
PARSERS = (parse_html, parse_html_reference)


def _links(parse, html):
    return resolve_links(parse(html)[0], BASE)


def _text(parse, html):
    return parse(html)[1]


def test_entity_decoding_in_href():
    html = b'<a href="/a?x=1&amp;y=2">x</a>'
    for parse in PARSERS:
        assert _links(parse, html) == {"https://ex.com/a?x=1&y=2"}, parse.__name__


def test_case_insensitive_tags():
    html = b'<A HREF="/up.html">U</A>'
    for parse in PARSERS:
        assert _links(parse, html) == {"https://ex.com/up.html"}, parse.__name__


def test_valueless_href_is_self_link():
    for parse in PARSERS:
        assert _links(parse, b"<a href>self</a>") == {BASE}, parse.__name__


def test_comment_links_ignored():
    for parse in PARSERS:
        assert _links(parse, b'<!-- <a href="/c.html">h</a> -->') == set(), parse.__name__


def test_script_style_links_are_text_not_anchors():
    html = b'<script>var a="<a href=/no.html>x</a>";</script><style>a{}</style>'
    for parse in PARSERS:
        assert _links(parse, html) == set(), parse.__name__
        assert _text(parse, html) == "", parse.__name__  # script/style content excluded


def test_scheme_filter_and_intra_page_dedup():
    html = b'<a href="mailto:x@y">m</a><a href="/p">1</a><a href="/p">2</a>'
    for parse in PARSERS:
        assert _links(parse, html) == {"https://ex.com/p"}, parse.__name__


def test_text_verbatim_no_whitespace_normalization():
    html = b"<p>Hello  world</p>\n<p>bye</p>"
    for parse in PARSERS:
        assert _text(parse, html) == "Hello  world\nbye", parse.__name__


def test_charset_sniffing():
    html = '<meta charset="latin-1"><p>caf\xe9</p>'.encode("latin-1")
    for parse in PARSERS:
        assert "café" in _text(parse, html), parse.__name__
        # unknown charset falls back to utf-8
        assert _text(parse, b'<meta charset="bogus123"><p>ok</p>') == "ok", parse.__name__
    assert decode_html(b"<p>plain</p>") == "<p>plain</p>"


def test_malformed_html_never_raises():
    for parse in PARSERS:
        assert isinstance(_text(parse, b"\xff\xfe<a href='/x"), str), parse.__name__
        _links(parse, b"<<<>>><a href=")


# ------------------------------------------------ fast path vs reference
CORPUS_SPECS = [TINY] + [
    # the two benchmark workloads' corpora, two seeds each
    CorpusSpec(n_hosts=h, pages_per_host=p, seed=seed, filler_paras=f)
    for h, p, f in ((6, 30, 0), (4, 260, 8))
    for seed in (1, 2)
]


@pytest.mark.parametrize("spec", CORPUS_SPECS, ids=lambda s: f"{s.n_hosts}x{s.pages_per_host}-s{s.seed}")
def test_corpus_pages_take_the_fast_path(spec):
    for h in range(spec.n_hosts):
        for i in range(spec.pages_per_host):
            html = gen_page_html(spec, h, i)
            # every generated page is in the subset: the gain cannot vanish
            # silently into the fallback
            assert parse_subset(decode_html(html)) is not None, (h, i)
            assert parse_html(html) == parse_html_reference(html), (h, i)


def test_unclosed_script_starts_leave_the_subset_at_once():
    """A script/style start tag after the element's last end tag sends the
    page to the reference before the split, which would otherwise scan
    from each such start to the end of the page (minutes on this input)."""
    for doc in ("<script>x" * 20000, '<style media="m">' * 8000 + "</script>"):
        t0 = time.perf_counter()
        assert parse_subset(doc) is None
        assert time.perf_counter() - t0 < 2.0
        assert parse_html(doc.encode()) == parse_html_reference(doc.encode())


# Token soup: pieces inside the subset, drawn four times as often as the
# pieces at and past its edges, so that a good share of documents takes the
# fast path and the rest probes the fallback.
SUBSET_PIECES = [
    # text, and entities split by tags
    "a", " ", "\n", "x y", ">", "=", '"', "'", "&amp;", "&lt;", "&", "&am", "p;",
    "&#3", "9;", "&#x4", "1;", "&amp", "\xa0", "ſ",
    # tags; single-quoted, empty and valueless attributes, duplicate href
    "<p>", "</p>", '<div class="c">', "<br/>", "<br />", "<img src='i' alt=\"\" />",
    '<a href="/x">', "<A HREF='/y'>", "</a>", "</A>", "<a href>", "<a/>",
    '<a title="t" href="/t&amp;u">', '<a href="/x" href="/z">', '<abbr href="/no">',
    "<a\thref='/tab'\n>",
    # script, style and their end tags
    "<script>", "</script>", "</script >", "</ script>", "</SCRIPT>", '<SCRIPT type="t">',
    "<style>", "</style>", "</STYLE >",
    # comments, open and whole
    "<!--", "-->", "-- >", "--->", "<!-->", "--", "-", "<!-- c -->", '<!-- <a href="/c"> -->',
]
EDGE_PIECES = [
    # unquoted, spaced = and unseparated attributes; a < in a value
    "<a href=/u>", '<a href = "/s">', '<a href="/q"title="r">', '<a href="<">',
    # separators and letters HTMLParser does not take as such
    '<a\x0bhref="/v">', "</ſcript>", "<script/>", "<scripts>",
    "<!-- c -- >", "<x:y>", "</>", "<!doctype html>", "<?pi?>", "<![CDATA[", "]]>", "<", "</p >",
]
PIECES = SUBSET_PIECES * 4 + EDGE_PIECES
TAILS = ["", "<", "&", "&amp", "&#"]  # a stray < or & at the end


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30), st.sampled_from(TAILS))
def test_token_soup_matches_reference(pieces, tail):
    html = ("".join(pieces) + tail).encode()
    assert parse_html(html) == parse_html_reference(html)
