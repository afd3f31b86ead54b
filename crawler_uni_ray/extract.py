"""HTML link + text extraction — pure kernels: a regex fast path for a
strict subset of HTML, with stdlib ``HTMLParser`` as fallback and reference.

The reference (/root/reference/crawler.py:32-44) parses with
``BeautifulSoup(content, 'html.parser')`` and collects ``href`` of every
``<a>`` tag that has the attribute (``find_all('a', href=True)``).  bs4's
``'html.parser'`` backend is itself built on stdlib
``html.parser.HTMLParser`` with ``convert_charrefs=True``; this module
re-specifies that contract directly against the stdlib (bs4 is not available
in this environment), with the verified equivalences from SURVEY.md §2.3:

* attribute values are entity-decoded (``&amp;`` → ``&``);
* tag/attribute names are case-insensitive (``<A HREF=…>`` matches);
* a valueless ``href`` is treated as ``""`` (bs4 behavior) →
  ``urljoin(base, "") == base`` → self-link;
* links inside HTML comments are ignored;
* text excludes ``<script>``/``<style>`` content and comments.

``parse_html_reference`` is that contract: decode the ``html`` bytes as the
charset named by the first ``<meta charset=…>`` (else UTF-8,
``errors="replace"``), feed them to ``HTMLParser``, and concatenate every
``handle_data`` payload outside script/style, verbatim — no whitespace
normalization.  The corpus generator (the ``text`` column) and the oracle
call it explicitly, so the benchmark's text and link checks compare the
engine's extraction against the stdlib on every page.

``parse_html`` (the engine's path) first tries ``parse_subset``, which
handles a well-formed subset of HTML with two regex passes instead of a
Python method call per tag.  The subset is every document that one markup
regex splits into text parts holding no ``<``; its tokens are

* a comment ``<!--…-->`` whose body holds no ``--`` and does not end in ``-``;
* ``<script ATTRS>`` / ``<style ATTRS>`` up to the first case-insensitive
  ``</\\s*script\\s*>`` / ``</\\s*style\\s*>`` — ``HTMLParser``'s own CDATA
  end pattern, so ``</script >`` ends the element on both paths;
* an end tag ``</NAME>``;
* a start tag ``<NAME ATTRS\\s*/?>`` (``NAME`` is ``[a-zA-Z][a-zA-Z0-9]*``,
  not script or style),

where ``ATTRS`` is whitespace-separated attribute names, each with an
optional ``="…"`` or ``='…'`` value that holds no ``<`` or ``>``.  On that
subset both parsers see the same tokens, so the text is the text parts,
each unescaped on its own (an entity never joins across a tag), and the
hrefs are the first ``href`` of each ``<a>`` outside comments and
script/style.  Anything else — a stray ``<``, ``<!doctype>``, an unquoted
attribute, an unterminated comment, a script/style start tag after the
element's last end tag (checked before the split, which would scan from
each such start to the end of the page) — sends the *whole document* to
``parse_html_reference``, so the output never depends on where the subset
ends.  Tests check the two paths agree on every generated corpus page and
on random token soup.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

from .urlnorm import clean_url

_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?([a-zA-Z0-9_\-]+)""", re.IGNORECASE
)

_SKIP_TEXT_TAGS = frozenset({"script", "style"})


class _LinkTextParser(HTMLParser):
    """Collects <a href> values and visible text in one pass."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []
        self.text_parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_TEXT_TAGS:
            self._skip_depth += 1
        if tag == "a":
            for name, value in attrs:
                if name == "href":
                    # valueless href parses as None; bs4 yields "" (self-link)
                    self.hrefs.append(value if value is not None else "")
                    break

    def handle_startendtag(self, tag: str, attrs) -> None:
        # <a href=... /> — self-closing; still a link, never opens skip depth
        if tag == "a":
            for name, value in attrs:
                if name == "href":
                    self.hrefs.append(value if value is not None else "")
                    break

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TEXT_TAGS and self._skip_depth > 0:
            self._skip_depth -= 1

    def handle_data(self, data: str) -> None:
        if self._skip_depth == 0:
            self.text_parts.append(data)


# The subset's tokens.  Separators are the five characters HTMLParser ends a
# tag name on, not ``\s``: ``<a\vhref="x">`` is one tag name to the stdlib.
# Names match ASCII only, letter by letter: under re.IGNORECASE ``s`` also
# matches ``ſ``, which HTMLParser does not take for a tag-name letter.
# _MARKUP_RE has no capture group: ``split`` would return the captures among
# the text parts.
_WS = r"[ \t\n\r\f]"
_ATTR = _WS + r"""+[a-zA-Z_:][-a-zA-Z0-9_:.]*(?:="[^"<>]*"|='[^'<>]*')?"""


def _ascii_ci(name: str) -> str:
    return "".join(f"[{c}{c.upper()}]" for c in name)


def _raw_text_bounds(name: str) -> tuple[str, str]:
    n = _ascii_ci(name)
    return rf"<{n}(?:{_ATTR})*+{_WS}*>", rf"</\s*{n}\s*>"


_RAW_TEXT_BOUNDS = [_raw_text_bounds("script"), _raw_text_bounds("style")]
# a start tag after the element's last end tag: each such start would make
# the split scan to the end of the document, quadratic in their number
_UNCLOSED_RE = [(re.compile(start), re.compile(end)) for start, end in _RAW_TEXT_BOUNDS]
_COMMENT = r"<!--[^-]*+(?:-[^-]++)*+-->"
_RAW_TEXT = "|".join(rf"{start}[\s\S]*?{end}" for start, end in _RAW_TEXT_BOUNDS)
_NOT_RAW_TEXT = rf"(?!(?:{_ascii_ci('script')}|{_ascii_ci('style')})[ \t\n\r\f/>])"
_MARKUP_RE = re.compile(  # start tags first: the commonest token
    rf"<{_NOT_RAW_TEXT}[a-zA-Z][a-zA-Z0-9]*(?:{_ATTR})*+{_WS}*/?>"
    rf"|</[a-zA-Z][a-zA-Z0-9]*>|{_COMMENT}|{_RAW_TEXT}"
)
# comments and script/style are matched (and skipped) so an <a> inside them
# is never taken; group 1 is an <a> tag's attribute run
_ANCHOR_RE = re.compile(rf"{_COMMENT}|{_RAW_TEXT}|<[aA]((?:{_ATTR})*+){_WS}*/?>")
_ATTR_RE = re.compile(_WS + r"""+([a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:=("[^"<>]*"|'[^'<>]*'))?""")


def decode_html(html: bytes) -> str:
    """Decode page bytes: first ``<meta charset=…>`` wins, else UTF-8;
    undecodable bytes are replaced (the crawl must never fail on data)."""
    charset = "utf-8"
    m = _CHARSET_RE.search(html[:4096])
    if m:
        charset = m.group(1).decode("ascii", "replace")
    try:
        return html.decode(charset, errors="replace")
    except LookupError:
        return html.decode("utf-8", errors="replace")


def parse_subset(doc: str) -> tuple[list[str], str] | None:
    """(raw hrefs in document order, text) of a decoded document in the
    fast path's subset, or None when ``doc`` leaves the subset."""
    for start, end in _UNCLOSED_RE:
        last_end = 0
        for m in end.finditer(doc):
            last_end = m.end()
        if start.search(doc, last_end):
            return None
    parts = _MARKUP_RE.split(doc)
    raw = "".join(parts)
    if "<" in raw:
        return None
    text = raw if "&" not in raw else "".join(
        [unescape(p) if "&" in p else p for p in parts]
    )
    hrefs: list[str] = []
    for m in _ANCHOR_RE.finditer(doc):
        attrs = m.group(1)
        if attrs is None:  # comment, script or style
            continue
        for name, value in _ATTR_RE.findall(attrs):
            if name.lower() == "href":
                value = value[1:-1]  # a valueless href gives "" (self-link)
                hrefs.append(unescape(value) if "&" in value else value)
                break
    return hrefs, text


def _parse_stdlib(doc: str) -> tuple[list[str], str]:
    parser = _LinkTextParser()
    try:
        parser.feed(doc)
        parser.close()
    except Exception:
        # malformed input contributes what was parsed so far, never an error
        pass
    return parser.hrefs, "".join(parser.text_parts)


def parse_html_reference(html: bytes) -> tuple[list[str], str]:
    """The stdlib parse → (raw hrefs in document order, extracted text)."""
    return _parse_stdlib(decode_html(html))


def parse_html(html: bytes) -> tuple[list[str], str]:
    """``parse_subset`` when the page is in the subset, else the stdlib
    parse; the result equals ``parse_html_reference(html)`` either way."""
    doc = decode_html(html)
    return parse_subset(doc) or _parse_stdlib(doc)


def resolve_links(hrefs: list[str], base_url: str) -> set[str]:
    """Reference link resolution (crawler.py:34-44): resolve each href
    against the *requested* URL, clean, scheme-filter, dedup into a set."""
    links: set[str] = set()
    for href in hrefs:
        cleaned = clean_url(href, base_url)
        if cleaned is not None:
            links.add(cleaned)
    return links


def extract_text(html: bytes) -> str:
    """The byte-identical text contract (SURVEY.md §2.3)."""
    return parse_html(html)[1]


def extract_links_and_text(html: bytes, base_url: str) -> tuple[set[str], str]:
    """Single-pass combined extraction for the Ray extract stage."""
    hrefs, text = parse_html(html)
    return resolve_links(hrefs, base_url), text
