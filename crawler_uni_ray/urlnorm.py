"""URL canonicalization, scope predicate, host extraction — pure kernels.

Reference semantics (reproduced bug-for-bug for conformance, cited from
/root/reference/crawler.py):

* ``clean_url`` — crawler.py:36-42: ``urljoin(base, href)`` then rebuild
  ``f"{scheme}://{netloc}{path}"`` + ``?query`` if non-empty.  Drops the
  fragment and the ``;params`` segment.  Keeps case, userinfo, explicit
  ports, query order and percent-encoding as-is.  Only ``http``/``https``
  schemes survive (``mailto:``/``javascript:``/… are dropped → ``None``).
* ``is_in_scope`` — crawler.py:24-26: ``urlparse(url).netloc.endswith(domain)``.
  Deliberate quirks kept: suffix over-match (``evil-example.com`` matches
  ``example.com``); same-domain URLs with an explicit port do NOT match
  (netloc is ``host:port``); userinfo URLs DO match.
* ``canonical_extended`` — north_star extension (BASELINE.json): lowercase
  host, strip default ports, drop fragment, sort query params.  Exposed as a
  SEPARATE opt-in form so reference-exact conformance on ``url`` survives.

Vectorized wrappers (``*_batch``) operate on sequences and return numpy /
list results for use inside ``map_batches``; the scalar forms are the single
source of truth shared by the corpus generator, the vendored oracle and the
Ray engine (the byte-identity contract, SURVEY.md §2.3).
"""

from __future__ import annotations

from urllib.parse import parse_qsl, urlencode, urljoin, urlparse

import numpy as np
import pandas as pd

_HTTP_SCHEMES = ("http", "https")

# ---------------------------------------------------------------------------
# scalar kernels (single source of truth)
# ---------------------------------------------------------------------------


def clean_url(href: str, base: str | None = None) -> str | None:
    """Resolve ``href`` against ``base`` and clean it the reference's way.

    Returns ``None`` when the resolved scheme is not http/https
    (crawler.py:38) or the href is unresolvable.
    """
    try:
        full = urljoin(base, href) if base is not None else href
        parsed = urlparse(full)
    except ValueError:
        return None
    if parsed.scheme not in _HTTP_SCHEMES:
        return None
    cleaned = f"{parsed.scheme}://{parsed.netloc}{parsed.path}"
    if parsed.query:
        cleaned += f"?{parsed.query}"
    return cleaned


def is_in_scope(url: str, domain: str) -> bool:
    """Reference scope predicate (crawler.py:24-26), quirks included."""
    try:
        return urlparse(url).netloc.endswith(domain)
    except ValueError:
        return False


def host_of(url: str) -> str:
    """netloc of the URL ('' when unparsable) — the partitioning key."""
    try:
        return urlparse(url).netloc
    except ValueError:
        return ""


def canonical_extended(url: str) -> str | None:
    """Extended canonical form (north_star): lowercase host, strip default
    port, drop fragment, sort query params by (key, value).  NOT used for
    reference-parity paths."""
    try:
        parsed = urlparse(url)
    except ValueError:
        return None
    if parsed.scheme not in _HTTP_SCHEMES:
        return None
    host = (parsed.hostname or "").lower()
    port = parsed.port
    default = 80 if parsed.scheme == "http" else 443
    netloc = host if port in (None, default) else f"{host}:{port}"
    if parsed.username:
        userinfo = parsed.username + (f":{parsed.password}" if parsed.password else "")
        netloc = f"{userinfo}@{netloc}"
    path = parsed.path or "/"
    out = f"{parsed.scheme}://{netloc}{path}"
    if parsed.query:
        pairs = sorted(parse_qsl(parsed.query, keep_blank_values=True))
        out += f"?{urlencode(pairs)}"
    return out


# ---------------------------------------------------------------------------
# vectorized batch kernels (map_batches bodies call these)
# ---------------------------------------------------------------------------


def hosts_batch(urls) -> np.ndarray:
    """Vector of netlocs for a sequence of URLs."""
    return np.asarray([host_of(u) for u in urls], dtype=object)


def in_scope_batch(urls, domain: str) -> np.ndarray:
    """Boolean mask: netloc.endswith(domain) per URL.

    The netloc split is the only non-trivial part; the suffix test itself is
    a vectorized str.endswith.
    """
    hosts = pd.Series(hosts_batch(urls), dtype=object)
    return hosts.str.endswith(domain).fillna(False).to_numpy(dtype=bool)


_NETLOC_RE = r"^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]*)"


def hosts_batch_cleaned(urls) -> pd.Series:
    """Vectorized netloc extraction for CLEANED urls (scheme://netloc…,
    as produced by clean_url — no fragments, scheme guaranteed).  Regex
    via pandas — ~30× faster than per-url urlparse; used on the hot
    outlink-flatten path.  Equivalence with ``host_of`` on cleaned urls is
    asserted in tests."""
    s = pd.Series(list(urls), dtype=object)
    return s.str.extract(_NETLOC_RE, expand=False).fillna("")


def url_hash_batch(urls, seed: str = "0123456789abcdef") -> np.ndarray:
    """Deterministic vectorized uint64 hash of URL strings (siphash via
    pandas).  Used for seen-set sharding, bloom probes and hash-partition
    bucketing — stable across processes and Python hash randomization."""
    s = pd.Series(list(urls), dtype=object)
    return pd.util.hash_pandas_object(s, index=False, hash_key=seed).to_numpy()
