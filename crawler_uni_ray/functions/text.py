"""Text analysis for training-data pipelines: language ID, quality scoring,
token counting, document fingerprinting.  All stages are vectorized
``map_batches`` kernels over the ``documents`` table; regexes compile once
at module import (i.e. once per worker process).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
from ray.data import Dataset

from ..urlnorm import url_hash_batch

TOKEN_RE = re.compile(r"\S+")
# a BPE-ish word/punct splitter: words, numbers, or single non-space symbols
BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")
PUNCT_RE = re.compile(r"[^\w\s]")

# tiny per-language stopword profiles (n-gram/stopword heuristic)
_LANG_STOPWORDS = {
    "en": ["the", "and", "of", "to", "a", "in", "is", "that", "for", "it"],
    "de": ["der", "die", "und", "das", "ist", "nicht", "ein", "mit", "für", "auf"],
    "fr": ["le", "la", "et", "les", "des", "est", "un", "une", "dans", "pour"],
    "es": ["el", "la", "de", "que", "y", "los", "es", "un", "una", "por"],
    "it": ["il", "la", "di", "che", "e", "un", "per", "non", "con", "del"],
}
_LANG_RES = {
    lang: re.compile(r"\b(?:" + "|".join(words) + r")\b", re.IGNORECASE)
    for lang, words in _LANG_STOPWORDS.items()
}


def round6(x):
    """Half-up rounding to 6 decimals via scaled floor — bit-identical
    between numpy and the DuckDB oracle (`FLOOR(x*1e6 + 0.5)/1e6`),
    unlike np.round (binary half-even) vs SQL ROUND (decimal half-away),
    which disagree by 1 ulp on boundary values."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def token_count_batch(texts: pd.Series) -> np.ndarray:
    """Whitespace token count, fully vectorized (pandas str.count)."""
    return texts.str.count(TOKEN_RE).fillna(0).to_numpy(dtype=np.int64)


def bpe_token_count_batch(texts: pd.Series) -> np.ndarray:
    """BPE-ish token count (words / numbers / symbols)."""
    return texts.str.count(BPE_RE).fillna(0).to_numpy(dtype=np.int64)


def add_token_counts(ds: Dataset, text_col: str = "text") -> Dataset:
    def _f(df: pd.DataFrame) -> pd.DataFrame:
        df["n_tokens"] = token_count_batch(df[text_col])
        df["n_bpe_tokens"] = bpe_token_count_batch(df[text_col])
        return df

    return ds.map_batches(_f, batch_format="pandas")


def lang_scores_batch(texts: pd.Series) -> pd.DataFrame:
    """Per-language stopword-hit counts, vectorized: one str.count per
    language profile (not a Python loop over tokens)."""
    return pd.DataFrame(
        {lang: texts.str.count(rex).fillna(0) for lang, rex in _LANG_RES.items()}
    )


def add_lang_id(ds: Dataset, text_col: str = "text", min_hits: int = 1) -> Dataset:
    """Deterministic heuristic language ID → ``lang_pred`` column
    (ties broken by language-code order; below min_hits → 'und')."""

    def _f(df: pd.DataFrame) -> pd.DataFrame:
        scores = lang_scores_batch(df[text_col])
        ntok = np.maximum(token_count_batch(df[text_col]), 1)
        best = scores.idxmax(axis=1)  # ties → first column (fixed dict order)
        hits = scores.max(axis=1)
        df["lang_pred"] = np.where(hits.to_numpy() >= min_hits, best, "und")
        df["lang_score"] = round6(hits.to_numpy() / ntok)
        return df

    return ds.map_batches(_f, batch_format="pandas")


def add_quality_score(ds: Dataset, text_col: str = "text") -> Dataset:
    """Quality heuristics: length, punctuation ratio, stopword ratio, mean
    word length → a [0,1] composite.  All vectorized."""

    def _f(df: pd.DataFrame) -> pd.DataFrame:
        t = df[text_col].fillna("")
        n_chars = t.str.len().to_numpy(dtype=np.float64)
        n_tokens = np.maximum(token_count_batch(t), 1).astype(np.float64)
        n_punct = t.str.count(PUNCT_RE).to_numpy(dtype=np.float64)
        n_stop = lang_scores_batch(t).sum(axis=1).to_numpy(dtype=np.float64)
        mean_word_len = n_chars / n_tokens
        punct_ratio = n_punct / np.maximum(n_chars, 1)
        stop_ratio = n_stop / n_tokens
        # plausible-document score: enough length, sane word length,
        # some stopwords, not punctuation soup
        score = (
            np.clip(n_chars / 500.0, 0, 1) * 0.3
            + np.clip(1.0 - np.abs(mean_word_len - 5.0) / 5.0, 0, 1) * 0.3
            + np.clip(stop_ratio * 5.0, 0, 1) * 0.2
            + np.clip(1.0 - punct_ratio * 5.0, 0, 1) * 0.2
        )
        df["punct_ratio"] = round6(punct_ratio)
        df["stop_ratio"] = round6(stop_ratio)
        df["quality"] = round6(score)
        return df

    return ds.map_batches(_f, batch_format="pandas")


def fingerprint_batch(texts, window: int = 4) -> np.ndarray:
    """Winnowing-style rolling-hash fingerprint per text: min over sliding
    windows of a polynomial combine of token hashes (documents sharing
    phrasing collide).  Token hashing is ONE vectorized siphash call over
    the whole batch's token stream (urlnorm.url_hash_batch) — not a
    per-token per-byte Python loop.  Deterministic, order-sensitive."""
    tok_lists = [TOKEN_RE.findall(t or "") for t in texts]
    out = np.zeros(len(tok_lists), dtype=np.uint64)
    all_toks = [tok for toks in tok_lists for tok in toks]
    if not all_toks:
        return out
    hashes = url_hash_batch(all_toks)
    lens = np.fromiter((len(tk) for tk in tok_lists), np.int64, count=len(tok_lists))
    offs = np.concatenate(([0], np.cumsum(lens)))
    weights = np.uint64(31) ** np.arange(window, dtype=np.uint64)
    for i in range(len(tok_lists)):
        h = hashes[offs[i] : offs[i + 1]]
        if len(h) == 0:
            continue
        if len(h) < window:
            acc = 0
            for v in h:
                acc = (acc * 31 + int(v)) & 0xFFFFFFFFFFFFFFFF
            out[i] = acc
        else:
            mat = np.lib.stride_tricks.sliding_window_view(h, window)
            win = (mat * weights).sum(axis=1, dtype=np.uint64)  # wraps mod 2^64
            out[i] = win.min()
    return out


def fingerprint_text(text: str, window: int = 4) -> int:
    """Scalar form of :func:`fingerprint_batch` (tests / oracle use)."""
    return int(fingerprint_batch([text], window)[0])


def add_fingerprint(ds: Dataset, text_col: str = "text", window: int = 4) -> Dataset:
    from ..util import ensure_min_blocks

    def _f(df: pd.DataFrame) -> pd.DataFrame:
        fp = fingerprint_batch(df[text_col].tolist(), window)
        df["fingerprint"] = (fp & np.uint64(0x7FFFFFFFFFFFFFFF)).astype("int64")
        return df

    return ensure_min_blocks(ds).map_batches(_f, batch_format="pandas")


def text_stats(ds: Dataset, id_col: str = "doc_id", text_col: str = "text") -> Dataset:
    """SQL-checkable stats: char count + whitespace token count."""

    def _f(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out[id_col] = df[id_col]
        out["n_chars_calc"] = df[text_col].str.len().astype("int64")
        out["n_tokens"] = token_count_batch(df[text_col])
        return out

    return ds.map_batches(_f, batch_format="pandas")


WORD_RE = re.compile(r"[A-Za-z]+")


def term_count_partials(ds: Dataset, text_col: str = "text") -> Dataset:
    """Per-batch ``(term, n)`` partial counts — the combiner that keeps
    the term-frequency groupby shuffle proportional to the per-block
    VOCABULARY, never the raw token stream.  Extraction order matches the
    SQL oracle: ASCII-letter runs first, lowercase after (lowercasing
    first could mint new ASCII letters, e.g. Kelvin-sign → 'k')."""

    from ..util import from_pandas_clean

    def _partial(df: pd.DataFrame):
        toks = (
            df[text_col].fillna("").str.findall(WORD_RE).explode().dropna().str.lower()
        )
        vc = toks.value_counts()
        return from_pandas_clean(
            pd.DataFrame({"term": vc.index.astype(str), "n": vc.to_numpy(np.int64)})
        )

    return ds.map_batches(_partial, batch_format="pandas")


def top_terms(ds: Dataset, k: int = 50, text_col: str = "text") -> pd.DataFrame:
    """Corpus-wide heavy-hitter terms: partial counts (above) →
    ``groupby(term).sum`` → per-block local top-k (``select_k_unstable``;
    (n, term) is unique after the groupby so the selection is
    deterministic) → driver merge of ≤ k×n_blocks rows.  The driver never
    sees the vocabulary, only candidate top-k slates."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    summed = (
        term_count_partials(ds, text_col).groupby("term").aggregate(Sum("n", alias_name="n"))
    )
    keys = [("n", "descending"), ("term", "ascending")]

    def _local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        return t.take(pc.select_k_unstable(t, k=k, sort_keys=keys))

    out = summed.map_batches(_local_topk, batch_format="pyarrow").to_pandas()
    out = (
        out.sort_values(["n", "term"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype("int64")
    return out


def doc_term_freqs(ds: Dataset, id_col: str = "doc_id", text_col: str = "text") -> Dataset:
    """Exact per-document term frequencies ``(doc_id, term, tf)``.  A doc
    is one row, so per-row counting inside the batch is exact — no
    cross-batch combine needed."""

    from ..util import from_pandas_clean

    def _tf(df: pd.DataFrame):
        s = df[text_col].fillna("").str.findall(WORD_RE)
        e = df[[id_col]].join(s.rename("term")).explode("term")
        e = e.dropna(subset=["term"])
        e["term"] = e["term"].str.lower()
        g = e.groupby([id_col, "term"], sort=False).size().reset_index(name="tf")
        g["tf"] = g["tf"].astype("int64")
        return from_pandas_clean(g)

    return ds.map_batches(_tf, batch_format="pandas")


def tfidf_top_terms(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Per-document top-k terms by tf·idf, two-shuffle plan with NO join:
    tf rows ``(doc_id, term, tf)`` shuffle once on ``hash(term)`` — a
    bucket holds *all* rows of its terms, and tf rows are
    (doc_id, term)-unique, so ``df(term)`` = the group's per-term row
    count, exact, computed in place; idf attaches with zero join.  The
    second shuffle is the hash(doc)-bucketed per-doc top-k — buckets
    hold whole documents, parallelism scales with ``n_buckets``, never
    1 task per doc and never a global sort.  idf is the LINEAR variant
    N/df (one IEEE divide + one multiply, bit-identical between numpy
    and the SQL oracle — ln() would be libm-dependent).  Ties broken by
    term asc.

    This replaces round 2's native ``Dataset.join(tf, dfreq)``: with
    ``num_partitions`` above the vocabulary size (e.g. 64 partitions vs
    ~31 distinct terms at 32 CPUs) most right-side hash partitions were
    empty schema-less blocks and pyarrow's acero join raised
    ``ArrowInvalid`` — the co-group has no empty-partition failure mode
    (empty buckets simply produce no group) and one fewer shuffle."""
    from ..ops import add_hash_bucket
    from ..util import from_pandas_clean

    tf = doc_term_freqs(ds, id_col, text_col)
    n_docs = float(ds.count())
    by_term = add_hash_bucket(tf, "term", n_buckets)

    def _score(g: pd.DataFrame):
        dfreq = g.groupby("term", sort=False)["term"].transform("size")
        score = g["tf"].to_numpy(dtype=np.float64) * (
            n_docs / dfreq.to_numpy(dtype=np.float64)
        )
        return from_pandas_clean(
            pd.DataFrame(
                {
                    id_col: g[id_col].to_numpy(),
                    "term": g["term"].to_numpy(),
                    "tf_idf": score,
                }
            )
        )

    scored = add_hash_bucket(
        by_term.groupby("__bucket").map_groups(_score, batch_format="pandas"),
        id_col,
        n_buckets,
    )

    def _topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [id_col, "tf_idf", "term"], ascending=[True, False, True], kind="mergesort"
        )
        out = g.groupby(id_col, sort=False).head(k)
        return out[[id_col, "term", "tf_idf"]]

    out = (
        scored.groupby("__bucket")
        .map_groups(_topk, batch_format="pandas")
        .to_pandas()
    )
    return (
        out.sort_values([id_col, "tf_idf", "term"], ascending=[True, False, True])
        .reset_index(drop=True)
    )


# ------------------------------------------------------------- PII redaction

# RE2 syntax on BOTH sides: pyarrow's replace_substring_regex and DuckDB's
# REGEXP_REPLACE are each backed by RE2, so the engine and the SQL oracle
# share one regex dialect (Python `re` would differ on \b inside classes).
# Order matters: emails first (they contain digit runs a PHONE pattern
# could partially eat), then dotted quads, then phone-ish digit runs.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    (r"\+?[0-9][0-9\-]{6,}[0-9]", "<PHONE>"),
]


def redact_pii_array(arr):
    """Redact emails / IPv4s / phone-ish digit runs in a string array.
    Vectorized: three RE2 passes over the whole Arrow array, zero Python
    per-row work."""
    import pyarrow.compute as pc

    for pat, rep in PII_PATTERNS:
        arr = pc.replace_substring_regex(arr, pattern=pat, replacement=rep)
    return arr


def add_pii_redaction(ds: Dataset, text_col: str = "text",
                      out_col: str = "text_redacted") -> Dataset:
    """Append a redacted copy of ``text_col``.  Scale: per-batch Arrow
    kernel, no shuffle, streams block-by-block."""
    import pyarrow as pa

    def _f(t: pa.Table) -> pa.Table:
        return t.append_column(out_col, redact_pii_array(t[text_col]))

    return ds.map_batches(_f, batch_format="pyarrow")


# ------------------------------------------------- repetition (Gopher-style)


def repetition_stats_batch(texts: pd.Series) -> pd.DataFrame:
    """Per-doc repetition signals (Gopher-style quality filters): token
    count, distinct-token count, duplicate-word ratio, and the count of
    the most frequent word bigram.  Vectorized via explode + grouped
    C-path pandas ops (nunique / shift / value_counts) — no per-row
    Python loop."""
    toks = texts.str.lower().str.findall(r"[a-z]+")
    n_tokens = toks.str.len().to_numpy(dtype=np.int64)
    ex = toks.explode().dropna()
    n_distinct = np.zeros(len(texts), dtype=np.int64)
    top_bigram_n = np.zeros(len(texts), dtype=np.int64)
    if len(ex):
        nd = ex.groupby(level=0).nunique()
        n_distinct[nd.index.to_numpy()] = nd.to_numpy()
        nxt = ex.groupby(level=0).shift(-1)
        big = (ex + " " + nxt).dropna()
        if len(big):
            bc = big.groupby(level=0).value_counts().groupby(level=0).max()
            top_bigram_n[bc.index.to_numpy()] = bc.to_numpy()
    dup_ratio = np.where(
        n_tokens > 0, 1.0 - n_distinct / np.maximum(n_tokens, 1), 0.0
    )
    big_frac = top_bigram_n / np.maximum(n_tokens - 1, 1)
    return pd.DataFrame({
        "n_tokens_w": n_tokens,
        "n_distinct": n_distinct,
        "dup_word_ratio": round6(dup_ratio),
        "top_bigram_frac": round6(big_frac),
    })


def add_repetition_stats(ds: Dataset, id_col: str = "doc_id",
                         text_col: str = "text") -> Dataset:
    def _f(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        stats = repetition_stats_batch(df[text_col])
        return pd.concat([df[[id_col]], stats], axis=1)

    return ds.map_batches(_f, batch_format="pandas")


# ------------------------------------------------ benchmark decontamination

_SHINGLE_WEIGHTS_CACHE: dict[int, np.ndarray] = {}


def _shingle_weights(n: int) -> np.ndarray:
    if n not in _SHINGLE_WEIGHTS_CACHE:
        _SHINGLE_WEIGHTS_CACHE[n] = np.uint64(31) ** np.arange(n, dtype=np.uint64)
    return _SHINGLE_WEIGHTS_CACHE[n]


def shingle_hash_lists(texts: pd.Series, n: int = 5) -> list[np.ndarray]:
    """Per-doc DISTINCT word-shingle (n consecutive ``[a-z]+`` tokens of the
    lowercased text) hashes.  Token hashing is ONE vectorized siphash call
    over the batch's token stream; each doc's windows combine with the same
    uint64 polynomial as :func:`fingerprint_batch`, so equal shingle
    STRINGS hash equal across docs, batches and processes.  Docs with
    fewer than ``n`` tokens contribute no shingles (matches the SQL
    ``RANGE(1, LEN(toks)-n+2)`` comprehension)."""
    tok_lists = texts.str.lower().str.findall(r"[a-z]+").tolist()
    empty = np.empty(0, dtype=np.uint64)
    out: list[np.ndarray] = [empty] * len(tok_lists)
    all_toks = [tok for toks in tok_lists for tok in toks]
    if not all_toks:
        return out
    hashes = url_hash_batch(all_toks)
    lens = np.fromiter((len(tk) for tk in tok_lists), np.int64, count=len(tok_lists))
    offs = np.concatenate(([0], np.cumsum(lens)))
    weights = _shingle_weights(n)
    for i in range(len(tok_lists)):
        h = hashes[offs[i] : offs[i + 1]]
        if len(h) < n:
            continue
        mat = np.lib.stride_tricks.sliding_window_view(h, n)
        win = (mat * weights).sum(axis=1, dtype=np.uint64)  # wraps mod 2^64
        out[i] = np.unique(win)
    return out


def distinct_shingle_hashes(ds: Dataset, text_col: str = "text", n: int = 5) -> np.ndarray:
    """DISTINCT shingle hashes of a BENCHMARK dataset, sorted, on the
    driver: per-batch distinct partials stream back and merge with one
    ``np.unique``.  Bounded by the benchmark's shingle vocabulary — the
    decontamination contract is benchmark ≪ corpus (a benchmark the size
    of the corpus would need the bucketed-join form instead)."""

    def _p(df: pd.DataFrame) -> pd.DataFrame:
        u = shingle_hash_lists(df[text_col], n)
        flat = np.concatenate(u) if u else np.empty(0, np.uint64)
        return pd.DataFrame({"sh": np.unique(flat)})

    parts = [
        b["sh"].to_numpy()
        for b in ds.map_batches(_p, batch_format="pandas").iter_batches(
            batch_format="pandas"
        )
    ]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def add_contamination(
    ds: Dataset,
    bench_ref,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 5,
) -> Dataset:
    """Per-doc count of DISTINCT shingles shared with the broadcast
    benchmark shingle-hash set (``bench_ref``: a ``ray.put`` SORTED uint64
    array, fetched once per worker via ``cached_get``).  Membership is one
    batch-wide ``searchsorted`` + segment-sum — no shuffle; the whole
    operator is embarrassingly parallel over the corpus."""
    from ..util import cached_get

    def _f(df: pd.DataFrame) -> pd.DataFrame:
        bench = cached_get(bench_ref)
        u = shingle_hash_lists(df[text_col], n)
        lens = np.fromiter((len(x) for x in u), np.int64, count=len(u))
        flat = np.concatenate(u) if u else np.empty(0, np.uint64)
        if len(bench) and len(flat):
            idx = np.searchsorted(bench, flat)
            idx_c = np.minimum(idx, len(bench) - 1)
            hit = (idx < len(bench)) & (bench[idx_c] == flat)
        else:
            hit = np.zeros(len(flat), dtype=bool)
        ends = np.cumsum(lens)
        csum = np.concatenate(([0], np.cumsum(hit)))
        n_overlap = csum[ends] - csum[ends - lens]
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(),
                "n_overlap": n_overlap.astype(np.int64),
                "contaminated": (n_overlap > 0).astype(np.int64),
            }
        )

    return ds.map_batches(_f, batch_format="pandas")


def dup_span_counts(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 10,
    n_buckets: int | None = None,
) -> Dataset:
    """Substring-level duplicate-span mining (the shape of suffix-array
    training-data dedup, Lee et al. 2022, arXiv:2107.06499, approximated
    at fixed span length): per doc, the count of its DISTINCT n-token
    spans that also occur in at least one OTHER doc.  Plan: explode
    distinct (id, span-hash) pairs — 16 B/row — into ONE hash(span)
    bucketed shuffle (a span's global doc-frequency resolves inside its
    bucket: per-bucket value_counts → keep df ≥ 2 → per-doc partial
    counts), then union driver-free zero rows for every doc and finish
    with a tiny groupby(id) sum.  The text payload never enters either
    all-to-all."""
    import ray as _ray

    from ..ops import add_hash_bucket_int

    if n_buckets is None:
        n_buckets = max(8, 4 * int(_ray.cluster_resources().get("CPU", 8)))

    def _explode(df: pd.DataFrame) -> pd.DataFrame:
        u = shingle_hash_lists(df[text_col], n)
        lens = np.fromiter((len(x) for x in u), np.int64, count=len(u))
        flat = np.concatenate(u) if u else np.empty(0, np.uint64)
        ids = np.repeat(df[id_col].to_numpy(), lens)
        return pd.DataFrame({id_col: ids, "sh": flat.view(np.int64)})

    pairs = add_hash_bucket_int(
        ds.map_batches(_explode, batch_format="pandas"), "sh", n_buckets
    )

    def _bucket_partials(g: pd.DataFrame) -> pd.DataFrame:
        # rows are per-doc-distinct, so a span's group size IS its doc freq
        df_per_span = g.groupby("sh")[id_col].transform("size")
        hit = g[df_per_span >= 2]
        out = hit.groupby(id_col).size().rename("n_dup_spans").reset_index()
        out["n_dup_spans"] = out["n_dup_spans"].astype("int64")
        return out[[id_col, "n_dup_spans"]]

    partials = pairs.groupby("__bucket").map_groups(
        _bucket_partials, batch_format="pandas"
    )

    def _zeros(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(),
                "n_dup_spans": np.zeros(len(df), dtype=np.int64),
            }
        )

    zeros = ds.map_batches(_zeros, batch_format="pandas")
    from ray.data.aggregate import Sum

    return partials.union(zeros).groupby(id_col).aggregate(
        Sum("n_dup_spans", alias_name="n_dup_spans")
    )


# ---------------------------------------------------------- normalization


def normalize_text_array(arr):
    """Training-data text normalization: lowercase → NFC → strip
    non-alphanumerics → collapse whitespace → trim.  Pure Arrow RE2/utf8
    kernels (same dialect as the DuckDB oracle), zero per-row Python."""
    import pyarrow.compute as pc

    a = pc.utf8_lower(arr)
    a = pc.utf8_normalize(a, form="NFC")
    a = pc.replace_substring_regex(a, pattern=r"[^a-z0-9\s]", replacement=" ")
    a = pc.replace_substring_regex(a, pattern=r"\s+", replacement=" ")
    return pc.utf8_trim_whitespace(a)


def add_text_normalized(ds: Dataset, text_col: str = "text",
                        out_col: str = "text_norm") -> Dataset:
    import pyarrow as pa

    def _f(t: pa.Table) -> pa.Table:
        return t.append_column(out_col, normalize_text_array(t[text_col]))

    return ds.map_batches(_f, batch_format="pyarrow")


# ------------------------------------------------------------ collocations


def collocation_counts(
    ds: Dataset,
    min_count: int = 5,
    text_col: str = "text",
    n_buckets: int | None = None,
) -> Dataset:
    """Corpus-wide adjacent-bigram collocation counts: one row per bigram
    with ``n_xy >= min_count``, carrying the global unigram counts of both
    words — ``(w1, w2, n_xy, n_x, n_y)``, all exact int64, from which PMI
    / log-likelihood collocation scores derive with zero further passes.
    Tokenization is a single-space split (bit-compatible with SQL
    ``string_split(text, ' ')``).

    Plan (the tf·idf join-free co-group shape, tfidf_top_terms above):
    per-batch PARTIAL counts — the combiner that bounds both shuffles by
    the per-block vocabulary, never the raw token stream — then TWO
    hash co-group shuffles over count rows only.  Bucketing on ``w1``
    co-locates every partial of a bigram with every partial of its left
    word (same key, same hash), so the global sums AND the ``n_x`` attach
    both resolve inside the first shuffle; the summed unigram rows pass
    through re-keyed on the term so the second shuffle (on ``w2``)
    attaches ``n_y`` the same way.  No join operator, no driver pass,
    text payloads never enter an all-to-all."""
    import pyarrow as pa
    import ray as _ray

    from ..ops import add_hash_bucket
    from ..util import from_pandas_clean

    if n_buckets is None:
        n_buckets = max(8, 2 * int(_ray.cluster_resources().get("CPU", 8)))

    # explicit schemas: empty pandas object columns would otherwise infer
    # as Arrow null type and mismatch non-empty blocks in the shuffle
    part_schema = pa.schema(
        [("kind", pa.int64()), ("w1", pa.string()), ("w2", pa.string()),
         ("n", pa.int64())]
    )
    s1_schema = pa.schema(
        [("kind", pa.int64()), ("k", pa.string()), ("w1", pa.string()),
         ("w2", pa.string()), ("n_xy", pa.int64()), ("n_x", pa.int64())]
    )
    out_schema = pa.schema(
        [("w1", pa.string()), ("w2", pa.string()), ("n_xy", pa.int64()),
         ("n_x", pa.int64()), ("n_y", pa.int64())]
    )

    def _partials(df: pd.DataFrame):
        lists = df[text_col].fillna("").str.split(" ")
        e = lists.explode()
        toks = e.to_numpy()
        idx = e.index.to_numpy()
        uni = pd.Series(toks).value_counts()
        frames = [
            pd.DataFrame(
                {
                    "kind": np.zeros(len(uni), np.int64),
                    "w1": uni.index.astype(str),
                    "w2": "",
                    "n": uni.to_numpy(np.int64),
                }
            )
        ]
        if len(toks) >= 2:
            m = idx[:-1] == idx[1:]  # drop pairs that straddle two docs
            bg = pd.DataFrame({"w1": toks[:-1][m], "w2": toks[1:][m]})
            bc = bg.groupby(["w1", "w2"], sort=False).size().reset_index(name="n")
            frames.append(
                pd.DataFrame(
                    {
                        "kind": np.ones(len(bc), np.int64),
                        "w1": bc["w1"].astype(str),
                        "w2": bc["w2"].astype(str),
                        "n": bc["n"].to_numpy(np.int64),
                    }
                )
            )
        return from_pandas_clean(pd.concat(frames, ignore_index=True), part_schema)

    parts = ds.map_batches(_partials, batch_format="pandas")

    def _attach_nx(g: pd.DataFrame):
        u = g.loc[g["kind"] == 0].groupby("w1")["n"].sum()
        b = (
            g.loc[g["kind"] == 1]
            .groupby(["w1", "w2"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        b = b.loc[b["n"] >= min_count]
        out_b = pd.DataFrame(
            {
                "kind": np.ones(len(b), np.int64),
                "k": b["w2"].astype(str),
                "w1": b["w1"].astype(str),
                "w2": b["w2"].astype(str),
                "n_xy": b["n"].to_numpy(np.int64),
                "n_x": b["w1"].map(u).to_numpy(np.int64),
            }
        )
        out_u = pd.DataFrame(
            {
                "kind": np.zeros(len(u), np.int64),
                "k": u.index.astype(str),
                "w1": u.index.astype(str),
                "w2": "",
                "n_xy": u.to_numpy(np.int64),
                "n_x": np.zeros(len(u), np.int64),
            }
        )
        return from_pandas_clean(pd.concat([out_b, out_u], ignore_index=True), s1_schema)

    s1 = (
        add_hash_bucket(parts, "w1", n_buckets)
        .groupby("__bucket")
        .map_groups(_attach_nx, batch_format="pandas")
    )

    def _attach_ny(g: pd.DataFrame):
        u = g.loc[g["kind"] == 0].set_index("k")["n_xy"]
        b = g.loc[g["kind"] == 1]
        return from_pandas_clean(
            pd.DataFrame(
                {
                    "w1": b["w1"].astype(str),
                    "w2": b["w2"].astype(str),
                    "n_xy": b["n_xy"].to_numpy(np.int64),
                    "n_x": b["n_x"].to_numpy(np.int64),
                    "n_y": b["k"].map(u).to_numpy(np.int64),
                }
            ),
            out_schema,
        )

    return (
        add_hash_bucket(s1, "k", n_buckets)
        .groupby("__bucket")
        .map_groups(_attach_ny, batch_format="pandas")
    )


# ------------------------------------------------- substring-dedup rewrite


def strip_dup_spans(
    ds: Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 10,
    n_buckets: int | None = None,
) -> Dataset:
    """Substring-level dedup that REWRITES the corpus (the actionable form
    of ``dup_span_counts``, after Lee et al. 2022, arXiv:2107.06499):
    every n-token span occurring in >= 2 distinct docs survives only in
    its smallest-id document; every other occurrence's tokens are removed
    (overlapping duplicated spans merge into one removed range).  Output:
    ``(doc_id, text_clean, n_tokens_removed)`` for every input doc.
    Tokenization is single-space split, so the rewrite is exactly
    ``' '.join(kept tokens)`` — SQL-reproducible.

    Plan: occurrence rows ``(span_hash, doc_id, pos)`` — 24 B/row —
    through ONE hash(span) shuffle (a span's distinct-doc count, min-doc
    owner, and loser occurrences all resolve in its bucket), then the hit
    rows co-group with the corpus on ``hash(doc_id)`` — the only
    all-to-all the text payload crosses.  Coverage masks build with a
    difference array (``np.add.at`` + cumsum), never a per-token loop."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray as _ray

    from ..ops import add_hash_bucket_int
    from ..util import ensure_min_blocks, from_pandas_clean

    if n_buckets is None:
        n_buckets = max(8, 2 * int(_ray.cluster_resources().get("CPU", 8)))

    occ_schema = pa.schema(
        [("sh", pa.int64()), (id_col, pa.int64()), ("pos", pa.int64())]
    )

    def _occurrences(df: pd.DataFrame):
        tok_lists = df[text_col].fillna("").str.split(" ").tolist()
        all_toks = [tok for toks in tok_lists for tok in toks]
        ids_out = [np.empty(0, np.int64)]
        pos_out = [np.empty(0, np.int64)]
        sh_out = [np.empty(0, np.uint64)]
        if all_toks:
            hashes = url_hash_batch(all_toks)
            lens = np.fromiter(
                (len(tk) for tk in tok_lists), np.int64, count=len(tok_lists)
            )
            offs = np.concatenate(([0], np.cumsum(lens)))
            weights = _shingle_weights(n)
            ids = df[id_col].to_numpy()
            for i in range(len(tok_lists)):
                h = hashes[offs[i] : offs[i + 1]]
                if len(h) < n:
                    continue
                mat = np.lib.stride_tricks.sliding_window_view(h, n)
                win = (mat * weights).sum(axis=1, dtype=np.uint64)
                sh_out.append(win)
                pos_out.append(np.arange(len(win), dtype=np.int64))
                ids_out.append(np.full(len(win), ids[i], np.int64))
        return from_pandas_clean(
            pd.DataFrame(
                {
                    "sh": np.concatenate(sh_out).view(np.int64),
                    id_col: np.concatenate(ids_out),
                    "pos": np.concatenate(pos_out),
                }
            ),
            occ_schema,
        )

    occ = add_hash_bucket_int(
        ensure_min_blocks(ds).map_batches(_occurrences, batch_format="pandas"),
        "sh",
        n_buckets,
    )

    hit_schema = pa.schema(
        [("kind", pa.int64()), (id_col, pa.int64()), ("pos", pa.int64()),
         (text_col, pa.string())]
    )

    def _losers(g: pd.DataFrame):
        dd = g.groupby("sh")[id_col].nunique()
        dup = dd.index[dd.to_numpy() >= 2]
        g2 = g[g["sh"].isin(dup)]
        min_doc = g2.groupby("sh")[id_col].transform("min")
        hits = g2.loc[g2[id_col] != min_doc, [id_col, "pos"]]
        return from_pandas_clean(
            pd.DataFrame(
                {
                    "kind": np.ones(len(hits), np.int64),
                    id_col: hits[id_col].to_numpy(np.int64),
                    "pos": hits["pos"].to_numpy(np.int64),
                    text_col: "",
                }
            ),
            hit_schema,
        )

    hits = occ.groupby("__bucket").map_groups(_losers, batch_format="pandas")

    def _text_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.zeros(t.num_rows, np.int64)),
                id_col: t[id_col].cast(pa.int64()),
                "pos": pa.array(np.full(t.num_rows, -1, np.int64)),
                text_col: pc.fill_null(t[text_col].cast(pa.string()), ""),
            }
        )

    tagged = hits.union(ds.map_batches(_text_rows, batch_format="pyarrow"))

    out_schema = pa.schema(
        [(id_col, pa.int64()), ("text_clean", pa.string()),
         ("n_tokens_removed", pa.int64())]
    )

    def _rewrite(g: pd.DataFrame):
        texts = g.loc[g["kind"] == 0]
        hit = g.loc[g["kind"] == 1]
        hit_by_doc = {k: v["pos"].to_numpy(np.int64) for k, v in hit.groupby(id_col)}
        out_ids, out_txt, out_rm = [], [], []
        for did, txt in zip(texts[id_col].to_numpy(), texts[text_col].to_numpy()):
            toks = txt.split(" ")
            pos = hit_by_doc.get(did)
            if pos is None or len(pos) == 0:
                out_ids.append(int(did))
                out_txt.append(txt)
                out_rm.append(0)
                continue
            d = np.zeros(len(toks) + 1, np.int64)
            np.add.at(d, pos, 1)
            np.add.at(d, np.minimum(pos + n, len(toks)), -1)
            cover = np.cumsum(d[:-1]) > 0
            kept = [t for t, c in zip(toks, cover) if not c]
            out_ids.append(int(did))
            out_txt.append(" ".join(kept))
            out_rm.append(int(cover.sum()))
        return from_pandas_clean(
            pd.DataFrame(
                {
                    id_col: np.array(out_ids, np.int64),
                    "text_clean": pd.Series(out_txt, dtype=object),
                    "n_tokens_removed": np.array(out_rm, np.int64),
                }
            ),
            out_schema,
        )

    return (
        add_hash_bucket_int(tagged, id_col, n_buckets)
        .groupby("__bucket")
        .map_groups(_rewrite, batch_format="pandas")
    )


# ---------------------------------------------------------- tokenization


def build_vocab(ds: Dataset, v: int = 30, text_col: str = "text") -> pd.DataFrame:
    """Frequency-ranked vocabulary: the top-``v`` terms by (count desc,
    term asc) with ids 0..v-1 — the exact ``top_terms`` plan (vocab
    partials → groupby sum → per-block top-k slates), so the driver sees
    only candidate slates, never the vocabulary.  Returns
    ``(term, token_id, n)``."""
    out = top_terms(ds, k=v, text_col=text_col)
    out = out.reset_index(drop=True)
    out["token_id"] = np.arange(len(out), dtype=np.int64)
    return out[["term", "token_id", "n"]]


def tokenize_stats(
    ds: Dataset,
    vocab: pd.DataFrame,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Map every doc onto the (broadcast) vocabulary — the production
    tokenize-for-training step: per batch, ONE reindex lookup of the
    exploded token stream against the id table (C path), per-doc segment
    sums via bincount.  Output ``(doc_id, n_ids, n_unk, sum_ids)`` —
    ``sum_ids`` pins the exact id assignment, all int64 (SQL-checkable).
    The vocab ships once (``ray.put`` + per-worker ``cached_get``)."""
    import pyarrow as pa
    import ray as _ray

    from ..util import cached_get, from_pandas_clean

    ref = _ray.put(vocab.set_index("term")["token_id"])

    schema_out = pa.schema(
        [(id_col, pa.int64()), ("n_ids", pa.int64()),
         ("n_unk", pa.int64()), ("sum_ids", pa.int64())]
    )

    def _map(df: pd.DataFrame):
        ids_tab = cached_get(ref)
        s = df[text_col].fillna("").str.findall(WORD_RE)
        e = s.explode().dropna().str.lower()
        owner_lbl = e.index.to_numpy()
        row_pos = pd.Series(np.arange(len(df)), index=df.index)
        owner = row_pos.reindex(owner_lbl).to_numpy(np.int64) if len(e) else np.empty(0, np.int64)
        tok_ids = ids_tab.reindex(pd.Index(e.to_numpy(dtype=object))).to_numpy(np.float64) if len(e) else np.empty(0)
        known = ~np.isnan(tok_ids)
        n_ids = np.bincount(owner, minlength=len(df)).astype(np.int64)
        n_unk = np.bincount(owner[~known], minlength=len(df)).astype(np.int64)
        sum_ids = np.bincount(
            owner[known], weights=tok_ids[known], minlength=len(df)
        ).astype(np.int64)
        return from_pandas_clean(
            pd.DataFrame(
                {
                    id_col: df[id_col].to_numpy(np.int64),
                    "n_ids": n_ids,
                    "n_unk": n_unk,
                    "sum_ids": sum_ids,
                }
            ),
            schema_out,
        )

    return ds.map_batches(_map, batch_format="pandas")
