"""Text-analysis operators over the `documents` table: token counting,
quality signals, document fingerprinting, language-ID heuristic.

All vectorized per batch (pandas str kernels / hashlib over bytes);
stopword sets for the language heuristic are module constants compiled
once per worker process.
"""

from __future__ import annotations

import hashlib
import re

import pandas as pd

import ray.data as rd

from ..data.lexicon import STOPWORDS

_TOKEN_RE = re.compile(r"\S+")
_WORD_RE = re.compile(r"[a-z]+")


def _read_docs(sf_dir: str, columns=None) -> rd.Dataset:
    from .io import read_parquet_sized

    return read_parquet_sized(f"{sf_dir}/documents.parquet", columns=columns)


# ----------------------------------------------------------- token count

def token_counts(sf_dir: str) -> rd.Dataset:
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "n_tokens": df["text"].str.count(r"\S+").astype("int64")}
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


TOKEN_COUNTS_SQL = """
SELECT doc_id, length(regexp_extract_all(text, '\\S+')) AS n_tokens FROM documents
"""


# GPT-2-family pre-tokenizer shape, restricted to constructs BOTH
# Python's `regex` module and DuckDB's RE2 support identically (no
# lookahead — RE2 has none — and no case-insensitive contractions):
# contraction tail, space-prefixed letter run, space-prefixed digit
# run, space-prefixed punctuation run. Token COUNT under this pattern
# is the standard cheap proxy for BPE token count (each pre-token maps
# to >=1 BPE tokens; whitespace disappears into the prefixes).
BPE_PRETOKEN_PAT = r"'[a-z]+| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"


def token_counts_bpe(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_bpe_pretokens): token count under the BPE-ish
    pre-tokenizer regex — the \\S+ sibling above counts whitespace
    words; this one counts LM-tokenizer pre-tokens (punctuation split
    off, contractions split, digit runs separated). Differentially
    tested against the DuckDB RE2 oracle on unicode-rich text in
    pytest; the driver gate checks the full table.

    Requires the `regex` module (RE2-compatible \\p classes); counting
    is finditer-based (no match-list allocation) with the pattern
    compiled once per worker process at import."""
    import regex as _regex_mod

    pat = _regex_mod.compile(BPE_PRETOKEN_PAT)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        counts = [sum(1 for _ in pat.finditer(s)) for s in df["text"]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64").to_numpy(),
                "n_bpe_pretokens": pd.Series(counts, dtype="int64").to_numpy(),
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


# the pattern's leading '[a-z]+ needs its quote doubled inside the SQL literal
TOKEN_COUNTS_BPE_SQL = """
SELECT doc_id,
       length(regexp_extract_all(text, '''[a-z]+| ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+'))
         AS n_bpe_pretokens
FROM documents
"""


# ------------------------------------------------------- quality signals

def quality_signals(sf_dir: str) -> rd.Dataset:
    """Integer quality counters (lengths and char-class counts kept as
    ints so the oracle comparison is exact; a downstream score would be
    a weighted sum of these)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars": text.str.len().astype("int64"),
                "n_spaces": text.str.count(" ").astype("int64"),
                "n_digits": text.str.count(r"[0-9]").astype("int64"),
                "n_upper": text.str.count(r"[A-Z]").astype("int64"),
                "n_punct": text.str.count(r"[.,;:!?]").astype("int64"),
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


QUALITY_SIGNALS_SQL = """
SELECT doc_id,
       length(text) AS n_chars,
       length(text) - length(replace(text, ' ', '')) AS n_spaces,
       length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS n_digits,
       length(text) - length(regexp_replace(text, '[A-Z]', '', 'g')) AS n_upper,
       length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g')) AS n_punct
FROM documents
"""


# --------------------------------------------------------- fingerprints

def fingerprints(sf_dir: str) -> rd.Dataset:
    """Content fingerprint: md5 of the utf-8 text (exact; matches
    DuckDB's md5()) plus a 64-bit FNV-1a rolling hash (the cheap
    streaming fingerprint — no SQL equivalent, verified in pytest)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]]
        return pd.DataFrame({"doc_id": df["doc_id"], "text_md5": md5s})

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


FINGERPRINTS_SQL = """
SELECT doc_id, md5(text) AS text_md5 FROM documents
"""


def fnv1a64(text: str) -> int:
    """Deterministic 64-bit FNV-1a (pure Python, no randomized hash)."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# ------------------------------------------------- repetition signals

def word_repetition(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition/quality signals, kept as exact integers:
    total words, distinct words, and the count of the most frequent
    word — the inputs to repetition-ratio filters in training-data
    pipelines. Vectorized per batch (one Counter per doc)."""
    from collections import Counter

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n_words, n_distinct, top = [], [], []
        for t in df["text"]:
            words = _WORD_RE.findall(t.lower())
            c = Counter(words)
            n_words.append(len(words))
            n_distinct.append(len(c))
            top.append(max(c.values()) if c else 0)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_words": pd.Series(n_words, dtype="int64"),
                "n_distinct_words": pd.Series(n_distinct, dtype="int64"),
                "top_word_count": pd.Series(top, dtype="int64"),
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


WORD_REPETITION_SQL = """
WITH words AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
  FROM documents
), counts AS (
  SELECT doc_id, w, count(*) AS c FROM words GROUP BY doc_id, w
)
SELECT d.doc_id,
       -- CAST: sum(BIGINT) is HUGEINT in DuckDB → float64 in the compare
       -- frame → hash mismatch vs the engine's int64 (round-1 root cause)
       CAST(coalesce(s.n_words, 0) AS BIGINT) AS n_words,
       coalesce(s.n_distinct_words, 0) AS n_distinct_words,
       coalesce(s.top_word_count, 0) AS top_word_count
FROM documents d LEFT JOIN (
  SELECT doc_id, sum(c) AS n_words, count(*) AS n_distinct_words, max(c) AS top_word_count
  FROM counts GROUP BY doc_id
) s USING (doc_id)
"""


# ------------------------------------------------- corpus curation

CURATE_MIN_CHARS = 100
CURATE_MAX_TOP_WORD_PCT = 12  # integer percent: exact arithmetic on both sides


def curate_corpus(sf_dir: str) -> rd.Dataset:
    """The composite training-data curation pipeline: quality filter
    (length + repetition ratio) ∘ exact-dedup keeper ∘ stable output.
    Returns the surviving (doc_id, n_chars, n_words).

    Scale shape: ONE streaming pass computes per-doc stats and applies
    the quality filter, then one combiner-backed ``groupby(text_md5)``
    selects the keeper. No driver collect and no second pass (round 1
    re-ran exact_dedup and ray.put the keeper id set — O(distinct
    docs) driver memory). The dedup semi-join collapses into the
    aggregate because EXACT duplicates share the text byte-for-byte,
    so every group member has identical n_chars/n_words and an
    identical filter verdict: a group survives wholly or not at all,
    the keeper is Min(doc_id) over the group, and Min(n_chars)/
    Min(n_words) are the (common) values — provably equal to the SQL
    oracle's keepers-then-filter order. The shuffle carries one short
    row per distinct md5 per block, never the text."""
    import hashlib
    from collections import Counter

    from .agg import bucketed_group_reduce, hash_str_col

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"text_md5": [], "doc_id": [], "n_chars": [], "n_words": []}
        for doc_id, t in zip(df["doc_id"], df["text"]):
            if len(t) < CURATE_MIN_CHARS:
                continue  # too short
            words = _WORD_RE.findall(t.lower())
            if not words:
                continue
            c = Counter(words)
            # integer comparison — immune to float boundary divergence
            # between the engine and the SQL oracle
            if max(c.values()) * 100 > CURATE_MAX_TOP_WORD_PCT * len(words):
                continue  # repetitive
            rows["text_md5"].append(hashlib.md5(t.encode("utf-8")).hexdigest())
            rows["doc_id"].append(int(doc_id))
            rows["n_chars"].append(len(t))
            rows["n_words"].append(len(words))
        g = pd.DataFrame(
            {
                "text_md5": rows["text_md5"],
                "doc_id": pd.Series(rows["doc_id"], dtype="int64"),
                "n_chars": pd.Series(rows["n_chars"], dtype="int64"),
                "n_words": pd.Series(rows["n_words"], dtype="int64"),
            }
        )
        # combiner: min per md5 within the batch before the shuffle
        return g.groupby("text_md5", as_index=False).min()

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby("text_md5", as_index=False).min()
        return g[["doc_id", "n_chars", "n_words"]]

    from .io import parquet_num_rows

    return bucketed_group_reduce(
        _read_docs(sf_dir, ["doc_id", "text"]).map_batches(partial, batch_format="pandas"),
        lambda df: hash_str_col(df["text_md5"]),
        reduce,
        input_rows=parquet_num_rows(f"{sf_dir}/documents.parquet"),
    ).sort("doc_id")


CURATE_CORPUS_SQL = f"""
WITH keepers AS (
  SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
), words AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w FROM documents
), rep AS (
  SELECT doc_id, sum(c) AS n_words, max(c) AS top_count FROM (
    SELECT doc_id, w, count(*) AS c FROM words GROUP BY doc_id, w
  ) GROUP BY doc_id
)
SELECT d.doc_id, length(d.text) AS n_chars,
       CAST(rep.n_words AS BIGINT) AS n_words  -- HUGEINT→BIGINT, see WORD_REPETITION_SQL
FROM documents d
JOIN keepers USING (doc_id)
JOIN rep USING (doc_id)
WHERE length(d.text) >= {CURATE_MIN_CHARS}
  AND rep.top_count * 100 <= {CURATE_MAX_TOP_WORD_PCT} * rep.n_words
ORDER BY d.doc_id
"""


# ------------------------------------------------------ stopword signal

def stopword_stats(sf_dir: str) -> rd.Dataset:
    """Stopword-density quality signal (a natural-text-vs-boilerplate
    discriminator in training-data pipelines): exact integer counts so
    the oracle comparison is bitwise; a downstream filter would
    threshold n_stopwords / n_words."""
    en = STOPWORDS["en"]

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        words_list = [_WORD_RE.findall(t.lower()) for t in df["text"]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_words": pd.Series([len(w) for w in words_list], dtype="int64"),
                "n_stopwords": pd.Series(
                    [sum(1 for x in w if x in en) for w in words_list], dtype="int64"
                ),
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


def stopword_stats_sql() -> str:
    return f"""
SELECT doc_id,
       length(regexp_extract_all(lower(text), '[a-z]+')) AS n_words,
       {_sql_hits('en')} AS n_stopwords
FROM documents
"""


# ------------------------------------------------------ language heuristic

def language_guess(sf_dir: str) -> rd.Dataset:
    """n-gram/stopword language heuristic (stands in for the
    reference's fasttext LID, ner.py:93-96,154-161): per doc, count
    stopword hits per language; guess = argmax with fixed tie order
    (en < it < nl alphabetically), 'und' when no hits."""
    langs = sorted(STOPWORDS)  # deterministic tie order

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        guesses = []
        for t in df["text"]:
            words = _WORD_RE.findall(t.lower())
            best_lang, best_hits = "und", 0
            for lg in langs:
                hits = sum(1 for w in words if w in STOPWORDS[lg])
                if hits > best_hits:
                    best_lang, best_hits = lg, hits
            guesses.append(best_lang)
        return pd.DataFrame({"doc_id": df["doc_id"], "lang_guess": guesses})

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


def _sql_hits(lang: str) -> str:
    words = ", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang]))
    return (
        f"length(list_filter(regexp_extract_all(lower(text), '[a-z]+'), "
        f"w -> w IN ({words})))"
    )


LANGUAGE_GUESS_SQL = f"""
SELECT doc_id,
  CASE
    WHEN greatest(en_h, it_h, nl_h) = 0 THEN 'und'
    WHEN en_h >= it_h AND en_h >= nl_h THEN 'en'
    WHEN it_h >= nl_h THEN 'it'
    ELSE 'nl'
  END AS lang_guess
FROM (
  SELECT doc_id,
         {_sql_hits('en')} AS en_h,
         {_sql_hits('it')} AS it_h,
         {_sql_hits('nl')} AS nl_h
  FROM documents
)
"""
