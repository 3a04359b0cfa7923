"""Corpus indexing ops: inverted index, TF-IDF term weighting, exact
vocabulary size.

Beyond-reference coverage (the reference has no retrieval/indexing
code) — these are the IR-side primitives a training-data pipeline
needs next to dedup and curation: a posting-list index for
lookup/decontamination, TF-IDF weights for relevance filtering, and
the exact-distinct sibling of the HLL sketch (``ops/sketches.py``).

Scale design — everything rides the two word-shaped shuffles:

* Stage A (narrow): one row per DISTINCT (doc, word) with its in-doc
  term frequency. A document is a single input row, so per-doc tf is
  complete within whatever batch holds it — no cross-batch combine
  needed. Volume = the corpus's distinct (doc, word) pairs, already a
  large constant factor below raw tokens.
* Shuffle 1 (by word): the bucketed hash-aggregate
  (``ops/agg.bucketed_group_reduce``, fan-out scaled with input).
  Because stage-A rows are per-doc-distinct, a word's document
  frequency is just its row count in the bucket — df and the per-word
  reduce (postings / idf attach) come out of ONE shuffle, no join.
* Shuffle 2 (by doc, TF-IDF only): regroup the idf-carrying rows to
  pick each document's top-k terms. Output is k rows per doc.
* Stopword pruning bounds the hot keys: a web-scale stopword's
  posting list is O(corpus) and would concentrate in one reduce task,
  so ``inverted_index`` takes ``max_df_frac`` and drops terms above
  it (standard IR practice); the df-only row for a pruned term is
  still emitted so the pruning is observable downstream.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

import ray.data as rd

from .agg import bucketed_group_reduce, hash_str_col

_WORD_RE = re.compile(r"[a-z]+")

# knobs for the driver-gate entries (small, deterministic)
INDEX_MIN_DF = 2
TFIDF_TOP_K = 3


def _read_docs(sf_dir: str) -> rd.Dataset:
    from .io import read_parquet_sized

    return read_parquet_sized(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def _docs_rows(sf_dir: str) -> int | None:
    from .io import parquet_num_rows

    return parquet_num_rows(f"{sf_dir}/documents.parquet")



# Average distinct-terms-per-doc estimate used to size the reduce
# fan-out of the EXPLODED (doc, term) shuffles: bucketed_group_reduce's
# input here is ~TERMS_PER_DOC_EST × the document count, so sizing
# buckets from the doc count alone would under-provision the reduce by
# that factor at corpus scale (the bounded-task contract in ops/agg).
# Conservative for web text; harmless at small scale (the floor
# dominates below ~16M shuffle rows).
TERMS_PER_DOC_EST = 256


def _pair_rows(sf_dir: str) -> int | None:
    n = _docs_rows(sf_dir)
    return n * TERMS_PER_DOC_EST if n else None


def doc_term_freqs(df: pd.DataFrame) -> pd.DataFrame:
    """Stage A batch fn: distinct (doc_id, term, tf) rows. Tokens are
    the ``vocab_topk`` words ([a-z]+ runs of the lowercased text) so
    every indexing op shares one tokenizer with ``ops/traindata``."""
    doc_ids: list[np.ndarray] = []
    terms: list[list[str]] = []
    for doc_id, text in zip(df["doc_id"].to_numpy(), df["text"]):
        ws = _WORD_RE.findall(text.lower())
        terms.append(ws)
        doc_ids.append(np.full(len(ws), doc_id, dtype=np.int64))
    if not terms or not any(len(t) for t in terms):
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "term": pd.Series([], dtype="str"),
                "tf": pd.Series([], dtype="int64"),
            }
        )
    flat = pd.DataFrame(
        {
            "doc_id": np.concatenate(doc_ids),
            "term": [w for ws in terms for w in ws],
        }
    )
    g = flat.groupby(["doc_id", "term"], sort=False).size()
    idx = g.index.to_frame(index=False)
    return pd.DataFrame(
        {
            "doc_id": idx["doc_id"].to_numpy(np.int64),
            "term": idx["term"].to_numpy(),
            "tf": g.to_numpy().astype("int64"),
        }
    )


def _doc_term_dataset(sf_dir: str) -> rd.Dataset:
    return _read_docs(sf_dir).map_batches(doc_term_freqs, batch_format="pandas")


# ------------------------------------------------------ inverted index

def inverted_index(
    sf_dir: str,
    min_df: int = INDEX_MIN_DF,
    max_df_frac: float | None = None,
) -> rd.Dataset:
    """Posting-list index: one row per term with its document
    frequency and the sorted doc_id posting list. Terms below
    ``min_df`` are dropped (hapax noise); terms above
    ``max_df_frac * N`` keep their df row but get an EMPTY posting
    list (stopword pruning — the df stays observable, the O(corpus)
    list never materializes)."""
    n_docs = _docs_rows(sf_dir)
    df_cap = (
        int(max_df_frac * n_docs) if (max_df_frac is not None and n_docs) else None
    )

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        # df FIRST, lists only for survivors: a pruned stopword or a
        # hapax must never materialize its posting list at all (the
        # list for a hot term is O(corpus) in this one task)
        g = g.sort_values(["term", "doc_id"])
        df_col = g.groupby("term", sort=False)["term"].transform("size")
        keep = df_col.to_numpy() >= min_df
        listed = keep if df_cap is None else keep & (df_col.to_numpy() <= df_cap)
        lists = (
            g[listed].groupby("term", sort=True)["doc_id"].agg(list)
            if listed.any()
            else pd.Series(dtype="object")
        )
        counts = (
            g[keep].groupby("term", sort=True).size().astype("int64")
            if keep.any()
            else pd.Series(dtype="int64")
        )
        return pd.DataFrame(
            {
                "term": counts.index.to_numpy(),
                "df": counts.to_numpy(),
                "postings": counts.index.map(
                    lambda t: lists[t] if t in lists.index else []
                ).to_numpy(),
            }
        )

    return bucketed_group_reduce(
        _doc_term_dataset(sf_dir),
        lambda df: hash_str_col(df["term"]),
        reduce,
        input_rows=_pair_rows(sf_dir),
    )


INVERTED_INDEX_SQL = f"""
SELECT term, CAST(count(*) AS BIGINT) AS df,
       list(doc_id ORDER BY doc_id) AS postings
FROM (
  SELECT DISTINCT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents
)
GROUP BY term
HAVING count(*) >= {INDEX_MIN_DF}
"""


# ------------------------------------------------------------- TF-IDF

def tfidf_top_terms(sf_dir: str, k: int = TFIDF_TOP_K) -> rd.Dataset:
    """Per-document top-k terms by TF-IDF (tf × ln(N/df)), ties broken
    by term asc. Shuffle 1 (by term) attaches each term's global df to
    its (doc, term, tf) rows; shuffle 2 (by doc) ranks in-doc. The
    score column is float64 — the gate's round(6) absorbs libm ulp
    differences vs the SQL oracle, and selection flips would need two
    terms' scores within ~1 ulp straddling the k boundary (validated
    clean at all three test tiers)."""
    n_docs = _docs_rows(sf_dir)
    if not n_docs:
        n_docs = int(_read_docs(sf_dir).count())

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["df"] = g.groupby("term")["term"].transform("size").astype("int64")
        return g

    with_df = bucketed_group_reduce(
        _doc_term_dataset(sf_dir),
        lambda df: hash_str_col(df["term"]),
        attach_df,
        input_rows=_pair_rows(sf_dir),
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["tfidf"] = g["tf"].to_numpy(np.float64) * np.log(
            float(n_docs) / g["df"].to_numpy(np.float64)
        )
        g = g.sort_values(["doc_id", "tfidf", "term"], ascending=[True, False, True])
        return g.groupby("doc_id", sort=False).head(k)

    from .dedup import _mix64

    return bucketed_group_reduce(
        with_df,
        lambda df: _mix64(df["doc_id"].to_numpy(np.uint64)),
        topk,
        input_rows=_pair_rows(sf_dir),
    )


TFIDF_SQL = f"""
WITH n AS (
  SELECT CAST(count(*) AS DOUBLE) AS n_docs FROM documents
), dt AS (
  SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
  FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
    FROM documents
  )
  GROUP BY doc_id, term
), d AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df FROM dt GROUP BY term
), scored AS (
  SELECT dt.doc_id, dt.term, dt.tf, d.df,
         dt.tf * ln(n.n_docs / d.df) AS tfidf,
         row_number() OVER (
           PARTITION BY dt.doc_id
           ORDER BY dt.tf * ln(n.n_docs / d.df) DESC, dt.term ASC
         ) AS rn
  FROM dt JOIN d USING (term) CROSS JOIN n
)
SELECT doc_id, term, tf, df, tfidf FROM scored WHERE rn <= {TFIDF_TOP_K}
"""


# ------------------------------------------------- exact distinct terms

def distinct_terms(sf_dir: str) -> pd.DataFrame:
    """Exact corpus vocabulary size — the ground-truth sibling of the
    HLL sketch (``ops/sketches.approx_distinct_tokens``): per-batch
    unique terms, one bucketed shuffle of the uniques, per-bucket
    nunique, driver sums ``num_buckets`` short rows."""

    def batch_uniques(df: pd.DataFrame) -> pd.DataFrame:
        seen: set[str] = set()
        for t in df["text"]:
            seen.update(_WORD_RE.findall(t.lower()))
        return pd.DataFrame({"term": pd.Series(sorted(seen), dtype="object")})

    uniq = _read_docs(sf_dir).map_batches(batch_uniques, batch_format="pandas")

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(g["term"].nunique())]})

    per_bucket = bucketed_group_reduce(
        uniq,
        lambda df: hash_str_col(df["term"]),
        reduce,
        input_rows=_pair_rows(sf_dir),
    ).to_pandas()
    return pd.DataFrame({"n_terms": [int(per_bucket["n"].sum())]})


DISTINCT_TERMS_SQL = """
SELECT CAST(count(DISTINCT term) AS BIGINT) AS n_terms
FROM (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents
)
"""


# --------------------------------------------------------------- BM25

BM25_K1 = 1.5
BM25_B = 0.75
BM25_QUERY = ("hash", "join", "stream")  # deterministic gate query
BM25_TOP_K = 10


def bm25_topk(
    sf_dir: str,
    query: tuple[str, ...] = BM25_QUERY,
    k: int = BM25_TOP_K,
) -> pd.DataFrame:
    """Text retrieval: global top-k documents by BM25 against a fixed
    term query.

    Two passes, both scale-safe:

    1. corpus stats — one streaming aggregate: per-batch partials of
       (Σ doc length, per-query-term document frequency); the driver
       sums one short row per batch. N comes from the parquet footer.
    2. score-and-select — per batch, score every doc against the
       (broadcast-scale) query stats and keep the batch-local top-k;
       the driver merges blocks × k rows (the ann_brute_force
       pattern — no full-corpus sort, no shuffle at all).

    Constants k1/b are exact binary doubles and the score expression
    tree mirrors the SQL oracle's operation-for-operation, so engine
    and oracle agree far inside the gate's round(6) comparison."""
    from .io import parquet_num_rows

    qterms = tuple(sorted(query))
    n_docs = parquet_num_rows(f"{sf_dir}/documents.parquet")
    if not n_docs:  # unreadable footer — same fallback as tfidf_top_terms
        n_docs = int(_read_docs(sf_dir).count())

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        total_len = 0
        dfs = dict.fromkeys(qterms, 0)
        for t in df["text"]:
            ws = _WORD_RE.findall(t.lower())
            total_len += len(ws)
            present = set(ws)
            for qt in qterms:
                if qt in present:
                    dfs[qt] += 1
        row = {"total_len": [total_len]}
        for qt in qterms:
            row[f"df_{qt}"] = [dfs[qt]]
        return pd.DataFrame(row)

    parts = (
        _read_docs(sf_dir)
        .map_batches(stats_partial, batch_format="pandas")
        .to_pandas()  # one short row per batch
        .sum()
    )
    avgdl = int(parts["total_len"]) / n_docs
    idf = {
        qt: float(
            np.log((n_docs - int(parts[f"df_{qt}"]) + 0.5)
                   / (int(parts[f"df_{qt}"]) + 0.5) + 1.0)
        )
        for qt in qterms
    }

    def score_topk(df: pd.DataFrame) -> pd.DataFrame:
        out_ids, out_scores = [], []
        for doc_id, t in zip(df["doc_id"].to_numpy(), df["text"]):
            ws = _WORD_RE.findall(t.lower())
            dl = len(ws)
            score = 0.0
            hit = False
            for qt in qterms:
                tf = ws.count(qt)
                if tf:
                    hit = True
                    score += idf[qt] * (
                        (tf * (BM25_K1 + 1.0))
                        / (tf + BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dl / avgdl)))
                    )
            if hit:
                out_ids.append(doc_id)
                out_scores.append(score)
        part = pd.DataFrame(
            {
                "doc_id": pd.Series(out_ids, dtype="int64"),
                "score": pd.Series(out_scores, dtype="float64"),
            }
        )
        return part.sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).head(k)

    cand = (
        _read_docs(sf_dir)
        .map_batches(score_topk, batch_format="pandas")
        .to_pandas()  # blocks × k rows
    )
    return (
        cand.sort_values(["score", "doc_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def _bm25_query_list() -> str:
    return "[" + ", ".join(f"'{t}'" for t in sorted(BM25_QUERY)) + "]"


BM25_TOPK_SQL = f"""
WITH q AS (SELECT unnest({_bm25_query_list()}) AS term),
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents
),
dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT CAST(count(*) AS BIGINT) FROM documents) AS n,
         (SELECT CAST(SUM(dl) AS DOUBLE) FROM dl)
           / (SELECT count(*) FROM documents) AS avgdl
),
d AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM tok JOIN q USING (term) GROUP BY term
),
tf AS (
  SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
  FROM tok JOIN q USING (term) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         SUM(
           ln((stats.n - d.df + 0.5) / (d.df + 0.5) + 1.0) *
           ((tf.tf * ({BM25_K1!r} + 1.0))
            / (tf.tf + {BM25_K1!r} * ((1.0 - {BM25_B!r}) + {BM25_B!r} * (dl.dl / stats.avgdl))))
         ) AS score
  FROM tf JOIN dl USING (doc_id) JOIN d USING (term) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, score FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {BM25_TOP_K}
"""


# ------------------------------------------------------- bigram stats

BIGRAM_TOP_K = 50


def bigram_topk(sf_dir: str, k: int = BIGRAM_TOP_K) -> pd.DataFrame:
    """Global top-k adjacent word pairs — the n-gram LM statistic the
    data-quality side of a training pipeline reads (boilerplate and
    templated text surface as abnormally heavy bigrams). Same shape as
    ``traindata.vocab_topk`` one level up: per-batch combiner counts,
    bucketed hash-aggregate (fan-out sized to the exploded pair
    count), per-bucket top-k, driver merges buckets × k short rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        grams: dict[str, int] = {}
        for t in df["text"]:
            ws = _WORD_RE.findall(t.lower())
            for a, b in zip(ws, ws[1:]):
                g = a + " " + b
                grams[g] = grams.get(g, 0) + 1
        return pd.DataFrame(
            {
                "bigram": pd.Series(list(grams), dtype="object"),
                "cnt": pd.Series(list(grams.values()), dtype="int64"),
            }
        )

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("bigram", as_index=False)["cnt"].sum()
        return tot.sort_values(["cnt", "bigram"], ascending=[False, True]).head(k)

    per_bucket = bucketed_group_reduce(
        _read_docs(sf_dir).map_batches(partial, batch_format="pandas"),
        lambda df: hash_str_col(df["bigram"]),
        reduce,
        input_rows=_pair_rows(sf_dir),
    ).to_pandas()  # buckets × k short rows
    return (
        per_bucket.sort_values(["cnt", "bigram"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


BIGRAM_TOPK_SQL = f"""
WITH t AS (
  SELECT regexp_extract_all(lower(text), '[a-z]+') AS ws FROM documents
), p AS (
  SELECT unnest(ws[1:len(ws)-1]) AS w1, unnest(ws[2:len(ws)]) AS w2 FROM t
)
SELECT w1 || ' ' || w2 AS bigram, CAST(count(*) AS BIGINT) AS cnt
FROM p GROUP BY 1
ORDER BY cnt DESC, bigram ASC
LIMIT {BIGRAM_TOP_K}
"""
