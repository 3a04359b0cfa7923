"""Explicit Arrow schemas for every stage boundary (SURVEY.md §1.2).

The reference passes implicit dicts/lists between functions
(reference ner.py:169-175 docstring, utils/preprocessing.py shapes);
here every Dataset boundary has a declared ``pyarrow.Schema`` so blocks
are typed, prunable and zero-copy.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------- pages
# Input table shape fixed by BASELINE.json input_hint.
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# ------------------------------------------------------------ extracted
# After stage E (extract): html dropped immediately (projection pushdown).
EXTRACTED = pa.schema(
    [
        ("url", pa.string()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# ------------------------------------------------------------ sentences
# After stage S (sentence split). char offsets are into the page's
# extracted text. The sliding window over >150-word sentences
# (reference api.py:27 cap) is INTERNAL to the mention-detection stage
# (windows never inflate rows through the object store; overlap dedup
# is local to the sentence).
SENTENCES = pa.schema(
    [
        ("url", pa.string()),
        ("sent_idx", pa.int32()),
        ("sentence", pa.string()),
        ("char_start", pa.int64()),
        ("char_end", pa.int64()),
        ("lang", pa.string()),
    ]
)

# ----------------------------------------------- nested mention rows
# Output of the mention-detection actor stage: one row per SENTENCE
# with its mention list kept nested (list<struct>) — exactly the
# reference's per-sentence `entities` list (ner.py:386) — so the triple
# extractor sees the whole sentence without a regroup shuffle. Exploded
# to MENTIONS right after (SURVEY.md §4.3: explode once, not per stage).
MENTION_STRUCT = pa.struct(
    [
        ("type", pa.string()),
        ("value", pa.string()),
        ("offset", pa.int64()),
        ("confidence", pa.float64()),
        ("detector", pa.string()),
    ]
)

SENTENCE_MENTIONS = pa.schema(
    [
        ("url", pa.string()),
        ("sent_idx", pa.int32()),
        ("sentence", pa.string()),
        ("char_start", pa.int64()),
        ("lang", pa.string()),
        ("mentions", pa.list_(MENTION_STRUCT)),
    ]
)

# ------------------------------------------------------------- mentions
# One row per detected mention. `offset` is a char offset into the
# original-case sentence (reference ner.py:401-404); `doc_offset` adds
# the sentence's char_start. detector ∈ {model, regex, gazetteer, date}.
MENTIONS = pa.schema(
    [
        ("url", pa.string()),
        ("sent_idx", pa.int32()),
        ("mention_idx", pa.int32()),
        ("type", pa.string()),
        ("value", pa.string()),
        ("offset", pa.int64()),
        ("doc_offset", pa.int64()),
        ("confidence", pa.float64()),
        ("detector", pa.string()),
    ]
)

# -------------------------------------------------------------- triples
TRIPLES = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("subj_type", pa.string()),
        ("obj_type", pa.string()),
        ("confidence", pa.float64()),
        ("url", pa.string()),
        ("sent_idx", pa.int32()),
    ]
)

# ---------------------------------------------------- canonical entities
ENTITIES = pa.schema(
    [
        ("entity_id", pa.string()),
        ("canonical", pa.string()),
        ("type", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("support", pa.int64()),
    ]
)

# ---------------------------------------------------------------- edges
# Adjacency-list edge table, globally sorted by subj_id (north_star).
EDGES = pa.schema(
    [
        ("subj_id", pa.string()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("weight", pa.int64()),
        ("sources", pa.list_(pa.string())),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    """An empty Arrow table with the given schema (for empty-batch paths)."""
    return schema.empty_table()


# ------------------------------------------------------------ partition
# The partition of the resumable job a row belongs to: its input file's
# (pipelines/kg.py::run_partitioned). The narrow kernels carry it when
# their input has it; without it they return their schema unchanged.
PARTITION = pa.field("partition", pa.int32())


def with_partition(out: pa.Table, batch: pa.Table, rows=None) -> pa.Table:
    """``out`` plus ``batch``'s partition column, taken at ``rows`` (the
    ``batch`` row of each ``out`` row) when given; ``out`` itself when
    ``batch`` has no partition column."""
    if PARTITION.name not in batch.column_names:
        return out
    col = batch.column(PARTITION.name)
    return out.append_column(PARTITION, col if rows is None else col.take(rows))
