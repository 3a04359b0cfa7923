"""Stage T — triple extraction over nested sentence-mention rows.

Stateless ``map_batches`` function: SENTENCE_MENTIONS → TRIPLES, run as
a plain task fused after the task-based detect stage (or after the
detector actor pool, for model taggers). The per-sentence rule set is
the frozen ``kg.extract_triples``; no shuffle is needed because the
mention list is still nested per sentence (the explode-to-flat-mentions
happens on a separate branch).

The ``list<struct>`` mentions column is read as flat Arrow columns (list
offsets plus one child array per struct field), never converted row by
row: building a Python dict per mention cost 5× the rules themselves.
Every rule pairs two mentions of different types, so a sentence with
fewer than two mentions cannot yield a triple and is skipped before any
Python object is built for it (pinned by
``tests/test_invariants.py::test_extract_triples_needs_two_mentions``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kg import extract_triples
from ..schemas import TRIPLES

_RULE_FIELDS = ("type", "value", "offset", "confidence")  # what extract_triples reads


def _values(a: pa.Array) -> list:
    """``a.to_pylist()`` by way of numpy, about 10× faster. Numbers are
    read zero-copy, which raises on a null rather than make it NaN."""
    if pa.types.is_string(a.type):
        return a.to_numpy(zero_copy_only=False).tolist()
    return a.to_numpy().tolist()


def triples_batch(batch: pa.Table) -> pa.Table:
    lists = batch.column("mentions").combine_chunks()
    counts = pc.fill_null(pc.list_value_length(lists), 0).to_numpy(zero_copy_only=False)
    rows = np.flatnonzero(counts >= 2)
    # ``.offsets`` index the unsliced ``.values``: rebase them onto the
    # child range this (possibly sliced) batch covers, and read only that
    offsets = lists.offsets.to_numpy(zero_copy_only=False)
    child = lists.values.slice(offsets[0], offsets[-1] - offsets[0])
    fields = [_values(child.field(name)) for name in _RULE_FIELDS]
    starts = offsets[rows] - offsets[0]
    spans = zip(starts.tolist(), (starts + counts[rows]).tolist())

    cols: dict[str, list] = {name: [] for name in TRIPLES.names}
    kept = [
        _values(batch.column(c).take(rows).combine_chunks())
        for c in ("url", "sent_idx", "sentence")
    ]
    for url, si, sentence, (start, end) in zip(*kept, spans):
        mentions = [
            dict(zip(_RULE_FIELDS, values))
            for values in zip(*(f[start:end] for f in fields))
        ]
        for t in extract_triples(sentence, mentions):
            for name in ("subj", "pred", "obj", "subj_type", "obj_type", "confidence"):
                cols[name].append(t[name])
            cols["url"].append(url)
            cols["sent_idx"].append(si)
    return pa.table([pa.array(cols[f.name], f.type) for f in TRIPLES], schema=TRIPLES)
