"""Stage E — deterministic text extraction (html → text).

Input: PAGES batches (pyarrow, zero-copy from the object store); the
``html`` binary column — the one wide column — is DROPPED here, so
nothing downstream ever shuffles it (SURVEY.md §4.3). Output text is
byte-identical per url to the sequential oracle extractor (the
north-star per-row invariant) because both call
``transner_ray.htmlops.extract_text``.
"""

from __future__ import annotations

import pyarrow as pa

from ..htmlops import extract_text_safe
from ..schemas import EXTRACTED, with_partition


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """Per-row byte parsing is the compute here; everything else stays
    Arrow. Malformed rows (bad container / bad utf-8) are DROPPED, not
    fatal — at crawl scale a block must survive its dirty rows. Valid
    rows remain byte-identical to the sequential oracle extractor. A
    ``partition`` column is carried through."""
    texts = [extract_text_safe(h) for h in batch.column("html").to_pylist()]
    keep = [i for i, t in enumerate(texts) if t is not None]
    if len(keep) != len(texts):
        batch = batch.take(pa.array(keep, type=pa.int64()))  # [] alone is null-typed
        texts = [texts[i] for i in keep]
    out = pa.table(
        {
            "url": batch.column("url"),
            "text": pa.array(texts, type=pa.string()),
            "lang": batch.column("lang"),
        },
        schema=EXTRACTED,
    )
    return with_partition(out, batch)
