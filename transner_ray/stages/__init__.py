"""Ray Data stages of the KG pipeline (SURVEY.md §3.4).

Each stage is a ``map_batches``-compatible callable with declared
input/output schemas. Every stage runs as plain Ray tasks by default,
mention detection included (``detect.make_detect_fn``: tagger +
gazetteer state cached once per worker process), so Ray fuses the
narrow spine into one operator. The ``MentionDetector`` callable class
is the actor-pool shape, used for model taggers (BERT) or when asked
for with ``use_actor_pool=True``.
"""

from .extract import extract_text_batch
from .split import split_sentences_batch
from .detect import MentionDetector, explode_mentions_batch
from .triples import triples_batch
from .graph import link_triples_batch

__all__ = [
    "extract_text_batch",
    "split_sentences_batch",
    "MentionDetector",
    "explode_mentions_batch",
    "triples_batch",
    "link_triples_batch",
]
