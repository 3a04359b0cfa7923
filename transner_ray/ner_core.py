"""Per-sentence NER composition — the reference's ``Transner.ner``
request path (ner.py:168-209) as one pure function.

Order of operations mirrors the reference exactly:
preprocess (lowercase + punctuation separation, ner.py:185) → tag
(model predict, ner.py:187) → BIO decode (ner.py:198) → offset
re-adjust + case restore (ner.py:200) → regex battery (ner.py:205) →
gazetteers: religions then nested-LOC-in-MISC (ner.py:207,240-269).
The mention list order is therefore: model mentions in decode order,
then regex mentions in pattern-then-position order, then religion
mentions, then nested LOCs — identical to the reference's appends.

Used by BOTH the sequential oracle and the Ray decode stage.
"""

from __future__ import annotations

from . import textops
from .gazetteers import Gazetteers
from .tagger import Tagger

SERVICE_THRESHOLD = 0.75  # api.py:121

# The public type list served by the reference's metadata endpoint
# (supported_types.json:1, served at api.py:74-82) — S12. DOCUMENT and
# PROCEDURE exist in the label space (ner.py:40-46) but are not in the
# public list; TIME/T_OPENING come only from the opt-in date stage.
SUPPORTED_TYPES = (
    "PERSON",
    "LOCATION",
    "ORGANIZATION",
    "MISCELLANEOUS",
    "IT_FISCAL_CODE",
    "EU_IBAN",
    "NL_CITIZEN_SERVICE_NUMBER",
    "UK_NATIONAL_ID_NUMBER",
    "EU_PHONE_NUMBER",
    "EMAIL_ADDRESS",
    "IPV4_ADDRESS",
    "RELIGION",
)
# URI is emitted by the regex battery (ner.py:62) yet missing from the
# reference's own public list — an inconsistency the reference ships;
# it belongs in the extended (actually-emittable) set.
EXTENDED_TYPES = SUPPORTED_TYPES + ("URI", "DOCUMENT", "PROCEDURE", "TIME", "T_OPENING")


def ner_sentence(
    sentence: str,
    tagger: Tagger,
    gazetteers: Gazetteers,
    threshold: float = SERVICE_THRESHOLD,
    apply_regex: bool = True,
    apply_gazetteers: bool = True,
) -> list[dict]:
    """All mentions of one original-case sentence:
    ``[{'type','value','offset','confidence','detector'}, ...]``."""
    proc, omap = textops.separate_punctuations(sentence, do_lower_case=True)
    word_labels, scores = tagger.tag(proc)
    if all(label == "O" for _, label in word_labels):
        # bio_decode opens a mention only at a B- or I- label, so an
        # all-"O" tagging (about a third of sentences) decodes to none
        entities = []
    else:
        entities = textops.bio_decode(proc, word_labels, scores, threshold)
        textops.adjust_entities_offset(entities, sentence, omap, adjust_case=True)
    for e in entities:
        e["detector"] = "model"
    if apply_regex:
        for e in textops.find_regex_entities(sentence):
            e["detector"] = "regex"
            entities.append(e)
    if apply_gazetteers:
        for e in textops.find_religion_entities(sentence, gazetteers.religions):
            e["detector"] = "gazetteer"
            entities.append(e)
        # reference iterates-and-appends over the same list (ner.py:254);
        # appended LOCATIONs are never MISC, so append-after is identical
        for e in textops.find_nested_loc_entities(entities, gazetteers.cities):
            e["detector"] = "gazetteer"
            entities.append(e)
    return entities
