"""O11-O13 — the opt-in date-finder stage (ner.py:272-309).

NOT part of the correctness oracle: the reference service never calls
``find_dates`` (api.py:59 passes only apply_regex/apply_gazetteers —
SURVEY.md §2.8 ruling 8). Shipped as an opt-in stage with the
reference's exact control flow: left-to-right occurrence search with a
moving ``starting_index``, suppression of candidates overlapping
existing mentions (O12), and the TIME vs T_OPENING label rule (O13,
T_OPENING iff an ORG/LOC mention exists).

The reference uses ``dateparser.search_dates`` with a fasttext-detected
language; neither library is in this container, so the default
``search_dates`` hook is a deterministic regex matcher for the
date shapes the corpus contains (dd/mm/yyyy, yyyy-mm-dd, d Month yyyy
in en/it/nl). ``make_dateparser_search_dates`` below is the complete
import-gated reference hook (dateparser + fasttext LID) — with the
libs installed it restores reference behavior bit-for-bit; the
surrounding control flow is identical either way.
"""

from __future__ import annotations

import re
from typing import Callable

from .textops import RULE_BASED_SCORE, opening_time_type, spans_overlap

_MONTHS = (
    "january|february|march|april|may|june|july|august|september|october|"
    "november|december|gennaio|febbraio|marzo|aprile|maggio|giugno|luglio|"
    "agosto|settembre|ottobre|novembre|dicembre|januari|februari|maart|"
    "april|mei|juni|juli|augustus|september|oktober|november|december"
)

_DATE_RE = re.compile(
    r"\b(\d{1,2}/\d{1,2}/\d{2,4}|\d{4}-\d{2}-\d{2}|\d{1,2}\s+(?:" + _MONTHS + r")\s+\d{4})\b",
    re.IGNORECASE,
)


def regex_search_dates(sentence: str, lang: str | None = None) -> list[tuple[str, None]]:
    """Deterministic stand-in for ``dateparser.search_dates``: returns
    [(matched_text, None), ...] in positional order."""
    return [(m.group(1), None) for m in _DATE_RE.finditer(sentence)]


def make_dateparser_search_dates(lid_model=None) -> Callable:
    """The REFERENCE-exact ``search_dates`` hook (ner.py:274-281),
    complete behind an import gate: fasttext LID over the
    alnum-cleaned sentence (``re.sub(r'[^a-zA-Z0-9 ]', '', s)``,
    ner.py:276-278) picks the language, then
    ``dateparser.search_dates(sentence, languages=[lang])`` finds the
    candidates; a ValueError from either step yields NO dates for that
    sentence (the reference's ``continue``, ner.py:280-281).

    ``lid_model`` is a loaded fasttext model (see
    ``FastTextLanguageID``); None skips detection and
    passes the caller's ``lang`` (or dateparser's auto-detection)
    through. With dateparser + fasttext installed,
    ``find_date_entities(s, ents, search_dates=make_dateparser_search_dates(lid))``
    runs the reference date path bit-for-bit (the control flow around
    the hook is already the ner.py:282-307 mirror)."""
    try:
        from dateparser.search import search_dates as _dp_search
    except ImportError as exc:
        raise NotImplementedError(
            "make_dateparser_search_dates needs the dateparser package "
            "(not in this sandbox). The code behind this gate is complete; "
            "use the default regex_search_dates hook instead."
        ) from exc

    def hook(sentence: str, lang: str | None = None) -> list[tuple[str, object]]:
        use_lang = lang
        try:
            if use_lang is None and lid_model is not None:
                cleaned = re.sub(r"[^a-zA-Z0-9 ]", "", sentence)
                labels, _probs = lid_model.predict(cleaned, k=1)
                if labels:
                    use_lang = re.sub("__label__", "", labels[0])
            return _dp_search(sentence, languages=[use_lang] if use_lang else None) or []
        except ValueError:
            return []  # reference: continue (ner.py:280-281)

    return hook


class FastTextLanguageID:
    """The fasttext language-ID stage (reference ner.py:93-96,
    154-161), complete behind an import gate for the optional fasttext
    package. Its model is the ``lid_model`` that
    ``make_dateparser_search_dates`` takes.

    Actor-pool shape: ``lid.176.bin`` loads ONCE per actor in
    ``__init__``; ``__call__`` tags an Arrow batch with one batched
    ``predict`` call. The model file resolves through
    ``tagger.resolve_artifact_path`` (local path → cache dir →
    optional registry fetch via $TRANSNER_RAY_MODEL_REGISTRY — the
    reference downloads it from the fasttext CDN at ner.py:156-161).
    Usage::

        ds.map_batches(FastTextLanguageID, fn_constructor_kwargs={
            "model_path": "/models/lid.176.bin"},
            concurrency=8, batch_format="pyarrow")

    Prediction mirrors the reference exactly: the alnum-cleaned text
    (``re.sub(r'[^a-zA-Z0-9 ]', '', s)``) goes to ``predict(k=1)`` and
    the ``__label__`` prefix is stripped (ner.py:277-278).
    """

    def __init__(self, model_path: str = "lid.176.bin", text_col: str = "text"):
        try:
            import fasttext
        except ImportError as exc:
            raise NotImplementedError(
                "FastTextLanguageID needs the fasttext package. The code "
                "behind this gate is complete; pass the language "
                "explicitly instead."
            ) from exc
        from .tagger import resolve_artifact_path

        self.model = fasttext.load_model(resolve_artifact_path(model_path))
        self.text_col = text_col

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa

        cleaned = [
            re.sub(r"[^a-zA-Z0-9 ]", "", t or "")
            for t in batch.column(self.text_col).to_pylist()
        ]
        labels, _probs = self.model.predict(cleaned, k=1)
        langs = [re.sub("__label__", "", ls[0]) if ls else None for ls in labels]
        return batch.append_column("ft_lang", pa.array(langs, pa.string()))


def find_date_entities(
    sentence: str,
    entities: list[dict],
    search_dates: Callable[[str, str | None], list[tuple[str, object]]] = regex_search_dates,
    lang: str | None = None,
) -> list[dict]:
    """Mirror of ``Transner.find_dates`` for ONE sentence
    (ner.py:282-307): for each found date, locate its next occurrence
    from ``starting_index``; the reference's boundary probe
    (``sentence[occurrence.end() + 1]``) raises IndexError at the
    string tail, where the except-branch admits the date only when it
    touches position 0 or the exact end — replicated.

    Two DELIBERATE divergences from the reference (SURVEY-style
    rulings; this stage is dead code in the reference service path, so
    neither is oracle-visible):

    1. Confidence dtype: the reference emits the STRING ``'0.9000'``
       in the try-branch (``_RULE_BASED_SCORE``, ner.py:64,293) and
       ``float(...)`` = 0.9 only in the IndexError branch
       (ner.py:304). A mixed str/float column cannot live in one Arrow
       column; this mirror emits float 0.9 in both branches — same
       printed value, uniform dtype.
    2. Repeated-date crash: when a date string occurs twice and
       ``starting_index`` has advanced past the last occurrence,
       ``re.search`` returns None and the reference crashes with
       AttributeError on ``occurrence.start()`` (ner.py:285-288). This
       mirror ``continue``s — a crash is not a behavior a pipeline
       stage may reproduce; the skipped candidate matches what the
       reference would have emitted for that sentence (nothing).
    """
    found: list[dict] = []
    dates = search_dates(sentence, lang)
    if not dates:
        return found
    starting_index = 0
    for date_text, _ in dates:
        occurrence = re.search(re.escape(date_text), sentence[starting_index:])
        if occurrence is None:
            continue
        time_type = opening_time_type(entities + found)
        try:
            boundary_ok = not (
                sentence[occurrence.start() - 1] == " "
                and sentence[occurrence.end() + 1] == " "
            )
            if boundary_ok and not spans_overlap(
                entities + found, occurrence.start(), occurrence.end()
            ):
                found.append(
                    {
                        "type": time_type,
                        "value": date_text,
                        "confidence": RULE_BASED_SCORE,
                        "offset": starting_index + occurrence.start(),
                        "detector": "date",
                    }
                )
        except IndexError:
            if occurrence.start() == 0 or occurrence.end() == len(sentence):
                if not spans_overlap(entities + found, occurrence.start(), occurrence.end()):
                    found.append(
                        {
                            "type": time_type,
                            "value": date_text,
                            "confidence": RULE_BASED_SCORE,
                            "offset": starting_index + occurrence.start(),
                            "detector": "date",
                        }
                    )
        starting_index = starting_index + occurrence.end()
    return found
