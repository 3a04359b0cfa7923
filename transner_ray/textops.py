"""Frozen per-row text semantics mirrored from the reference.

Every function here is a PURE function re-implementing, bit-for-bit, a
transform of the reference service (citations are file:line into
``/root/reference``).  Both the sequential oracle (`transner_ray.oracle`)
and the distributed Ray stages call these same functions, so
engine-vs-oracle mention equality holds by construction; what the tests
verify on top is the plumbing (offsets across stages, batching,
parallelism invariance).

Deliberate bug-fidelity rulings (SURVEY.md §2.8):
  * nested-LOC-in-MISC emits type ``LOCATION`` with confidence 0.9
    (the reference crashes at ner.py:266 with ``round('0.9000', 2)``
    and would emit short type 'LOC' at ner.py:264 — evident intent
    implemented, divergence documented).
  * religion gazetteer offset = FIRST occurrence of the word
    (ner.py:247), one mention per occurrence in the word list —
    replicated exactly.
  * BIO decode confidence is string-truncated:
    ``float(str(np.mean(scores))[:6])`` (ner.py:403) — replicated.
  * trailing ``' è'`` strip on B-close and O-close but NOT on the
    end-of-string close (ner.py:405-407,442-444 vs 453-459) —
    asymmetry replicated.
"""

from __future__ import annotations

import re
import string
from typing import Iterable

import numpy as np

# --------------------------------------------------------------------------
# O1 — punctuation separation preprocess (utils/preprocessing.py:34-89)
# --------------------------------------------------------------------------

# the punctuation alphabet: string.punctuation plus curly quotes
# (utils/preprocessing.py:42)
PUNCTS = frozenset(string.punctuation + "“" + "”")


import re as _re

_PUNCT_RE = _re.compile("[" + _re.escape(string.punctuation + "“”") + "]")


def _separate_punctuations_percchar(s: str, do_lower_case: bool = True) -> tuple[str, list[int]]:
    """Literal per-char mirror of ``NERSeparatePunctuations.preprocess``
    (utils/preprocessing.py:47-89) — kept as the differential-test
    reference for the span-based fast implementation below."""
    out: list[str] = []
    omap: list[int] = []
    n = len(s)
    for i, ch in enumerate(s):
        if ch == " " and s[i - 1] in PUNCTS:
            # space following punctuation was already emitted below
            # (note: i==0 gives s[-1], same wrap-around as the reference)
            continue
        if ch in PUNCTS:
            if i > 0 and s[i - 1] != " " and out and out[-1] != " ":
                out.append(" ")
                omap.append(-1)
            out.append(ch)
            omap.append(i)
            if n > i + 1:
                out.append(" ")
                omap.append(i + 1 if s[i + 1] == " " else -1)
        else:
            out.append(ch)
            omap.append(i)
    proc = "".join(out)
    if do_lower_case:
        proc = proc.lower()
    assert len(proc) == len(omap)
    return proc, omap


def separate_punctuations(s: str, do_lower_case: bool = True) -> tuple[str, list[int]]:
    """Insert spaces around punctuation, tracking a processed→original
    char offset map (``-1`` marks inserted chars).

    Semantics of ``NERSeparatePunctuations.preprocess``
    (utils/preprocessing.py:47-89): a space directly after punctuation
    is skipped (already emitted), punctuation gets a leading space when
    glued to a word, and a trailing space unless string-final; the
    reference's ``s[i-1]`` wrap-around at i==0 is replicated.

    Implementation: span-based — non-punctuation runs are copied with
    one slice + one ``range`` extend instead of per-char appends
    (~3x; bit-equality with the per-char mirror is enforced by a
    differential property test). Returns ``(processed, offset_map)``
    with equal lengths.
    """
    if not _PUNCT_RE.search(s):
        # fast path: nothing to separate; wrap-around skip can only
        # trigger when the string HAS punctuation
        return (s.lower() if do_lower_case else s), list(range(len(s)))

    n = len(s)
    parts: list[str] = []
    omap: list[int] = []
    last_char = ""  # last char emitted so far
    prev = 0  # next original index to copy

    def copy_span(start: int, stop: int) -> None:
        nonlocal last_char
        if start < stop and s[start] == " " and s[start - 1] in PUNCTS:
            start += 1  # space directly after punctuation: already emitted
        if start < stop:
            parts.append(s[start:stop])
            omap.extend(range(start, stop))
            last_char = s[stop - 1]

    for m in _PUNCT_RE.finditer(s):
        i = m.start()
        copy_span(prev, i)
        if i > 0 and s[i - 1] != " " and last_char and last_char != " ":
            parts.append(" ")
            omap.append(-1)
        parts.append(s[i])
        omap.append(i)
        last_char = s[i]
        if n > i + 1:
            parts.append(" ")
            omap.append(i + 1 if s[i + 1] == " " else -1)
            last_char = " "
        prev = i + 1
    copy_span(prev, n)

    proc = "".join(parts)
    if do_lower_case:
        proc = proc.lower()
    assert len(proc) == len(omap)
    return proc, omap


# --------------------------------------------------------------------------
# O2 — offset re-adjustment + case restoration (utils/preprocessing.py:92-119)
# --------------------------------------------------------------------------


def adjust_entities_offset(
    entities: list[dict],
    original: str,
    offset_map: list[int],
    adjust_case: bool = True,
) -> None:
    """Map each entity's processed-coordinate ``offset`` back to the
    original string and (optionally) restore original-case values.

    In-place, like the reference. Bug-faithful detail: the case-restore
    pass indexes ``offset_map`` (processed coords) with the already
    re-mapped ORIGINAL offset (utils/preprocessing.py:109-115) — kept
    verbatim because mention equality vs the oracle flows through it.
    """
    for e in entities:
        e["offset"] = offset_map[e["offset"]]
    if not adjust_case:
        return
    for e in entities:
        start = e["offset"]
        inserted = 0
        for i in range(start, start + len(e["value"])):
            if offset_map[i] == -1:
                inserted += 1
        end = start + len(e["value"]) - inserted
        e["value"] = original[start:end]
        if e["value"] and e["value"][-1] == " ":  # (preprocessing.py:118)
            e["value"] = e["value"][:-1]


# --------------------------------------------------------------------------
# O5 — BIO decode / mention assembly (ner.py:364-462)
# --------------------------------------------------------------------------

SHORT_TO_TYPE = {
    "PER": "PERSON",
    "LOC": "LOCATION",
    "ORG": "ORGANIZATION",
    "MISC": "MISCELLANEOUS",
    "DOC": "DOCUMENT",
    "PROC": "PROCEDURE",
}  # (ner.py:40-46)

BIO_LABELS = (
    "O",
    "B-PER", "I-PER",
    "B-LOC", "I-LOC",
    "B-ORG", "I-ORG",
    "B-MISC", "I-MISC",
    "B-DOC", "I-DOC",
    "B-PROC", "I-PROC",
)  # (ner.py:24-38)


def _trunc_conf(scores: list[float]) -> float:
    """``float(str(np.mean(scores))[:6])`` — the reference's 4-ish-digit
    string truncation (ner.py:403). Thresholding at 0.75 depends on it.

    Fast path: for n ≤ 7 ``sum/len`` is bit-identical to np.mean
    (numpy's 8-way-unrolled pairwise accumulation only changes the
    addition order from n = 8 up — verified empirically over 20k random
    cases and guarded by a property test); np.mean costs ~25 µs per
    call, which dominated the decode hot path."""
    n = len(scores)
    if n <= 7:
        return float(str(sum(scores) / n)[:6])
    return float(str(np.mean(scores))[:6])


def bio_decode(
    s: str,
    word_labels: Iterable[tuple[str, str]],
    scores: Iterable[float],
    threshold: float = 0.0,
) -> list[dict]:
    """Assemble typed mentions from a (word, BIO-label) stream over the
    processed string ``s``. State machine mirror of ``make_ner_dict``
    (ner.py:364-462) including its quirks:

    * char offset tracked via ``s[curr_offset:].find(word)`` (ner.py:397)
      — mis-anchors on repeated tokens exactly like the reference;
    * ``B-`` closes any active entity (with ``' è'`` strip, ner.py:405-407);
    * orphan ``I-`` opens; same-type ``I-`` extends; type-switch ``I-``
      closes + opens (ner.py:416-436);
    * ``O`` closes with ``' è'`` strip and resets scores to ``[score]``
      (ner.py:437-450 — the stale-score reset is reference-faithful);
    * an end-of-string close fires when ``curr_offset >= len(s)`` and
      does NOT strip ``' è'`` (ner.py:452-459). NOTE: since
      ``curr_offset`` is the START offset of the last matched word,
      this condition is effectively unreachable — an entity still
      active at the end of the prediction stream is DROPPED. That is
      the snapshot's real behavior (the README.md golden showing a
      sentence-final LOCATION predates it); replicated as-is, and kept
      here as dead-code fidelity.
    """
    entities: list[dict] = []
    curr_offset = 0
    beginning_offset: int | None = None
    active_type: str | None = None
    active_value = ""
    active_scores: list[float] = []

    def _emit(strip_e: bool) -> None:
        ent = {
            "type": SHORT_TO_TYPE[active_type],
            "value": active_value[:-1],
            "confidence": _trunc_conf(active_scores),
            "offset": beginning_offset,
        }
        if strip_e and ent["value"][-2:] == " è":
            ent["value"] = ent["value"][:-2]
        if ent["confidence"] >= threshold:
            entities.append(ent)

    for (word, label), score in zip(word_labels, scores):
        curr_offset = curr_offset + s[curr_offset:].find(word)
        kind = label[0]
        if kind == "B":
            if active_type:
                _emit(strip_e=True)
                active_value = ""
                active_scores = []
            beginning_offset = curr_offset
            active_type = label[2:]
            active_value += word + " "
            active_scores.append(score)
        elif kind == "I":
            if not active_type:
                beginning_offset = curr_offset
                active_type = label[2:]
                active_value += word + " "
                active_scores.append(score)
            elif label[2:] == active_type:
                active_value += word + " "
                active_scores.append(score)
            else:
                _emit(strip_e=False)
                beginning_offset = curr_offset
                active_type = label[2:]
                active_value = word + " "
                active_scores = [score]
        elif kind == "O" and active_type:
            _emit(strip_e=True)
            beginning_offset = None
            active_type = None
            active_value = ""
            active_scores = [score]

        if curr_offset >= len(s) and active_type:
            _emit(strip_e=False)

    return entities


# --------------------------------------------------------------------------
# O8 — regex PII battery (ner.py:53-64, 212-237)
# --------------------------------------------------------------------------

_START = r"(\s|^|[.,:])"  # boundary guards (ner.py:53-54)
_END = r"(\s|$|[.,])"

# The reference's EU_PHONE_NUMBER text (ner.py:55-63). Its nested
# ``([\.0-9]+){10}`` backtracks exponentially when a long [.0-9] run is
# followed by a character _END rejects (a letter, '/', '-'): the time
# triples every 2 digits. ``[\.0-9]{10,}`` matches the same strings and,
# for each start and prefix choice, also tries run lengths longest first,
# so every ``finditer`` span is the same in linear time per start
# (pinned by a differential test against this text).
REFERENCE_EU_PHONE_NUMBER = _START + r"([+]*[(]?[0-9]{1,4}[)]?){0,1}([\.0-9]+){10}" + _END

# Pattern text matches the reference byte-for-byte (ner.py:55-63) but for
# EU_PHONE_NUMBER's run (above); the patterns themselves ARE the public
# semantics. Application order is the dict insertion order, as in the
# reference's ``for field, regex in _REGEX_PATTERNS.items()`` loop
# (ner.py:220).
REGEX_PATTERNS: dict[str, re.Pattern] = {
    name: re.compile(pat)
    for name, pat in {
        "IT_FISCAL_CODE": _START
        + "[A-Z]{6}[0-9]{2}[A-E,H,L,M,P,R-T][0-9]{2}[A-Z0-9]{5}"
        + _END,
        "EU_IBAN": _START
        + "[A-Z]{2}?[ ]?[0-9]{2}[]?[0-9]{4}[ ]?[0-9]{4}[ ]?[0-9]{4}[ ]?[0-9]{4}[ ]?[0-9]{4}"
        + _END,
        "NL_CITIZEN_SERVICE_NUMBER": _START + "[0-9]{9}" + _END,
        "UK_NATIONAL_ID_NUMBER": _START
        + "[A-CEGHJ-PR-TW-Z][A-CEGHJ-NPR-TW-Z]{1}[0-9]{6}[A-DFM]?"
        + _END,
        "EU_PHONE_NUMBER": _START + r"([+]*[(]?[0-9]{1,4}[)]?){0,1}[\.0-9]{10,}" + _END,
        "EMAIL_ADDRESS": _START + r"[a-zA-Z0-9_.+-]+@[a-zA-Z0-9-]+\.[a-zA-Z0-9-.]+" + _END,
        "IPV4_ADDRESS": _START + r"((25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)(\.|$)){4}" + _END,
        "URI": r"\[URL_[0-9]+\]",
    }.items()
}

RULE_BASED_SCORE = 0.9  # float(_RULE_BASED_SCORE), ner.py:64,233


# Cheap NECESSARY-condition prefilters per pattern (a sentence failing
# the guard cannot match the pattern, so guarded output is identical):
# digit-bearing patterns need a digit; EMAIL needs '@'; URI needs
# '[URL_'; EU_PHONE needs a consecutive run of >=10 chars from [.0-9].
# Patterns that share a guard share its function, which
# find_regex_entities calls once per sentence.
_HAS_DIGIT = re.compile(r"[0-9]")
_PHONE_RUN = re.compile(r"[.0-9]{10}")


def _has_digit(s: str) -> bool:
    return _HAS_DIGIT.search(s) is not None


_GUARDS = {
    "IT_FISCAL_CODE": _has_digit,
    "EU_IBAN": _has_digit,
    "NL_CITIZEN_SERVICE_NUMBER": _has_digit,
    "UK_NATIONAL_ID_NUMBER": _has_digit,
    "EU_PHONE_NUMBER": lambda s: _PHONE_RUN.search(s) is not None,
    "EMAIL_ADDRESS": lambda s: "@" in s,
    "IPV4_ADDRESS": _has_digit,
    "URI": lambda s: "[URL_" in s,
}
# The exact disjunction of every guard above, as one search: a digit,
# '@', '[URL_', or a [.0-9]{10} run without a digit, i.e. ten dots.
_ANY_GUARD = re.compile(r"[0-9@]|\[URL_|\.{10}")


_START_RE = re.compile(_START)
_EMAIL_LOCAL_RUN = re.compile(r"[a-zA-Z0-9_.+-]*")  # EMAIL's local-part class


def _email_finditer(sentence: str) -> Iterable[re.Match]:
    """``REGEX_PATTERNS['EMAIL_ADDRESS'].finditer(sentence)`` in linear
    time: the same matches, tried at fewer starts.

    ``finditer`` tries a match at every position, and every ``.`` is a
    start (``_START``) as well as a local-part char, so on a dotted run
    with no address after it each of n starts rescans the run: quadratic
    (" " + "a."*n + "@b"). Yet every start inside one run of the
    local-part class reaches the same end of the run, where the '@' and
    the rest must follow, so they all succeed or fail together. When the
    match from a start that consumed its ``_START`` char fails, the
    starts before the end of the local-part run that follows it fail
    too, and the scan resumes at that end. A zero-width start (``^``)
    reads its local part from the start itself, so it skips nothing.
    Pinned by a differential test against ``finditer``."""
    email = REGEX_PATTERNS["EMAIL_ADDRESS"]
    pos = 0
    # no match starts at the end; search would clamp a pos past it and ^
    # of an empty sentence would match again
    while pos < len(sentence) and (start := _START_RE.search(sentence, pos)) is not None:
        p = start.start()
        match = email.match(sentence, p)
        if match is not None:
            yield match
            pos = match.end()
        elif start.end() > p:
            pos = _EMAIL_LOCAL_RUN.match(sentence, p + 1).end()
        else:
            pos = p + 1


def find_regex_entities(sentence: str) -> list[dict]:
    """All regex-battery mentions of one ORIGINAL-case sentence, in the
    reference's pattern-then-position order (ner.py:219-235), including
    the single leading/trailing punctuation strip (ner.py:227-231)."""
    if _ANY_GUARD.search(sentence) is None:
        return []
    passed = {guard: guard(sentence) for guard in set(_GUARDS.values())}
    found: list[dict] = []
    for field, regex in REGEX_PATTERNS.items():
        if not passed[_GUARDS[field]]:
            continue
        email = field == "EMAIL_ADDRESS"
        for match in _email_finditer(sentence) if email else regex.finditer(sentence):
            value = match.group(0)
            offset = match.span(0)[0]
            if value[0] in ".,: ":
                value = value[1:]
                offset += 1
            if value[-1] in "., ":
                value = value[:-1]
            found.append(
                {"type": field, "confidence": RULE_BASED_SCORE, "value": value, "offset": offset}
            )
    return found


# --------------------------------------------------------------------------
# O9/O10 — gazetteer taggers (ner.py:240-269)
# --------------------------------------------------------------------------


def find_religion_entities(sentence: str, religions: frozenset[str]) -> list[dict]:
    """RELIGION mentions: one per whitespace word of the lowercased
    sentence found in the set; offset is ``lower().index(word)`` — the
    FIRST occurrence even for later duplicates (ner.py:243-251,
    bug-faithful)."""
    found: list[dict] = []
    lowered = sentence.lower()
    for word in lowered.split():
        if word in religions:
            offset = lowered.index(word)
            found.append(
                {
                    "type": "RELIGION",
                    "value": sentence[offset : offset + len(word)],
                    "confidence": RULE_BASED_SCORE,
                    "offset": offset,
                }
            )
    return found


def find_nested_loc_entities(entities: list[dict], cities: frozenset[str]) -> list[dict]:
    """Nested LOC inside MISCELLANEOUS mentions: every contiguous word
    substring of the MISC value checked against the cities set
    (ner.py:254-267). Ruling (SURVEY.md §2.8 #1-2): emit type
    ``LOCATION`` with confidence 0.9 where the reference would crash on
    ``round('0.9000', 2)``; offset is first-occurrence ``index`` within
    the MISC value, absolute-ized by the MISC offset."""
    found: list[dict] = []
    for entity in entities:
        if entity["type"] != "MISCELLANEOUS":
            continue
        words = entity["value"].lower().split()
        for i in range(len(words)):
            for j in range(i + 1, len(words) + 1):
                curr = " ".join(words[i:j])
                if curr in cities:
                    offset = entity["value"].lower().index(curr)
                    found.append(
                        {
                            "type": "LOCATION",
                            "value": entity["value"][offset : offset + len(curr)],
                            "confidence": RULE_BASED_SCORE,
                            "offset": offset + entity["offset"],
                        }
                    )
    return found


# --------------------------------------------------------------------------
# O12/O13 — overlap predicate & TIME classifier (ner.py:312-362)
# --------------------------------------------------------------------------


def spans_overlap(entities: list[dict], cand_start: int, cand_end: int) -> bool:
    """True iff [cand_start, cand_end) overlaps any existing mention
    under the reference's 7 enumerated cases (ner.py:328-348)."""
    for e in entities:
        es, ee = e["offset"], e["offset"] + len(e["value"])
        if cand_start < es < cand_end < ee:
            return True
        if cand_start > es and cand_end < ee:
            return True
        if es < cand_start < ee < cand_end:
            return True
        if cand_start == es and cand_end == ee:
            return True
        if cand_start == es or cand_end == es:
            return True
        if cand_end == ee or cand_start == ee:
            return True
        if cand_start < es and cand_end > ee:
            return True
    return False


def opening_time_type(entities: list[dict]) -> str:
    """'T_OPENING' iff any mention is ORGANIZATION or LOCATION, else
    'TIME' (ner.py:353-362)."""
    for e in entities:
        if e["type"] in ("ORGANIZATION", "LOCATION"):
            return "T_OPENING"
    return "TIME"
