"""Sentence splitting + sliding-window long-text splitting (O7/O14).

The reference REJECTS strings over 150 whitespace words (api.py:27,
53-55) and its corpus tooling splits token streams on the ``'.'`` token
(tools/wikiner_tools/dataset_wikiNER.py:86-116). For a document engine
both become a deterministic, offset-carrying splitter:

* ``split_sentences``: page text → sentences with [char_start,
  char_end) spans into the page text. Terminators are ``. ! ?`` runs
  and newlines; terminator chars stay attached to the sentence (the
  reference appends the ``'.'`` to its sentences).
* ``window_words``: sentences longer than ``max_words`` whitespace
  words are cut into overlapping windows of at most ``max_words`` words
  with ``overlap`` words of overlap — each window is a SUBSTRING of the
  sentence (char spans preserved), so mention offsets compose:
  ``doc_offset = sentence.char_start + window.char_start + offset``.

Duplicate mentions produced by overlapping windows are deduplicated
downstream on ``(url, sent_idx, type, doc_offset, value)`` keeping max
confidence (SURVEY.md §2.6 R8).

Both functions are pure and shared verbatim by the sequential oracle
and the Ray `flat_map`-style stages.
"""

from __future__ import annotations

import re

_SENT_RE = re.compile(r"[^.!?\n]*[.!?]+|[^.!?\n]+")
_WORD_RE = re.compile(r"\S+")

MAX_WINDOW_WORDS = 150  # reference _MAX_LEN (api.py:27)
WINDOW_OVERLAP = 32


def split_sentences(text: str) -> list[tuple[str, int, int]]:
    """Split page text into (sentence, char_start, char_end) with
    surrounding whitespace trimmed (offsets adjusted); empty spans are
    dropped."""
    out: list[tuple[str, int, int]] = []
    for m in _SENT_RE.finditer(text):
        raw = m.group(0)
        start = m.start()
        lead = len(raw) - len(raw.lstrip())
        stripped = raw.strip()
        if not stripped:
            continue
        s = start + lead
        out.append((stripped, s, s + len(stripped)))
    return out


def window_words(
    sentence: str,
    max_words: int = MAX_WINDOW_WORDS,
    overlap: int = WINDOW_OVERLAP,
) -> list[tuple[str, int]]:
    """Cut a sentence into overlapping word windows.

    Returns ``[(window_text, char_start_within_sentence), ...]``; a
    sentence of <= max_words words yields itself as the single window.
    Stride is ``max_words - overlap`` words; the final window always
    reaches the last word.
    """
    # more than max_words words need at least 2 * max_words + 1 chars
    # (a char per word plus one separator between words): shorter
    # sentences skip the word scan
    if len(sentence) <= 2 * max_words:
        return [(sentence, 0)]
    spans = [m.span() for m in _WORD_RE.finditer(sentence)]
    n = len(spans)
    if n <= max_words:
        return [(sentence, 0)]
    stride = max_words - overlap
    assert stride > 0
    out: list[tuple[str, int]] = []
    i = 0
    while True:
        j = min(i + max_words, n)
        cs, ce = spans[i][0], spans[j - 1][1]
        out.append((sentence[cs:ce], cs))
        if j >= n:
            break
        i += stride
    return out
