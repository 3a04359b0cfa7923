"""Splitter invariants + synthetic corpus determinism."""

import re
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from transner_ray import synth
from transner_ray.htmlops import extract_text, wrap_html
from transner_ray.splitting import split_sentences, window_words


# ------------------------------------------------------------ sentences

def test_split_sentences_offsets_identity():
    text = "Prima frase. Seconda frase!  Terza\nQuarta frase?"
    sents = split_sentences(text)
    assert [s for s, _, _ in sents] == [
        "Prima frase.",
        "Seconda frase!",
        "Terza",
        "Quarta frase?",
    ]
    for s, cs, ce in sents:
        assert text[cs:ce] == s


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.ascii_letters + " .!?\n", max_size=120))
def test_split_sentences_property(text):
    sents = split_sentences(text)
    for s, cs, ce in sents:
        assert text[cs:ce] == s
        assert s.strip() == s and s != ""
    # non-overlapping, increasing spans
    for (_, _, e1), (_, s2, _) in zip(sents, sents[1:]):
        assert s2 >= e1


# -------------------------------------------------------------- windows

def test_window_words_short_passthrough():
    assert window_words("a b c", max_words=5) == [("a b c", 0)]


def test_window_words_cover_and_offsets():
    words = [f"w{i}" for i in range(400)]
    sent = " ".join(words)
    wins = window_words(sent, max_words=150, overlap=32)
    assert len(wins) > 1
    for wtext, cs in wins:
        assert sent[cs : cs + len(wtext)] == wtext
        assert len(wtext.split()) <= 150
    # coverage: every word appears in at least one window
    covered = set()
    for wtext, _ in wins:
        covered.update(wtext.split())
    assert covered == set(words)
    # consecutive windows overlap by `overlap` words
    w0, w1 = wins[0][0].split(), wins[1][0].split()
    assert w0[-32:] == w1[:32]


def _window_words_unguarded(sentence, max_words, overlap):
    """``window_words`` without its short-sentence guard: the word scan
    runs on every sentence."""
    spans = [m.span() for m in re.finditer(r"\S+", sentence)]
    if len(spans) <= max_words:
        return [(sentence, 0)]
    out, i = [], 0
    while True:
        j = min(i + max_words, len(spans))
        out.append((sentence[spans[i][0] : spans[j - 1][1]], spans[i][0]))
        if j >= len(spans):
            return out
        i += max_words - overlap


_WHITESPACE = " \t\n\x0b\x1c\u00a0\u2003"


@st.composite
def _spaced_words(draw):
    """Short words between runs of mixed whitespace, often just at the
    guard's length bound (one char per word, one per gap)."""
    words = draw(st.lists(st.text(alphabet="ab.", min_size=1, max_size=2), max_size=14))
    gaps = [draw(st.text(alphabet=_WHITESPACE, min_size=1, max_size=2)) for _ in words[1:]]
    edges = st.text(alphabet=_WHITESPACE, max_size=1)
    body = "".join(w + g for w, g in zip(words, gaps + [""]))
    return draw(edges) + body + draw(edges)


@settings(max_examples=400, deadline=None)
@given(_spaced_words(), st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=5))
@example("a b", 1, 0)  # 2 words in 2 * max_words + 1 chars: the tightest miss
@example("ab\u2003\tb a", 2, 1)
def test_window_words_guard_agrees_with_word_scan(sentence, max_words, overlap):
    """The length guard is only a shortcut: with short windows and runs
    of mixed whitespace, guarded and unguarded windows are equal."""
    overlap %= max_words
    assert window_words(sentence, max_words, overlap) == _window_words_unguarded(
        sentence, max_words, overlap
    )


# ----------------------------------------------------------------- html

def test_html_roundtrip_byte_identical():
    text = "Par one. More text.\nPar two with è and “quotes”."
    assert extract_text(wrap_html("t", text)) == text


# ---------------------------------------------------------------- synth

def test_synth_deterministic_and_shard_independent():
    t1 = synth.generate_pages_table(42, 10)
    t2 = synth.generate_pages_table(42, 10)
    assert t1.equals(t2)
    # per-doc independence: regenerating a suffix matches the full table
    tail = synth.generate_pages_table(42, 4, start=6)
    assert t1.slice(6, 4).to_pylist() == tail.to_pylist()


def test_synth_text_html_invariant():
    for row in synth.generate_pages_table(42, 8).to_pylist():
        assert extract_text(row["html"]) == row["text"]


def test_synth_has_long_sentences():
    # enough docs that the 6% long-run-on branch fires
    tbl = synth.generate_pages_table(42, 80)
    longest = 0
    for row in tbl.to_pylist():
        for s, _, _ in split_sentences(row["text"]):
            longest = max(longest, len(s.split()))
    assert longest > 150  # forces the sliding-window path
