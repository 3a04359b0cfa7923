"""Golden + property tests for the frozen reference semantics
(textops). Goldens come from the reference's documented I/O
(README.md:10-70, api_doc:1-57, input_example.txt:28-44)."""

import re
import signal
import string
from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from transner_ray import ner_core, textops
from transner_ray.gazetteers import default_gazetteers


# ---------------------------------------------------------------- O1

def test_separate_punctuations_apostrophe():
    proc, omap = textops.separate_punctuations("L'America", do_lower_case=True)
    assert proc == "l ' america"
    assert len(proc) == len(omap)
    # inserted chars marked -1, real chars map to original positions
    assert omap[0] == 0 and omap[2] == 1
    assert -1 in omap


def test_separate_punctuations_existing_spaces_kept():
    proc, omap = textops.separate_punctuations("a , b", do_lower_case=False)
    assert proc == "a , b"
    assert omap == [0, 1, 2, 3, 4]


def test_separate_punctuations_final_punct():
    proc, _ = textops.separate_punctuations("ciao.", do_lower_case=False)
    assert proc == "ciao ."  # no trailing space after string-final punct


def test_separate_punctuations_curly_quotes():
    proc, _ = textops.separate_punctuations("x“y”z", do_lower_case=False)
    assert proc == "x “ y ” z"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=string.printable + "è“”àéìòù", max_size=80))
def test_separate_punctuations_differential(s):
    """The span-based implementation must be bit-identical to the
    literal per-char mirror of the reference algorithm."""
    fast = textops.separate_punctuations(s, do_lower_case=True)
    ref = textops._separate_punctuations_percchar(s, do_lower_case=True)
    assert fast == ref
    assert textops.separate_punctuations(s, False) == textops._separate_punctuations_percchar(s, False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=7))
def test_trunc_conf_fast_path_matches_np_mean(scores):
    import numpy as np

    assert textops._trunc_conf(scores) == float(str(np.mean(scores))[:6])


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable + "è“”àéìòù", max_size=60))
def test_offset_map_roundtrip(s):
    """Every non-inserted processed char maps back to the identical
    original char (case-insensitively, since preprocess lowers)."""
    proc, omap = textops.separate_punctuations(s, do_lower_case=True)
    assert len(proc) == len(omap)
    for i, o in enumerate(omap):
        if o >= 0:
            assert proc[i].lower() == s[o].lower()


# ---------------------------------------------------------------- O5

def _mk(words_labels, score=0.9):
    wl = [(w, l) for w, l in words_labels]
    return wl, [score] * len(wl)


def test_bio_decode_basic_multiword():
    s = "mario rossi va a milano ."
    wl, sc = _mk(
        [("mario", "B-PER"), ("rossi", "I-PER"), ("va", "O"), ("a", "O"),
         ("milano", "B-LOC"), (".", "O")]
    )
    ents = textops.bio_decode(s, wl, sc)
    assert ents == [
        {"type": "PERSON", "value": "mario rossi", "confidence": 0.9, "offset": 0},
        {"type": "LOCATION", "value": "milano", "confidence": 0.9, "offset": 17},
    ]


def test_bio_decode_trailing_entity_dropped():
    """Snapshot fidelity: the end-of-string close (ner.py:452-459)
    requires ``curr_offset >= len(s)`` where curr_offset is the WORD
    START offset — never reached — so an entity still active at the end
    of the prediction stream is dropped. (The README.md:55-69 golden
    showing a sentence-final LOCATION predates the snapshot; the
    snapshot's behavior is authoritative and replicated.)"""
    s = "marco va a magenta"
    wl, sc = _mk([("marco", "B-PER"), ("va", "O"), ("a", "O"), ("magenta", "B-LOC")])
    ents = textops.bio_decode(s, wl, sc)
    assert [(e["type"], e["value"]) for e in ents] == [("PERSON", "marco")]


def test_bio_decode_orphan_i_opens():
    s = "milano è bella"
    wl, sc = _mk([("milano", "I-LOC"), ("è", "O"), ("bella", "O")])
    ents = textops.bio_decode(s, wl, sc)
    assert ents[0]["type"] == "LOCATION" and ents[0]["value"] == "milano"


def test_bio_decode_type_switch_closes():
    s = "mario milano va"
    wl, sc = _mk([("mario", "B-PER"), ("milano", "I-LOC"), ("va", "O")])
    ents = textops.bio_decode(s, wl, sc)
    # B-PER closed by the type-switch I-LOC (ner.py:426-436), then the
    # I-LOC entity closed by O
    assert [(e["type"], e["value"]) for e in ents] == [
        ("PERSON", "mario"),
        ("LOCATION", "milano"),
    ]


def test_bio_decode_e_strip_on_O_close():
    # ' è' stripped when closed by O (ner.py:442-444)
    s = "mario è qui"
    wl, sc = _mk([("mario", "B-PER"), ("è", "I-PER"), ("qui", "O")])
    ents = textops.bio_decode(s, wl, sc)
    assert ents[0]["value"] == "mario"
    # and when closed by a following B (ner.py:405-407)
    s2 = "mario è luca va"
    wl2, sc2 = _mk([("mario", "B-PER"), ("è", "I-PER"), ("luca", "B-PER"), ("va", "O")])
    ents2 = textops.bio_decode(s2, wl2, sc2)
    assert [e["value"] for e in ents2] == ["mario", "luca"]


def test_bio_decode_confidence_string_truncation():
    s = "mario rossi bianchi va"
    wl = [("mario", "B-PER"), ("rossi", "I-PER"), ("bianchi", "I-PER"), ("va", "O")]
    sc = [0.8, 0.9, 0.85, 0.9]
    ents = textops.bio_decode(s, wl, sc)
    # np.mean -> 0.8500000000000001, str()[:6] -> '0.8500'
    assert ents[0]["confidence"] == 0.85
    sc2 = [0.8, 0.8, 0.9, 0.9]  # mean = 0.8333333333333334 -> '0.8333'
    ents2 = textops.bio_decode(s, wl, sc2)
    assert ents2[0]["confidence"] == 0.8333


def test_bio_decode_threshold_filters():
    s = "mario va"
    wl, sc = _mk([("mario", "B-PER"), ("va", "O")], score=0.5)
    assert textops.bio_decode(s, wl, sc, threshold=0.75) == []
    assert len(textops.bio_decode(s, wl, sc, threshold=0.0)) == 1


def test_bio_decode_repeated_token_find_anchoring():
    # the find-based tracker (ner.py:397) anchors at the first
    # occurrence from the cursor — replicated exactly
    s = "la la milano va"
    wl, sc = _mk([("la", "O"), ("la", "O"), ("milano", "B-LOC"), ("va", "O")])
    ents = textops.bio_decode(s, wl, sc)
    assert ents[0]["offset"] == 6


# ---------------------------------------------------------------- O2

def test_adjust_entities_offset_case_restore():
    s = "Mario Rossi è nato a Busto Arsizio"
    proc, omap = textops.separate_punctuations(s, do_lower_case=True)
    ents = [{"type": "PERSON", "value": "mario rossi", "confidence": 0.9, "offset": 0}]
    textops.adjust_entities_offset(ents, s, omap)
    assert ents[0]["value"] == "Mario Rossi"
    assert ents[0]["offset"] == 0


def test_adjust_entities_offset_after_punctuation():
    s = "Sig. D'Alberto paga"
    proc, omap = textops.separate_punctuations(s, do_lower_case=True)
    # proc = "sig . d ' alberto paga"; entity "d ' alberto" at proc offset 6
    start = proc.index("d ' alberto")
    ents = [{"type": "PERSON", "value": "d ' alberto", "confidence": 0.9, "offset": start}]
    textops.adjust_entities_offset(ents, s, omap)
    assert ents[0]["offset"] == 5
    assert ents[0]["value"] == "D'Alberto"


# ---------------------------------------------------------------- O8

def test_regex_fiscal_code_and_phone_email():
    s = (
        "Il sig. Francesco Antonio Di Marco è nato a Milano, codice fiscale "
        "DMRFNC80E01F205B, numero di telefono +39 0865989886, email di lavoro "
        "francesco.dimarco@hotmail.com, DMRGZC54E90F205E"
    )
    found = textops.find_regex_entities(s)
    by_type = {}
    for e in found:
        by_type.setdefault(e["type"], []).append(e)
    assert [e["value"] for e in by_type["IT_FISCAL_CODE"]] == [
        "DMRFNC80E01F205B",
        "DMRGZC54E90F205E",
    ]
    assert by_type["EMAIL_ADDRESS"][0]["value"] == "francesco.dimarco@hotmail.com"
    assert any("0865989886" in e["value"] for e in by_type["EU_PHONE_NUMBER"])
    # offsets point into the original sentence
    for e in found:
        assert s[e["offset"] : e["offset"] + len(e["value"])] == e["value"]


def test_regex_iban():
    # NOTE (bug fidelity): the reference pattern's '[]?[0-9]{4}'
    # (ner.py:56) parses as the char class `]?[0-9` ×4, so an IBAN with
    # a check LETTER — including the reference's own example
    # 'IT20M030...' (input_example.txt:39) — does NOT match its own
    # regex. Replicated byte-for-byte: digit-only IBANs match.
    s = "IBAN IT2003000203280588799861 OK"
    found = textops.find_regex_entities(s)
    assert any(e["type"] == "EU_IBAN" and e["value"].startswith("IT20") for e in found)
    s2 = "IBAN IT20M030020328058879986168 IN PROCEDURA"
    assert not any(e["type"] == "EU_IBAN" for e in textops.find_regex_entities(s2))


def test_regex_uri_placeholder_and_ipv4():
    # Quirk fidelity (ner.py:61): every octet must be followed by '.'
    # or end-of-string, so an IPv4 only matches sentence-finally (where
    # it ALSO matches the phone pattern, whose [\.0-9]+ eats dots); a
    # mid-sentence IP is typed EU_PHONE_NUMBER only.
    s = "vedi [URL_12] da 192.168.0.1."
    found = textops.find_regex_entities(s)
    pairs = {(e["type"], e["value"]) for e in found}
    assert ("URI", "[URL_12]") in pairs
    assert ("IPV4_ADDRESS", "192.168.0.1") in pairs
    assert ("EU_PHONE_NUMBER", "192.168.0.1") in pairs
    mid = textops.find_regex_entities("da 192.168.0.1 ora")
    assert [e["type"] for e in mid] == ["EU_PHONE_NUMBER"]


def test_regex_boundary_guard_no_substring_match():
    # a 10-digit phone must not yield a 9-digit NL SSN submatch
    s = "tel 1234567890 fine"
    found = [e for e in textops.find_regex_entities(s) if e["type"] == "NL_CITIZEN_SERVICE_NUMBER"]
    assert found == []


_REGEX_PIECES = st.sampled_from(
    ["0", "7", "12345", ".", "..", "@", "[URL_", "3]", " ", ",", ":", "+39", "(", ")",
     "ab", "IT", "DMRFNC", "x.y", "è"]
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(alphabet=string.printable + "è", max_size=60),
                 st.lists(_REGEX_PIECES, max_size=20).map("".join)))
@example(" ..........")
@example("..........")
@example("tel ........... fine")
@example("vedi [URL_12] da 192.168.0.1.")
@example("a@b.it ")
@example("nessun numero qui")
def test_regex_combined_guard_matches_unguarded(s):
    """The one-search early return and the per-pattern guards change no
    output: equal to running every pattern over every sentence, and the
    combined guard is exactly the disjunction of the per-pattern ones."""
    assert bool(textops._ANY_GUARD.search(s)) == any(g(s) for g in textops._GUARDS.values())
    with mock.patch.object(textops, "_ANY_GUARD", re.compile("")), mock.patch.dict(
        textops._GUARDS, {k: (lambda _: True) for k in textops._GUARDS}
    ):
        unguarded = textops.find_regex_entities(s)
    assert textops.find_regex_entities(s) == unguarded


_PHONE_ALPHABET = string.digits + ".+() ,:x\n"


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=_PHONE_ALPHABET, max_size=22))
@example("tel 1234567890 fine")
@example("+39 0865989886, x")
@example("da 192.168.0.1 ora")
@example("1" * 14 + "x 12345678901.")
@example("(39)..........,")
def test_eu_phone_spans_equal_reference_pattern(s):
    """The linear EU_PHONE_NUMBER pattern finds exactly the reference
    text's spans."""
    reference = re.compile(textops.REFERENCE_EU_PHONE_NUMBER)
    got = [m.span() for m in textops.REGEX_PATTERNS["EU_PHONE_NUMBER"].finditer(s)]
    assert got == [m.span() for m in reference.finditer(s)]


@contextmanager
def _within(seconds):
    """Raise TimeoutError if the block runs over ``seconds``: the alarm
    turns a regression into a failure instead of a hang."""

    def timeout(signum, frame):
        raise TimeoutError(f"took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_long_digit_run_before_a_letter_is_fast():
    """A 30-digit run followed by a letter took hours with the reference
    pattern's nested repeat; it must return no mention within 1 s."""
    with _within(1):
        assert textops.find_regex_entities("tel " + "1" * 30 + "x") == []


_EMAIL_PIECES = st.sampled_from(
    ["a", "b7", ".", "..", "@", " ", ",", ":", "!", "-", "_+", "x.y", "\n", "è", "@b.c"]
)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text(alphabet="ab.@ ,:!-_+\n", max_size=24),
                 st.lists(_EMAIL_PIECES, max_size=16).map("".join)))
@example("mario.rossi@example.com, ip 192.168.1.10 ok.")
@example("")
@example("!.a@b.c")
@example(".a@b.c")
@example("a@b.c.d@e.f")
@example("x a.b.c@d e.f@g.h.")
@example(" " + "a." * 50 + "@b")
def test_email_spans_equal_reference_pattern(s):
    """The linear EMAIL_ADDRESS scan finds exactly the spans of the
    reference text's ``finditer``."""
    got = [m.span() for m in textops._email_finditer(s)]
    assert got == [m.span() for m in textops.REGEX_PATTERNS["EMAIL_ADDRESS"].finditer(s)]


def test_dotted_local_part_without_address_is_fast():
    """A dotted run before an '@' with no domain after it rescanned the
    run from every '.': about 18 s at this size with ``finditer``."""
    with _within(1):
        assert textops.find_regex_entities(" " + "a." * 100_000 + "@b") == []


_ADVERSARIAL = [  # a long run of one pattern's class, then a char its end rejects
    lambda n: " " + "a." * n + "@b",
    lambda n: " " + "a" * n + "@b",
    lambda n: " a@" + "b" * n + "x",
    lambda n: " a@b." + "c-" * n + "!",
    lambda n: " " + "a@" * n,
    lambda n: " " + ".@" * n,
    lambda n: " " + ",a" * n + "@b",
    lambda n: " " + "1." * n + "x",
    lambda n: " " + "1" * n + "x",
    lambda n: " " + "+" * n + "x",
    lambda n: " " + "(1" * n + "x",
    lambda n: " " + "255." * n + "x",
    lambda n: " " + "IT12 " * n + "x",
    lambda n: " " + "ABCDEF" * n + "x",
    lambda n: " " + "AB123456" * n + "x",
    lambda n: "[URL_" + "1" * n + "x",
    lambda n: "[URL_" * n + "x",
]


def test_regex_battery_is_linear_on_adversarial_runs():
    """Every pattern of the battery over 100k-unit runs of its own
    character classes, each within 1 s (a quadratic one takes seconds)."""
    for shape in _ADVERSARIAL:
        with _within(1):
            textops.find_regex_entities(shape(100_000))


class _ListTagger:
    """Labels the i-th word with ``labels[i % len(labels)]``."""

    def __init__(self, labels):
        self.labels = labels

    def tag(self, processed):
        words = processed.split()
        labels = [self.labels[i % len(self.labels)] for i in range(len(words))]
        return list(zip(words, labels)), [0.9] * len(words)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=string.ascii_letters + " .,'è", max_size=60),
    st.lists(st.sampled_from(["O", "O", "O", "B-PER", "I-PER", "B-LOC", "I-MISC"]),
             min_size=1, max_size=6),
)
@example("Mario è nato a Roma, ieri.", ["O"])
@example("Mario è nato a Roma, ieri.", ["B-PER", "I-PER", "O"])
def test_all_o_skip_matches_bio_decode(s, labels):
    """ner_sentence's model mentions equal bio_decode + offset adjust
    on every labelling, all-"O" ones (which skip both) included."""
    tagger = _ListTagger(labels)
    proc, omap = textops.separate_punctuations(s, do_lower_case=True)
    word_labels, scores = tagger.tag(proc)
    want = textops.bio_decode(proc, word_labels, scores, ner_core.SERVICE_THRESHOLD)
    textops.adjust_entities_offset(want, s, omap, adjust_case=True)
    got = ner_core.ner_sentence(
        s, tagger, default_gazetteers(), apply_regex=False, apply_gazetteers=False
    )
    assert got == [{**e, "detector": "model"} for e in want]


# ------------------------------------------------------------- O9/O10

def test_religion_first_occurrence_offset():
    gz = default_gazetteers()
    s = "Islam qui e ancora islam là"
    found = textops.find_religion_entities(s, gz.religions)
    # two occurrences in the word list, BOTH with the offset of the
    # first occurrence (ner.py:247 bug, replicated)
    assert len(found) == 2
    assert found[0]["offset"] == 0 and found[1]["offset"] == 0
    assert found[0]["value"] == "Islam"


def test_nested_loc_in_misc():
    gz = default_gazetteers()
    ents = [
        {"type": "MISCELLANEOUS", "value": "Treaty Of Rome", "confidence": 0.9, "offset": 4}
    ]
    found = textops.find_nested_loc_entities(ents, gz.cities)
    assert any(
        e["type"] == "LOCATION" and e["value"] == "Rome" and e["offset"] == 4 + 10
        for e in found
    )
    # confidence 0.9, the §2.8 ruling for the reference's round() crash
    assert all(e["confidence"] == 0.9 for e in found)


# ---------------------------------------------------------------- O12

def test_spans_overlap_cases():
    ents = [{"type": "PERSON", "value": "abcde", "offset": 10}]  # [10,15)
    assert textops.spans_overlap(ents, 8, 12)      # partial left
    assert textops.spans_overlap(ents, 11, 14)     # contained
    assert textops.spans_overlap(ents, 12, 20)     # partial right
    assert textops.spans_overlap(ents, 10, 15)     # exact
    assert textops.spans_overlap(ents, 10, 11)     # shared start
    assert textops.spans_overlap(ents, 5, 10)      # cand_end == start
    assert textops.spans_overlap(ents, 15, 20)     # cand_start == end
    assert textops.spans_overlap(ents, 5, 20)      # containment outward
    assert not textops.spans_overlap(ents, 0, 5)
    assert not textops.spans_overlap(ents, 16, 20)


def test_opening_time_type():
    assert textops.opening_time_type([{"type": "ORGANIZATION"}]) == "T_OPENING"
    assert textops.opening_time_type([{"type": "LOCATION"}]) == "T_OPENING"
    assert textops.opening_time_type([{"type": "PERSON"}]) == "TIME"
    assert textops.opening_time_type([]) == "TIME"
