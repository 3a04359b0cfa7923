"""O11-O13 opt-in date stage (reference ner.py:272-309 control flow)."""

import pyarrow as pa

from transner_ray.dates import find_date_entities, regex_search_dates
from transner_ray.stages.detect import MentionDetector


def test_regex_search_dates_shapes():
    s = "Nato il 13/08/1983, visto 2020-01-02 e 5 maggio 1999 qui"
    assert [d for d, _ in regex_search_dates(s)] == [
        "13/08/1983",
        "2020-01-02",
        "5 maggio 1999",
    ]


def test_time_vs_t_opening():
    s = "Visita il 13/08/1983 fine"
    # no ORG/LOC mention -> TIME
    found = find_date_entities(s, [{"type": "PERSON", "value": "x", "offset": 0}])
    assert found and found[0]["type"] == "TIME"
    # ORG present -> T_OPENING
    found2 = find_date_entities(s, [{"type": "ORGANIZATION", "value": "x", "offset": 0}])
    assert found2 and found2[0]["type"] == "T_OPENING"


def test_overlap_suppression():
    s = "data 13/08/1983 fine"
    # an existing mention exactly covering the date suppresses it
    covering = [{"type": "MISCELLANEOUS", "value": "13/08/1983", "offset": 5}]
    assert find_date_entities(s, covering) == []


def test_sentence_end_indexerror_path():
    # date at the very end: the reference's boundary probe raises
    # IndexError and the except-branch admits it (end == len(sentence))
    s = "nato il 13/08/1983"
    found = find_date_entities(s, [])
    assert found and found[0]["value"] == "13/08/1983"


def test_detector_stage_opt_in():
    batch = pa.table(
        {
            "url": ["u"],
            "sent_idx": pa.array([0], pa.int32()),
            "sentence": ["Maria Santos è nata a Cardenas il 13/08/1983"],
            "char_start": pa.array([0], pa.int64()),
            "char_end": pa.array([44], pa.int64()),
            "lang": ["it"],
        }
    )
    off = MentionDetector()(batch)
    types_off = {m["type"] for m in off.column("mentions")[0].as_py()}
    assert not types_off & {"TIME", "T_OPENING"}
    on = MentionDetector(apply_dates=True)(batch)
    types_on = {m["type"] for m in on.column("mentions")[0].as_py()}
    assert types_on & {"TIME", "T_OPENING"}


def test_dateparser_hook_import_gate():
    """Without dateparser the factory raises NotImplementedError; with
    it installed the returned hook is the reference path (torch-node
    only). Control flow AROUND the hook is identical either way —
    pinned by the golden tests above through a dateparser-shaped fake
    below."""
    import pytest

    from transner_ray.dates import make_dateparser_search_dates

    try:
        import dateparser  # noqa: F401
    except ImportError:
        with pytest.raises(NotImplementedError, match="dateparser"):
            make_dateparser_search_dates()
    else:  # pragma: no cover - dateparser nodes only
        hook = make_dateparser_search_dates()
        assert callable(hook)


def test_fasttext_lid_import_gate():
    import pytest

    from transner_ray.dates import FastTextLanguageID

    try:
        import fasttext  # noqa: F401
    except ImportError:
        with pytest.raises(NotImplementedError, match="fasttext"):
            FastTextLanguageID()
    else:  # pragma: no cover - fasttext nodes only
        with pytest.raises(FileNotFoundError):
            FastTextLanguageID("/nonexistent/lid.176.bin")


def test_find_date_entities_accepts_dateparser_tuples():
    """dateparser returns (matched_text, datetime) tuples — the second
    element must be ignored by the control-flow mirror (the regex
    stand-in returns (text, None))."""
    from transner_ray.dates import find_date_entities

    def fake_search(sentence, lang=None):
        return [("12/05/2021", object())]

    out = find_date_entities("open 12/05/2021 onward", [], search_dates=fake_search)
    assert [(m["value"], m["offset"]) for m in out] == [("12/05/2021", 5)]
