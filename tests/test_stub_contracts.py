"""Stub-module contract tests for the two import-gated production
paths (VERDICT r4 item 7).

This sandbox has no torch/transformers and no dateparser, so the code
BEHIND the gates in ``tagger.BertTagger`` and
``dates.make_dateparser_search_dates`` has never executed. These tests
inject minimal fake modules into ``sys.modules`` — shaped exactly like
the real APIs the code calls — so every line of the gated bodies runs:
construction, quantization branch, the batched forward, wordpiece→word
realignment plumbing (padding rows, ``word_ids`` mapping, truncation,
empty sentences), the id2label head selection, and the dateparser hook
(LID cleaning regex, language pass-through, the ValueError→[] branch).

The fakes assert the CONTRACT (what we call and how we consume the
result), not model quality: logits are a deterministic function of the
sub-token so the expected output can be recomputed independently via
``realign_wordpieces`` (which has its own golden tests).
"""

from __future__ import annotations

import re
import sys
import types
import zlib

import numpy as np
import pytest

N_LABELS = 13
CLS, SEP, PAD = "[CLS]", "[SEP]", "[PAD]"


def _subtokens(word: str) -> list[str]:
    """Deterministic fake wordpiece split: 3-char chunks, so most words
    map to >1 sub-token and first-subtoken-wins is actually exercised."""
    return [word[i : i + 3] for i in range(0, len(word), 3)] or [word]


def _tok_id(tok: str) -> int:
    return 0 if tok == PAD else zlib.crc32(tok.encode("utf-8"))


def _logits_for_id(h: int) -> np.ndarray:
    """Deterministic per-sub-token logits: argmax = crc32 % 13, with a
    secondary bump so softmax probabilities are non-degenerate."""
    v = np.zeros(N_LABELS, dtype=np.float64)
    v[h % N_LABELS] += 4.0
    v[(h >> 4) % N_LABELS] += 1.0
    return v


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class FakeTensor:
    """The minimal tensor surface tag_batch touches: .float() .max(dim=)
    .cpu() .to(device) .tolist() and row indexing."""

    def __init__(self, arr):
        self.arr = np.asarray(arr)

    def float(self):
        return FakeTensor(self.arr.astype(np.float64))

    def max(self, dim):
        assert dim == -1
        return (
            FakeTensor(self.arr.max(axis=-1)),
            FakeTensor(self.arr.argmax(axis=-1)),
        )

    def cpu(self):
        return self

    def to(self, device):
        return self

    def tolist(self):
        return self.arr.tolist()

    def __getitem__(self, i):
        return FakeTensor(self.arr[i])


class FakeEncoding(dict):
    """Tokenizer output: a dict of tensors plus word_ids(batch_index=)."""

    def __init__(self, tensors, word_ids_per_row):
        super().__init__(tensors)
        self._word_ids = word_ids_per_row

    def word_ids(self, batch_index: int):
        return self._word_ids[batch_index]


class FakeFastTokenizer:
    is_fast = True

    def __init__(self, model_path):
        self.model_path = model_path
        self.calls = []

    def __call__(
        self,
        batch_words,
        is_split_into_words,
        padding,
        truncation,
        max_length,
        return_tensors,
    ):
        assert is_split_into_words and padding and truncation
        assert return_tensors == "pt"
        self.calls.append([list(ws) for ws in batch_words])
        rows, wid_rows = [], []
        for words in batch_words:
            toks, wids = [], []
            for wi, w in enumerate(words):
                for st in _subtokens(w):
                    toks.append(st)
                    wids.append(wi)
            toks, wids = toks[: max_length - 2], wids[: max_length - 2]
            rows.append([CLS] + toks + [SEP])
            wid_rows.append([None] + wids + [None])
        width = max(len(r) for r in rows)
        ids = np.zeros((len(rows), width), dtype=np.int64)
        mask = np.zeros((len(rows), width), dtype=np.int64)
        for r, row in enumerate(rows):
            for t, tok in enumerate(row):
                ids[r, t] = _tok_id(tok)
                mask[r, t] = 1
            wid_rows[r] = wid_rows[r] + [None] * (width - len(row))
        return FakeEncoding(
            {"input_ids": FakeTensor(ids), "attention_mask": FakeTensor(mask)},
            wid_rows,
        )


class FakeModel:
    def __init__(self, id2label):
        self.config = types.SimpleNamespace(id2label=id2label)
        self.eval_called = False
        self.device = None
        self.forward_batches = []

    def eval(self):
        self.eval_called = True
        return self

    def to(self, device):
        self.device = device
        return self

    def __call__(self, input_ids, attention_mask):
        ids = input_ids.arr
        self.forward_batches.append(ids.shape)
        logits = np.zeros(ids.shape + (N_LABELS,), dtype=np.float64)
        for r in range(ids.shape[0]):
            for t in range(ids.shape[1]):
                logits[r, t] = _logits_for_id(int(ids[r, t]))
        return types.SimpleNamespace(logits=FakeTensor(logits))


class _NoGrad:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _make_fake_torch(cuda=False, engines=("fbgemm", "qnnpack")):
    torch_mod = types.ModuleType("torch")
    torch_mod.no_grad = _NoGrad
    torch_mod.cuda = types.SimpleNamespace(is_available=lambda: cuda)
    torch_mod.backends = types.SimpleNamespace(
        quantized=types.SimpleNamespace(supported_engines=list(engines), engine=None)
    )
    torch_mod.qint8 = "qint8"
    quant_calls = []

    def quantize_dynamic(model, layer_set, dtype):
        quant_calls.append((layer_set, dtype))
        return model

    torch_mod.quantization = types.SimpleNamespace(quantize_dynamic=quantize_dynamic)
    torch_mod.nn = types.SimpleNamespace(
        Linear=type("Linear", (), {}),
        functional=types.SimpleNamespace(
            softmax=lambda t, dim: FakeTensor(_softmax(t.arr))
        ),
    )
    torch_mod._quant_calls = quant_calls
    return torch_mod


def _make_fake_transformers(id2label):
    tf_mod = types.ModuleType("transformers")
    tf_mod.AutoTokenizer = types.SimpleNamespace(
        from_pretrained=lambda path, use_fast: FakeFastTokenizer(path)
    )
    tf_mod.AutoModelForTokenClassification = types.SimpleNamespace(
        from_pretrained=lambda path: FakeModel(id2label)
    )
    return tf_mod


@pytest.fixture
def stub_torch(monkeypatch):
    def install(id2label=None, cuda=False, engines=("fbgemm", "qnnpack")):
        if id2label is None:
            id2label = {i: f"LABEL_{i}" for i in range(N_LABELS)}
        torch_mod = _make_fake_torch(cuda=cuda, engines=engines)
        monkeypatch.setitem(sys.modules, "torch", torch_mod)
        monkeypatch.setitem(
            sys.modules, "transformers", _make_fake_transformers(id2label)
        )
        return torch_mod

    return install


def _expected_tags(words: list[str], max_length: int, labels: list[str]):
    """Independent recompute of tag_batch's answer for ONE sentence via
    the pure (golden-tested) realign_wordpieces."""
    from transner_ray.tagger import realign_wordpieces

    toks, wids = [], []
    for wi, w in enumerate(words):
        for st in _subtokens(w):
            toks.append(st)
            wids.append(wi)
    toks, wids = toks[: max_length - 2], wids[: max_length - 2]
    seq = [CLS] + toks + [SEP]
    word_ids = [None] + wids + [None]
    wp_labels, wp_scores = [], []
    for tok in seq:
        probs = _softmax(_logits_for_id(_tok_id(tok)))
        wp_labels.append(labels[int(probs.argmax())])
        wp_scores.append(float(probs.max()))
    return realign_wordpieces(words, word_ids, wp_labels, wp_scores)


def test_bert_tagger_forward_contract(stub_torch):
    """tag_batch end-to-end through the stub: batching, padding rows,
    word_ids realignment, softmax-max confidences — output equals the
    independent realign_wordpieces recompute per sentence."""
    stub_torch()
    from transner_ray.tagger import BIO_LABELS, BertTagger

    tagger = BertTagger("fake-model")
    assert tagger.device == "cpu" and tagger.model.eval_called
    assert tagger.labels == list(BIO_LABELS)  # LABEL_i placeholders → fixed head

    sents = [
        "mario rossi è nato a milano",
        "x",
        "una frase più lunga con parole di varia lunghezza qui",
    ]
    got = tagger.tag_batch(sents)
    assert len(got) == len(sents)
    for s, (wl, scores) in zip(sents, got):
        exp_wl, exp_scores = _expected_tags(s.split(), 512, tagger.labels)
        assert wl == exp_wl
        assert scores == pytest.approx(exp_scores)
        assert len(wl) == len(s.split())  # no truncation at 512
    # ONE batched forward for the whole call (GPU-batching contract)
    assert len(tagger.model.forward_batches) == 1
    assert tagger.model.forward_batches[0][0] == len(sents)

    # tag() is the single-sentence wrapper over the same path
    wl1, sc1 = tagger.tag(sents[0])
    assert wl1 == got[0][0] and sc1 == pytest.approx(got[0][1])


def test_bert_tagger_empty_and_blank_sentences(stub_torch):
    stub_torch()
    from transner_ray.tagger import BertTagger

    tagger = BertTagger("fake-model")
    assert tagger.tag_batch([]) == []
    # blanks produce empty results WITHOUT touching tokenizer/model
    assert tagger.tag_batch(["", "   "]) == [([], []), ([], [])]
    assert tagger.model.forward_batches == []
    # mixed: blanks keep their slots, non-blanks are forwarded together
    out = tagger.tag_batch(["", "mario va", ""])
    assert out[0] == ([], []) and out[2] == ([], [])
    assert [w for w, _ in out[1][0]] == ["mario", "va"]
    assert tagger.model.forward_batches == [(1, 5)]  # CLS mar io va SEP


def test_bert_tagger_truncation_drops_tail_words(stub_torch):
    """max_seq_length caps the wordpiece stream (ner.py:99): words whose
    sub-tokens are all truncated away vanish from the prediction."""
    stub_torch()
    from transner_ray.tagger import BertTagger

    tagger = BertTagger("fake-model", max_seq_length=8)
    words = ["abcdef", "ghijkl", "mnopqr", "stuvwx"]  # 2 subtokens each
    (wl, scores), = tagger.tag_batch([" ".join(words)])
    exp_wl, exp_scores = _expected_tags(words, 8, tagger.labels)
    assert wl == exp_wl
    assert scores == pytest.approx(exp_scores)
    # 8-cap = 6 subtokens = first 3 words; the 4th is dropped
    assert [w for w, _ in wl] == words[:3]


def test_bert_tagger_checkpoint_id2label_wins(stub_torch):
    """A checkpoint carrying a REAL id2label mapping overrides the fixed
    13-label head, in id order."""
    real = {0: "O", 1: "B-PER", 2: "I-PER"}
    stub_torch(id2label=real)
    from transner_ray.tagger import BertTagger

    tagger = BertTagger("fake-model")
    assert tagger.labels == ["O", "B-PER", "I-PER"]


def test_bert_tagger_quantization_branch(stub_torch):
    torch_mod = stub_torch()
    from transner_ray.tagger import BertTagger

    tagger = BertTagger("fake-model", quantization=True, device="cpu")
    assert torch_mod.backends.quantized.engine == "fbgemm"
    assert torch_mod._quant_calls == [({torch_mod.nn.Linear}, "qint8")]
    # quantized path still tags
    (wl, _), = tagger.tag_batch(["mario va"])
    assert [w for w, _ in wl] == ["mario", "va"]


def test_bert_tagger_quantization_guards(stub_torch):
    stub_torch(engines=("qnnpack",))
    from transner_ray.tagger import BertTagger

    with pytest.raises(RuntimeError, match="FBGEMM"):
        BertTagger("fake-model", quantization=True, device="cpu")
    with pytest.raises(ValueError, match="CPU-only"):
        BertTagger("fake-model", quantization=True, device="cuda")


def test_bert_tagger_rejects_slow_tokenizer(stub_torch, monkeypatch):
    stub_torch()
    slow = FakeFastTokenizer("p")
    slow.is_fast = False
    monkeypatch.setattr(
        sys.modules["transformers"].AutoTokenizer,
        "from_pretrained",
        lambda path, use_fast: slow,
    )
    from transner_ray.tagger import BertTagger

    with pytest.raises(ValueError, match="FAST tokenizer"):
        BertTagger("fake-model")


def test_bert_tagger_cuda_device_default(stub_torch):
    stub_torch(cuda=True)
    from transner_ray.tagger import BertTagger

    tagger = BertTagger("fake-model")
    assert tagger.device == "cuda"
    assert tagger.model.device == "cuda"


def test_bert_stream_feeds_bio_decode(stub_torch):
    """The stubbed BertTagger's output stream is consumable by the
    frozen decoder — same contract RuleTagger satisfies."""
    stub_torch()
    from transner_ray import textops
    from transner_ray.tagger import BertTagger

    tagger = BertTagger("fake-model")
    s = "mario rossi va a milano"
    wl, scores = tagger.tag(s)
    ents = textops.bio_decode(s, wl, scores)
    assert isinstance(ents, list)  # labels are hash-noise; decode must not crash
    for e in ents:
        assert set(e) >= {"type", "value", "confidence", "offset"}


# ---------------------------------------------------------------- dates


@pytest.fixture
def stub_dateparser(monkeypatch):
    def install(search_impl):
        dp = types.ModuleType("dateparser")
        dp_search = types.ModuleType("dateparser.search")
        dp_search.search_dates = search_impl
        dp.search = dp_search
        monkeypatch.setitem(sys.modules, "dateparser", dp)
        monkeypatch.setitem(sys.modules, "dateparser.search", dp_search)

    return install


class _FakeLid:
    """fasttext-model shape: predict(text, k=1) → (labels, probs)."""

    def __init__(self, lang="it"):
        self.lang = lang
        self.seen = []

    def predict(self, text, k=1):
        self.seen.append(text)
        return ([f"__label__{self.lang}"], [0.99])


def test_dateparser_hook_lid_and_language_passthrough(stub_dateparser):
    calls = []

    def fake_search(sentence, languages=None):
        calls.append((sentence, languages))
        return [("12/05/2021", object())]

    stub_dateparser(fake_search)
    from transner_ray.dates import make_dateparser_search_dates

    lid = _FakeLid("it")
    hook = make_dateparser_search_dates(lid_model=lid)
    out = hook("Nato a Milano, il 12/05/2021!")
    assert [t for t, _ in out] == ["12/05/2021"]
    # LID saw the alnum-cleaned sentence (ner.py:276-278 regex)
    assert lid.seen == [re.sub(r"[^a-zA-Z0-9 ]", "", "Nato a Milano, il 12/05/2021!")]
    # detected language forwarded to dateparser
    assert calls == [("Nato a Milano, il 12/05/2021!", ["it"])]

    # explicit lang skips LID entirely
    hook("altra frase.", lang="en")
    assert calls[-1] == ("altra frase.", ["en"])
    assert len(lid.seen) == 1

    # no lid_model and no lang → dateparser auto-detection (languages=None)
    hook_nolid = make_dateparser_search_dates()
    hook_nolid("een zin.")
    assert calls[-1] == ("een zin.", None)


def test_dateparser_hook_valueerror_yields_no_dates(stub_dateparser):
    def raising(sentence, languages=None):
        raise ValueError("Unknown language")

    stub_dateparser(raising)
    from transner_ray.dates import make_dateparser_search_dates

    assert make_dateparser_search_dates()("qualcosa") == []


def test_dateparser_hook_lid_valueerror_yields_no_dates(stub_dateparser):
    """A ValueError from the LID step is the reference's ``continue``
    too (ner.py:274-281): no dates, and dateparser is never called."""
    calls = []
    stub_dateparser(lambda s, languages=None: calls.append(s) or [("x", object())])
    from transner_ray.dates import make_dateparser_search_dates

    class _RaisingLid:
        def predict(self, text, k=1):
            raise ValueError("predict processes one line at a time")

    assert make_dateparser_search_dates(lid_model=_RaisingLid())("riga\nrotta") == []
    assert calls == []


def test_dateparser_hook_none_result_normalized(stub_dateparser):
    """dateparser returns None (not []) when nothing is found — the
    hook normalizes it so find_date_entities always sees a list."""
    stub_dateparser(lambda s, languages=None: None)
    from transner_ray.dates import make_dateparser_search_dates

    assert make_dateparser_search_dates()("niente") == []


def test_dateparser_hook_drives_find_date_entities(stub_dateparser):
    """Full O11 path with the dateparser-shaped hook: the (text,
    datetime) tuples flow through the reference control flow."""
    import datetime

    stub_dateparser(
        lambda s, languages=None: [("12/05/2021", datetime.datetime(2021, 5, 12))]
    )
    from transner_ray.dates import find_date_entities, make_dateparser_search_dates

    hook = make_dateparser_search_dates(lid_model=_FakeLid("it"))
    ents = find_date_entities("aperto dal 12/05/2021 in poi", [], search_dates=hook)
    assert [(e["type"], e["value"]) for e in ents] == [("TIME", "12/05/2021")]
