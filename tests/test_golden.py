"""The taggers give the outputs that an earlier commit recorded under
tests/golden/ (tests/make_golden.py).  TnT: exactly the same model file,
weights, tries and tags.  Bi-LSTM, in every representation mode with the
frequency head off and on: the same tags, and the same per-epoch losses and
parameter arrays to 1e-12 relative."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from seqtag import tnt

from make_golden import (
    BILSTM_ARRAYS,
    BILSTM_CONFIGS,
    BILSTM_CORPUS,
    BILSTM_HP,
    BILSTM_RECORD,
    CORPUS,
    RECORD,
    bilstm_models,
    corpora,
    encode,
)

GOLDEN = json.loads(RECORD.read_text(encoding="utf-8"))
GOLDEN_BILSTM = json.loads(BILSTM_RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def trained():
    """{name: (model, test)}, one model per recorded corpus."""
    return {name: (tnt.train_hmm(train), test) for name, (train, test) in corpora().items()}


def test_fixture_covers_the_corpora():
    assert GOLDEN["corpus"] == CORPUS
    assert sorted(GOLDEN) == ["capitalised", "corpus", "plain"]
    assert all(GOLDEN[name]["trie_rows"][1] for name in ("plain", "capitalised"))
    assert GOLDEN["capitalised"]["trie_rows"][0] and not GOLDEN["plain"]["trie_rows"][0]


@pytest.mark.parametrize("name", ["plain", "capitalised"])
def test_model_is_the_recorded_one(tmp_path, trained, name):
    model, _ = trained[name]
    want = GOLDEN[name]
    path = tmp_path / "tnt.bin"
    tnt.save_hmm(model, str(path))
    assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == want["sha256"]
    assert model.tagset == want["tagset"]
    assert [x.hex() for x in model.lambdas] == want["lambdas"]
    assert model.theta.hex() == want["theta"]
    assert [len(model.trie_upper.dist), len(model.trie_lower.dist)] == want["trie_rows"]


@pytest.mark.parametrize("name", ["plain", "capitalised"])
def test_tags_are_the_recorded_ones(trained, name):
    model, test = trained[name]
    want = GOLDEN[name]
    assert len(test) == len(want["tags_exact"]) == len(want["tags_beam"])
    for i, sent in enumerate(test):
        assert encode(model, tnt.viterbi(model, sent.forms, 0)) == want["tags_exact"][i], i
        assert encode(model, model.predict(sent.forms)) == want["tags_beam"][i], i


@pytest.fixture(scope="module")
def bilstms():
    """({config: model}, test split), one model per recorded configuration."""
    return bilstm_models()


def test_bilstm_fixture_covers_every_configuration():
    assert GOLDEN_BILSTM["corpus"] == BILSTM_CORPUS and GOLDEN_BILSTM["hp"] == BILSTM_HP
    assert sorted(GOLDEN_BILSTM) == sorted(["corpus", "hp", *BILSTM_CONFIGS])
    assert len(BILSTM_CONFIGS) == 10


@pytest.mark.parametrize("name", sorted(BILSTM_CONFIGS))
def test_bilstm_trains_and_tags_as_recorded(bilstms, name):
    models, test = bilstms
    model, want = models[name], GOLDEN_BILSTM[name]
    assert [encode(model, model.predict(s.forms)) for s in test] == want["tags"]
    losses = [entry["mean_loss"] for entry in model.train_history]
    np.testing.assert_allclose(losses, want["losses"], rtol=1e-12, atol=0)
    with np.load(BILSTM_ARRAYS) as arrays:
        names = sorted(key.split("/", 1)[1] for key in arrays.files if key.split("/", 1)[0] == name)
        assert names == sorted(p.name for p in model.parameters())
        for p in model.parameters():
            np.testing.assert_allclose(p.v, arrays[f"{name}/{p.name}"], rtol=1e-12, atol=0, err_msg=p.name)
