"""TnT gives exactly the outputs recorded in tests/golden/tnt.json by an
earlier commit (tests/make_golden.py): model file, weights, tries and tags."""

import hashlib
import json
from pathlib import Path

import pytest

from seqtag import tnt

from make_golden import CORPUS, RECORD, corpora, encode

GOLDEN = json.loads(RECORD.read_text(encoding="utf-8"))


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
