"""Committed model files, written by an earlier commit (tests/make_legacy.py),
still load, tag as recorded, and come back byte for byte when saved again."""

import hashlib
import json
from pathlib import Path

import pytest

from seqtag import tagger, tnt

HERE = Path(__file__).resolve().parent / "legacy"
RECORD = json.loads((HERE / "legacy.json").read_text(encoding="utf-8"))
FORMATS = {"bilstm-wc-freqbin.bin": (tagger.load, tagger.save), "tnt.bin": (tnt.load_hmm, tnt.save_hmm)}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_file_is_the_recorded_one(name):
    data = (HERE / name).read_bytes()
    assert len(data) == RECORD[name]["bytes"]
    assert hashlib.sha256(data).hexdigest() == RECORD[name]["sha256"]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_loads_and_tags_as_recorded(name):
    load, _ = FORMATS[name]
    model = load(str(HERE / name))
    for sentence, tags in zip(RECORD[name]["sentences"], RECORD[name]["tags"], strict=True):
        assert " ".join(model.predict(sentence.split(" "))) == tags, sentence


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_saved_again_gives_the_same_bytes(tmp_path, name):
    load, save = FORMATS[name]
    save(load(str(HERE / name)), str(tmp_path / name))
    assert (tmp_path / name).read_bytes() == (HERE / name).read_bytes()
