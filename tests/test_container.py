"""Model containers whose checksum holds but whose header is wrong."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqtag import tagger, tnt
from seqtag.container import MAGIC, ModelError, load_container, save_container


def _write(path, header):
    """A container holding `header` verbatim and no array blocks."""
    hbytes = json.dumps(header).encode("utf-8")
    body = MAGIC + struct.pack("<Q", len(hbytes)) + hbytes
    path.write_bytes(body + hashlib.sha256(body).digest())
    return str(path)


@pytest.mark.parametrize("loader", [load_container, tagger.load, tnt.load_hmm])
@pytest.mark.parametrize(
    "header,field",
    [
        ([{"kind": "tnt"}], "header is a JSON list, not an object"),
        ({"kind": "tnt", "arrays": 5}, "'arrays'"),
        ({"kind": "bilstm", "arrays": [{"name": "w"}]}, "'arrays'.*shape"),
        ({"kind": "tnt", "arrays": [{"name": "w", "shape": [-1]}]}, "'arrays'.*negative"),
    ],
    ids=["not-an-object", "arrays-not-a-list", "no-shape", "negative-shape"],
)
def test_bad_header_is_a_model_error(tmp_path, loader, header, field):
    path = _write(tmp_path / "m.bin", header)
    with pytest.raises(ModelError, match=field) as err:
        loader(path)
    assert path in str(err.value)


def test_header_without_arrays_is_a_model_error(tmp_path):
    path = _write(tmp_path / "m.bin", {"kind": "tnt"})
    with pytest.raises(ModelError, match="'arrays'"):
        load_container(path)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_BLOCKS = st.lists(
    st.tuples(_TEXT, arrays(np.float64, st.lists(st.integers(0, 3), max_size=3).map(tuple))),
    max_size=3,
    unique_by=lambda block: block[0],
)


@settings(max_examples=60, deadline=None)
@given(header=st.dictionaries(_TEXT.filter(lambda key: key != "arrays"), _JSON, max_size=4), blocks=_BLOCKS)
def test_save_then_load_round_trips(tmp_path_factory, header, blocks):
    path = str(tmp_path_factory.mktemp("c") / "m.bin")
    save_container(path, header, blocks)
    got_header, got_arrays = load_container(path)
    assert got_header.pop("arrays") == [{"name": name, "shape": list(a.shape)} for name, a in blocks]
    assert got_header == header
    assert list(got_arrays) == [name for name, _ in blocks]
    for name, a in blocks:  # bit for bit, NaN payloads and -0.0 included
        assert got_arrays[name].shape == a.shape and got_arrays[name].tobytes() == a.tobytes()
