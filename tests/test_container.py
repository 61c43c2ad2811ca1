"""Model containers whose checksum holds but whose header is wrong."""

import hashlib
import json
import struct

import pytest

from seqtag import tagger, tnt
from seqtag.container import MAGIC, ModelError, load_container


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
