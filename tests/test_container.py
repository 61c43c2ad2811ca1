"""The model container: every fault a reader reports, agreement with the
whole-buffer writer and reader it replaced, and the memory either one holds."""

import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqtag import tagger, tnt
from seqtag.container import MAGIC, ModelError, load_container, save_container
from seqtag.corpus import Corpus, Sentence

from reference import reference_load_container, reference_save_container

MIB = 1 << 20


def _seal(path, body):
    """body followed by its digest, written to path."""
    path.write_bytes(body + hashlib.sha256(body).digest())
    return str(path)


def _write(path, header, blocks=b"", hlen=None):
    """A container holding `header` verbatim, then the raw `blocks`; hlen
    overrides the recorded header length."""
    hbytes = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    return _seal(path, MAGIC + struct.pack("<Q", len(hbytes) if hlen is None else hlen) + hbytes + blocks)


@pytest.mark.parametrize("loader", [load_container, tagger.load, tnt.load_hmm])
@pytest.mark.parametrize(
    "header,field",
    [
        ([{"kind": "tnt"}], "header is a JSON list, not an object"),
        ({"kind": "tnt", "arrays": 5}, "'arrays'"),
        ({"kind": "bilstm", "arrays": [{"name": "w"}]}, "'arrays'.*shape"),
        ({"kind": "tnt", "arrays": [{"name": "w", "shape": [-1]}]}, "'arrays'.*negative"),
        # these used to load: int() coerced each dimension, str() each name,
        # and a second block silently replaced the first of its name
        ({"kind": "tnt", "arrays": [{"name": "w", "shape": ["2"]}]}, "'arrays'.*shape"),
        ({"kind": "tnt", "arrays": [{"name": "w", "shape": [2.9]}]}, "'arrays'.*shape"),
        ({"kind": "tnt", "arrays": [{"name": "w", "shape": [2.0]}]}, "'arrays'.*shape"),
        ({"kind": "tnt", "arrays": [{"name": "w", "shape": [True, 2]}]}, "'arrays'.*shape"),
        ({"kind": "tnt", "arrays": [{"name": "w", "shape": 2}]}, "'arrays'.*shape"),
        ({"kind": "tnt", "arrays": [{"name": 7, "shape": [0]}]}, "'arrays'.*names"),
        ({"kind": "tnt", "arrays": [{"name": "", "shape": [0]}]}, "'arrays'.*names"),
        ({"kind": "tnt", "arrays": [{"name": "a", "shape": [0]}, {"name": "a", "shape": [0]}]}, "'arrays'.*names"),
    ],
    ids=["not-an-object", "arrays-not-a-list", "no-shape", "negative-shape", "string-dim", "float-dim",
         "integral-float-dim", "bool-dim", "shape-not-a-list", "int-name", "empty-name", "repeated-name"],
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
_NAME = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)  # array names
_BLOCKS = st.lists(
    st.tuples(_NAME, arrays(np.float64, st.lists(st.integers(0, 3), max_size=3).map(tuple))),
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


# Every fault, one test each ---------------------------------------------------


_W = {"kind": "tnt", "arrays": [{"name": "w", "shape": [3]}]}


class TestEveryFault:
    """One test for each fault that no other test names.  Bad magic and a
    bad checksum are in tests/test_tagger.py, a header that is not an
    object and a bad manifest in test_bad_header_is_a_model_error."""

    def _fails(self, path, message):
        with pytest.raises(ModelError, match=message) as err:
            load_container(path)
        assert str(path) in str(err.value)

    def test_unopenable_file(self, tmp_path):
        self._fails(str(tmp_path / "missing.bin"), "No such file")
        self._fails(str(tmp_path), "directory")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(MAGIC + b"\x00" * 39)  # one byte short of magic, length and digest
        self._fails(str(path), "truncated file")

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(MAGIC[:7] + b"\x02" + b"\x00" * 40)
        self._fails(str(path), "unsupported container version")

    def test_truncated_header(self, tmp_path):
        self._fails(_write(tmp_path / "m.bin", {"kind": "tnt"}, hlen=2**63), "truncated header")

    @pytest.mark.parametrize("hbytes", [b"\xff{}", b'{"kind": '], ids=["not-utf8", "not-json"])
    def test_bad_header(self, tmp_path, hbytes):
        self._fails(_write(tmp_path / "m.bin", hbytes), "bad header: ")

    def test_truncated_array_block(self, tmp_path):
        self._fails(_write(tmp_path / "m.bin", _W, b"\x00" * 16), "truncated array block 'w'")

    def test_trailing_bytes(self, tmp_path):
        self._fails(_write(tmp_path / "m.bin", _W, b"\x00" * 32), "8 unexpected trailing bytes")

    def test_zero_size_block_numpy_cannot_hold(self, tmp_path):
        header = {"arrays": [{"name": "w", "shape": [2**62, 0]}]}
        self._fails(_write(tmp_path / "m.bin", header), "bad array block 'w': ")

    def test_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        path = tmp_path / "m.bin"
        save_container(str(path), {"kind": "tnt"}, [("w", np.arange(3.0))])
        real = os.fstat

        def larger(fd):  # the size seen when the file was opened: 64 bytes more than are left
            st = real(fd)
            return os.stat_result(st[:6] + (st.st_size + 64,) + st[7:])

        monkeypatch.setattr(os, "fstat", larger)
        self._fails(str(path), "truncated file")

    def test_no_header_fault_before_the_checksum_holds(self, tmp_path):
        for header, blocks in [([1], b""), (_W, b"\x00" * 16), (_W, b"\x00" * 32)]:
            path = tmp_path / "m.bin"
            _write(path, header, blocks)
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 1
            path.write_bytes(bytes(blob))
            self._fails(str(path), "checksum mismatch")


# Unencodable headers ----------------------------------------------------------


_LONE = Sentence(["a\ud800", "b"], ["X", "Y"])
_TINY = tagger.Hyperparams(epochs=1, word_dim=4, subtoken_dim=3, hidden_dim=3, repr_mode="w")
_TRAIN_AND_SAVE = {
    "tnt": lambda path: tnt.save_hmm(tnt.train_hmm(Corpus([_LONE])), path),
    "bilstm": lambda path: tagger.save(tagger.train(Corpus([_LONE, _LONE]), _TINY), path),
}


@pytest.mark.parametrize("kind", sorted(_TRAIN_AND_SAVE))
@pytest.mark.parametrize("existing", [None, b"an older model"])
def test_unencodable_header_raises_before_the_file_is_opened(tmp_path, kind, existing):
    path = tmp_path / "m.bin"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(ValueError, match=r"'a\\ud800', which UTF-8 cannot encode"):
        _TRAIN_AND_SAVE[kind](str(path))
    assert (path.read_bytes() if path.exists() else None) == existing


def test_unencodable_header_names_the_string(tmp_path):
    path = tmp_path / "m.bin"
    with pytest.raises(ValueError, match=r"header\['forms'\]\[1\] is 'b\\udfff'"):
        save_container(str(path), {"forms": ["a", "b\udfff"]}, [])
    with pytest.raises(ValueError, match=r"header\['counts'\] key is '\\ud800'"):
        save_container(str(path), {"counts": {"\ud800": 1}}, [])
    assert not path.exists()


# Against the whole-buffer writer and reader -----------------------------------


_BITS = st.one_of(
    st.sampled_from([0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001]),
    st.integers(0, 2**64 - 1),
)  # -0.0, quiet and signalling NaNs with payloads, anything
_SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)  # 0-d and zero-size included
_ARRAY = st.one_of(
    arrays(np.uint64, _SHAPES, elements=_BITS).map(lambda a: a.view(np.float64)),
    arrays(np.float64, _SHAPES).map(lambda a: a.T),  # not C-contiguous when 2-d or more
    arrays(np.int64, _SHAPES, elements=st.integers(0, 2**53)),  # TnT's counts
)
_ANY_BLOCKS = st.lists(st.tuples(_NAME, _ARRAY), max_size=4, unique_by=lambda block: block[0])
_HEADERS = st.dictionaries(_TEXT.filter(lambda key: key != "arrays"), _JSON, max_size=4)


@settings(max_examples=80, deadline=None)
@given(header=_HEADERS, blocks=_ANY_BLOCKS)
def test_writer_bytes_equal_the_whole_buffer_writer(tmp_path_factory, header, blocks):
    base = tmp_path_factory.mktemp("c")
    n = save_container(str(base / "new.bin"), header, blocks)
    want = reference_save_container(str(base / "old.bin"), header, blocks)
    assert n == want
    assert (base / "new.bin").read_bytes() == (base / "old.bin").read_bytes()


def _outcome(load, path):
    """What a reader gives: the header and the arrays bit for bit, or its
    exception's type and message."""
    try:
        header, got = load(path)
    except Exception as e:  # noqa: BLE001 - any exception is an outcome to compare
        return type(e).__name__, str(e)
    return header, [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in got.items()]


@settings(max_examples=150, deadline=None)
@given(
    header=_HEADERS,
    blocks=_ANY_BLOCKS,
    edit=st.sampled_from(["flip", "truncate"]),
    at=st.floats(0.0, 1.0, exclude_max=True),
    xor=st.integers(1, 255),
    reseal=st.booleans(),
)
def test_readers_agree_under_flips_and_truncations(tmp_path_factory, header, blocks, edit, at, xor, reseal):
    """reseal recomputes the digest after the edit, so that the checks
    behind the checksum are reached too."""
    path = tmp_path_factory.mktemp("c") / "m.bin"
    save_container(str(path), header, blocks)
    blob = bytearray(path.read_bytes())
    body = blob[:-32] if reseal else blob
    k = int(at * len(body))
    if edit == "flip":
        body[k] ^= xor
    else:
        del body[k:]
    if reseal:
        _seal(path, bytes(body))
    else:
        path.write_bytes(bytes(body))
    assert _outcome(load_container, str(path)) == _outcome(reference_load_container, str(path))


# Memory -------------------------------------------------------------------------


def _peak(fn, *args):
    """Peak bytes traced while fn(*args) runs, what it returns included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    """An ~8 MB container: a 1000-word header and four 2 MB blocks."""
    header = {"kind": "tnt", "forms": [f"w{i}" for i in range(1000)]}
    blocks = [(f"a{i}", np.full((1024, 256), float(i))) for i in range(4)]
    path = str(tmp_path_factory.mktemp("big") / "m.bin")
    save_container(path, header, blocks)
    return path, header, blocks


def test_load_holds_no_more_than_the_arrays_and_a_chunk(big):
    path, _, blocks = big
    assert os.path.getsize(path) > 8 * MIB
    array_bytes = sum(a.nbytes for _, a in blocks)
    assert _peak(load_container, path) <= array_bytes + 2 * MIB


def test_save_holds_no_more_than_the_header_and_a_chunk(big, tmp_path):
    _, header, blocks = big
    hbytes = len(json.dumps(header).encode("utf-8"))
    assert _peak(save_container, str(tmp_path / "m.bin"), header, blocks) <= hbytes + 2 * MIB


def test_huge_claimed_block_is_not_allocated(tmp_path):
    path = _write(tmp_path / "m.bin", {"arrays": [{"name": "w", "shape": [2**40]}]}, b"\x00" * MIB)
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match="truncated array block 'w'"):
            load_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * MIB
