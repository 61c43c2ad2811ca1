"""Self-describing binary model container.

Layout: 8-byte magic (name + format version), little-endian uint64 header
length, UTF-8 JSON header, raw little-endian float64 array blocks in
manifest order, SHA-256 checksum of everything before it.  The JSON header
is serialized with sorted keys so identical models produce byte-identical
files.

Both directions stream, and neither holds a copy of the whole file.
`save_container` encodes the header before it opens the file, then writes
and hashes each piece in turn, each array from a view of its own float64
buffer.  `load_container` reads the file once: every byte it parses or
returns is hashed in the same read, each array block straight into the
array that is returned, and anything else in chunks of at most 1 MiB.  No
fault found in the header is reported until the digest matches, so a
corrupt file reads as corrupt, never as a model with a bad header.  Beyond
the arrays it returns, loading holds the header and one chunk; saving holds
the encoded header and, for arrays that are not float64 already, one
converted copy at a time.
"""

import hashlib
import json
import math
import os
import re
import struct
from itertools import chain, repeat

import numpy as np

MAGIC = b"SEQTAG\x00\x01"
_HEAD = len(MAGIC) + 8  # magic and header length
_DIGEST = 32
_CHUNK = 1 << 20
_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode


class ModelError(Exception):
    """Unreadable, corrupt, or incompatible model file."""


def save_container(path, header, arrays):
    """Write header dict + named float64 arrays; returns bytes written.

    ValueError, before the file is opened, for a header that UTF-8 cannot
    encode (a lone surrogate), naming the string that holds it.
    """
    header = dict(header)
    header["arrays"] = [{"name": name, "shape": list(a.shape)} for name, a in arrays]
    hbytes = _encode(header)
    sha = hashlib.sha256()
    written = 0
    blocks = (np.ascontiguousarray(a, "<f8").reshape(-1).view(np.uint8) for _, a in arrays)
    with open(path, "wb") as fh:
        for piece in chain((MAGIC, struct.pack("<Q", len(hbytes)), hbytes), blocks):
            sha.update(piece)
            fh.write(piece)
            written += len(piece)
        fh.write(sha.digest())
    return written + _DIGEST


def _encode(header):
    """The header's sorted-key JSON in UTF-8."""
    try:
        return json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        where, bad = next((w, s) for w, s in _strings(header, "header") if _SURROGATE.search(s))
        raise ValueError(f"{where} is {bad!r}, which UTF-8 cannot encode") from None


def _strings(node, where):
    """(where, s) for every string s in a JSON-like tree, keys included."""
    if isinstance(node, str):
        yield where, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _strings(key, f"{where} key")
            yield from _strings(value, f"{where}[{key!r}]")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            yield from _strings(value, f"{where}[{i}]")


def load_container(path):
    """Read and verify a container; returns (header, {name: array})."""
    try:
        with open(path, "rb") as fh:
            return _load(path, fh, os.fstat(fh.fileno()).st_size)
    except OSError as e:
        raise ModelError(f"{path}: {e}") from e


def _load(path, fh, size):
    """One pass over an open container of `size` bytes; see the module
    docstring for what is checked when."""
    if size < _HEAD + _DIGEST:
        raise ModelError(f"{path}: truncated file")
    head = fh.read(_HEAD)
    if head[: len(MAGIC)] != MAGIC:
        if head[:7] == MAGIC[:7]:
            raise ModelError(f"{path}: unsupported container version")
        raise ModelError(f"{path}: not a model container (bad magic)")
    sha = hashlib.sha256(head)
    end = size - _DIGEST
    fault = None
    try:
        header, arrays = _parse(path, fh, sha, struct.unpack("<Q", head[len(MAGIC) :])[0], end)
    except ModelError as e:
        fault = e
    left = end - fh.tell()
    buf = memoryview(bytearray(min(left, _CHUNK)))
    while left:
        left -= len(_read(path, fh, sha, buf[: min(left, _CHUNK)]))
    if fh.read(_DIGEST) != sha.digest():
        raise ModelError(f"{path}: checksum mismatch (corrupt file)")
    if fault is not None:
        raise fault
    return header, arrays


def _parse(path, fh, sha, hlen, end):
    """The header and the array blocks that follow it, up to offset end;
    ModelError for the first fault, which the caller defers."""
    if _HEAD + hlen > end:
        raise ModelError(f"{path}: truncated header")
    hbytes = _read(path, fh, sha, bytearray(hlen))
    try:
        header = json.loads(hbytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"{path}: bad header: {e}") from e
    if not isinstance(header, dict):
        raise ModelError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    arrays = {}
    for name, shape in header_field(path, header, "arrays", _manifest):
        if 8 * math.prod(shape) > end - fh.tell():
            raise ModelError(f"{path}: truncated array block {name!r}")
        try:
            a = np.empty(shape, "<f8")
        except ValueError as e:  # zero-size, but a dimension numpy cannot hold
            raise ModelError(f"{path}: bad array block {name!r}: {e}") from e
        _read(path, fh, sha, a.reshape(-1).view(np.uint8))
        arrays[name] = a
    if fh.tell() != end:
        raise ModelError(f"{path}: {end - fh.tell()} unexpected trailing bytes")
    return header, arrays


def _read(path, fh, sha, buf):
    """buf filled from fh and hashed; a short read means the file shrank
    while it was read."""
    if fh.readinto(buf) != len(buf):
        raise ModelError(f"{path}: truncated file")
    sha.update(buf)
    return buf


def _manifest(specs):
    """[(name, shape)] of the header's array list: distinct non-empty string
    names, each with a list of non-negative ints (not bools) for a shape."""
    out = []
    for name, spec in zip(distinct_strings([spec["name"] for spec in specs], "array names"), specs):
        shape = spec["shape"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"shape {shape!r} of {name!r} is not a list of non-negative ints")
        out.append((name, tuple(shape)))
    return out


def distinct_strings(items, name):
    """items, if it is a list of distinct non-empty strings; ValueError
    naming name if not.  A JSON string is not split into characters, and
    nothing unhashable reaches set()."""
    strings = isinstance(items, list) and all(map(isinstance, items, repeat(str)))
    if not strings or "" in items or len(set(items)) != len(items):
        raise ValueError(f"{name!r} must be a list of distinct non-empty strings")
    return items


def header_field(path, header, name, decode):
    """decode(header[name]).

    A missing field, or one that decode rejects, raises ModelError naming the
    file and the field: a checksum only proves the header is what was
    written, not that a model of this kind wrote it.
    """
    if name not in header:
        raise ModelError(f"{path}: header has no {name!r} field")
    try:
        return decode(header[name])
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ModelError(f"{path}: bad {name!r} field: {type(e).__name__}: {e}") from e
