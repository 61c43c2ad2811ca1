"""Self-describing binary model container.

Layout: 8-byte magic (name + format version), little-endian uint64 header
length, UTF-8 JSON header, raw little-endian float64 array blocks in
manifest order, SHA-256 checksum of everything before it.  The JSON header
is serialized with sorted keys so identical models produce byte-identical
files.
"""

import hashlib
import json
import struct

import numpy as np

MAGIC = b"SEQTAG\x00\x01"


class ModelError(Exception):
    """Unreadable, corrupt, or incompatible model file."""


def save_container(path, header, arrays):
    """Write header dict + named float64 arrays; returns bytes written."""
    header = dict(header)
    header["arrays"] = [{"name": name, "shape": list(a.shape)} for name, a in arrays]
    hbytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    body = bytearray()
    body += MAGIC
    body += struct.pack("<Q", len(hbytes))
    body += hbytes
    for _, a in arrays:
        body += np.ascontiguousarray(a, dtype="<f8").tobytes()
    body += hashlib.sha256(bytes(body)).digest()
    with open(path, "wb") as fh:
        fh.write(body)
    return len(body)


def load_container(path):
    """Read and verify a container; returns (header, {name: array})."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ModelError(f"{path}: {e}") from e
    if len(data) < len(MAGIC) + 8 + 32:
        raise ModelError(f"{path}: truncated file")
    if data[: len(MAGIC)] != MAGIC:
        if data[:7] == MAGIC[:7]:
            raise ModelError(f"{path}: unsupported container version")
        raise ModelError(f"{path}: not a model container (bad magic)")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ModelError(f"{path}: checksum mismatch (corrupt file)")
    hlen = struct.unpack("<Q", body[8:16])[0]
    if 16 + hlen > len(body):
        raise ModelError(f"{path}: truncated header")
    try:
        header = json.loads(body[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"{path}: bad header: {e}") from e
    if not isinstance(header, dict):
        raise ModelError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    offset = 16 + hlen
    arrays = {}
    for name, shape in header_field(path, header, "arrays", _manifest):
        nbytes = 8 * int(np.prod(shape)) if shape else 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) < nbytes:
            raise ModelError(f"{path}: truncated array block {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise ModelError(f"{path}: {len(body) - offset} unexpected trailing bytes")
    return header, arrays


def _manifest(specs):
    """[(name, shape)] of the header's array list."""
    out = []
    for spec in specs:
        shape = tuple(int(n) for n in spec["shape"])
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in shape {list(shape)}")
        out.append((str(spec["name"]), shape))
    return out


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
