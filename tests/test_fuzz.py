"""Loaders against hostile input.

A model header mutated at one node and saved again with a valid checksum
may fail to load only with ModelError, and a model that loads must tag
known, unknown, non-ASCII, astral and lone-surrogate words.  A mutated
CoNLL-U or embedding file may fail to read only with DataError.  Every
draw is small: no value can make a loader allocate much memory beyond
what the file itself holds.
"""

import copy
import functools
import math
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqtag import tagger
from seqtag.container import ModelError, load_container, save_container
from seqtag.corpus import Corpus, DataError, Sentence, read_conllu
from seqtag.representations import read_embeddings
from seqtag.tnt import load_hmm, save_hmm, train_hmm

SENTENCES = [
    ["the", "dog", "barks"],  # known
    ["a", "wug", "zorps"],  # unknown
    ["Naïve", "café", "naïve"],  # non-ASCII, known and not
    ["\U0001d518", "x\U0001d518", "Ǆ"],  # astral, and an upper-case letter beyond Latin-1
    ["\ud800", "a\udfff", "The"],  # lone surrogates
]

# values no saved model holds: huge, non-finite and signed-zero numbers,
# bools, empty or reserved strings, and nested containers
HOSTILE = st.one_of(
    st.sampled_from([
        None, True, False, 0, -1, 1, 3, 2**31, 2**63, -(2**63), 10**9, 10**400, -(10**400),
        math.nan, math.inf, -math.inf, -0.0, 0.5, 1e308,
        "", "x", "<s>", "<unk>", "w+c", "tnt", "bilstm", "NOUN",
        [], {}, [[]], [""], ["x", "x"], [1, [2]], {"name": "x", "shape": [1]},
    ]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.text(max_size=2), max_size=3),
)


def _corpus():
    sents = [
        (["the", "dog", "barks"], ["DET", "NOUN", "VERB"]),
        (["the", "cat", "sleeps"], ["DET", "NOUN", "VERB"]),
        (["a", "naïve", "dog", "barks"], ["DET", "ADJ", "NOUN", "VERB"]),
        (["Naïve", "cats", "sleep"], ["ADJ", "NOUN", "VERB"]),
        (["The", "big", "dog", "naps"], ["DET", "ADJ", "NOUN", "VERB"]),
    ]
    return Corpus([Sentence(forms, tags) for forms, tags in sents])


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """kind -> (header, arrays, path to write mutations to, loader)."""
    out = {}
    for kind in ("w+c", "c+b"):
        hp = tagger.Hyperparams(epochs=1, word_dim=4, subtoken_dim=3, hidden_dim=3, repr_mode=kind, freqbin=True)
        path = str(tmp_path_factory.mktemp("fuzz") / "model.bin")
        tagger.save(tagger.train(_corpus(), hp), path)
        out[kind] = (*load_container(path), path, tagger.load)
    path = str(tmp_path_factory.mktemp("fuzz") / "model.bin")
    save_hmm(train_hmm(_corpus(), max_suffix_len=3), path)
    out["tnt"] = (*load_container(path), path, load_hmm)
    return out


def _paths(node, path=()):
    """The path of every node under node; the array manifest is skipped,
    since save_container writes its own."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if path or key != "arrays":
            yield (*path, key)
            yield from _paths(value, (*path, key))


def _at(node, path):
    return functools.reduce(operator.getitem, path, node)


@st.composite
def _mutations(draw, header):
    """A copy of header with one node dropped, or replaced by a hostile
    value or by a copy of another node (which makes duplicate strings)."""
    paths = list(_paths(header))
    *parent, key = draw(st.sampled_from(paths))
    mutated = copy.deepcopy(header)
    action = draw(st.sampled_from(["drop", "hostile", "copy"]))
    if action == "drop":
        del _at(mutated, parent)[key]
    else:
        value = draw(HOSTILE) if action == "hostile" else copy.deepcopy(_at(header, draw(st.sampled_from(paths))))
        _at(mutated, parent)[key] = value
    return mutated


@pytest.mark.parametrize("kind", ["w+c", "c+b", "tnt"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_header_loads_or_raises_model_error(saved, kind, data):
    header, arrays, path, load = saved[kind]
    save_container(path, data.draw(_mutations(header)), list(arrays.items()))
    try:
        model = load(path)
    except ModelError:
        return
    for tokens in SENTENCES:
        tags = model.predict(tokens)
        assert len(tags) == len(tokens) and set(tags) <= set(model.tagset)


CONLLU = (
    "# text = the dog barks\n"
    "1\tthe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
    "2-3\tdogbarks\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "2\tdog\tdog\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
    "3\tbarks\tbark\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3.1\tgone\t_\tX\t_\t_\t_\t_\t_\t_\n"
    "\n"
    "1\tNaïve\tnaïve\tADJ\t_\t_\t2\tamod\t_\t_\n"
    "2\t\U0001d518\t_\tSYM\t_\t_\t0\troot\t_\t_\n"
    "\n"
).encode("utf-8")
EMBEDDINGS = "dog 0.5 -1.0 2.0\ncat 1.5 0.25 -0.75\nnaïve 1e-3 -0 7\n".encode("utf-8")


@st.composite
def _edited(draw, data):
    """data after one to three line or byte edits: a line dropped,
    duplicated or swapped with the next, a byte replaced, a few bytes
    inserted, or the tail cut off."""
    for _ in range(draw(st.integers(1, 3))):
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["drop", "dup", "swap", "byte", "insert", "cut"]))
        if edit == "drop":
            lines[i : i + 1] = []
        elif edit == "dup":
            lines[i : i + 1] = lines[i : i + 1] * 2
        elif edit == "swap":
            lines[i : i + 2] = lines[i : i + 2][::-1]
        if edit in ("drop", "dup", "swap"):
            data = b"".join(lines)
        elif edit == "byte" and pos < len(data):
            data = data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1 :]
        elif edit == "insert":
            insert = draw(st.one_of(st.binary(max_size=4), st.sampled_from([b"\t", b"\n", b"\r", b"#", b"-", b"."])))
            data = data[:pos] + insert + data[pos:]
        elif edit == "cut":
            data = data[:pos]
    return data


@settings(max_examples=100, deadline=None)
@given(data=_edited(CONLLU))
def test_mutated_conllu_reads_or_raises_data_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("conllu") / "c.conllu"
    path.write_bytes(data)
    try:
        corpus = read_conllu(str(path))
    except DataError:
        return
    for sent in corpus:
        assert sent.forms and len(sent.forms) == len(sent.tags)
        assert all(text and "\t" not in text and "\n" not in text for text in sent.forms + sent.tags)


@settings(max_examples=100, deadline=None)
@given(data=_edited(EMBEDDINGS))
def test_mutated_embeddings_read_or_raise_data_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("emb") / "e.txt"
    path.write_bytes(data)
    try:
        rows = read_embeddings(str(path))
    except DataError:
        return
    assert len({len(v) for v in rows.values()}) <= 1
    assert all(math.isfinite(x) for v in rows.values() for x in v)
