"""CoNLL-U ingestion, corruption, subsampling, statistics."""

import math
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.autodiff import Rng
from seqtag.corpus import (
    Corpus,
    DataError,
    Sentence,
    corrupt_labels,
    read_conllu,
    stats,
    subsample,
    write_conllu,
)

WELL_FORMED = """\
# sent_id = 1
1\tthe\t_\tDET\t_\t_\t_\t_\t_\t_
2\tdog\t_\tNOUN\t_\t_\t_\t_\t_\t_

1\tcats\t_\tNOUN\t_\t_\t_\t_\t_\t_
2\tsleep\t_\tVERB\t_\t_\t_\t_\t_\t_
"""

WITH_RANGE = """\
1\tvámonos\t_\tVERB\t_\t_\t_\t_\t_\t_
2-3\tal\t_\t_\t_\t_\t_\t_\t_\t_
2\ta\t_\tADP\t_\t_\t_\t_\t_\t_
3\tel\t_\tDET\t_\t_\t_\t_\t_\t_
3.1\tghost\t_\tX\t_\t_\t_\t_\t_\t_
4\tmar\t_\tNOUN\t_\t_\t_\t_\t_\t_
"""


class TestReadConllu:
    def test_two_sentences(self, tmp_path):
        p = tmp_path / "a.conllu"
        p.write_text(WELL_FORMED, encoding="utf-8")
        corpus = read_conllu(str(p))
        assert len(corpus) == 2
        assert corpus.sentences[0].forms == ["the", "dog"]
        assert corpus.sentences[0].tags == ["DET", "NOUN"]

    def test_range_and_empty_node_lines_skipped(self, tmp_path):
        p = tmp_path / "b.conllu"
        p.write_text(WITH_RANGE, encoding="utf-8")
        corpus = read_conllu(str(p))
        assert corpus.sentences[0].forms == ["vámonos", "a", "el", "mar"]

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "c.conllu"
        p.write_text("1\tdog\t_\tNOUN\t_\t_\t_\t_\t_\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":1:"):
            read_conllu(str(p))

    def test_empty_form_rejected(self, tmp_path):
        p = tmp_path / "d.conllu"
        p.write_text("1\t\t_\tNOUN\t_\t_\t_\t_\t_\t_\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty FORM"):
            read_conllu(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_conllu(str(tmp_path / "nope.conllu"))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "a.conllu"
        p.write_text(WELL_FORMED, encoding="utf-8")
        corpus = read_conllu(str(p))
        out = tmp_path / "out.conllu"
        write_conllu(corpus, str(out))
        again = read_conllu(str(out))
        assert again == corpus
        # and the rewrite of the rewrite is byte-identical
        out2 = tmp_path / "out2.conllu"
        write_conllu(again, str(out2))
        assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("reader", [read_conllu])
def test_bad_byte_names_the_line(tmp_path, reader):
    # past the reader's first buffer, so the line is not simply where decoding stopped
    lines = [f"1\tw{i}\t_\tX\t_\t_\t_\t_\t_\t_\n\n" for i in range(2000)]
    p = tmp_path / "bad.txt"
    p.write_bytes("".join(lines).encode("utf-8").replace(b"w1500", b"w\xff500"))
    with pytest.raises(DataError, match=r"bad\.txt:3001: not UTF-8"):
        reader(str(p))


@pytest.mark.parametrize(
    "reader,text,first",
    [
        (read_conllu, WELL_FORMED, 2),
        (read_conllu, WELL_FORMED.rstrip("\n"), 2),
    ],
    ids=["conllu", "conllu-no-final-newline"],
)
def test_sources_name_first_and_last_line(tmp_path, reader, text, first):
    # neither file ends with a blank line, and the second has no final
    # newline; the comment line starts no sentence
    p = tmp_path / "s.txt"
    p.write_text(text, encoding="utf-8")
    sources = [s.source for s in reader(str(p))]
    assert sources == [f"{p}:{first}-3", f"{p}:5-6"]


class TestSentence:
    @pytest.mark.parametrize(
        "forms,tags,message",
        [
            (["a", None], ["X", "Y"], "form 1 is None, not a string"),
            (["a", 7], ["X", "Y"], "form 1 is 7, not a string"),
            (["a", "b"], [None, "Y"], "tag 0 is None, not a string"),
            (["a", ""], ["X", "Y"], "form 1 is empty"),
            (["a", "b"], ["", "X"], "tag 0 is empty"),  # a bi-LSTM trained on it saved a file its load rejected
        ],
    )
    @pytest.mark.parametrize("source,where", [("built.conllu:3-4", "built.conllu:3-4"), ("", "sentence")])
    def test_bad_form_or_tag_names_source_and_position(self, forms, tags, message, source, where):
        # a non-string used to reach the taggers, which failed with a bare TypeError
        with pytest.raises(DataError, match=f"^{where}: {message}$"):
            Sentence(forms, tags, source)

    def test_slotted(self):
        sent = Sentence(["a"], ["X"], "built.conllu:1-1")
        assert not hasattr(sent, "__dict__")
        with pytest.raises(AttributeError):
            sent.lemma = "a"


@pytest.mark.parametrize("writer", [write_conllu])
@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
@pytest.mark.parametrize("field", ["form", "tag"])
def test_writers_reject_tabs_and_line_breaks(tmp_path, writer, bad, field):
    forms, tags = ["ok", "ok"], ["X", "Y"]
    (forms if field == "form" else tags)[1] = bad
    corpus = Corpus([Sentence(["fine"], ["X"]), Sentence(forms, tags)])
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=re.escape(f"sentence 1: {field} 1 is {bad!r}")):
        writer(corpus, str(path))
    assert not path.exists()  # nothing written


@pytest.mark.parametrize("reader,line", [
    (read_conllu, "2\tcat\t_\t\t_\t_\t_\t_\t_\t_\n"),
], ids=["conllu"])
def test_empty_tag_names_the_line(tmp_path, reader, line):
    # an empty tag used to read as "" and give a tagger the tagset [""]
    first = "1\tdog\t_\tNOUN\t_\t_\t_\t_\t_\t_\n"
    path = tmp_path / "t.txt"
    path.write_text(first + line, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: empty tag$"):
        reader(str(path))


@pytest.mark.parametrize("writer", [write_conllu])
@pytest.mark.parametrize("field", ["form", "tag"])
def test_writers_reject_lone_surrogates_before_opening_the_file(tmp_path, writer, field):
    forms, tags = ["ok", "ok"], ["X", "Y"]
    (forms if field == "form" else tags)[1] = "a\ud800"
    corpus = Corpus([Sentence(["fine"], ["X"]), Sentence(forms, tags)])
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=re.escape(f"sentence 1: {field} 1 is 'a\\ud800', which holds a lone")):
        writer(corpus, str(path))
    assert not path.exists()  # the first sentence used to be on disk already


@pytest.mark.parametrize("writer", [write_conllu])
def test_writers_reject_an_empty_tag(tmp_path, writer):
    path = tmp_path / "out.txt"
    sent = Sentence(["a", "b"], ["X", "Y"])
    sent.tags[1] = ""  # a sentence may be changed after it is built
    with pytest.raises(ValueError, match="^sentence 0: tag 1 is empty$"):
        writer(Corpus([sent]), str(path))
    assert not path.exists()


_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")


@st.composite
def _corpora(draw):
    """Corpora of non-ASCII forms and non-empty tags that hold no tab or line break."""
    token = st.tuples(st.text(_TEXT, min_size=1, max_size=6), st.text(_TEXT, min_size=1, max_size=4))
    sents = draw(st.lists(st.lists(token, min_size=1, max_size=5), min_size=1, max_size=5))
    return Corpus([Sentence([f for f, _ in s], [t for _, t in s]) for s in sents])


@pytest.mark.parametrize("writer,reader", [(write_conllu, read_conllu)])
@settings(max_examples=60, deadline=None)
@given(corpus=_corpora())
def test_write_then_read_round_trips(tmp_path_factory, writer, reader, corpus):
    path = str(tmp_path_factory.mktemp("rt") / "c.txt")
    writer(corpus, path)
    assert reader(path) == corpus


@settings(max_examples=30, deadline=None)
@given(corpus=_corpora())
def test_read_lists_are_exact_size(tmp_path_factory, corpus):
    # a list grown by append keeps spare slots, and list() rounds its
    # allocation up; the corpus is held for a whole run
    path = str(tmp_path_factory.mktemp("exact") / "c.conllu")
    write_conllu(corpus, path)
    for sent in read_conllu(path):
        for items in (sent.forms, sent.tags):
            assert sys.getsizeof(items) == sys.getsizeof([]) + len(items) * struct.calcsize("P")


@st.composite
def _repetitive_corpora(draw):
    """Corpora over a few forms of 2-3 characters and two tags, so that most
    types repeat (CPython shares one-character strings anyway)."""
    forms = draw(st.lists(st.text("aéb", min_size=2, max_size=3), min_size=1, max_size=4, unique=True))
    token = st.tuples(st.sampled_from(forms), st.sampled_from(["NOUN", "VERB"]))
    sents = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=5))
    return Corpus([Sentence([f for f, _ in s], [t for _, t in s]) for s in sents])


@pytest.mark.parametrize("writer,reader", [(write_conllu, read_conllu)])
@settings(max_examples=30, deadline=None)
@given(corpus=_repetitive_corpora())
def test_equal_forms_and_tags_are_one_object(tmp_path_factory, writer, reader, corpus):
    path = str(tmp_path_factory.mktemp("intern") / "c.txt")
    writer(corpus, path)
    read = reader(path)
    assert read == corpus
    first = {}
    for sent in read:
        for text in sent.forms + sent.tags:
            assert first.setdefault(text, text) is text, text


def _chain_corpus(n_sents=40, len_=5):
    tags = ["A", "B", "C"]
    sents = []
    for i in range(n_sents):
        forms = [f"w{i}_{j}" for j in range(len_)]
        sents.append(Sentence(forms, [tags[(i + j) % 3] for j in range(len_)]))
    return Corpus(sents)


class TestCorruptLabels:
    def test_rate_zero_is_identity(self):
        corpus = _chain_corpus()
        out, n = corrupt_labels(corpus, 0.0, Rng(1))
        assert n == 0 and out == corpus

    def test_rate_one_changes_every_tag(self):
        corpus = _chain_corpus()
        out, n = corrupt_labels(corpus, 1.0, Rng(1))
        assert n == corpus.n_tokens()
        for before, after in zip(corpus, out):
            assert all(b != a for b, a in zip(before.tags, after.tags))

    def test_realized_count_within_binomial_bound(self):
        corpus = _chain_corpus(n_sents=300)
        n_tokens = corpus.n_tokens()
        _, realized = corrupt_labels(corpus, 0.3, Rng(7))
        sigma = math.sqrt(n_tokens * 0.3 * 0.7)
        assert abs(realized - 0.3 * n_tokens) < 4 * sigma

    def test_forms_and_shape_untouched(self):
        corpus = _chain_corpus()
        out, _ = corrupt_labels(corpus, 0.5, Rng(3))
        assert len(out) == len(corpus)
        for before, after in zip(corpus, out):
            assert before.forms == after.forms and len(before) == len(after)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            corrupt_labels(_chain_corpus(), 1.5, Rng(1))


class TestSubsample:
    def test_full_size_is_identity(self):
        corpus = _chain_corpus()
        assert subsample(corpus, len(corpus), Rng(1)) == corpus

    def test_single_sentence(self):
        corpus = _chain_corpus()
        out = subsample(corpus, 1, Rng(2))
        assert len(out) == 1 and out.sentences[0] in corpus.sentences

    def test_seed_reproducibility_and_order(self):
        corpus = _chain_corpus()
        a = subsample(corpus, 10, Rng(5))
        b = subsample(corpus, 10, Rng(5))
        assert a == b
        positions = [corpus.sentences.index(s) for s in a.sentences]
        assert positions == sorted(positions)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subsample(_chain_corpus(), 0, Rng(1))
        with pytest.raises(ValueError):
            subsample(_chain_corpus(10), 11, Rng(1))


class TestStats:
    def test_token_and_type_counts(self):
        out = stats(Corpus([Sentence(["a", "a", "b"], ["X", "X", "X"])]))
        assert out["tokens"] == 3 and out["types"] == 2

    def test_mean_log_freq_matches_direct_computation(self):
        # counts {a: 2, b: 4, c: 1} -> mean of ln counts
        corpus = Corpus(
            [Sentence(["a", "b", "b"], ["X"] * 3), Sentence(["a", "b", "b", "c"], ["X"] * 4)]
        )
        want = (math.log(2) + math.log(4) + math.log(1)) / 3
        assert stats(corpus)["mean_log_freq"] == pytest.approx(want, abs=1e-12)

    def test_unusual_tagset_warns(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            stats(Corpus([Sentence(["a"], ["WEIRD"])]))
        assert any("UPOS" in r.message for r in caplog.records)
