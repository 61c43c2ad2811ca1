"""Vocabulary building, sentence encoding, pretrained embedding reading."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.autodiff import Parameter, Rng, affine, glorot, softmax_xent
from seqtag.corpus import Corpus, DataError, Sentence
from seqtag.representations import (
    CHAR_END,
    CHAR_START,
    BYTE_END,
    BYTE_START,
    TokenEncoder,
    build_vocab,
    read_embeddings,
)
from reference import gradient_check, reference_states


def _corpus(sents, tags=None):
    return Corpus(
        [Sentence(s, tags[i] if tags else ["X"] * len(s)) for i, s in enumerate(sents)]
    )


@pytest.fixture
def vocab():
    return build_vocab(_corpus([["the", "dog"], ["the", "cat"]]))


class TestVocab:
    def test_frequencies(self, vocab):
        assert vocab.freq("the") == 2
        assert vocab.freq("dog") == 1

    def test_unseen_word_maps_to_unk(self, vocab):
        assert vocab.word_id("zebra") == 0
        assert vocab.word_id("dog") != 0

    def test_char_inventory(self, vocab):
        for ch in "dog":
            assert vocab.char_id(ch) >= 3
        assert vocab.char_id("ü") == 0  # unseen char -> UNK marker

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(Corpus([]))

    def test_round_trips_through_dict(self, vocab):
        clone = type(vocab).from_dict(vocab.to_dict())
        assert clone.word_ids == vocab.word_ids
        assert clone.char_ids == vocab.char_ids
        assert clone.freq_train == vocab.freq_train


def _subword(vocab, mode):
    """The one subword encoder of mode "c" or "b"."""
    return TokenEncoder(mode, vocab, 8, 4, 3, Rng(1)).subwords[0]


def _symbols(subword, word):
    """Marker-wrapped symbol ids of one word."""
    return subword.ids([word])[0][0].tolist()


class TestSubtokenIds:
    def test_single_char_word_has_three_symbols(self, vocab):
        ids = _symbols(_subword(vocab, "c"), "d")
        assert len(ids) == 3
        assert ids[0] == CHAR_START and ids[-1] == CHAR_END

    def test_byte_symbols_follow_utf8(self, vocab):
        # precomposed U+00EF is two UTF-8 bytes: 4 ASCII + 2 = 6 payload ids
        byte = _subword(vocab, "b")
        ids = _symbols(byte, "naïve")
        assert ids[0] == BYTE_START and ids[-1] == BYTE_END
        assert len(ids) - 2 == len("naïve".encode("utf-8")) == 6
        # the decomposed spelling (i + combining diaeresis) costs one more byte
        assert len(_symbols(byte, "naïve")) - 2 == 7

    def test_empty_word_rejected(self, vocab):
        with pytest.raises(ValueError):
            _subword(vocab, "c").ids([""])

    def test_batch_pads_with_the_end_marker(self, vocab):
        char = _subword(vocab, "c")
        ids, lengths = char.ids(["dog", "d"])
        assert lengths.tolist() == [5, 3]
        assert ids[0].tolist() == _symbols(char, "dog")
        assert ids[1].tolist() == _symbols(char, "d") + [CHAR_END, CHAR_END]


def reference_subword(enc, word):
    """Per-step numpy bi-LSTM over one word's symbols, for each subword
    encoder in turn: [forward final, reverse final] of each."""
    out = []
    for sw in enc.subwords:
        xs = sw.table.v[_symbols(sw, word)]
        out += [reference_states(sw.fwd, xs)[-1], reference_states(sw.rev, xs[::-1])[-1]]
    return np.concatenate(out)


class TestComposition:
    def test_identical_words_identical_vectors(self, vocab):
        enc = TokenEncoder("c", vocab, 8, 4, 3, Rng(1))
        words = ["dog", "cat", "dog"]
        np.testing.assert_array_equal(enc.encode(words).v, enc.encode(words).v)
        out = enc.encode(words).v
        # rows of one batch, or batches of other sizes, may round differently in BLAS
        np.testing.assert_allclose(out[0], out[2], rtol=0, atol=1e-15)
        np.testing.assert_allclose(out[0], enc.encode(["dog"]).v[0], rtol=0, atol=1e-15)

    def test_output_dimension_is_twice_hidden(self, vocab):
        enc = TokenEncoder("c", vocab, 8, 4, 3, Rng(1))
        assert enc.encode(["dog"]).v.shape == (1, 6)
        assert enc.encode(["dog", "a", "the"]).v.shape == (3, 6)

    @settings(max_examples=40, deadline=None)
    @given(
        words=st.lists(
            st.text(alphabet="abcdeé中ßxyz-'🙂", min_size=1, max_size=9), min_size=1, max_size=7
        )
    )
    def test_rows_equal_single_words_and_the_per_step_reference(self, words):
        # a padded batch of ragged words gives each word its own encoding
        vocab = build_vocab(_corpus([["the", "dog"], ["a", "cat", "dé"]]))
        enc = TokenEncoder("c+b", vocab, 8, 4, 3, Rng(1))
        out = enc.encode(words).v
        assert out.shape == (len(words), 12)
        for k, word in enumerate(words):
            np.testing.assert_allclose(out[k], enc.encode([word]).v[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(out[k], reference_subword(enc, word), rtol=0, atol=1e-12)


    @pytest.mark.parametrize("mode", ["c", "b"])
    def test_table_gradient_through_encode(self, vocab, mode):
        # repeated symbols, rows no word reads, padding; both directions share the table
        sw = TokenEncoder(mode, vocab, 8, 3, 2, Rng(3)).subwords[0]
        head_w = Parameter("head.W", glorot(Rng(4), 3, 4))
        head_b = Parameter("head.b", np.zeros(3))
        words = ["dodo", "t", "hé"]

        def loss_fn(tape):
            return softmax_xent(tape, affine(tape, head_w, sw.encode(words, tape), head_b), [0, 2, 1])

        assert gradient_check(loss_fn, [sw.table], h=1e-5) < 1e-6


class TestTokenRepr:
    @pytest.mark.parametrize(
        "mode,dim", [("w", 8), ("c", 6), ("b", 6), ("c+b", 12), ("w+c", 14)]
    )
    def test_mode_dimensions(self, vocab, mode, dim):
        enc = TokenEncoder(mode, vocab, 8, 4, 3, Rng(1))
        assert enc.out_dim == dim
        assert enc.encode(["dog", "a"]).v.shape == (2, dim)

    def test_paper_default_dimensions(self, vocab):
        assert TokenEncoder("w+c", vocab, 128, 100, 100).out_dim == 328
        assert TokenEncoder("c+b", vocab, 128, 100, 100).out_dim == 400

    def test_mode_w_unseen_word_is_unk_row(self, vocab):
        enc = TokenEncoder("w", vocab, 8, 4, 3, Rng(1))
        np.testing.assert_array_equal(enc.encode(["zebra"]).v[0], enc.word_table.v[0])

    def test_mode_c_unseen_words_vary_with_spelling(self, vocab):
        enc = TokenEncoder("c", vocab, 8, 4, 3, Rng(1))
        a, b = enc.encode(["goat", "gnat"]).v
        assert not np.array_equal(a, b)

    def test_unk_routing_only_touches_word_part(self, vocab):
        enc = TokenEncoder("w+c", vocab, 8, 4, 3, Rng(1))
        plain = enc.encode(["dog", "cat"]).v
        routed = enc.encode(["dog", "cat"], replace_unk=[True, False]).v
        np.testing.assert_array_equal(routed[0, :8], enc.word_table.v[0])
        np.testing.assert_array_equal(routed[0, 8:], plain[0, 8:])
        np.testing.assert_array_equal(routed[1], plain[1])


class TestLoadPretrained:
    def _read(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        return read_embeddings(str(path))

    def test_known_and_unknown_rows(self, vocab, tmp_path):
        # the reader keeps every row; which ones the vocabulary knows is train's concern
        rows = self._read(tmp_path, "dog 1 2 3 4\ncat 5 6 7 8\nzebra 9 9 9 9\n")
        assert list(rows) == ["dog", "cat", "zebra"]
        assert [vocab.freq(t) for t in rows] == [1, 1, 0]
        np.testing.assert_array_equal(rows["dog"], [1, 2, 3, 4])

    def test_empty_file(self, tmp_path):
        assert self._read(tmp_path, "") == {}

    def test_duplicate_token_last_wins(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            rows = self._read(tmp_path, "dog 1 1 1 1\ndog 2 2 2 2\n")
        assert any("duplicate" in r.message for r in caplog.records)
        np.testing.assert_array_equal(rows["dog"], [2, 2, 2, 2])

    def test_malformed_row(self, tmp_path):
        with pytest.raises(DataError):
            self._read(tmp_path, "dog one two\n")

    def test_ragged_rows_name_the_line(self, tmp_path):
        with pytest.raises(DataError, match=r"emb\.txt:2: row has 2 dims, file started with 4"):
            self._read(tmp_path, "dog 1 2 3 4\ncat 5 6\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        with pytest.raises(DataError, match=r"emb\.txt:2:"):
            self._read(tmp_path, f"dog 1 2 3 4\ncat {value} 2 3 4\n")

    def test_bad_byte_names_the_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"dog 1 2 3 4\nc\xfft 5 6 7 8\n")
        with pytest.raises(DataError, match=r"emb\.txt:2: not UTF-8"):
            read_embeddings(str(path))
