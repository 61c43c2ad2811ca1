"""Joint tagger: loss values, gradients, training loop, persistence."""

import math

import numpy as np
import pytest

from seqtag.corpus import Corpus, Sentence
from seqtag.representations import build_vocab
from seqtag.tagger import (
    DivergenceError,
    Hyperparams,
    TaggerModel,
    forward_sentence,
    freqbin_label,
    load,
    save,
    sentence_loss,
    train,
)


def _toy_corpus():
    # deterministic toy language: tags recoverable from context + identity
    sents = [
        (["the", "dog", "barks"], ["DET", "NOUN", "VERB"]),
        (["the", "cat", "sleeps"], ["DET", "NOUN", "VERB"]),
        (["a", "dog", "sleeps"], ["DET", "NOUN", "VERB"]),
        (["dogs", "bark"], ["NOUN", "VERB"]),
        (["cats", "sleep"], ["NOUN", "VERB"]),
        (["the", "big", "dog", "barks"], ["DET", "ADJ", "NOUN", "VERB"]),
        (["a", "small", "cat", "sleeps"], ["DET", "ADJ", "NOUN", "VERB"]),
        (["big", "dogs", "bark"], ["ADJ", "NOUN", "VERB"]),
    ]
    return Corpus([Sentence(list(f), list(t)) for f, t in sents])


def _small_hp(**kw):
    defaults = dict(
        lr=0.1, epochs=8, sigma=0.1, word_dim=12, subtoken_dim=8, hidden_dim=8,
        seed=1, repr_mode="w+c", freqbin=True,
    )
    defaults.update(kw)
    return Hyperparams(**defaults)


class TestFreqbinLabel:
    def test_paper_anchors(self):
        # ln 1 = 0, ln 10 ~ 2.30, ln 100 ~ 4.61; int() truncates
        assert freqbin_label(1) == 0
        assert freqbin_label(10) == 2
        assert freqbin_label(100) == 4

    def test_zero_frequency_is_bin_zero(self):
        assert freqbin_label(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            freqbin_label(-1)


class TestSentenceLoss:
    def _zero_model(self, freqbin=True):
        corpus = _toy_corpus()
        vocab = build_vocab(corpus)
        hp = _small_hp(freqbin=freqbin)
        tagset = sorted({t for s in corpus for t in s.tags})
        n_bins = 1 + max(freqbin_label(c) for c in vocab.freq_train.values())
        return TaggerModel(hp, vocab, tagset, n_bins), corpus

    def test_uniform_logits_give_log_k_plus_log_m(self):
        # zero parameters -> uniform logits on both heads
        model, _ = self._zero_model()
        k, m = len(model.tagset), model.n_bins
        loss = sentence_loss(model, Sentence(["dog"], ["NOUN"]))
        assert float(loss.v) == pytest.approx(math.log(k) + math.log(m), abs=1e-12)

    def test_freqbin_off_is_pure_tag_loss(self):
        model, _ = self._zero_model(freqbin=False)
        loss = sentence_loss(model, Sentence(["dog"], ["NOUN"]))
        assert float(loss.v) == pytest.approx(math.log(len(model.tagset)), abs=1e-12)

    def test_loss_nonnegative_and_additive_over_tokens(self):
        model, corpus = self._zero_model()
        for sent in corpus:
            loss = float(sentence_loss(model, sent).v)
            assert loss >= 0
            per_tok = math.log(len(model.tagset)) + math.log(model.n_bins)
            assert loss == pytest.approx(per_tok * len(sent), abs=1e-10)

    def test_joint_loss_at_least_tag_loss(self):
        # with identical parameters, adding the aux head can only add loss
        corpus = _toy_corpus()
        vocab = build_vocab(corpus)
        tagset = sorted({t for s in corpus for t in s.tags})
        n_bins = 1 + max(freqbin_label(c) for c in vocab.freq_train.values())
        from seqtag.autodiff import Rng

        joint = TaggerModel(_small_hp(freqbin=True), vocab, tagset, n_bins, init_rng=Rng(3))
        solo = TaggerModel(_small_hp(freqbin=False), vocab, tagset, n_bins, init_rng=Rng(3))
        for sent in corpus:
            assert float(sentence_loss(joint, sent).v) >= float(sentence_loss(solo, sent).v)

    def test_unknown_gold_tag_rejected(self):
        model, _ = self._zero_model()
        with pytest.raises(ValueError, match="tagset"):
            sentence_loss(model, Sentence(["dog"], ["NOPE"]))


class TestFullModelGradient:
    def test_gradient_check_three_token_sentence(self):
        # full w+c architecture with the aux head, noise disabled
        corpus = _toy_corpus()
        vocab = build_vocab(corpus)
        tagset = sorted({t for s in corpus for t in s.tags})
        n_bins = 1 + max(freqbin_label(c) for c in vocab.freq_train.values())
        from seqtag.autodiff import Rng, gradient_check

        hp = _small_hp(word_dim=4, subtoken_dim=3, hidden_dim=3, sigma=0.0)
        model = TaggerModel(hp, vocab, tagset, n_bins, init_rng=Rng(7))
        sent = Sentence(["the", "dog", "barks"], ["DET", "NOUN", "VERB"])

        def loss_fn(tape):
            return sentence_loss(model, sent, tape)

        assert gradient_check(loss_fn, model.parameters(), h=1e-5) < 1e-4

    def test_gradient_check_char_byte_sentence(self):
        # both subword encoders, no word table, no aux head, noise disabled
        corpus = _toy_corpus()
        vocab = build_vocab(corpus)
        tagset = sorted({t for s in corpus for t in s.tags})
        from seqtag.autodiff import Rng, gradient_check

        hp = _small_hp(repr_mode="c+b", freqbin=False, subtoken_dim=2, hidden_dim=2, sigma=0.0)
        model = TaggerModel(hp, vocab, tagset, 1, init_rng=Rng(9))
        sent = Sentence(["a", "dogs", "bark"], ["DET", "NOUN", "VERB"])

        def loss_fn(tape):
            return sentence_loss(model, sent, tape)

        assert gradient_check(loss_fn, model.parameters(), h=1e-5) < 1e-4

    def test_sentence_records_a_fixed_number_of_nodes(self):
        # one tape node per layer and direction, whatever the sentence length
        from seqtag.autodiff import Rng, Tape

        model = train(_toy_corpus(), _small_hp(epochs=1))
        sizes = []
        for forms in (["dog"], ["the", "big", "dog", "barks"] * 4):
            tape = Tape()
            sentence_loss(model, Sentence(forms, ["NOUN"] * len(forms)), tape, Rng(1), training=True)
            sizes.append(len(tape))
        assert sizes[0] == sizes[1] < 40


class TestTraining:
    def test_overfits_toy_corpus(self):
        corpus = _toy_corpus()
        model = train(corpus, _small_hp(epochs=20))
        correct = total = 0
        for sent in corpus:
            for got, want in zip(model.predict(sent.forms), sent.tags):
                correct += got == want
                total += 1
        assert correct / total >= 0.99

    def test_mean_loss_decreases_early(self):
        corpus = _toy_corpus()
        model = train(corpus, _small_hp(epochs=3))
        losses = [e["mean_loss"] for e in model.train_history]
        assert losses[0] > losses[1] > losses[2]

    def test_same_seed_bit_identical_model_files(self, tmp_path):
        corpus = _toy_corpus()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save(train(corpus, _small_hp(epochs=2)), str(a))
        save(train(corpus, _small_hp(epochs=2)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        corpus = _toy_corpus()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save(train(corpus, _small_hp(epochs=1, seed=1)), str(a))
        save(train(corpus, _small_hp(epochs=1, seed=2)), str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_dev_accuracy_logged(self):
        corpus = _toy_corpus()
        model = train(corpus, _small_hp(epochs=1), dev_corpus=corpus)
        assert "dev_acc" in model.train_history[0]

    def test_divergence_guard(self):
        # an absurd step size overflows the logits to inf, then lse goes nan
        corpus = _toy_corpus()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                train(corpus, _small_hp(epochs=2, lr=1e308))


@pytest.fixture(scope="module")
def model():
    return train(_toy_corpus(), _small_hp(epochs=12))


class TestPredict:

    def test_deterministic_across_calls(self, model):
        assert model.predict(["the", "dog"]) == model.predict(["the", "dog"])

    def test_unseen_word_still_tagged(self, model):
        tags = model.predict(["the", "wug", "barks"])
        assert len(tags) == 3 and all(t in model.tagset for t in tags)

    def test_empty_sentence_rejected(self, model):
        with pytest.raises(ValueError):
            forward_sentence(model, [])

    def test_argmax_invariant_to_constant_logit_shift(self, model):
        before = model.predict(["the", "dog", "barks"])
        model.tag_b.v += 3.5  # constant shift of every tag logit
        try:
            assert model.predict(["the", "dog", "barks"]) == before
        finally:
            model.tag_b.v -= 3.5

    def test_noise_free_inference_matches_taped_eval(self, model):
        from seqtag.autodiff import Tape

        plain = forward_sentence(model, ["the", "dog"])
        taped = forward_sentence(model, ["the", "dog"], tape=Tape())
        assert plain.tag_logits.v.shape == (2, len(model.tagset))
        np.testing.assert_array_equal(plain.tag_logits.v, taped.tag_logits.v)
        np.testing.assert_array_equal(plain.freq_logits.v, taped.freq_logits.v)


class TestPersistence:
    def test_round_trip_predictions(self, tmp_path):
        corpus = _toy_corpus()
        model = train(corpus, _small_hp(epochs=3))
        path = tmp_path / "model.bin"
        save(model, str(path))
        clone = load(str(path))
        for sent in corpus:
            assert clone.predict(sent.forms) == model.predict(sent.forms)
        assert clone.tagset == model.tagset
        assert clone.vocab.freq_train == model.vocab.freq_train

    def test_corrupted_byte_is_detected(self, tmp_path):
        from seqtag.container import ModelError

        corpus = _toy_corpus()
        path = tmp_path / "model.bin"
        save(train(corpus, _small_hp(epochs=1)), str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelError, match="checksum"):
            load(str(path))

    def test_magic_and_version_prefix(self, tmp_path):
        corpus = _toy_corpus()
        path = tmp_path / "model.bin"
        save(train(corpus, _small_hp(epochs=1)), str(path))
        head = path.read_bytes()[:8]
        assert head == b"SEQTAG\x00\x01"

    def test_not_a_container(self, tmp_path):
        from seqtag.container import ModelError

        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage" * 20)
        with pytest.raises(ModelError, match="magic"):
            load(str(path))


class TestBadHeader:
    """A container whose checksum holds but whose header is wrong."""

    def _rewrite(self, tmp_path, edit):
        from seqtag.container import load_container, save_container

        path = tmp_path / "model.bin"
        save(train(_toy_corpus(), _small_hp(epochs=1)), str(path))
        header, arrays = load_container(str(path))
        edit(header)
        save_container(str(path), header, list(arrays.items()))
        return str(path)

    def test_unknown_hp_key(self, tmp_path):
        from seqtag.container import ModelError

        path = self._rewrite(tmp_path, lambda h: h["hp"].update(dropout=0.5))
        with pytest.raises(ModelError, match="'hp'.*dropout") as err:
            load(path)
        assert path in str(err.value)

    def test_missing_vocab(self, tmp_path):
        from seqtag.container import ModelError

        path = self._rewrite(tmp_path, lambda h: h.pop("vocab"))
        with pytest.raises(ModelError, match="vocab") as err:
            load(path)
        assert path in str(err.value)

    @pytest.mark.parametrize("resize", [lambda c: c[:-1], lambda c: c + [1]], ids=["counts-short", "counts-long"])
    def test_vocab_counts_not_one_per_word(self, tmp_path, resize):
        from seqtag.container import ModelError

        path = self._rewrite(tmp_path, lambda h: h["vocab"].update(counts=resize(h["vocab"]["counts"])))
        with pytest.raises(ModelError, match="'vocab'") as err:
            load(path)
        assert path in str(err.value)

    def test_untouched_header_still_loads(self, tmp_path):
        path = self._rewrite(tmp_path, lambda h: None)
        assert load(path).predict(["the", "dog"])
