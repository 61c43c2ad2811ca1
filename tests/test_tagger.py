"""Joint tagger: loss values, gradients, training loop, persistence."""

import math

import numpy as np
import pytest

from seqtag.autodiff import Parameter
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

from reference import two_phase_train


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


class TestHyperparams:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", 0), ("seed", 1.0), ("seed", "1"),
        ("word_dim", 4.0), ("subtoken_dim", -1), ("hidden_dim", None),
        ("lr", math.inf), ("lr", math.nan), ("lr", 0.0), ("lr", "0.1"), ("lr", True),
        ("sigma", math.nan), ("sigma", -math.inf), ("sigma", math.inf), ("sigma", -0.1),
        # ints too large for a float
        pytest.param("lr", 10**400, id="lr-huge-int"), pytest.param("sigma", 10**400, id="sigma-huge-int"),
    ])
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"hyperparameter {field} must"):
            _small_hp(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("freqbin", "no"), ("freqbin", 1), ("freqbin", None),
        ("pretrained_path", 5), ("pretrained_path", ""), ("pretrained_path", b"emb.txt"),
    ])
    def test_flag_and_path_must_have_their_types(self, field, value):
        # freqbin="no" used to train with the head; pretrained_path=5 opened descriptor 5
        with pytest.raises(ValueError, match=f"hyperparameter {field} must"):
            _small_hp(repr_mode="w", **{field: value})

    def test_edge_values_accepted(self):
        hp = _small_hp(seed=-3, sigma=0, lr=1, epochs=1)
        assert (hp.seed, hp.sigma, hp.lr) == (-3, 0, 1)


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
        return TaggerModel(hp, vocab, tagset), corpus

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
        from seqtag.autodiff import Rng

        joint = TaggerModel(_small_hp(freqbin=True), vocab, tagset, init_rng=Rng(3))
        solo = TaggerModel(_small_hp(freqbin=False), vocab, tagset, init_rng=Rng(3))
        for sent in corpus:
            assert float(sentence_loss(joint, sent).v) >= float(sentence_loss(solo, sent).v)

    def test_unknown_gold_tag_rejected(self):
        model, _ = self._zero_model()
        with pytest.raises(ValueError, match="tagset"):
            sentence_loss(model, Sentence(["dog"], ["NOPE"]))

    def test_noise_and_unk_replacement_come_with_an_rng_only(self):
        from seqtag.autodiff import Rng

        corpus = _toy_corpus()
        model = TaggerModel(_small_hp(sigma=0.5), build_vocab(corpus), corpus.tagset(), init_rng=Rng(3))
        sent = corpus.sentences[5]
        plain = [float(sentence_loss(model, sent).v) for _ in range(2)]
        assert plain[0] == plain[1]
        assert float(sentence_loss(model, sent, rng=Rng(4)).v) != plain[0]


class TestFullModelGradient:
    def test_gradient_check_three_token_sentence(self):
        # full w+c architecture with the aux head, noise disabled
        corpus = _toy_corpus()
        vocab = build_vocab(corpus)
        tagset = sorted({t for s in corpus for t in s.tags})
        from seqtag.autodiff import Rng
        from reference import gradient_check

        hp = _small_hp(word_dim=4, subtoken_dim=3, hidden_dim=3, sigma=0.0)
        model = TaggerModel(hp, vocab, tagset, init_rng=Rng(7))
        sent = Sentence(["the", "dog", "barks"], ["DET", "NOUN", "VERB"])

        def loss_fn(tape):
            return sentence_loss(model, sent, tape)

        assert gradient_check(loss_fn, model.parameters(), h=1e-5) < 1e-4

    def test_gradient_check_char_byte_sentence(self):
        # both subword encoders, no word table, no aux head, noise disabled
        corpus = _toy_corpus()
        vocab = build_vocab(corpus)
        tagset = sorted({t for s in corpus for t in s.tags})
        from seqtag.autodiff import Rng
        from reference import gradient_check

        hp = _small_hp(repr_mode="c+b", freqbin=False, subtoken_dim=2, hidden_dim=2, sigma=0.0)
        model = TaggerModel(hp, vocab, tagset, init_rng=Rng(9))
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
            sentence_loss(model, Sentence(forms, ["NOUN"] * len(forms)), tape, Rng(1))
            sizes.append(len(tape))
        assert sizes[0] == sizes[1] < 40

    def test_projections_own_no_memory_after_the_forward(self):
        # each recurrence reads its projection P's rows in the forward; its
        # backward needs only P's row count, so the tape keeps a stand-in
        from seqtag.autodiff import Rng, Tape

        model = train(_toy_corpus(), _small_hp(epochs=1))
        tape = Tape()
        sentence_loss(model, Sentence(["the", "big", "dog", "barks"], ["DET", "ADJ", "NOUN", "VERB"]), tape, Rng(1))
        projections = [tape.parents[i][1] for i, kind in enumerate(tape.kinds) if kind == "lstm_seq"]
        assert len(projections) == 4  # char and context bi-LSTMs
        for p in projections:
            assert tape.kinds[p] == "affine" and tape.values[p].ndim == 2
            assert not any(tape.values[p].strides) and not tape.values[p].flags.owndata


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

    def test_empty_dev_corpus_rejected_before_training(self, monkeypatch):
        # it used to train a whole epoch, then raise ZeroDivisionError
        monkeypatch.setattr("seqtag.tagger.sentence_loss", lambda *args: pytest.fail("trained on"))
        with pytest.raises(ValueError, match="empty dev corpus"):
            train(_toy_corpus(), _small_hp(epochs=1), dev_corpus=Corpus([]))

    def test_divergence_guard(self):
        # an absurd step size overflows the logits to inf, then lse goes nan
        corpus = _toy_corpus()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                train(corpus, _small_hp(epochs=2, lr=1e308))

    def test_missing_gradient_raises(self, monkeypatch):
        extra = Parameter("extra.W", np.zeros(2))
        built = TaggerModel.parameters
        monkeypatch.setattr(TaggerModel, "parameters", lambda self: built(self) + [extra])
        with pytest.raises(ValueError, match="no gradient for trainable parameter 'extra.W'"):
            train(_toy_corpus(), _small_hp(epochs=1))


class TestAgainstTwoPhase:
    """train applies each update inside the backward sweep; the reference
    runs the whole sweep first, then every update."""

    @pytest.mark.parametrize("freqbin", [False, True], ids=["plain", "freqbin"])
    @pytest.mark.parametrize("mode", ["w", "c", "b", "c+b", "w+c"])
    def test_same_parameters_losses_and_files(self, tmp_path, mode, freqbin):
        hp = _small_hp(epochs=2, repr_mode=mode, freqbin=freqbin)
        fast, slow = train(_toy_corpus(), hp), two_phase_train(_toy_corpus(), hp)
        for a, b in zip(fast.parameters(), slow.parameters(), strict=True):
            np.testing.assert_array_equal(a.v, b.v)
        assert fast.train_history == slow.train_history
        save(fast, str(tmp_path / "fast.bin"))
        save(slow, str(tmp_path / "slow.bin"))
        assert (tmp_path / "fast.bin").read_bytes() == (tmp_path / "slow.bin").read_bytes()

    def test_holds_less_memory(self):
        # paper dims: the two-phase loop holds every parameter's gradient at once
        import tracemalloc

        hp = _small_hp(epochs=1, word_dim=128, subtoken_dim=100, hidden_dim=100)
        peaks = []
        for run in (train, two_phase_train):
            tracemalloc.start()
            try:
                run(_toy_corpus(), hp)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.85 * peaks[1], peaks


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
        assert plain.v.shape == (2, 2 * model.hp.hidden_dim)
        np.testing.assert_array_equal(plain.v, taped.v)

    def test_scores_the_tag_head_only(self, model, monkeypatch):
        # the frequency head is a training signal: tagging never applies it
        from seqtag import tagger

        assert model.freq_W is not None
        heads = []
        affine = tagger.affine
        monkeypatch.setattr(tagger, "affine", lambda tape, w, x, b: heads.append(w) or affine(tape, w, x, b))
        model.predict(["the", "dog", "barks"])
        assert heads == [model.tag_W]


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

    def test_load_holds_little_beyond_the_loaded_arrays(self, tmp_path):
        # paper dims: about 4 MB of arrays, most of them in the context cells
        import tracemalloc

        from seqtag.autodiff import Rng

        corpus = _toy_corpus()
        hp = _small_hp(word_dim=128, subtoken_dim=100, hidden_dim=100)
        model = TaggerModel(hp, build_vocab(corpus), corpus.tagset(), init_rng=Rng(1))
        path = str(tmp_path / "model.bin")
        save(model, path)
        arrays = sum(p.v.nbytes for p in model.parameters())
        assert arrays > 3 * 2**20
        tracemalloc.start()
        try:
            clone = load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= arrays + 2 * 2**20, (peak, arrays)
        for got, want in zip(clone.parameters(), model.parameters(), strict=True):
            np.testing.assert_array_equal(got.v, want.v)

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

    def _rewrite(self, tmp_path, edit, **hp):
        from seqtag.container import load_container, save_container

        path = tmp_path / "model.bin"
        save(train(_toy_corpus(), _small_hp(epochs=1, **hp)), str(path))
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

    def test_old_word_dim_actual_field_is_ignored(self, tmp_path):
        path = self._rewrite(tmp_path, lambda h: h.update(word_dim_actual=h["hp"]["word_dim"]))
        assert load(path).predict(["the", "dog"])

    @pytest.mark.parametrize("field,value", [("hidden_dim", 4.0), ("sigma", math.nan), ("lr", math.inf),
                                             ("epochs", True), ("freqbin", "no"), ("freqbin", 0),
                                             ("pretrained_path", 5), ("pretrained_path", ""),
                                             pytest.param("lr", 10**400, id="lr-huge-int"),
                                             pytest.param("sigma", 10**400, id="sigma-huge-int")])
    def test_bad_hyperparameter_names_hp(self, tmp_path, field, value):
        from seqtag.container import ModelError

        path = self._rewrite(tmp_path, lambda h: h["hp"].update({field: value}))
        with pytest.raises(ModelError, match=f"'hp'.*{field}") as err:
            load(path)
        assert path in str(err.value)

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda h: h.update(tagset=[[t] for t in h["tagset"]]), "'tagset'"),
            (lambda h: h.update(tagset=list(range(len(h["tagset"])))), "'tagset'"),
            (lambda h: h.update(tagset="NOUN"), "'tagset'"),  # four tags once split into characters
            (lambda h: h["vocab"].update(words=list(range(len(h["vocab"]["words"])))), "'vocab'.*'words'"),
            (lambda h: h["vocab"].update(chars=[ch + ch for ch in h["vocab"]["chars"]]), "'vocab'.*'chars'"),
            (lambda h: h["vocab"]["counts"].__setitem__(1, -1), "'vocab'.*'counts'"),
            (lambda h: [h["vocab"][name].insert(0, h["vocab"][name].pop(1)) for name in ("words", "counts")],
             "'vocab'.*'words'"),  # '<unk>' swapped with word 1: unseen words took word 1's row
        ],
        ids=["tagset-of-lists", "tagset-of-ints", "tagset-string", "int-words", "multi-char-chars",
             "negative-count", "unk-not-at-0"],
    )
    def test_malformed_tagset_or_vocab_names_the_field(self, tmp_path, edit, field):
        # these used to load, or to fail with a bare TypeError
        from seqtag.container import ModelError

        path = self._rewrite(tmp_path, edit)
        with pytest.raises(ModelError, match=field) as err:
            load(path)
        assert path in str(err.value)

    @pytest.mark.parametrize("freqbin", [False, True], ids=["plain", "freqbin"])
    @pytest.mark.parametrize("value", [1.7, True, "1", "off-by-one"])
    def test_n_bins_not_the_vocabularys_names_it(self, tmp_path, value, freqbin):
        # the toy vocabulary's counts give 2 bins
        from seqtag.container import ModelError

        def edit(h):
            assert h["n_bins"] == 2
            h["n_bins"] = 3 if value == "off-by-one" else value

        path = self._rewrite(tmp_path, edit, freqbin=freqbin)
        with pytest.raises(ModelError, match="'n_bins'") as err:
            load(path)
        assert path in str(err.value)

    def test_word_table_of_another_width_names_its_shape(self, tmp_path):
        # what a file whose pretrained table was resized after building looks like
        from seqtag.container import ModelError

        path = self._rewrite(tmp_path, lambda h: h["hp"].update(word_dim=h["hp"]["word_dim"] + 1))
        with pytest.raises(ModelError, match="'word_emb' has shape"):
            load(path)

    @pytest.mark.parametrize("value", [2**63, 10**400, 10**9], ids=["2**63", "10**400", "10**9"])
    @pytest.mark.parametrize("field", ["word_dim", "subtoken_dim", "hidden_dim"])
    def test_dim_beyond_the_blocks_names_hp_before_building(self, tmp_path, field, value):
        # 2**63 and 10**400 once raised numpy's bare "Maximum allowed dimension
        # exceeded"; 10**9 would have asked for tens of GB of LSTM biases.  load
        # builds the model of zero stand-ins, which take no memory
        import tracemalloc

        from seqtag.container import ModelError

        path = self._rewrite(tmp_path, lambda h: h["hp"].update({field: value}))
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="'hp'") as err:
                load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path in str(err.value)
        assert peak < 256 * 2**10, peak

    @pytest.mark.parametrize(
        "edit,block",
        [(lambda h, a: a.update(stray=np.zeros(2), other=np.ones(1)), "stray"),
         (lambda h, a: h["hp"].update(freqbin=False), "freq_head.W")],
        ids=["stray", "freqbin-off-with-its-head"],
    )
    def test_stray_array_block_names_it(self, tmp_path, edit, block):
        # these used to load, and a save of the loaded model dropped the block
        from seqtag.container import ModelError, load_container, save_container

        path = str(tmp_path / "model.bin")
        save(train(_toy_corpus(), _small_hp(epochs=1)), path)
        header, arrays = load_container(path)
        edit(header, arrays)
        save_container(path, header, list(arrays.items()))
        with pytest.raises(ModelError, match=f"unexpected array block '{block}'") as err:
            load(path)
        assert path in str(err.value)

    @pytest.mark.parametrize("freqbin", [False, True], ids=["plain", "freqbin"])
    @pytest.mark.parametrize("mode", ["w", "c", "b", "c+b", "w+c"])
    def test_each_block_missing_or_resized_names_it(self, tmp_path, mode, freqbin):
        from seqtag.autodiff import Rng
        from seqtag.container import ModelError, load_container, save_container

        corpus = _toy_corpus()
        hp = _small_hp(repr_mode=mode, freqbin=freqbin, word_dim=5, subtoken_dim=3, hidden_dim=4)
        model = TaggerModel(hp, build_vocab(corpus), corpus.tagset(), init_rng=Rng(1))
        path = str(tmp_path / "model.bin")
        save(model, path)
        header, arrays = load_container(path)
        for p in model.parameters():
            files = [(f"missing parameter block {p.name!r}", {k: v for k, v in arrays.items() if k != p.name})]
            for axis in range(p.v.ndim):
                shape = list(p.v.shape)
                shape[axis] += 1
                files.append((f"parameter {p.name!r} has shape {tuple(shape)}", {**arrays, p.name: np.zeros(shape)}))
            for message, blocks in files:
                save_container(path, header, list(blocks.items()))
                with pytest.raises(ModelError) as err:
                    load(path)
                assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("mode", ["b", "c+b"])
def test_lone_surrogate_tagged_in_byte_mode(mode):
    # UTF-8 cannot hold it; surrogatepass gives it three bytes, as TnT's tries read it
    corpus = _toy_corpus()
    model = train(corpus, _small_hp(epochs=1, repr_mode=mode, subtoken_dim=3, hidden_dim=3))
    tags = model.predict(["the", "\ud800", "a\udfffb"])
    assert len(tags) == 3 and set(tags) <= set(model.tagset)


@pytest.mark.parametrize("bad", ["", None, 7], ids=["empty", "None", "int"])
@pytest.mark.parametrize("kind", ["w", "w+c", "tnt"])
def test_bad_token_names_its_position_and_repr(kind, bad):
    from seqtag.tnt import train_hmm

    corpus = Corpus([Sentence(["a", "b"], ["X", "Y"])] * 3)
    if kind == "tnt":
        model = train_hmm(corpus)
    else:
        model = train(corpus, _small_hp(epochs=1, repr_mode=kind, word_dim=4, subtoken_dim=3, hidden_dim=3))
    with pytest.raises(ValueError, match=f"token 1 is {bad!r}"):
        model.predict(["a", bad, "b"])


class TestPretrained:
    """Training through a word-embedding file whose width is not hp.word_dim."""

    ROWS = {"dog": [0.5, -1.0, 2.0], "cat": [1.5, 0.25, -0.75], "zebra": [9.0, 9.0, 9.0]}

    @pytest.fixture
    def emb(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"{t} {' '.join(map(str, v))}\n" for t, v in self.ROWS.items()))
        return str(path)

    def test_file_sets_the_word_width(self, emb, tmp_path, monkeypatch, caplog):
        import logging

        from seqtag import tagger
        from seqtag.container import load_container

        hp = _small_hp(epochs=2, word_dim=8, pretrained_path=emb)
        with monkeypatch.context() as m:  # no updates: the table stays as built
            m.setattr(tagger, "sgd_step", lambda params, grads, lr: None)
            with caplog.at_level(logging.INFO, logger="seqtag.tagger"):
                frozen = train(_toy_corpus(), hp)
        assert any("2 loaded, 1 missed" in r.getMessage() for r in caplog.records)
        table = frozen.encoder.word_table.v
        assert table.shape == (frozen.vocab.n_words, 3)
        for token in ("dog", "cat"):
            np.testing.assert_array_equal(table[frozen.vocab.word_id(token)], self.ROWS[token])

        model = train(_toy_corpus(), hp)
        assert model.encoder.word_table.v.shape[1] == 3
        path = tmp_path / "model.bin"
        save(model, str(path))
        header, _ = load_container(str(path))
        assert header["hp"]["word_dim"] == 3 and "word_dim_actual" not in header
        clone = load(str(path))
        for a, b in zip(model.parameters(), clone.parameters(), strict=True):
            np.testing.assert_array_equal(a.v, b.v)
        for sent in _toy_corpus():
            assert clone.predict(sent.forms) == model.predict(sent.forms)

    def test_mode_without_words_rejected(self, emb):
        with pytest.raises(ValueError, match="pretrained"):
            Hyperparams(repr_mode="c", pretrained_path=emb)


def _cell(name):
    return [f"{name}.W_x", f"{name}.W_h", f"{name}.b"]


SUBWORD_NAMES = {
    "w": ["word_emb"],
    "c": ["char_emb", *_cell("char_f"), *_cell("char_r")],
    "b": ["byte_emb", *_cell("byte_f"), *_cell("byte_r")],
}


class TestSavedNames:
    """Saved files, the init stream and the benchmark's layer map depend on these."""

    @pytest.mark.parametrize("freqbin", [False, True], ids=["plain", "freqbin"])
    @pytest.mark.parametrize("mode,parts", [("w", "w"), ("c", "c"), ("b", "b"), ("c+b", "cb"), ("w+c", "wc")])
    def test_parameter_names_in_order(self, mode, parts, freqbin):
        corpus = _toy_corpus()
        model = TaggerModel(_small_hp(repr_mode=mode, freqbin=freqbin), build_vocab(corpus), corpus.tagset())
        want = [name for part in parts for name in SUBWORD_NAMES[part]]
        want += _cell("ctx_f") + _cell("ctx_r") + ["tag_head.W", "tag_head.b"]
        want += ["freq_head.W", "freq_head.b"] if freqbin else []
        assert [p.name for p in model.parameters()] == want

    def test_header_holds_what_load_reads(self, tmp_path):
        from seqtag.container import load_container

        path = tmp_path / "model.bin"
        save(train(_toy_corpus(), _small_hp(epochs=1)), str(path))
        header, _ = load_container(str(path))
        assert sorted(header) == ["arrays", "hp", "kind", "n_bins", "tagset", "vocab"]
