"""Trigram HMM baseline: smoothing, suffix OOV handling, Viterbi oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.autodiff import Rng
from seqtag.container import ModelError, load_container, save_container
from seqtag.corpus import Corpus, Sentence
from seqtag.synthetic import make_suffix_corpus
from seqtag.tnt import BOUNDARY, SuffixTrie, load_hmm, save_hmm, train_hmm, viterbi

from reference import ReferenceTnt


def brute_force_viterbi(model, tokens):
    """Exhaustive search with the same scoring and accumulation order."""
    tags = model.tagset
    best = None
    best_seq = None
    for seq in itertools.product(range(len(tags)), repeat=len(tokens)):
        s = 0.0
        t1, t2 = BOUNDARY, BOUNDARY
        for i, ti in enumerate(seq):
            s = (s + model.transition_logp(t1, t2, tags[ti])) + model.emission_logp(
                tokens[i], tags[ti]
            )
            t1, t2 = t2, tags[ti]
        if best_seq is None or s > best:
            best, best_seq = s, seq
    return [tags[i] for i in best_seq]


def _random_corpus(rng, n_sents=30, tags=("A", "B", "C", "D"), n_words=12):
    words = [f"w{i}" for i in range(n_words)]
    sents = []
    for _ in range(n_sents):
        length = 1 + rng.below(6)
        forms = [words[rng.below(n_words)] for _ in range(length)]
        labels = [tags[rng.below(len(tags))] for _ in range(length)]
        sents.append(Sentence(forms, labels))
    return Corpus(sents)


class TestViterbiOracle:
    def test_exact_equals_brute_force_on_random_models(self):
        # 20 seeded random 4-tag models, all sentence lengths 1..6
        for seed in range(20):
            rng = Rng(1000 + seed)
            model = train_hmm(_random_corpus(rng))
            for length in range(1, 7):
                # mix of known and unknown forms exercises both emission paths
                tokens = [
                    f"w{rng.below(12)}" if rng.uniform() < 0.7 else f"novel{rng.below(9)}x"
                    for _ in range(length)
                ]
                assert viterbi(model, tokens, beam=0) == brute_force_viterbi(model, tokens), (
                    f"seed {seed}, length {length}, tokens {tokens}"
                )

    def test_uniform_model_ties_break_identically(self):
        # a one-sentence corpus makes many scores collide; both sides must
        # resolve ties toward the lowest tag indices
        corpus = Corpus([Sentence(["x", "x"], ["A", "B"]), Sentence(["x", "x"], ["B", "A"])])
        model = train_hmm(corpus)
        for tokens in (["x"], ["x", "x"], ["x", "x", "x"]):
            assert viterbi(model, tokens, beam=0) == brute_force_viterbi(model, tokens)

    def test_single_token_reduces_to_start_argmax(self):
        model = train_hmm(_random_corpus(Rng(5)))
        word = "w3"
        scores = [
            model.transition_logp(BOUNDARY, BOUNDARY, t) + model.emission_logp(word, t)
            for t in model.tagset
        ]
        want = model.tagset[max(range(len(scores)), key=lambda i: scores[i])]
        assert viterbi(model, [word], beam=0) == [want]

    def test_beam_1000_matches_exact_on_suffix_language(self):
        train_c, test_c = make_suffix_corpus(150, 40, seed=2)
        model = train_hmm(train_c)
        for sent in test_c.sentences[:25]:
            assert viterbi(model, sent.forms, beam=1000.0) == viterbi(model, sent.forms, beam=0)

    def test_bad_beam_rejected(self):
        model = train_hmm(_random_corpus(Rng(6)))
        with pytest.raises(ValueError):
            viterbi(model, ["w1"], beam=0.5)
        with pytest.raises(ValueError):
            viterbi(model, [], beam=0)


class TestDeletedInterpolation:
    def test_lambdas_sum_to_one(self):
        for seed in (1, 2, 3):
            model = train_hmm(_random_corpus(Rng(seed)))
            assert sum(model.lambdas) == pytest.approx(1.0, abs=1e-12)

    def test_bigram_determined_corpus_prefers_lambda2(self):
        # next tag fully determined by the previous one, across many contexts
        rng = Rng(11)
        sents = []
        for _ in range(60):
            length = 2 + rng.below(5)
            start = "A" if rng.uniform() < 0.5 else "B"
            tags = [start]
            for _ in range(length - 1):
                tags.append("B" if tags[-1] == "A" else "A")
            sents.append(Sentence([f"x{t}{j}" for j, t in enumerate(tags)], tags))
        model = train_hmm(Corpus(sents))
        l1, l2, l3 = model.lambdas
        assert l2 > l1 and l2 > l3

    def test_single_tag_corpus_degenerates_to_certainty(self):
        model = train_hmm(Corpus([Sentence(["a", "b", "a"], ["T", "T", "T"])]))
        assert model.transition(BOUNDARY, BOUNDARY, "T") == pytest.approx(1.0)
        assert model.transition("T", "T", "T") == pytest.approx(1.0)


class TestTransitionDistribution:
    def test_sums_to_one_for_every_history(self):
        model = train_hmm(_random_corpus(Rng(21), n_sents=15))
        histories = [BOUNDARY] + model.tagset
        for t1 in histories:
            for t2 in histories:
                total = sum(model.transition(t1, t2, t3) for t3 in model.tagset)
                assert abs(total - 1.0) < 1e-9, (t1, t2, total)

    def test_unseen_history_still_proper(self):
        # single sentence: history (B, A) exists but e.g. (C, A) does not
        model = train_hmm(Corpus([Sentence(["u", "v", "w"], ["A", "B", "C"])]))
        total = sum(model.transition("C", "A", t) for t in model.tagset)
        assert abs(total - 1.0) < 1e-9


class TestEmission:
    def test_word_seen_only_as_noun(self):
        corpus = Corpus([Sentence(["boat", "go"], ["NOUN", "VERB"])])
        model = train_hmm(corpus)
        assert model.emission_logp("boat", "NOUN") == 0.0
        assert model.emission_logp("boat", "VERB") == -math.inf

    def test_oov_with_no_suffix_match_is_uniform_over_lowfreq_tags(self):
        # low-frequency words carry tags A and B; tag C lives only on a
        # high-frequency word, so the suffix population never sees it
        sents = [Sentence(["common"] * 11, ["C"] * 11)]
        sents.append(Sentence(["alpha", "beta"], ["A", "B"]))
        model = train_hmm(Corpus(sents))
        oov = "零零零"  # shares no suffix with any training word
        pa = model.emission_logp(oov, "A")
        pb = model.emission_logp(oov, "B")
        assert pa == pytest.approx(pb) and pa > -math.inf
        assert model.emission_logp(oov, "C") == -math.inf

    def test_capitalization_split_tries_can_differ(self):
        sents = [
            Sentence(["Paris", "runs"], ["PROPN", "VERB"]),
            Sentence(["Lyon", "sings"], ["PROPN", "VERB"]),
            Sentence(["cat", "dogs"], ["NOUN", "NOUN"]),
        ]
        model = train_hmm(Corpus(sents))
        lower = {t: model.emission_logp("runnings", t) for t in model.tagset}
        upper = {t: model.emission_logp("Runnings", t) for t in model.tagset}
        assert lower != upper

    def test_emission_row_equals_scalar_calls(self):
        # known, OOV lower-case and capitalised words, and a model without tries
        train_c, test_c = make_suffix_corpus(120, 30, seed=4)
        model = train_hmm(train_c)
        words = [w for s in test_c for w in s.forms] + ["Zzzqing", "零零", "x"]
        assert any(w not in model.form_index for w in words) and any(w in model.form_index for w in words)
        no_tries = train_hmm(Corpus([Sentence(["common"] * 11, ["C"] * 11), Sentence(["a", "b"], ["A", "B"])]))
        no_tries.trie_upper = no_tries.trie_lower = SuffixTrie([], np.zeros((0, 3), dtype=np.int64), 0.0, 10)
        for m, ws in ((model, words), (no_tries, ["novel", "Novel", "a"])):
            for w in ws:
                row = m.emission_logps(w)
                assert row.tolist() == [m.emission_logp(w, t) for t in m.tagset], w

    def test_suffix_node_distributions_sum_to_one(self):
        train_c, _ = make_suffix_corpus(120, 10, seed=4)
        model = train_hmm(train_c)
        for trie in (model.trie_upper, model.trie_lower):
            for suffix, row in trie.index.items():
                assert abs(trie.dist[row].sum() - 1.0) < 1e-9, suffix


class TestDataBenefit:
    def test_more_training_data_helps(self):
        train_c, test_c = make_suffix_corpus(2000, 150, seed=8)
        from seqtag.corpus import subsample

        tiny = train_hmm(subsample(train_c, 10, Rng(3)))
        small = train_hmm(subsample(train_c, 100, Rng(3)))
        big = train_hmm(subsample(train_c, 2000, Rng(3)))

        def acc(model):
            good = total = 0
            for sent in test_c:
                for got, want in zip(model.predict(sent.forms), sent.tags):
                    good += got == want
                    total += 1
            return good / total

        # 100 sentences already tag this test set perfectly, so the step up
        # to 2000 can only hold the ceiling; the strict gain is checked lower
        # down the curve, where accuracy has room to move
        assert acc(big) >= acc(small)
        assert acc(small) > acc(tiny)


def _set(block, index, value):
    """A container edit that writes value at arrays[block][index]."""

    def edit(header, arrays):
        arrays[block][index] = value

    return edit


def _all(*edits):
    def edit(header, arrays):
        for e in edits:
            e(header, arrays)

    return edit


class TestPersistence:
    def test_round_trip_predictions(self, tmp_path):
        train_c, test_c = make_suffix_corpus(120, 20, seed=6)
        model = train_hmm(train_c)
        path = tmp_path / "tnt.bin"
        save_hmm(model, str(path))
        clone = load_hmm(str(path))
        assert clone.lambdas == model.lambdas
        for sent in test_c:
            assert clone.predict(sent.forms) == model.predict(sent.forms)

    def test_kind_mismatch_rejected(self, tmp_path):
        from seqtag.tagger import Hyperparams, save as save_bilstm, train as train_bilstm

        corpus = Corpus([Sentence(["a", "b"], ["X", "Y"])] * 3)
        hp = Hyperparams(word_dim=4, subtoken_dim=3, hidden_dim=3, epochs=1, repr_mode="w")
        path = tmp_path / "m.bin"
        save_bilstm(train_bilstm(corpus, hp), str(path))
        with pytest.raises(ModelError, match="tnt"):
            load_hmm(str(path))

    def _rewrite(self, tmp_path, edit):
        """A saved two-token model after edit(header, arrays): checksum valid."""
        path = tmp_path / "tnt.bin"
        save_hmm(train_hmm(Corpus([Sentence(["a", "b"], ["X", "Y"])])), str(path))
        header, arrays = load_container(str(path))
        edit(header, arrays)
        save_container(str(path), header, list(arrays.items()))
        return str(path)

    def test_untouched_file_still_loads(self, tmp_path):
        assert load_hmm(self._rewrite(tmp_path, lambda h, a: None)).predict(["a", "b"]) == ["X", "Y"]

    def test_header_without_counts_is_a_model_error(self, tmp_path):
        path = self._rewrite(tmp_path, lambda h, a: a.clear())
        with pytest.raises(ModelError, match="'tri'") as err:
            load_hmm(path)
        assert path in str(err.value)

    @pytest.mark.parametrize(
        "edit,field",
        [
            (_all(_set("tri", ..., 0.0), _set("emit", ..., 0.0)), "'tri'"),
            (lambda h, a: h["forms"].__setitem__(0, ""), "'forms'"),
            (lambda h, a: a.pop("tri"), "'tri'"),
            (lambda h, a: a.pop("emit"), "'emit'"),
            (lambda h, a: h.pop("forms"), "'forms'"),
            (lambda h, a: a.update(tri=a["tri"][:, :, :1]), "'tri'"),
            (lambda h, a: a.update(emit=a["emit"][:1]), "'emit'"),
            (_set("tri", (0, 0, 0), -1.0), "'tri'"),
            (_set("emit", (0, 0), 0.5), "'emit'"),
            (_set("emit", (0, 0), np.nan), "'emit'"),
            (_all(_set("tri", (..., 0), 0.0), _set("emit", (..., 0), 0.0)), "'tri'.*'X'"),
            (_set("emit", (0, 0), 2.0), "'emit'.*'tri'"),
            (_all(_set("emit", 0, 0.0), _set("emit", 1, 1.0)), "'emit'.*'a'"),
            (lambda h, a: h.update(forms=["a", "a"]), "'forms'"),
            (lambda h, a: h.update(tagset=["X", BOUNDARY]), "'tagset'"),
        ],
        ids=[
            "no-tokens", "empty-form", "no-tri", "no-emit", "no-forms", "tri-shape", "emit-shape",
            "negative-count", "fractional-count", "nan-count", "tag-without-tokens", "emit-sums-disagree",
            "form-without-tokens", "duplicate-forms", "boundary-tag",
        ],
    )
    def test_impossible_counts_are_a_model_error(self, tmp_path, edit, field):
        path = self._rewrite(tmp_path, edit)
        with pytest.raises(ModelError, match=field) as err:
            load_hmm(path)
        assert path in str(err.value)


_FORMS = st.text(alphabet="abeéAÉ零ß", min_size=1, max_size=4)


@st.composite
def _tnt_cases(draw):
    """(corpus, unseen forms, test sentences, max_suffix_len, suffix_max_freq)."""
    tags = draw(st.lists(st.sampled_from(["A", "B", "Č", "D", "E", "F"]), min_size=1, max_size=6, unique=True))
    vocab = draw(st.lists(_FORMS, min_size=1, max_size=10, unique=True))
    token = st.tuples(st.sampled_from(vocab), st.sampled_from(tags))
    sents = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=10))
    corpus = Corpus([Sentence([f for f, _ in s], [t for _, t in s]) for s in sents])
    # unseen forms: training forms behind one more letter, which reach the
    # deepest suffix nodes, and free ones
    extended = st.builds(lambda c, w: c + w, st.sampled_from("aÉ"), st.sampled_from(vocab))
    novel = draw(st.lists(extended, min_size=1, max_size=3)) + draw(st.lists(_FORMS, max_size=2))
    novel = sorted(set(novel) - set(vocab))
    test = draw(st.lists(st.lists(st.sampled_from(vocab + novel), min_size=1, max_size=4), min_size=1, max_size=3))
    return corpus, novel, test, draw(st.sampled_from([2, 10])), draw(st.sampled_from([1, 10]))


class TestAgainstReference:
    """The count-array model against the dictionary model it replaced."""

    @pytest.mark.parametrize("max_suffix_len", [2, 10])
    def test_same_model_on_the_suffix_language(self, max_suffix_len):
        # capitalised sentence starts fill the upper-case trie too
        train_c, test_c = make_suffix_corpus(300, 40, seed=3)
        corpus = Corpus([Sentence([s.forms[0].capitalize()] + s.forms[1:], s.tags) for s in train_c])
        model = train_hmm(corpus, max_suffix_len)
        want = ReferenceTnt(corpus, max_suffix_len)
        assert model.trie_upper and model.trie_lower
        assert model.lambdas == want.lambdas and model.theta == want.theta
        words = {w for s in test_c for w in s.forms}
        for word in sorted(words | {w.capitalize() for w in words}):
            assert [model.emission_logp(word, t) for t in model.tagset] == [
                want.emission_logp(word, t) for t in model.tagset
            ], word

    @settings(max_examples=60, deadline=None)
    @given(_tnt_cases())
    def test_same_model_through_save_and_load(self, tmp_path_factory, case):
        corpus, novel, test, max_suffix_len, suffix_max_freq = case
        model = train_hmm(corpus, max_suffix_len, suffix_max_freq)
        want = ReferenceTnt(corpus, max_suffix_len, suffix_max_freq)
        assert model.lambdas == want.lambdas and model.theta == want.theta
        hist = [BOUNDARY] + model.tagset
        for t1, t2, t3 in itertools.product(hist, hist, model.tagset):
            assert model.transition_logp(t1, t2, t3) == want.transition_logp(t1, t2, t3), (t1, t2, t3)
        for word in model.forms + novel:
            for tag in model.tagset:
                assert model.emission_logp(word, tag) == want.emission_logp(word, tag), (word, tag)

        path = str(tmp_path_factory.mktemp("tnt") / "tnt.bin")
        save_hmm(model, path)
        clone = load_hmm(path)
        assert (clone.tagset, clone.forms) == (model.tagset, model.forms)
        np.testing.assert_array_equal(clone.tri, model.tri)
        np.testing.assert_array_equal(clone.emit, model.emit)
        for tokens in test:
            exact = viterbi(model, tokens, beam=0)
            assert exact == brute_force_viterbi(model, tokens), tokens
            assert viterbi(clone, tokens, beam=0) == exact
            assert clone.predict(tokens) == model.predict(tokens)
