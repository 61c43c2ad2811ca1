"""Trigram HMM baseline: smoothing, suffix OOV handling, Viterbi oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtag.autodiff import Rng
from seqtag.container import ModelError, load_container, save_container
from seqtag.corpus import Corpus, Sentence
from seqtag.synthetic import make_suffix_corpus
from seqtag.tnt import BOUNDARY, CONFIG, SuffixTrie, TrigramModel, _count, load_hmm, save_hmm, train_hmm, viterbi

from reference import ReferenceTnt, brute_force_viterbi, count_reference, reference_viterbi, transition


def _row(emissions, k):
    """The (k,) list of log emissions of an emission row (tag ids, logs),
    -inf elsewhere."""
    logs = dict(zip(*emissions))
    return [logs.get(t, -math.inf) for t in range(k)]


def _sparse(row):
    """The emission row (tag ids, logs) of a (k,) list of log emissions."""
    tags = tuple(t for t, x in enumerate(row) if x > -math.inf)
    return tags, tuple(row[t] for t in tags)


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
            for beam in (0, 2, 1000.0):
                assert viterbi(model, sent.forms, beam) == reference_viterbi(model, sent.forms, beam)

    def test_bad_beam_rejected(self):
        model = train_hmm(_random_corpus(Rng(6)))
        with pytest.raises(ValueError):
            viterbi(model, ["w1"], beam=0.5)
        with pytest.raises(ValueError):
            viterbi(model, [], beam=0)
        # the rule of the config's beam_default: NaN decoded exactly, the others raised TypeError or were taken
        for beam in (float("nan"), math.inf, -1, "5", None, True, [5]):
            with pytest.raises(ValueError, match="beam factor"):
                viterbi(model, ["w1"], beam=beam)
            with pytest.raises(ValueError, match="'beam_default'"):
                TrigramModel(model.tagset, model.tri, model.forms, model.emit, beam_default=beam)
        for beam in (0, 0.0, 1, 1.0, 5, 1e300):
            assert viterbi(model, ["w1", "w2"], beam=beam) == reference_viterbi(model, ["w1", "w2"], beam)

    def test_ties_resolve_as_in_the_dense_decoder(self):
        # one form, so emissions hardly separate the paths and many scores tie
        # exactly; the beam keeps states whose insertion order is not
        # ascending, and only visiting them in (prev, cur) order breaks the
        # ties toward the lowest previous tag, as the dense argmax does
        tags = ["BCABA", "A", "CBBAC", "ACC"]
        model = train_hmm(Corpus([Sentence(["a"] * len(t), list(t)) for t in tags]))
        tokens = ["a", "zz", "zz", "a", "a", "a", "a"]
        assert viterbi(model, tokens, 2) == list("ACACBAC") == reference_viterbi(model, tokens, 2)

    def test_random_tie_heavy_models_match_the_dense_decoder(self):
        rng = Rng(23)
        for _ in range(300):
            k, n_words = 2 + rng.below(3), 1 + rng.below(3)
            sents = []
            for _ in range(1 + rng.below(4)):
                n = 1 + rng.below(5)
                forms = ["abc"[rng.below(n_words)] for _ in range(n)]
                sents.append(Sentence(forms, ["ABCD"[rng.below(k)] for _ in range(n)]))
            model = train_hmm(Corpus(sents))
            for _ in range(4):
                tokens = [("a", "b", "c", "zz")[rng.below(n_words + 1)] for _ in range(3 + rng.below(6))]
                for beam in (0, 2, 1000.0):
                    assert viterbi(model, tokens, beam) == reference_viterbi(model, tokens, beam), (tokens, beam)

    def test_zero_probability_sentence_takes_the_first_tag_everywhere(self):
        # only bigram estimates count (lambdas 0, 1, 0) and A never follows A;
        # 'Qa' can only be A, so every path through it has probability 0
        corpus = Corpus([Sentence(["ab", "b"], ["B", "A"]), Sentence(["a", "b"], ["B", "A"]), Sentence(["b"], ["B"])])
        model = train_hmm(corpus)
        assert model.lambdas == (0.0, 1.0, 0.0)
        tokens = ["ab", "c", "c", "Qa", "a", "a"]
        assert brute_force_viterbi(model, tokens) == ["A"] * 6
        for beam in (0, 2, 1000.0):
            assert viterbi(model, tokens, beam) == ["A"] * 6 == reference_viterbi(model, tokens, beam)

    def test_zero_probability_sentences_of_random_models(self):
        # corpora whose tags cycle through the tagset often give the
        # unigram weight 0, and then some sentences have no path of nonzero
        # probability; collect several and check all three decoders on them
        rng, found = Rng(17), 0
        for _ in range(3000):
            k = 2 + rng.below(3)
            sents = []
            for _ in range(1 + rng.below(5)):
                n, t = 1 + rng.below(6), rng.below(k)
                forms = [("a", "b", "ab")[rng.below(3)] for _ in range(n)]
                sents.append(Sentence(forms, ["ABCD"[(t + i) % k] for i in range(n)]))
            model = train_hmm(Corpus(sents))
            tokens = [("a", "b", "ab", "zz")[rng.below(4)] for _ in range(2 + rng.below(3))]
            best = brute_force_viterbi(model, tokens)
            if _path_score(model, tokens, best) > -math.inf:
                continue
            found += 1
            assert best == [model.tagset[0]] * len(tokens)
            for beam in (0, 2, 1000.0):
                assert viterbi(model, tokens, beam) == reference_viterbi(model, tokens, beam), (tokens, beam)
            assert viterbi(model, tokens, 0) == [model.tagset[0]] * len(tokens)
            if found == 10:
                break
        assert found == 10


def _path_score(model, tokens, tags):
    s, t1, t2 = 0.0, BOUNDARY, BOUNDARY
    for form, t3 in zip(tokens, tags):
        s = (s + model.transition_logp(t1, t2, t3)) + model.emission_logp(form, t3)
        t1, t2 = t2, t3
    return s


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
        assert transition(model, BOUNDARY, BOUNDARY, "T") == pytest.approx(1.0)
        assert transition(model, "T", "T", "T") == pytest.approx(1.0)


class TestTransitionDistribution:
    def test_sums_to_one_for_every_history(self):
        model = train_hmm(_random_corpus(Rng(21), n_sents=15))
        histories = [BOUNDARY] + model.tagset
        for t1 in histories:
            for t2 in histories:
                total = sum(transition(model, t1, t2, t3) for t3 in model.tagset)
                assert abs(total - 1.0) < 1e-9, (t1, t2, total)

    def test_unseen_history_still_proper(self):
        # single sentence: history (B, A) exists but e.g. (C, A) does not
        model = train_hmm(Corpus([Sentence(["u", "v", "w"], ["A", "B", "C"])]))
        total = sum(transition(model, "C", "A", t) for t in model.tagset)
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
                assert _row(m.emission_row(w), len(m.tagset)) == [m.emission_logp(w, t) for t in m.tagset], w

    def test_emission_pairs_are_the_nonzero_entries_of_the_dense_row(self):
        # known forms of one or several tags, OOV words of both cases, and a
        # model without tries, whose unknown words get every tag
        train_c, test_c = make_suffix_corpus(120, 30, seed=4)
        corpus = Corpus([Sentence([s.forms[0].capitalize()] + s.forms[1:], s.tags) for s in train_c])
        no_tries = train_hmm(_random_corpus(Rng(8)))
        no_tries.trie_upper = no_tries.trie_lower = SuffixTrie([], np.zeros((0, 4), dtype=np.int64), 0.0, 10)
        words = [w for s in test_c for w in s.forms]
        for model, ws in ((train_hmm(corpus), words + [w.capitalize() for w in words]), (no_tries, ["novel", "w1"])):
            uni = model.emit.sum(axis=0).tolist()
            for i, counts in enumerate(model.emit.tolist()):
                want = _sparse([math.log(c / uni[t]) if c else -math.inf for t, c in enumerate(counts)])
                assert model.form_emissions[i] == want == model.emission_row(model.forms[i])
            for w in ws:
                assert model.emission_row(w) == _sparse([model.emission_logp(w, t) for t in model.tagset]), w
        assert any(len(tags) > 1 for tags, _ in no_tries.form_emissions)
        assert no_tries.emission_row("novel") == (tuple(range(4)), (math.log(1 / 4),) * 4)

    def test_emission_rows_are_two_flat_tuples(self):
        # ints and floats only, so a row is three tuples for the garbage
        # collector, and trie rows of the same tags share one tag tuple
        train_c, test_c = make_suffix_corpus(120, 30, seed=4)
        model = train_hmm(train_c)
        for s in test_c:
            model.predict(s.forms)
        tries = (model.trie_lower, model.trie_upper)
        rows = [*model.form_emissions, model.uniform, *(r for t in tries for r in t._rows.values())]
        assert sum(len(t._rows) for t in tries) > 1
        for tags, logs in rows:
            assert type(tags) is type(logs) is tuple and len(tags) == len(logs) > 0
            assert all(type(t) is int for t in tags) and all(type(x) is float for x in logs)
        for trie in tries:
            shared = {tuple(tags): tags for tags, _ in trie._rows.values()}
            assert all(tags is shared[tags] for tags, _ in trie._rows.values())

    def test_suffix_node_distributions_sum_to_one(self):
        train_c, _ = make_suffix_corpus(120, 10, seed=4)
        model = train_hmm(train_c)
        for trie in (model.trie_upper, model.trie_lower):
            for row, dist in enumerate(trie.dist):
                assert abs(dist.sum() - 1.0) < 1e-9, row


# non-ASCII, astral-plane (one code point, two UTF-16 units) and lone
# surrogate characters, upper and lower case
_TRIE_CHARS = ["a", "b", "é", "ß", "A", "É", "\U0001d518", "\ud800"]


@st.composite
def _trie_cases(draw):
    """(corpus, query words, max_suffix_len, suffix_max_freq); words up to 7
    characters, so most are longer than max_suffix_len = 1 or 2."""
    form = st.lists(st.sampled_from(_TRIE_CHARS), min_size=1, max_size=7).map("".join)
    vocab = draw(st.lists(form, min_size=1, max_size=12, unique=True))
    token = st.tuples(st.sampled_from(vocab), st.sampled_from(["A", "B", "C"]))
    sents = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=8))
    corpus = Corpus([Sentence([f for f, _ in s], [t for _, t in s]) for s in sents])
    extended = st.builds(lambda c, w: c + w, st.sampled_from(_TRIE_CHARS), st.sampled_from(vocab))
    queries = draw(st.lists(extended, max_size=4)) + draw(st.lists(form, max_size=4))
    return corpus, queries, draw(st.sampled_from([1, 2, 3, 10])), draw(st.sampled_from([1, 2, 10]))


class TestSuffixTrie:
    """The integer-coded trie against the string-keyed one it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(_trie_cases())
    # no rare word, so both tries are empty; a single one-character word
    @example(case=(Corpus([Sentence(["a", "a", "B", "B"], ["A", "B", "A", "A"])]), ["ba", "B"], 10, 1))
    @example(case=(Corpus([Sentence(["é"], ["A"])]), ["aé", "b", "é"], 1, 10))
    # "y" and "x" label rows, but not children of "a" and "b": the search stays
    # within a row's children; "x", "y" and the last row "yb" have none
    @example(case=(Corpus([Sentence(["xa", "yb"], ["A", "B"])]), ["ya", "xb", "zxa", "yyb"], 10, 10))
    # every suffix of the queries matches up to max_suffix_len, and the walk stops there
    @example(case=(Corpus([Sentence(["abc", "zbc"], ["A", "B"])]), ["abc", "zabc", "bbc"], 2, 10))
    # astral and lone-surrogate labels
    @example(case=(Corpus([Sentence(["a\U0001d518\ud800", "\ud800\U0001d518"], ["A", "B"])]),
                   ["b\U0001d518\ud800", "\ud800", "\U0001d518", "\U0001d518\U0001d518", "a\ud800\U0001d518"],
                   10, 10))
    def test_same_nodes_distributions_and_queries_as_the_string_keyed_trie(self, case):
        corpus, queries, max_suffix_len, suffix_max_freq = case
        model = train_hmm(corpus, max_suffix_len, suffix_max_freq)
        want = ReferenceTnt(corpus, max_suffix_len, suffix_max_freq)
        for trie, ref in ((model.trie_upper, want.trie_upper), (model.trie_lower, want.trie_lower)):
            assert trie.dist.shape == (len(ref.dist), len(model.tagset))
            if not ref:
                continue
            # every stored suffix has its own row, numbered shortest suffix first
            rows = {suffix: trie.row(suffix) for suffix in ref.dist}
            assert sorted(rows.values()) == list(range(len(ref.dist)))
            assert [len(s) for s in sorted(rows, key=rows.get)] == sorted(map(len, rows))
            for suffix, row in rows.items():
                assert trie.dist[row].tolist() == [ref.dist[suffix].get(t, 0.0) for t in model.tagset], suffix
            prior = ref.prior
            for word in queries + list(ref.dist):
                if not word:
                    continue
                dist = ref.query(word)
                assert trie.dist[trie.row(word)].tolist() == [dist.get(t, 0.0) for t in model.tagset], word
                logp = [
                    math.log(dist.get(t, 0.0) / prior[t]) if prior.get(t, 0.0) and dist.get(t, 0.0) else -math.inf
                    for t in model.tagset
                ]
                assert _row(trie.emission_row(word), len(model.tagset)) == logp, word

    def test_build_peak_above_what_it_keeps_per_row(self):
        # per-depth word and row lists kept to the end, an int64 copy of the
        # code points and a second copy of the counts took 187 bytes a row
        train_c, _ = make_suffix_corpus(3000, 10, seed=3, types_per_tag=4000, min_len=3, max_len=29)
        model = train_hmm(train_c)
        rare = np.flatnonzero(model.freq <= model.suffix_max_freq)
        words, counts = [model.forms[i] for i in rare], model.emit[rare]
        tracemalloc.start()
        try:
            trie = SuffixTrie(words, counts, model.theta, model.max_suffix_len)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trie.dist) > 10_000
        assert (peak - kept) / len(trie.dist) <= 80
        # k = 5 float64 distributions take 40 of these; a dict of children took 141 bytes a row in all
        assert kept / len(trie.dist) <= 64

    def test_children_are_one_label_string_and_offsets(self):
        train_c, _ = make_suffix_corpus(120, 10, seed=4)
        model = train_hmm(train_c)
        assert model.trie_lower
        for trie in filter(None, (model.trie_upper, model.trie_lower)):
            rows = len(trie.dist)
            assert type(trie.labels) is str and len(trie.labels) == rows - 1
            assert trie.first.typecode == "q" and len(trie.first) == rows + 1
            assert list(trie.first) == sorted(trie.first) and trie.first[-1] == rows - 1
            # no per-row Python object: the memos of queried rows start empty
            assert not trie._rows and not trie._tag_ids
            assert [name for name, value in vars(trie).items() if isinstance(value, dict)] == ["_rows", "_tag_ids"]

    @pytest.mark.parametrize("word", ["a", "abc", "\ud800", ""])
    def test_empty_trie_walks_to_the_root(self, word):
        trie = SuffixTrie([], np.zeros((0, 3), dtype=np.int64), 0.0, 10)
        assert not trie and trie.row(word) == 0


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

    def test_stray_array_block_is_a_model_error(self, tmp_path):
        # it used to load, and a save of the loaded model dropped it
        path = self._rewrite(tmp_path, lambda h, a: a.update(stray=np.zeros(2), other=np.ones(1)))
        with pytest.raises(ModelError, match="unexpected array block 'stray'") as err:
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
            (lambda h, a: h.update(tagset=[["X"], ["Y"]]), "'tagset'"),
            (lambda h, a: h.update(tagset=[0, 1]), "'tagset'"),
            (lambda h, a: h.update(tagset="XY"), "'tagset'"),  # two tags once split into characters
            (lambda h, a: h.update(forms="ab"), "'forms'"),
        ],
        ids=[
            "no-tokens", "empty-form", "no-tri", "no-emit", "no-forms", "tri-shape", "emit-shape",
            "negative-count", "fractional-count", "nan-count", "tag-without-tokens", "emit-sums-disagree",
            "form-without-tokens", "duplicate-forms", "boundary-tag", "tagset-of-lists", "tagset-of-ints",
            "tagset-string", "forms-string",
        ],
    )
    def test_impossible_counts_are_a_model_error(self, tmp_path, edit, field):
        path = self._rewrite(tmp_path, edit)
        with pytest.raises(ModelError, match=field) as err:
            load_hmm(path)
        assert path in str(err.value)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("max_suffix_len", "10"), ("max_suffix_len", 2.5), ("max_suffix_len", -1), ("max_suffix_len", 0),
            ("max_suffix_len", True), ("max_suffix_len", None),
            ("suffix_max_freq", "x"), ("suffix_max_freq", None), ("suffix_max_freq", -1), ("suffix_max_freq", 1.5),
            ("suffix_max_freq", False),
            ("beam_default", "x"), ("beam_default", None), ("beam_default", 0.5), ("beam_default", -1),
            ("beam_default", math.inf), ("beam_default", math.nan), ("beam_default", True),
        ],
    )
    def test_bad_config_is_a_model_error(self, tmp_path, name, value):
        corpus = Corpus([Sentence(["a", "b"], ["X", "Y"])])
        with pytest.raises(ValueError, match=f"^'{name}' "):
            train_hmm(corpus, **{name: value})
        path = self._rewrite(tmp_path, lambda h, a: h["config"].__setitem__(name, value))
        with pytest.raises(ModelError, match=f"'{name}'") as err:
            load_hmm(path)
        assert path in str(err.value)

    @pytest.mark.parametrize("config", [(1, 0, 0), (10, 10, 1), (3, 2, 1.5), (10, 10, 1000.0)])
    def test_edge_configs_load_and_predict(self, tmp_path, config):
        path = self._rewrite(tmp_path, lambda h, a: h.update(config=dict(zip(CONFIG, config))))
        assert load_hmm(path).predict(["a", "b", "zz"])[:2] == ["X", "Y"]


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


# Sentences on which two paths tie exactly and brute_force_viterbi keeps
# another path than viterbi and reference_viterbi (see _check_exact_path):
# (training sentences, max_suffix_len, suffix_max_freq, test sentence).
_TIES = [
    (
        [(["A", "AA"], ["B", "B"]), (["A", "A"], ["Č", "Č"]), (["A", "A", "AA", "A", "A", "A"], list("ČAČBAA"))],
        2, 1, ["AA", "A", "aA", "A"],
    ),
    ([(["ab"], ["A"]), (["ab", "A", "A", "A"], ["A", "A", "B", "A"])], 10, 10, ["A", "A", "A", "a"]),
    ([(["A"] * 5, list("BBDED")), (["A"] * 4, list("DBBD"))], 2, 10, ["A", "A", "A"]),
]


def _tie_case(i):
    """_TIES[i] as _tnt_cases draws a case."""
    sents, max_suffix_len, suffix_max_freq, tokens = _TIES[i]
    corpus = Corpus([Sentence(forms, tags) for forms, tags in sents])
    novel = sorted(set(tokens) - {f for forms, _ in sents for f in forms})
    return corpus, novel, [tokens], max_suffix_len, suffix_max_freq


def _check_exact_path(model, tokens):
    """The tie rule, checked: exact viterbi returns reference_viterbi's path,
    the same rule of lowest indices (see viterbi), and that path scores
    exactly the brute-force optimum.  The path itself may differ from
    brute_force_viterbi's, which keeps the lexicographically first of the
    paths that tie: float rounding can make a prefix that the DP dropped
    tie with the best path at the end."""
    exact = viterbi(model, tokens, beam=0)
    assert exact == reference_viterbi(model, tokens, 0), tokens
    assert _path_score(model, tokens, exact) == _path_score(model, tokens, brute_force_viterbi(model, tokens)), tokens
    return exact


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
    @given(case=_tnt_cases())
    @example(case=_tie_case(0))
    @example(case=_tie_case(1))
    @example(case=_tie_case(2))
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
            exact = _check_exact_path(model, tokens)
            assert viterbi(clone, tokens, beam=0) == exact
            assert clone.predict(tokens) == model.predict(tokens)


@st.composite
def _count_cases(draw):
    """Corpora of 1-8 sentences of 1-6 tokens: non-ASCII forms, 1-5 tags, so
    that one corpus often has 1-token sentences and a tag seen once."""
    tags = st.sampled_from(["NOUN", "VERB", "ADJ", "X", "Ü"])
    sents = draw(st.lists(st.lists(st.tuples(_FORMS, tags), min_size=1, max_size=6), min_size=1, max_size=8))
    return Corpus([Sentence([f for f, _ in s], [t for _, t in s]) for s in sents])


def _many_tags(k):
    """One sentence of k tokens, each of its own tag: k + 1 ids no longer
    fit in a byte from k = 256 on."""
    return Corpus([Sentence([f"w{i % 3}" for i in range(k)], [f"T{i:03d}" for i in range(k)])])


class _CountedList(list):
    """A list that counts the iterations begun over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestCount:
    """The streamed counts against per-sentence dict loops."""

    @settings(max_examples=80, deadline=None)
    @given(corpus=_count_cases())
    @example(corpus=Corpus([Sentence(["é"], ["X"])]))
    @example(corpus=Corpus([Sentence(["零", "a", "零"], ["A", "B", "A"]), Sentence(["b"], ["C"])]))
    @example(corpus=Corpus([Sentence(["run", "red", "ran"], ["VERB", "ADJ", "VERB"]), Sentence(["a"], ["DET"])]))
    @example(corpus=_many_tags(255))
    @example(corpus=_many_tags(256))
    def test_same_counts_as_the_dict_loops(self, corpus):
        tagset, tri, forms, emit = _count(corpus)
        want_tagset, want_tri, want_forms, want_emit = count_reference(corpus)
        assert (tagset, forms) == (want_tagset, want_forms)
        for got, want in ((tri, want_tri), (emit, want_emit)):
            assert got.dtype == np.int64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want, strict=True)

    def test_reads_each_column_once(self):
        sentences = [Sentence(_CountedList(["a", "b", "a"]), _CountedList(["B", "A", "B"])),
                     Sentence(_CountedList(["c"]), _CountedList(["C"]))]
        lists = [column for s in sentences for column in (s.forms, s.tags)]
        for column in lists:
            column.iterations = 0  # whatever validating the sentence took
        _count(Corpus(sentences))
        assert [column.iterations for column in lists] == [1] * len(lists)

    def test_peak_memory_per_token(self):
        # whole-corpus lists of strings and int64 index arrays took 65 bytes a token
        train_c, _ = make_suffix_corpus(3000, 10, seed=3, types_per_tag=4000, min_len=3, max_len=29)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _count(train_c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / train_c.n_tokens() <= 45


@st.composite
def _decoder_cases(draw):
    """(model, test sentences) on 1-6 tags.  Most training tags follow a
    drawn successor map, so the interpolation sometimes gives the unigram
    weight 0 and some test sentences have no path of nonzero probability."""
    tags = draw(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=6, unique=True))
    successor = draw(st.lists(st.sampled_from(tags), min_size=len(tags), max_size=len(tags)))
    follow = dict(zip(tags, successor))
    vocab = draw(st.lists(_FORMS, min_size=1, max_size=6, unique=True))
    sents = []
    for _ in range(draw(st.integers(1, 6))):
        seq = [tags[0]]
        for _ in range(draw(st.integers(0, 5))):
            seq.append(follow[seq[-1]])
        if draw(st.integers(0, 3)) == 3:  # break the pattern at one position
            seq[draw(st.integers(0, len(seq) - 1))] = draw(st.sampled_from(tags))
        sents.append(Sentence([draw(st.sampled_from(vocab)) for _ in seq], seq))
    words = st.sampled_from(vocab + ["zz", "Éa"])
    test = draw(st.lists(st.lists(words, min_size=1, max_size=4), min_size=1, max_size=3))
    return train_hmm(Corpus(sents)), test


def _tie_model(i):
    """_TIES[i] as _decoder_cases draws a case."""
    corpus, _, test, max_suffix_len, suffix_max_freq = _tie_case(i)
    return train_hmm(corpus, max_suffix_len, suffix_max_freq), test


@st.composite
def _long_cases(draw):
    """(model, test sentences of 1-12 tokens) over 2-5 tags.  The training
    words are single-tag ones, each seen with one tag, and multi-tag ones,
    each seen with two or more; the test sentences mix them with unseen
    words, whose suffix rows have several tags.  So one state survives along
    runs of single-tag words, several survive after the other words, and a
    run can start and end anywhere in a sentence."""
    tags = draw(st.lists(st.sampled_from("ABCDE"), min_size=2, max_size=5, unique=True))
    single = {f"s{i}": draw(st.sampled_from(tags)) for i in range(draw(st.integers(1, 4)))}
    multi = {
        f"m{i}": draw(st.lists(st.sampled_from(tags), min_size=2, max_size=len(tags), unique=True))
        for i in range(draw(st.integers(1, 3)))
    }
    seen = list(single.items()) + [(w, t) for w, ts in multi.items() for t in ts]
    sents = [list(seen)] + draw(st.lists(st.lists(st.sampled_from(seen), min_size=1, max_size=8), max_size=6))
    corpus = Corpus([Sentence([w for w, _ in s], [t for _, t in s]) for s in sents])
    words = st.sampled_from(sorted(single) * 3 + sorted(multi) + ["zz", "Qs", "xm0"])
    test = draw(st.lists(st.lists(words, min_size=1, max_size=12), min_size=1, max_size=3))
    return train_hmm(corpus), test


def _one_tag_run_model():
    """Every word of one tag, the tags in a cycle: 12 tokens, one survivor throughout."""
    corpus = Corpus([Sentence(list("abcabca"), list("ABCABCA")), Sentence(list("bcab"), list("BCAB"))])
    return train_hmm(corpus), [list("abcabcabcabc")]


def _zero_step_model():
    """Bigram estimates only (lambdas 0, 1, 0), and B never follows B: 'a'
    and 'ab' are single-tag B words, so the path dies at the fourth token,
    inside the run 'a', 'ab', 'a', 'ab', and the sentence takes the first
    tag everywhere."""
    corpus = Corpus([Sentence(["ab", "b"], ["B", "A"]), Sentence(["a", "b"], ["B", "A"]), Sentence(["b"], ["B"])])
    return train_hmm(corpus), [["ab", "b", "a", "ab", "a", "ab"]]


def _one_token_model():
    """One-token sentences: a single-tag word, a multi-tag word, an unseen word."""
    corpus = Corpus([Sentence(["a", "b", "b"], ["A", "B", "A"])])
    return train_hmm(corpus), [["a"], ["b"], ["zz"]]


class TestDecoderAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(case=_decoder_cases())
    @example(case=_tie_model(0))
    @example(case=_tie_model(1))
    @example(case=_tie_model(2))
    def test_equals_dense_decoder_and_brute_force(self, case):
        model, test = case
        for tokens in test:
            for beam in (0, 1.5, 2, 1000.0):
                assert viterbi(model, tokens, beam) == reference_viterbi(model, tokens, beam), (tokens, beam)
            _check_exact_path(model, tokens)

    @settings(max_examples=150, deadline=None)
    @given(case=_long_cases())
    @example(case=_one_tag_run_model())
    @example(case=_zero_step_model())
    @example(case=_one_token_model())
    def test_long_sentences_through_one_and_several_survivors(self, case):
        model, test = case
        for tokens in test:
            for beam in (0, 1, 1.5, 2, 1000.0):
                assert viterbi(model, tokens, beam) == reference_viterbi(model, tokens, beam), (tokens, beam)

    def test_recorded_examples_take_their_paths(self):
        model, [tokens] = _one_tag_run_model()
        assert viterbi(model, tokens) == list("ABCABCABCABC")
        model, [tokens] = _zero_step_model()
        assert model.lambdas == (0.0, 1.0, 0.0)
        assert viterbi(model, tokens[:3]) == ["B", "A", "B"] and viterbi(model, tokens) == ["A"] * 6

    @pytest.mark.parametrize("i", range(len(_TIES)))
    def test_recorded_ties_are_ties(self, i):
        # brute force keeps another path of the same score, so a path
        # comparison with it would fail on these sentences
        model, [tokens] = _tie_model(i)
        exact, first = viterbi(model, tokens, 0), brute_force_viterbi(model, tokens)
        assert exact != first and _path_score(model, tokens, exact) == _path_score(model, tokens, first)
