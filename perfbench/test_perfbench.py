"""Tests of the benchmark's own oracles, tracer and smoke mode.

    python3 -m pytest perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from seqtag import autodiff, tagger, tnt  # noqa: E402
from seqtag.autodiff import Rng  # noqa: E402
from seqtag.corpus import Corpus, Sentence  # noqa: E402
from seqtag.synthetic import make_suffix_corpus  # noqa: E402
from seqtag.tnt import train_hmm, viterbi  # noqa: E402


def _corpus(*sents):
    return Corpus([Sentence(f.split(), t.split()) for f, t in sents])


class TestMajorityBaseline:
    def test_most_frequent_training_tag(self):
        train = _corpus(("a b c", "X Y Y"), ("d", "Y"))
        assert oracles.majority_tag(train) == "Y"

    def test_ties_go_to_the_first_tag_in_order(self):
        assert oracles.majority_tag(_corpus(("a b", "Y X"))) == "X"

    def test_accuracy_splits_known_and_oov(self):
        test = _corpus(("a z", "X Y"), ("z", "X"))
        tags = [["X", "X"], ["X"]]
        assert oracles.accuracy(test, tags, known={"a"}) == (2 / 3, 1.0, 0.5)

    def test_accuracy_without_oov_tokens(self):
        assert oracles.accuracy(_corpus(("a", "X")), [["Y"]], {"a"}) == (0.0, 0.0, None)


def _random_corpus(rng, n_sents=30, tags=("A", "B", "C", "D"), n_words=12):
    sents = []
    for _ in range(n_sents):
        length = 1 + rng.below(6)
        forms = [f"w{rng.below(n_words)}" for _ in range(length)]
        labels = [tags[rng.below(len(tags))] for _ in range(length)]
        sents.append(Sentence(forms, labels))
    return Corpus(sents)


class TestBruteForceViterbi:
    def test_unambiguous_words_force_the_path(self):
        model = train_hmm(_corpus(("a b", "A B"), ("b a", "B A")))
        score, seq = oracles.brute_force_best(model, ["a", "b", "a"])
        assert seq == ["A", "B", "A"]
        assert score == oracles.path_logp(model, ["a", "b", "a"], seq)

    def test_best_is_the_maximum_of_every_path_score(self):
        rng = Rng(7)
        model = train_hmm(_random_corpus(rng))
        for length in range(1, 5):
            tokens = [f"w{rng.below(12)}" if rng.uniform() < 0.7 else "novelx" for _ in range(length)]
            scores = [
                oracles.path_logp(model, tokens, list(seq))
                for seq in itertools.product(model.tagset, repeat=length)
            ]
            assert oracles.brute_force_best(model, tokens)[0] == max(scores)

    def test_agrees_with_exact_viterbi(self):
        rng = Rng(11)
        for _ in range(5):
            model = train_hmm(_random_corpus(rng))
            tokens = [f"w{rng.below(12)}" for _ in range(1 + rng.below(5))]
            best, _ = oracles.brute_force_best(model, tokens)
            got = oracles.path_logp(model, tokens, viterbi(model, tokens, beam=0))
            assert got == pytest.approx(best, abs=1e-9)


class TestTracer:
    def test_self_times_cover_the_phase_and_wrappers_are_restored(self):
        train, _ = make_suffix_corpus(6, 1, seed=3)
        hp = tagger.Hyperparams(epochs=1, word_dim=8, subtoken_dim=4, hidden_dim=4, freqbin=True)
        rules = dict(autodiff.BACKWARD)
        tracer = spans.Tracer()
        with tracer.installed():
            with tracer.phase_span("train"):
                tagger.train(train, hp)
        assert tagger.affine is autodiff.affine
        assert autodiff.BACKWARD == rules
        names = {n for p, n in tracer.self_s if p == "train"}
        assert {"representations.encode_s", "recurrent.ctx_s", "autodiff.backward.char_s",
                "autodiff.backward.ctx_s", "autodiff.sgd_s", "other.train_s"} <= names
        assert tracer.phase_total("train") > 0
        assert tracer.calls_per_run("train", "autodiff.tape_nodes") > 0

    def test_calls_outside_a_phase_are_not_recorded(self):
        tracer = spans.Tracer()
        with tracer.installed():
            autodiff.Tape()  # nothing traced
            tagger.affine(None, autodiff.Parameter("w", [[1.0]]), [2.0], [0.0])
        assert not tracer.self_s


class TestFailedOperations:
    """`failed` counts operations that raise, that lose their input or that fail a check."""

    SPEC = workloads.SMOKE["tnt-200k"]

    @pytest.fixture(autouse=True)
    def _children_find_seqtag(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))

    def _test_split(self, seed):
        return make_suffix_corpus(
            self.SPEC.n_train, self.SPEC.n_test, seed=seed,
            types_per_tag=workloads.TYPES_PER_TAG,
            min_len=workloads.SENTENCE_LEN[0], max_len=workloads.SENTENCE_LEN[1],
        )[1]

    def test_a_failed_load_fails_its_pass(self, monkeypatch):
        def broken(path):
            raise OSError("unreadable")

        monkeypatch.setattr(tnt, "load_hmm", broken)
        line, details = workloads.run("tnt-200k", 5, 1, traced=False, smoke=True)
        assert line["failed"] == workloads.TAG_PASSES * (1 + self.SPEC.n_test)
        assert not line["correct"]  # no tags at all: accuracy is 0
        assert details["errors"][0].startswith("('load', 0): OSError")

    def test_a_raising_sentence_fails_alone(self, monkeypatch):
        test = self._test_split(5)
        target = test.sentences[0].forms
        predict = tnt.TrigramModel.predict

        def flaky(model, tokens):
            if tokens == target:
                raise ValueError("no path")
            return predict(model, tokens)

        monkeypatch.setattr(tnt.TrigramModel, "predict", flaky)
        line, _ = workloads.run("tnt-200k", 5, 1, traced=False, smoke=True)
        assert line["failed"] == workloads.TAG_PASSES + 1  # each pass and the reference
        assert line["correct"]  # every operation that ran gave the right tags

    def test_a_wrong_tag_fails_its_sentence(self, monkeypatch):
        test = self._test_split(5)
        target = next(s.forms for s in test.sentences[workloads.IDENTITY_SAMPLE:])
        predict = tnt.TrigramModel.predict

        def wrong(model, tokens):
            tags = predict(model, tokens)
            if tokens == target:
                tags = ["PART" if t != "PART" else "NOUN" for t in tags]
            return tags

        monkeypatch.setattr(tnt.TrigramModel, "predict", wrong)
        line, details = workloads.run("tnt-200k", 5, 1, traced=False, smoke=True)
        assert line["failed"] == workloads.TAG_PASSES
        assert not line["correct"]
        assert "known word" in details["failures"][0]


def _last_lines(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_with_its_checks(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace), "--seed", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    results = _last_lines(proc)
    assert len(results) == len(run.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == want


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bilstm-w", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
