"""tools/pairs.py summarises alternating benchmark pairs; fed canned result
lines here, so no benchmark runs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "tag_tok_s", "unit": "tok/s", "better": "higher", "bound": 0.25},
]


def _line(setup, tag, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "train_tok_s": {"value": 2e6, "unit": "tok/s"},
            "tag_tok_s": {"value": tag, "unit": "tok/s"},
            "peak_rss_mb": {"value": 63.0, "unit": "MB"},
        },
    }


def _records(parent, change, workload="tnt-200k", first_seed=211):
    """Records of alternating pairs, as run_pairs yields them."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        order = [("parent", p), ("change", c)]
        for side, line in order if pair % 2 == 0 else order[::-1]:
            out.append({"workload": workload, "seed": first_seed + pair, "pair": pair, "side": side,
                        "commit": f"{side}-sha", "seconds": 55, "line": line})
    return out


class TestCompare:
    def test_quartiles_are_the_exclusive_method(self):
        runs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, median, q3 = statistics.quantiles(runs, n=4)
        assert pairs.spread(runs) == {"median": median, "q1": q1, "q3": q3, "runs": runs}
        assert (q1, median, q3) == (1.75, 3.5, 6.0)

    def test_ties_count_for_neither_side(self):
        got = pairs.compare([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 3.0, 3.0], "higher", 0.25)
        assert got["change_wins"] == 1
        got = pairs.compare([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 3.0, 3.0], "lower", 0.25)
        assert got["change_wins"] == 1

    def test_claim_needs_nine_of_ten_wins_and_a_median_gap_above_the_parent_iqr(self):
        parent = [100.0 + i for i in range(10)]  # IQR 5.5
        wide = pairs.compare(parent, [x + 7 for x in parent], "higher", 0.25)
        assert (wide["change_wins"], wide["parent_iqr"], wide["median_diff"]) == (10, 5.5, 7.0)
        assert wide["claim_met"] and wide["within_bound"]
        assert not pairs.compare(parent, [x + 5 for x in parent], "higher", 0.25)["claim_met"]
        eight = [x + 7 for x in parent[:8]] + parent[8:]
        assert pairs.compare(parent, eight, "higher", 0.25)["change_wins"] == 8
        assert not pairs.compare(parent, eight, "higher", 0.25)["claim_met"]
        lower = pairs.compare(parent, [x - 7 for x in parent], "lower", 0.25)
        assert lower["claim_met"] and lower["change_over_parent"] < 1

    @pytest.mark.parametrize("better,factor,within", [
        ("higher", 0.76, True), ("higher", 0.74, False), ("higher", 2.0, True),
        ("lower", 1.24, True), ("lower", 1.26, False), ("lower", 0.5, True),
    ])
    def test_bound_limits_how_much_the_median_may_get_worse(self, better, factor, within):
        parent = [100.0, 100.0, 100.0]
        assert pairs.compare(parent, [x * factor for x in parent], better, 0.25)["within_bound"] is within


class TestSummary:
    def test_workload_summary_from_canned_lines(self):
        parent = [_line(0.40 + 0.01 * i, 1000.0 + i) for i in range(10)]
        change = [_line(0.41 + 0.01 * i, 1200.0 + i, failed=i == 3) for i in range(10)]
        got = pairs.summarise(_records(parent, change), METRICS)["tnt-200k"]
        assert got["seeds"] == list(range(211, 221)) and got["pairs"] == 10
        assert got["all_correct"] and got["incorrect"] == []
        assert got["failed_ops"] == {"parent": 0, "change": 1}
        assert got["attempted_ops"] == {"parent": 1000, "change": 1000}
        tag, setup = got["metrics"]["tag_tok_s"], got["metrics"]["setup_s"]
        assert tag["parent"]["runs"] == [1000.0 + i for i in range(10)]
        assert tag["change_wins"] == 10 and tag["claim_met"]
        assert setup["change_wins"] == 0 and setup["within_bound"] and not setup["claim_met"]

    def test_only_complete_pairs_count_and_a_wrong_run_shows(self):
        records = _records([_line(1.0, 10.0)] * 3, [_line(1.0, 11.0, correct=False)] * 3)
        got = pairs.summarise(records[:-1], METRICS)["tnt-200k"]
        assert got["pairs"] == 2 and not got["all_correct"]

    def test_incorrect_runs_are_named_by_seed_and_side(self):
        # seed 212 fails on both sides, a fault the two share; 214 only in the change
        wrong = {(212, "parent"), (212, "change"), (214, "change")}
        parent = [_line(1.0, 10.0, correct=(211 + i, "parent") not in wrong) for i in range(5)]
        change = [_line(1.0, 11.0, correct=(211 + i, "change") not in wrong) for i in range(5)]
        got = pairs.summarise(_records(parent, change), METRICS)["tnt-200k"]
        assert not got["all_correct"]
        assert got["incorrect"] == [{"seed": 212, "side": "parent"}, {"seed": 212, "side": "change"},
                                    {"seed": 214, "side": "change"}]
        assert got["pairs"] == 5 and got["metrics"]["tag_tok_s"]["change_wins"] == 5

    def test_report_from_a_log(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        records = _records([_line(0.4, 1000.0 + i) for i in range(10)], [_line(0.4, 1300.0 + i) for i in range(10)])
        log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert pairs.main(["--from-log", str(log), "--label", "t", "--claim", "tnt-200k:tag_tok_s",
                           "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
        assert doc["label"] == "t" and doc["claim"]["met"]
        assert (doc["parent_commit"], doc["change_commit"]) == ("parent-sha", "change-sha")
        assert doc["command"] == "python3 perfbench/run.py --workload W --seed N --seconds 55 --trace 0"
        benchmark = json.loads(pairs.BENCHMARK.read_text(encoding="utf-8"))
        assert sorted(doc["workloads"]["tnt-200k"]["metrics"]) == sorted(m["name"] for m in benchmark["end_to_end"])


def test_the_side_that_runs_first_alternates(monkeypatch, tmp_path):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return _line(0.4, 1000.0)

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "_commit", str)
    log = tmp_path / "runs.jsonl"
    records = list(pairs.run_pairs({"parent": "P", "change": "C"}, ["tnt-200k"], [5, 6, 7], 55, str(log)))
    assert calls == [("P", 5), ("C", 5), ("C", 6), ("P", 6), ("P", 7), ("C", 7)]
    assert [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()] == records
    assert {r["commit"] for r in records if r["side"] == "change"} == {"C"}


class TestSetupRecheck:
    """A setup_s median that moves by more than 10% is timed again by
    alternating setup_probe.py runs; the probe runner is stubbed here."""

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []

        def write_corpora(checkout, workload, seed, out_dir):
            calls.append(("gen", checkout, workload, seed))
            return "seqtag.tnt", [f"{out_dir}/train.conllu", f"{out_dir}/test.conllu"]

        def probe_once(checkout, module, files):
            calls.append((checkout, module, tuple(Path(f).name for f in files)))
            return {"P": 0.30, "C": 0.31}[str(checkout)] + 0.001 * len(calls)

        monkeypatch.setattr(pairs, "write_corpora", write_corpora)
        monkeypatch.setattr(pairs, "probe_once", probe_once)
        return calls

    def _summary(self, parent_setup, change_setup):
        records = _records([_line(s, 1000.0) for s in parent_setup], [_line(s, 1000.0) for s in change_setup],
                           first_seed=901)
        return pairs.summarise(records, METRICS)

    def test_a_moved_setup_is_probed_in_alternation_from_the_parents_corpora(self, probes):
        workloads = self._summary([0.30] * 4, [0.36] * 4)  # x1.20
        before = json.loads(json.dumps(workloads))
        pairs.add_setup_rechecks(workloads, {"parent": "P", "change": "C"})
        assert probes[0] == ("gen", "P", "tnt-200k", 901)
        sides = [checkout for checkout, *_ in probes[1:]]
        assert sides == ["P", "C", "C", "P"] * (pairs.SETUP_PROBES // 2)
        assert {call[1:] for call in probes[1:]} == {("seqtag.tnt", ("train.conllu", "test.conllu"))}
        recheck = workloads["tnt-200k"].pop("setup_recheck")
        assert workloads == before  # the pairs' summary, bounds and claims untouched
        assert (recheck["seed"], recheck["module"], recheck["probes"]) == (901, "seqtag.tnt", 20)
        assert len(recheck["parent"]["runs"]) == len(recheck["change"]["runs"]) == 20
        assert recheck["change_faster"] == 0 and recheck["change_over_parent"] > 1

    @pytest.mark.parametrize("change", [0.32, 0.28])
    def test_a_move_within_ten_percent_is_not_rechecked(self, probes, change):
        workloads = self._summary([0.30] * 4, [change] * 4)
        pairs.add_setup_rechecks(workloads, {"parent": "P", "change": "C"})
        assert probes == [] and "setup_recheck" not in workloads["tnt-200k"]

    def test_a_faster_setup_is_rechecked_too(self, probes):
        workloads = self._summary([0.30] * 4, [0.25] * 4)
        pairs.add_setup_rechecks(workloads, {"parent": "P", "change": "C"})
        assert "setup_recheck" in workloads["tnt-200k"]

    def test_from_log_makes_no_recheck(self, probes, tmp_path):
        log = tmp_path / "runs.jsonl"
        records = _records([_line(0.30, 1000.0)] * 4, [_line(0.50, 1000.0)] * 4)
        log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert pairs.main(["--from-log", str(log), "--label", "t", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
        assert probes == [] and "setup_recheck" not in doc["workloads"]["tnt-200k"]

    def test_a_run_rechecks_after_its_pairs(self, probes, monkeypatch, tmp_path):
        monkeypatch.setattr(pairs, "run_once", lambda checkout, *_: _line({"P": 0.30, "C": 0.40}[str(checkout)], 1e3))
        monkeypatch.setattr(pairs, "_commit", str)
        assert pairs.main(["P", "C", "--label", "t", "--workload", "tnt-200k", "--pairs", "2",
                           "--first-seed", "5", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
        assert doc["workloads"]["tnt-200k"]["setup_recheck"]["seed"] == 5
        assert probes[0] == ("gen", Path("P"), "tnt-200k", 5)


class TestClaimChecked:
    """A bad --claim, or --pairs below 1, stops the tool before its first
    run, with a usage error and no BENCH file; a bad claim used to fail
    after every pair had run."""

    @pytest.fixture
    def argv(self, monkeypatch, tmp_path):
        def run_once(*args):
            raise AssertionError("a benchmark ran")

        monkeypatch.setattr(pairs, "run_once", run_once)
        monkeypatch.setattr(pairs, "_commit", str)
        records = _records([_line(0.4, 1e3)] * 2, [_line(0.4, 1e3)] * 2)
        sources = {"run": ["P", "C", "--workload", "tnt-200k"]}
        for source, lines in (("log", records), ("empty-log", []), ("half-pair-log", records[:1])):
            log = tmp_path / f"{source}.jsonl"
            log.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
            sources[source] = ["--from-log", str(log)]
        return lambda source, claim: [*sources[source], "--label", "t", "--claim", claim, "--out", str(tmp_path)]

    @pytest.mark.parametrize("claim,error", [
        ("bilstm-wc-freqbin:tag_tok_s", "--claim workload 'bilstm-wc-freqbin' is not among the workloads"),
        ("tnt-200k:tag_s", "--claim metric 'tag_s' is not an end_to_end metric"),
        ("tnt-200k", "--claim 'tnt-200k' is not WORKLOAD:METRIC"),
    ], ids=["workload", "metric", "no-colon"])
    @pytest.mark.parametrize("source", ["run", "log"])
    def test_bad_claim_is_a_usage_error(self, argv, tmp_path, capsys, source, claim, error):
        with pytest.raises(SystemExit) as exit_:
            pairs.main(argv(source, claim))
        assert exit_.value.code == 2 and error in capsys.readouterr().err
        assert not (tmp_path / "BENCH_t.json").exists()

    @pytest.mark.parametrize("source", ["empty-log", "half-pair-log"])
    def test_claim_on_a_log_without_a_pair_names_the_workload(self, argv, tmp_path, capsys, source):
        with pytest.raises(SystemExit):
            pairs.main(argv(source, "tnt-200k:tag_tok_s"))
        assert "--claim workload 'tnt-200k' is not among the workloads []" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_t.json").exists()

    @pytest.mark.parametrize("claim", [["--claim", "tnt-200k:train_tok_s"], []], ids=["claim", "no-claim"])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_fewer_than_one_pair_is_a_usage_error(self, argv, tmp_path, capsys, claim, count):
        # --pairs 0 used to end in a bare KeyError, or write a BENCH file of no workload
        with pytest.raises(SystemExit) as exit_:
            pairs.main(["P", "C", "--workload", "tnt-200k", "--label", "t", "--pairs", count, *claim,
                        "--out", str(tmp_path)])
        assert exit_.value.code == 2 and f"--pairs {count} runs nothing" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_t.json").exists()
