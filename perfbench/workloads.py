"""The benchmark's workloads: inputs, timed rounds, output checks, metrics.

A run generates its corpora in a child process, times set-up in fresh child
processes, then repeats whole rounds until the next one would overrun the
run's seconds (at least one round).  A round is the same every time:

  train phase  train on the training split, then save the model;
  reference    the trained model tags the first IDENTITY_SAMPLE test
               sentences (untimed), and is then dropped;
  tag phase    TAG_PASSES times: load the saved model from disk and tag
               every test sentence, then check that pass's tags (untimed).

An operation is one training sentence per epoch, one save, one load or one
tagged sentence (the reference tags included).  It counts in `failed` when
it raises, when an operation it needs failed, or when its output fails a
check.  A failed check also sets `correct` to false, and so do the checks of
the whole model: accuracy against the majority baseline and a falling loss.
"""

import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from seqtag import corpus as corpus_io
from seqtag import tagger, tnt

import oracles
from spans import Tracer

HERE = Path(__file__).resolve().parent

# Types per tag in the synthetic lexicon: at 200k tokens this gives about
# 14k types, near UD English's 19k.  At the generator's default of 150, a
# corpus this large has no NOUN type rare enough for TnT's suffix
# population, and unknown nouns become untaggable.
TYPES_PER_TAG = 4000
# Sentence lengths, drawn uniformly: a mean of 16 tokens, as in the UD
# English EWT training split (about 12.5k sentences, 204k tokens).  The
# generator's default of 3-7 tokens would overweight per-sentence costs
# (Tape set-up, sgd_step over every parameter) against per-token ones.
SENTENCE_LEN = (3, 29)
TAG_PASSES = 3       # load+tag passes per round; tag_tok_s is their median
SETUP_PROBES = 7     # fresh processes timed for setup_s; the median counts
IDENTITY_SAMPLE = 50  # test sentences tagged by both m and load(save(m))
BRUTE_SAMPLE = 20    # short test sentences checked against brute force
BRUTE_MAX_LEN = 5    # 5 tags ** 5 = 3125 sequences per sentence
MAX_MESSAGES = 20    # failed-check messages kept per run


@dataclass(frozen=True)
class Spec:
    kind: str                  # "bilstm" or "tnt"
    n_train: int               # sentences
    n_test: int
    epochs: int = 1
    repr_mode: str = "w"
    freqbin: bool = False
    dims: tuple = (128, 100, 100)  # word, subtoken, hidden: the paper's sizes


WORKLOADS = {
    "bilstm-wc-freqbin": Spec("bilstm", 18, 30, epochs=3, repr_mode="w+c", freqbin=True),
    "bilstm-w": Spec("bilstm", 30, 60, epochs=5),
    "tnt-200k": Spec("tnt", 12500, 1250),
}

SMOKE = {
    "bilstm-wc-freqbin": replace(WORKLOADS["bilstm-wc-freqbin"], n_train=30, n_test=8, dims=(16, 8, 16)),
    "bilstm-w": replace(WORKLOADS["bilstm-w"], n_train=20, n_test=8, dims=(16, 8, 16)),
    "tnt-200k": replace(WORKLOADS["tnt-200k"], n_train=150, n_test=60),
}


def _python(script, *args):
    """Run one of the benchmark's scripts in a child process; its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return proc.stdout


def _steps(spec, seed):
    """(fit, save, load) for a workload, each looked up in its module at call
    time so that the tracer's wrappers take effect."""
    if spec.kind == "tnt":
        return (
            lambda train: tnt.train_hmm(train),
            lambda model, path: tnt.save_hmm(model, path),
            lambda path: tnt.load_hmm(path),
        )
    word_dim, subtoken_dim, hidden_dim = spec.dims
    hp = tagger.Hyperparams(
        epochs=spec.epochs, repr_mode=spec.repr_mode, freqbin=spec.freqbin, seed=seed,
        word_dim=word_dim, subtoken_dim=subtoken_dim, hidden_dim=hidden_dim,
    )
    return (
        lambda train: tagger.train(train, hp),
        lambda model, path: tagger.save(model, path),
        lambda path: tagger.load(path),
    )


class Truth:
    """What the checks compare against, computed from the corpora alone."""

    def __init__(self, train, test):
        self.known = {f for s in train for f in s.forms}
        majority = oracles.majority_tag(train)
        self.baseline = oracles.accuracy(test, [[majority] * len(s) for s in test], self.known)
        tags_of = {}
        for s in train:
            for form, tag in zip(s.forms, s.tags):
                tags_of.setdefault(form, set()).add(tag)
        self.single = {f: next(iter(ts)) for f, ts in tags_of.items() if len(ts) == 1}


class Round:
    """One round's timings, failed operations, errors and failed checks."""

    def __init__(self):
        self.train_s = 0.0
        self.tag_s = []
        self.failed = set()  # operation keys: ("train", k), ("save",), ("load", p), ...
        self.errors = []     # operations that raised
        self.fails = []      # failed checks

    def attempt(self, ops, fn, *args):
        """fn(*args), or None with every operation in ops failed if it raises."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any fault of an operation is counted
            self.failed.update(ops)
            if len(self.errors) < MAX_MESSAGES:
                self.errors.append(f"{ops[0]}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, op, msg):
        """A check failed on operation op (None: on the whole model)."""
        if op is not None:
            self.failed.add(op)
        if len(self.fails) < MAX_MESSAGES:
            self.fails.append(msg)


def _round(spec, steps, train, test, path, tracer, truth):
    """Run one round and check its outputs; returns (Round, details)."""
    fit, save, load = steps
    r = Round()
    path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    with tracer.phase_span("train"):
        model = r.attempt([("train", k) for k in range(spec.epochs * len(train))], fit, train)
        if model is not None:
            r.attempt([("save",)], save, model, path)
    r.train_s = time.perf_counter() - t0
    n_ref = min(IDENTITY_SAMPLE, len(test))
    if model is None:
        r.failed.add(("save",))
        r.failed.update(("ref", i) for i in range(n_ref))
        reference, history = [None] * n_ref, None
    else:
        reference = [r.attempt([("ref", i)], model.predict, s.forms)
                     for i, s in enumerate(test.sentences[:n_ref])]
        history = [e["mean_loss"] for e in getattr(model, "train_history", [])]
    del model  # the tag passes hold one model at a time, as a user's process would

    for p in range(TAG_PASSES):
        loaded = None  # free the last pass's model before the next load
        t0 = time.perf_counter()
        with tracer.phase_span("tag"):
            loaded = r.attempt([("load", p)], load, path)
            if loaded is not None:
                tags = [r.attempt([("tag", p, i)], loaded.predict, s.forms) for i, s in enumerate(test)]
        r.tag_s.append(time.perf_counter() - t0)
        if loaded is None:
            r.failed.update(("tag", p, i) for i in range(len(test)))
            tags = [None] * len(test)
        _check_pass(spec, p, test, tags, reference, truth, r)

    details = _check_model(spec, test, tags, history, loaded, truth, r)
    return r, details


def _check_pass(spec, p, test, tags, reference, truth, r):
    """Checks of one tag pass, sentence by sentence."""
    for i, (want, got) in enumerate(zip(reference, tags)):
        if want is not None and got is not None and got != want:
            r.fail(("tag", p, i), f"test sentence {i}: load(save(m)) tags differ from m")
    if spec.kind != "tnt":
        return
    for i, (sent, got) in enumerate(zip(test, tags)):
        if got is None:
            continue
        for form, tag in zip(sent.forms, got):
            want = truth.single.get(form)
            if want is not None and tag != want:
                r.fail(("tag", p, i), f"test sentence {i}: known word {form!r} tagged {tag}, trained {want}")
                break


def _check_model(spec, test, tags, history, model, truth, r):
    """Checks of the whole model (last pass's tags) and, for TnT, brute force."""
    acc = oracles.accuracy(test, [t or [None] * len(s) for s, t in zip(test, tags)], truth.known)
    base = truth.baseline
    details = {"accuracy": acc, "baseline_accuracy": base}
    if not acc[0] > base[0]:
        r.fail(None, f"test accuracy {acc[0]:.4f} not above majority baseline {base[0]:.4f}")
    # With characters the suffix decides the tag, so OOV words are taggable too.
    if "c" in spec.repr_mode and not acc[2] > base[2]:
        r.fail(None, f"OOV accuracy {acc[2]:.4f} not above majority baseline {base[2]:.4f}")
    if spec.kind == "bilstm":
        details["epoch_mean_loss"] = history
        if not history or not all(map(math.isfinite, history)) or not history[-1] < history[0]:
            r.fail(None, f"per-epoch mean loss not finite and falling: {history}")
    elif model is not None:
        _check_brute_force(test, tags, model, TAG_PASSES - 1, r)
        details["suffix_nodes"] = len(model.trie_upper.dist) + len(model.trie_lower.dist)
    return details


def _check_brute_force(test, tags, model, p, r):
    """Exact Viterbi equals brute force on short sentences, and pass p's beam
    path (tags) never scores above it."""
    short = [i for i, s in enumerate(test) if len(s) <= BRUTE_MAX_LEN and tags[i] is not None]
    if not short:
        r.fail(None, f"no tagged test sentence of at most {BRUTE_MAX_LEN} tokens for the brute-force check")
    for i in short[:BRUTE_SAMPLE]:
        forms = test.sentences[i].forms
        best, _ = oracles.brute_force_best(model, forms)
        exact = r.attempt([("tag", p, i)], tnt.viterbi, model, forms, 0)
        if exact is None:
            continue
        exact = oracles.path_logp(model, forms, exact)
        beam = oracles.path_logp(model, forms, tags[i])
        if not (exact == best or math.isclose(exact, best, rel_tol=1e-12, abs_tol=1e-9)):
            r.fail(("tag", p, i), f"{forms}: exact Viterbi scores {exact}, brute force {best}")
        if beam > best + 1e-9:
            r.fail(("tag", p, i), f"{forms}: beam path scores {beam} above the optimum {best}")


def run(name, seed, seconds, traced, smoke=False):
    """Run one workload; returns (result line, details)."""
    spec = (SMOKE if smoke else WORKLOADS)[name]
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "work"))
    try:
        return _run(name, spec, seed, seconds, traced, smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, spec, seed, seconds, traced, smoke, work):
    gen = json.loads(_python("gen.py", work, spec.n_train, spec.n_test, seed, TYPES_PER_TAG, *SENTENCE_LEN))
    files = (work / "train.conllu", work / "test.conllu")
    module = "seqtag.tagger" if spec.kind == "bilstm" else "seqtag.tnt"
    setup = [
        float(_python("setup_probe.py", module, *files))
        for _ in range(1 if smoke else SETUP_PROBES)
    ]
    fails = [] if gen["roundtrip_ok"] else ["read_conllu(write_conllu(c)) != c"]
    steps = _steps(spec, seed)
    model_path = work / "model.bin"

    tracer = Tracer()
    with tracer.installed() if traced else contextlib.nullcontext():
        with tracer.phase_span("setup"):
            train = corpus_io.read_conllu(files[0], "train")
            test = corpus_io.read_conllu(files[1], "test")
        truth = Truth(train, test)
        train_s, tag_s, errors, attempted, failed = [], [], [], 0, 0
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            r, details = _round(spec, steps, train, test, model_path, tracer, truth)
            train_s.append(r.train_s)
            tag_s += r.tag_s
            fails += r.fails
            errors += r.errors
            failed += len(r.failed)
            attempted += (
                spec.epochs * len(train) + 1  # training sentences, one save
                + min(IDENTITY_SAMPLE, len(test))  # tagged by the unsaved model
                + TAG_PASSES * (1 + len(test))  # loads, tagged sentences
            )
            now = time.perf_counter()
            if smoke or now + (now - r0) - start > seconds:
                break

    train_tokens = spec.epochs * train.n_tokens()
    test_tokens = test.n_tokens()
    details.update(
        workload=name, seed=seed, smoke=smoke, traced=traced, rounds=len(train_s),
        train_s=train_s, tag_s=tag_s, setup_probes_s=setup, corpora=gen,
        failures=fails[:MAX_MESSAGES], errors=errors[:MAX_MESSAGES],
    )
    if not traced:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "train_tok_s": (train_tokens / statistics.median(train_s), "tok/s"),
            "tag_tok_s": (test_tokens / statistics.median(tag_s), "tok/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, train.n_tokens() + test_tokens, model_path, details)
        metrics["trace.train_tok_s"] = (train_tokens / statistics.median(train_s), "tok/s")
        metrics["trace.tag_tok_s"] = (test_tokens / statistics.median(tag_s), "tok/s")
    line = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, details


_TRAIN_SPANS = [
    "representations.encode_s", "recurrent.ctx_s", "tagger.heads_s",
    "autodiff.noise_s", "autodiff.sgd_s", "autodiff.backward_s",
    "autodiff.backward.word_s", "autodiff.backward.char_s", "autodiff.backward.ctx_s",
    "autodiff.backward.heads_s", "autodiff.backward.glue_s",
    "container.save_s", "tnt.train_s", "tnt.save_s", "other.train_s",
]
_TAG_SPANS = [
    "representations.predict_encode_s", "recurrent.predict_ctx_s", "tagger.predict_heads_s",
    "container.load_s", "tnt.load_s", "tnt.viterbi_s", "tnt.emission_s", "other.tag_s",
]


def _layer_metrics(tracer, tokens, model_path, details):
    m = {"corpus.read_s": (tracer.per_run("setup", "corpus.read_s"), "s"),
         "corpus.tokens": (tokens, "count")}
    for name in _TRAIN_SPANS:
        m[name] = (tracer.per_run("train", name), "s")
    for name in _TAG_SPANS:
        m[name] = (tracer.per_run("tag", name), "s")
    rules = sum(
        tracer.calls_per_run("train", n) for n in _TRAIN_SPANS if n.startswith("autodiff.backward.")
    )
    m["autodiff.tape_nodes"] = (tracer.calls_per_run("train", "autodiff.tape_nodes"), "count")
    m["autodiff.backward_rules"] = (rules, "count")
    m["container.bytes"] = (os.path.getsize(model_path) if model_path.exists() else 0, "B")
    m["tnt.emission_calls"] = (tracer.calls_per_run("tag", "tnt.emission_s"), "count")
    m["tnt.suffix_nodes"] = (details.get("suffix_nodes", 0), "count")
    total = tracer.phase_total("train")
    m["trace.train_coverage"] = (1.0 - m["other.train_s"][0] / total, "ratio")
    return m
