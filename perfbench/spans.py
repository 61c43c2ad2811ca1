"""Outside-in span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files around the public
entry points each module exposes (and around every BACKWARD rule of the
tape), so the program itself is unchanged.  Each wrapper records one span;
a span's self time is its duration minus the time of the spans it
encloses.  Spans are kept only inside a phase ("train" or "tag") opened by
the benchmark; calls made by the benchmark's own checks run untraced.
"""

import contextlib
import time
from collections import Counter, defaultdict

from seqtag import autodiff, corpus, tagger, tnt
from seqtag.representations import TokenEncoder

# Parameter-name prefix -> layer charged for a backward rule that takes the
# parameter's leaf as a parent.  Byte encoders would land in "char": no
# workload uses them, and both are subword encoders.
_OWNER = {
    "word_emb": "word",
    "char_emb": "char", "char_f": "char", "char_r": "char",
    "byte_emb": "char", "byte_f": "char", "byte_r": "char",
    "ctx_f": "ctx", "ctx_r": "ctx",
    "tag_head": "heads", "freq_head": "heads",
}

# (object, attribute, span name, span name in the tag phase)
_ENTRY_POINTS = [
    (corpus, "read_conllu", "corpus.read_s", "corpus.read_s"),
    (TokenEncoder, "encode", "representations.encode_s", "representations.predict_encode_s"),
    (tagger, "birnn_ctx", "recurrent.ctx_s", "recurrent.predict_ctx_s"),
    (tagger, "affine", "tagger.heads_s", "tagger.predict_heads_s"),
    (tagger, "softmax_xent", "tagger.heads_s", "tagger.predict_heads_s"),
    (tagger, "add", "tagger.heads_s", "tagger.predict_heads_s"),
    (tagger, "gaussian_noise", "autodiff.noise_s", "autodiff.noise_s"),
    (tagger, "sgd_step", "autodiff.sgd_s", "autodiff.sgd_s"),
    (tagger, "save_container", "container.save_s", "container.save_s"),
    (tagger, "load_container", "container.load_s", "container.load_s"),
    (tnt, "train_hmm", "tnt.train_s", "tnt.train_s"),
    (tnt, "save_hmm", "tnt.save_s", "tnt.save_s"),
    (tnt, "load_hmm", "tnt.load_s", "tnt.load_s"),
    (tnt, "viterbi", "tnt.viterbi_s", "tnt.viterbi_s"),
    (tnt.TrigramModel, "emission_logp", "tnt.emission_s", "tnt.emission_s"),
    (tnt, "save_container", "container.save_s", "container.save_s"),
    (tnt, "load_container", "container.load_s", "container.load_s"),
]


def _owner(tape, i):
    for p in tape.parents[i]:
        if p is not None and tape.kinds[p] == "leaf":
            return _OWNER.get(tape.aux[p].name.split(".")[0], "glue")
    return "glue"


class Tracer:
    """Self times and call counts per span name, per phase."""

    def __init__(self):
        self.phase = None
        self.self_s = defaultdict(float)  # (phase, name) -> seconds
        self.calls = Counter()            # (phase, name) -> calls (or nodes)
        self.phase_runs = Counter()       # phase -> times the phase was opened
        self._stack = []                  # time covered by child spans, per open span

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        self.self_s[(self.phase, name)] += dur - child
        self.calls[(self.phase, name)] += 1
        if self._stack:
            self._stack[-1] += dur

    @contextlib.contextmanager
    def phase_span(self, phase):
        """Open a phase; its own self time is charged to other.<phase>_s."""
        self.phase = phase
        self.phase_runs[phase] += 1
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(f"other.{phase}_s", t0)
            self.phase = None

    def _wrap(self, fn, train_name, tag_name):
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(tag_name if self.phase == "tag" else train_name, t0)

        return traced

    def _wrap_rule(self, rule):
        def traced(tape, i, g):
            if self.phase is None:
                return rule(tape, i, g)
            t0 = self._enter()
            try:
                return rule(tape, i, g)
            finally:
                self._exit(f"autodiff.backward.{_owner(tape, i)}_s", t0)

        return traced

    def _wrap_backward(self, backward):
        def traced(tape, loss):
            if self.phase is None:
                return backward(tape, loss)
            self.calls[(self.phase, "autodiff.tape_nodes")] += len(tape)
            t0 = self._enter()
            try:
                return backward(tape, loss)
            finally:
                self._exit("autodiff.backward_s", t0)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point and BACKWARD rule; restore them on exit."""
        # A missing entry point raises here: the trace names every layer or fails.
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in _ENTRY_POINTS]
        saved.append((autodiff.Tape, "backward", autodiff.Tape.backward))
        rules = dict(autodiff.BACKWARD)
        try:
            for obj, attr, train_name, tag_name in _ENTRY_POINTS:
                setattr(obj, attr, self._wrap(getattr(obj, attr), train_name, tag_name))
            autodiff.Tape.backward = self._wrap_backward(autodiff.Tape.backward)
            for kind, rule in rules.items():
                autodiff.BACKWARD[kind] = self._wrap_rule(rule)
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)
            autodiff.BACKWARD.update(rules)

    def per_run(self, phase, name):
        """Self seconds of a span name per opening of its phase."""
        runs = self.phase_runs[phase]
        return self.self_s[(phase, name)] / runs if runs else 0.0

    def calls_per_run(self, phase, name):
        runs = self.phase_runs[phase]
        return self.calls[(phase, name)] // runs if runs else 0

    def phase_total(self, phase):
        """Summed self time of every span in a phase, per opening."""
        return sum(self.per_run(phase, n) for (p, n) in list(self.self_s) if p == phase)
