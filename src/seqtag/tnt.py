"""Second-order HMM tagger in the TnT style.

Transitions are trigram relative frequencies smoothed by deleted
interpolation; emissions are maximum-likelihood word-given-tag
probabilities for known words, and a Bayes inversion of case-split suffix
statistics (successive abstraction smoothing) for unknown words.  Decoding
is beam Viterbi in log space over (previous, current) tag pairs.

Reconstructed Brants-style constants, all overridable: suffix length <= 10,
suffixes trained on words with frequency <= 10, abstraction weight theta =
the standard deviation of the unconditional tag probabilities, beam factor
1000.

The rare-word suffix population (training words with frequency <=
suffix_max_freq) decides which tags an unknown word can take: a tag seen
only on words more frequent than that gets emission 0 for every unknown
word.  This is Brants's treatment of closed classes, and
tests/test_tnt.py::TestEmission::test_oov_with_no_suffix_match_is_uniform_over_lowfreq_tags
pins it.  Training data whose open classes lack rare types therefore makes
their unknown words untaggable.
"""

import math
from collections import Counter

import numpy as np

from .container import ModelError, header_field, load_container, save_container

BOUNDARY = "<s>"
NEG_INF = float("-inf")


class SuffixTrie:
    """Tag distributions conditioned on word suffixes, recursively smoothed.

    Nodes are keyed by the suffix string itself (equivalent to a
    reversed-character trie); node distributions are blended with their
    shorter-suffix parent: P(t|s_1..i) = (ML(t|s_1..i) + theta *
    P(t|s_2..i)) / (1 + theta), rooted at the ML distribution of the whole
    training population for this trie.
    """

    def __init__(self, counts, theta, max_len):
        """counts: {suffix: {tag: count}} including the '' root."""
        self.max_len = max_len
        self.dist = {}
        root_total = sum(counts.get("", {}).values())
        if root_total == 0:
            return
        for suffix in sorted(counts, key=len):  # parents first
            tags = counts[suffix]
            total = sum(tags.values())
            ml = {t: c / total for t, c in tags.items()}
            if not suffix:
                self.dist[suffix] = ml
                continue
            parent = self.dist[suffix[1:]] if suffix[1:] in self.dist else self.dist[""]
            blended = {}
            for t in set(ml) | set(parent):
                blended[t] = (ml.get(t, 0.0) + theta * parent.get(t, 0.0)) / (1.0 + theta)
            self.dist[suffix] = blended

    def __bool__(self):
        return bool(self.dist)

    @property
    def prior(self):
        """Root distribution: tags over this trie's training population."""
        return self.dist.get("", {})

    def query(self, word):
        """Smoothed distribution of the longest matching suffix (root fallback)."""
        for i in range(min(self.max_len, len(word)), 0, -1):
            d = self.dist.get(word[-i:])
            if d is not None:
                return d
        return self.prior


class TrigramModel:
    """Counts, interpolation weights, and suffix tries of a trained tagger."""

    def __init__(self, tagset, max_suffix_len=10, suffix_max_freq=10, beam_default=1000.0):
        self.tagset = list(tagset)
        self.tag_index = {t: i for i, t in enumerate(self.tagset)}
        self.max_suffix_len = max_suffix_len
        self.suffix_max_freq = suffix_max_freq
        self.beam_default = beam_default
        self.n_tokens = 0
        self.uni = Counter()      # outcome tag counts
        self.bi = Counter()       # (t2, t3) with real t3
        self.hist1 = Counter()    # t2 as a bigram history (may be BOUNDARY)
        self.tri = Counter()      # (t1, t2, t3) with real t3
        self.hist2 = Counter()    # (t1, t2) as a trigram history
        self.emit = {}            # word -> Counter(tag)
        self.word_freq = Counter()
        self.lambdas = (1 / 3, 1 / 3, 1 / 3)
        self.theta = 0.0
        self.trie_upper = None
        self.trie_lower = None

    # training ------------------------------------------------------------

    def _count_sentence(self, forms, tags):
        padded = [BOUNDARY, BOUNDARY] + list(tags)
        for k in range(2, len(padded)):
            t1, t2, t3 = padded[k - 2], padded[k - 1], padded[k]
            self.uni[t3] += 1
            self.bi[(t2, t3)] += 1
            self.hist1[t2] += 1
            self.tri[(t1, t2, t3)] += 1
            self.hist2[(t1, t2)] += 1
        for form, tag in zip(forms, tags):
            self.emit.setdefault(form, Counter())[tag] += 1
            self.word_freq[form] += 1
        self.n_tokens += len(forms)

    def _deleted_interpolation(self):
        """Brants-style weights: each trigram votes, with its own count
        removed, for the order whose relative-frequency estimate is largest;
        0/0 counts as 0 and ties fall to the lower order (more smoothing)."""
        l1 = l2 = l3 = 0.0
        n = self.n_tokens
        for (t1, t2, t3), c in self.tri.items():
            h2 = self.hist2[(t1, t2)]
            r3 = (c - 1) / (h2 - 1) if h2 > 1 else 0.0
            h1 = self.hist1[t2]
            r2 = (self.bi[(t2, t3)] - 1) / (h1 - 1) if h1 > 1 else 0.0
            r1 = (self.uni[t3] - 1) / (n - 1) if n > 1 else 0.0
            best = max(r1, r2, r3)
            if r1 == best:
                l1 += c
            elif r2 == best:
                l2 += c
            else:
                l3 += c
        total = l1 + l2 + l3
        if total == 0:
            self.lambdas = (1 / 3, 1 / 3, 1 / 3)
        else:
            self.lambdas = (l1 / total, l2 / total, l3 / total)

    def _build_tries(self):
        probs = [self.uni[t] / self.n_tokens for t in self.tagset]
        if len(probs) > 1:
            mean = sum(probs) / len(probs)
            self.theta = math.sqrt(
                sum((p - mean) ** 2 for p in probs) / (len(probs) - 1)
            )
        else:
            self.theta = 0.0
        upper, lower = {}, {}
        for word, tags in self.emit.items():
            if self.word_freq[word] > self.suffix_max_freq:
                continue
            store = upper if word[0].isupper() else lower
            for length in range(0, min(self.max_suffix_len, len(word)) + 1):
                node = store.setdefault(word[-length:] if length else "", Counter())
                for tag, c in tags.items():
                    node[tag] += c
        self.trie_upper = SuffixTrie(upper, self.theta, self.max_suffix_len)
        self.trie_lower = SuffixTrie(lower, self.theta, self.max_suffix_len)

    # probabilities ---------------------------------------------------------

    def transition(self, t1, t2, t3):
        """Interpolated P(t3 | t1, t2); proper over the tagset for any history.

        Unseen histories back off to the lower-order estimate so the
        distribution still normalizes.
        """
        p1 = self.uni[t3] / self.n_tokens
        h1 = self.hist1.get(t2, 0)
        p2 = self.bi.get((t2, t3), 0) / h1 if h1 else p1
        h2 = self.hist2.get((t1, t2), 0)
        p3 = self.tri.get((t1, t2, t3), 0) / h2 if h2 else p2
        l1, l2, l3 = self.lambdas
        return l1 * p1 + l2 * p2 + l3 * p3

    def _suffix_dist(self, word):
        trie = self.trie_upper if word[0].isupper() else self.trie_lower
        if not trie:
            trie = self.trie_lower if trie is self.trie_upper else self.trie_upper
        if not trie:
            return None, None
        return trie.query(word), trie.prior

    def _emissions(self, word, tags):
        """[P(word | t) for t in tags]: ML for known words, suffix Bayes
        inversion otherwise, with one suffix lookup for all tags."""
        counts = self.emit.get(word)
        if counts is not None:
            return [counts.get(t, 0) / self.uni[t] for t in tags]
        dist, prior = self._suffix_dist(word)
        if dist is None:
            return [1.0 / len(self.tagset)] * len(tags)  # no suffix data at all: uninformative
        return [dist.get(t, 0.0) / prior[t] if prior.get(t, 0.0) else 0.0 for t in tags]

    def emission(self, word, tag):
        """P(word | tag): ML for known words, suffix Bayes inversion otherwise."""
        return self._emissions(word, (tag,))[0]

    def emission_logp(self, word, tag):
        p = self.emission(word, tag)
        return math.log(p) if p > 0.0 else NEG_INF

    def emission_logps(self, word):
        """[emission_logp(word, t) for t in tagset] as an array, from one
        suffix lookup where the scalar calls would make one per tag."""
        return np.array([math.log(p) if p > 0.0 else NEG_INF for p in self._emissions(word, self.tagset)])

    def transition_logp(self, t1, t2, t3):
        p = self.transition(t1, t2, t3)
        return math.log(p) if p > 0.0 else NEG_INF

    def training_frequency(self, form):
        return self.word_freq.get(form, 0)

    def _tables(self):
        """Cached log-transition tables (built from the same math.log values
        the scalar API returns, so table and scalar scores are identical)."""
        if getattr(self, "_lt", None) is None:
            tags = self.tagset
            k = len(tags)
            self._lt0 = np.array(
                [self.transition_logp(BOUNDARY, BOUNDARY, t) for t in tags]
            )
            self._lt1 = np.array(
                [[self.transition_logp(BOUNDARY, a, b) for b in tags] for a in tags]
            )
            self._lt = np.array(
                [[[self.transition_logp(a, b, c) for c in tags] for b in tags] for a in tags]
            ).reshape(k, k, k)
        return self._lt0, self._lt1, self._lt

    def predict(self, tokens):
        return viterbi(self, tokens, self.beam_default)


def train_hmm(corpus, max_suffix_len=10, suffix_max_freq=10, beam_default=1000.0):
    """Count, fit interpolation weights, and build the suffix tries."""
    if not corpus.sentences:
        raise ValueError("train_hmm: empty corpus")
    model = TrigramModel(corpus.tagset(), max_suffix_len, suffix_max_freq, beam_default)
    for sent in corpus:
        model._count_sentence(sent.forms, sent.tags)
    model._deleted_interpolation()
    model._build_tries()
    return model


def viterbi(model, tokens, beam=1000.0):
    """Highest-probability tag sequence (trigram transitions x emissions).

    Log-space DP over (previous, current) tag states.  With beam factor
    B > 0, states scoring below best - ln(B) are pruned at each position;
    beam = 0 decodes exactly.  Score ties resolve to the lowest tag indices.
    """
    if not tokens:
        raise ValueError("viterbi: empty sentence")
    if beam != 0 and beam < 1:
        raise ValueError("beam factor must be 0 (exact) or >= 1")
    tags = model.tagset
    k = len(tags)
    lt0, lt1, lt = model._tables()
    emis = [model.emission_logps(w) for w in tokens]
    cut = math.log(beam) if beam > 0 else None

    def prune(v):
        if cut is None:
            return v
        best = v.max()
        if best == NEG_INF:
            return v
        with np.errstate(invalid="ignore"):
            return np.where(v >= best - cut, v, NEG_INF)

    scores0 = prune(lt0 + emis[0])
    if len(tokens) == 1:
        return [tags[int(np.argmax(scores0))]]

    # V[c_prev, c_cur] after position i; backpointers give the tag two back
    with np.errstate(invalid="ignore"):
        v = prune((scores0[:, None] + lt1) + emis[1][None, :])
        backs = []
        for i in range(2, len(tokens)):
            cand = (v[:, :, None] + lt) + emis[i][None, None, :]
            backs.append(np.argmax(cand, axis=0))
            v = prune(np.max(cand, axis=0))

    flat = int(np.argmax(v))
    prev, cur = divmod(flat, k)
    rev = [cur, prev]
    for bp in reversed(backs):
        prev, cur = int(bp[prev, cur]), prev
        rev.append(prev)
    return [tags[i] for i in reversed(rev)]


def save_hmm(model, path):
    """Counts and weights in the shared container format (no array blocks)."""
    header = {
        "kind": "tnt",
        "tagset": model.tagset,
        "config": {
            "max_suffix_len": model.max_suffix_len,
            "suffix_max_freq": model.suffix_max_freq,
            "beam_default": model.beam_default,
        },
        "n_tokens": model.n_tokens,
        "lambdas": list(model.lambdas),
        "uni": dict(sorted(model.uni.items())),
        "hist1": dict(sorted(model.hist1.items())),
        "bi": [[a, b, c] for (a, b), c in sorted(model.bi.items())],
        "hist2": [[a, b, c] for (a, b), c in sorted(model.hist2.items())],
        "tri": [[a, b, t, c] for (a, b, t), c in sorted(model.tri.items())],
        "emit": {w: dict(sorted(tags.items())) for w, tags in sorted(model.emit.items())},
    }
    save_container(path, header, [])


def _positive_count(value):
    n = int(value)
    if n < 1:
        raise ValueError(f"{value!r} is not a positive count")
    return n


def _emission_counts(d):
    if "" in d:
        raise ValueError("empty word form")
    return {w: Counter(tags) for w, tags in d.items()}


def load_hmm(path):
    """Rebuild a saved model; the suffix tries are re-derived from counts."""
    header, _ = load_container(path)
    if header.get("kind") != "tnt":
        raise ModelError(f"{path}: container holds a {header.get('kind')!r} model, not tnt")

    def field(name, decode):
        return header_field(path, header, name, decode)

    model = TrigramModel(
        field("tagset", list),
        *field("config", lambda c: (c["max_suffix_len"], c["suffix_max_freq"], c["beam_default"])),
    )
    model.n_tokens = field("n_tokens", _positive_count)
    model.lambdas = field("lambdas", tuple)
    model.uni = field("uni", Counter)
    model.hist1 = field("hist1", Counter)
    model.bi = field("bi", lambda rows: Counter({(a, b): c for a, b, c in rows}))
    model.hist2 = field("hist2", lambda rows: Counter({(a, b): c for a, b, c in rows}))
    model.tri = field("tri", lambda rows: Counter({(a, b, t): c for a, b, t, c in rows}))
    model.emit = field("emit", _emission_counts)
    model.word_freq = Counter({w: sum(t.values()) for w, t in model.emit.items()})
    model._build_tries()
    return model
