"""Second-order HMM tagger in the TnT style.

A model is two integer count arrays over tag ids, with id k = len(tagset)
for the sentence boundary: tag trigrams `tri` (k+1, k+1, k), each sentence
padded by two boundary tags, and (form, tag) pairs `emit` (V, k), row i for
forms[i].  One constructor, which `train_hmm` and `load_hmm` both call,
derives everything else from them: lower-order counts, interpolation
weights, theta, the log-probability tables and the suffix tries.  A saved
model holds nothing else, so a loaded one cannot disagree with itself.

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

import numpy as np

from .container import ModelError, header_field, load_container, save_container

BOUNDARY = "<s>"
NEG_INF = float("-inf")
CONFIG = ("max_suffix_len", "suffix_max_freq", "beam_default")


def _log(p):
    """Elementwise math.log with log 0 = -inf (np.log can differ from
    math.log in the last bit, and the scalar API has always used math.log)."""
    out = np.full(p.shape, NEG_INF)
    positive = p > 0
    out[positive] = [math.log(x) for x in p[positive].tolist()]
    return out


class SuffixTrie:
    """Tag distributions conditioned on word suffixes, recursively smoothed.

    `index` maps each suffix of a training word (up to max_len characters,
    '' included) to a row of `dist`, which is equivalent to a
    reversed-character trie.  Row distributions are blended with their
    shorter-suffix parent: P(t|s_1..i) = (ML(t|s_1..i) + theta *
    P(t|s_2..i)) / (1 + theta), rooted at the ML distribution of the whole
    training population for this trie.  `logp` holds the Bayes-inverted
    emissions log(P(t|suffix) / P(t)), -inf for tags outside the population.
    """

    def __init__(self, forms, counts, theta, max_len):
        """forms: the trie's training words; counts: their (n, k) tag counts."""
        self.max_len = max_len
        self.index = {}
        lens = [min(max_len, len(f)) + 1 for f in forms]  # suffixes of each form, '' included
        node_of = np.fromiter(
            (self.index.setdefault(f[len(f) - n :], len(self.index)) for f, m in zip(forms, lens) for n in range(m)),
            np.intp, sum(lens),
        )
        word_of = np.repeat(np.arange(len(forms)), lens)
        node_counts = np.stack(
            [np.bincount(node_of, weights=c[word_of], minlength=len(self.index)) for c in counts.T], axis=1
        )
        self.dist = node_counts / node_counts.sum(axis=1, keepdims=True)  # ML; the root stays so
        length = np.array([len(s) for s in self.index], dtype=np.intp)
        parent = np.array([self.index[s[1:]] if s else 0 for s in self.index], dtype=np.intp)
        for n in range(1, max_len + 1):  # parents first
            rows = np.flatnonzero(length == n)
            self.dist[rows] = (self.dist[rows] + theta * self.dist[parent[rows]]) / (1.0 + theta)
        prior = self.dist[:1]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.logp = _log(np.where(prior > 0, self.dist / prior, 0.0))

    def __bool__(self):
        return bool(self.index)

    def query(self, word):
        """Emission log row of the longest matching suffix (root fallback)."""
        for i in range(min(self.max_len, len(word)), 0, -1):
            row = self.index.get(word[-i:])
            if row is not None:
                return self.logp[row]
        return self.logp[0]


def _counts(name, a, shape):
    """a as an int64 array of counts of the given shape; ValueError naming it otherwise."""
    if a is None:
        raise ValueError(f"no {name!r} array block")
    a = np.asarray(a)
    if a.shape != shape:
        raise ValueError(f"{name!r} has shape {list(a.shape)}, expected {list(shape)}")
    if not np.all((a >= 0) & (a < 2**53) & (a == np.floor(a))):
        raise ValueError(f"{name!r} holds a negative, non-integer or huge count")
    return a.astype(np.int64)


class TrigramModel:
    """A tagger derived from its tag-trigram and (form, tag) counts."""

    def __init__(self, tagset, tri, forms, emit, max_suffix_len=10, suffix_max_freq=10, beam_default=1000.0):
        self.tagset = list(tagset)
        k = len(self.tagset)
        if not k or len(set(self.tagset)) != k or BOUNDARY in self.tagset:
            raise ValueError(f"'tagset' must be distinct tags other than {BOUNDARY!r}, got {self.tagset}")
        self.forms = list(forms)
        if not all(isinstance(f, str) and f for f in self.forms) or len(set(self.forms)) != len(self.forms):
            raise ValueError("'forms' must be distinct non-empty strings")
        self.tri = _counts("tri", tri, (k + 1, k + 1, k))
        self.emit = _counts("emit", emit, (len(self.forms), k))
        self.tag_index = {t: i for i, t in enumerate(self.tagset)}
        self.history_index = {**self.tag_index, BOUNDARY: k}
        self.form_index = {f: i for i, f in enumerate(self.forms)}
        self.max_suffix_len = max_suffix_len
        self.suffix_max_freq = suffix_max_freq
        self.beam_default = beam_default

        bi = self.tri.sum(axis=0)            # (t2, t3)
        hist1 = bi.sum(axis=1)               # t2 as a bigram history (may be BOUNDARY)
        hist2 = self.tri.sum(axis=2)         # (t1, t2) as a trigram history
        uni = bi.sum(axis=0)                 # outcome tag counts
        if uni.min() == 0:
            raise ValueError(f"'tri' has no token of tag {self.tagset[int(uni.argmin())]!r}")
        if not np.array_equal(self.emit.sum(axis=0), uni):
            raise ValueError("'emit' column sums disagree with the tag totals of 'tri'")
        self.freq = self.emit.sum(axis=1)
        if self.freq.min() == 0:
            raise ValueError(f"'emit' has no token of form {self.forms[int(self.freq.argmin())]!r}")
        self.n_tokens = n = int(uni.sum())

        self.lambdas = _deleted_interpolation(self.tri, bi, hist1, hist2, uni, n)
        probs = (uni / n).tolist()
        mean = sum(probs) / k
        self.theta = math.sqrt(sum((p - mean) ** 2 for p in probs) / (k - 1)) if k > 1 else 0.0

        # Interpolated P(t3 | t1, t2), proper over the tagset for any history:
        # unseen histories back off to the lower-order estimate.
        l1, l2, l3 = self.lambdas
        p1 = uni / n
        with np.errstate(divide="ignore", invalid="ignore"):
            p2 = np.where(hist1[:, None] > 0, bi / hist1[:, None], p1)
            p3 = np.where(hist2[:, :, None] > 0, self.tri / hist2[:, :, None], p2)
        self.trans = l1 * p1 + l2 * p2 + l3 * p3
        self.log_trans = _log(self.trans)
        self.log_emit = _log(self.emit / uni)
        self.log_uniform = np.full(k, math.log(1.0 / k))  # no suffix data at all: uninformative

        rare = np.flatnonzero(self.freq <= suffix_max_freq)
        upper = [i for i in rare if self.forms[i][0].isupper()]
        lower = [i for i in rare if not self.forms[i][0].isupper()]
        self.trie_upper, self.trie_lower = (
            SuffixTrie([self.forms[i] for i in rows], self.emit[rows], self.theta, max_suffix_len)
            for rows in (upper, lower)
        )

    def _ids(self, t1, t2, t3):
        return self.history_index[t1], self.history_index[t2], self.tag_index[t3]

    def transition(self, t1, t2, t3):
        """Interpolated P(t3 | t1, t2); t1 and t2 may be BOUNDARY."""
        return float(self.trans[self._ids(t1, t2, t3)])

    def transition_logp(self, t1, t2, t3):
        return float(self.log_trans[self._ids(t1, t2, t3)])

    def emission_logps(self, word):
        """[emission_logp(word, t) for t in tagset] as an array: log ML
        P(word | t) for known words, suffix Bayes inversion otherwise."""
        row = self.form_index.get(word)
        if row is not None:
            return self.log_emit[row]
        tries = (self.trie_upper, self.trie_lower) if word[0].isupper() else (self.trie_lower, self.trie_upper)
        trie = next(filter(None, tries), None)  # the other case's trie if this one is empty
        return self.log_uniform if trie is None else trie.query(word)

    def emission_logp(self, word, tag):
        return float(self.emission_logps(word)[self.tag_index[tag]])

    def training_frequency(self, form):
        row = self.form_index.get(form)
        return 0 if row is None else int(self.freq[row])

    def predict(self, tokens):
        return viterbi(self, tokens, self.beam_default)


def _deleted_interpolation(tri, bi, hist1, hist2, uni, n):
    """Brants-style weights: each trigram votes, with its own count
    removed, for the order whose relative-frequency estimate is largest;
    0/0 counts as 0 and ties fall to the lower order (more smoothing)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r3 = np.where(hist2[:, :, None] > 1, (tri - 1) / (hist2[:, :, None] - 1), 0.0)
        r2 = np.where(hist1[:, None] > 1, (bi - 1) / (hist1[:, None] - 1), 0.0)
    r1 = (uni - 1) / (n - 1) if n > 1 else np.zeros(len(uni))
    vote1 = (r1 >= r2) & (r1 >= r3)
    vote2 = ~vote1 & (r2 >= r3)
    votes = [int(tri[v].sum()) for v in (vote1, vote2, ~vote1 & ~vote2)]
    return tuple(v / n for v in votes)


def train_hmm(corpus, max_suffix_len=10, suffix_max_freq=10, beam_default=1000.0):
    """Count tag trigrams and (form, tag) pairs, then derive the model."""
    if not corpus.sentences:
        raise ValueError("train_hmm: empty corpus")
    tagset = corpus.tagset()
    return TrigramModel(tagset, *_count(corpus, tagset), max_suffix_len, suffix_max_freq, beam_default)


def _count(corpus, tagset):
    """(tri, forms, emit) of a corpus, each array from one bincount over integer codes."""
    k, n = len(tagset), corpus.n_tokens()
    tag_id = {t: i for i, t in enumerate(tagset)}
    form_id = {}
    tags = np.fromiter((tag_id[t] for s in corpus for t in s.tags), np.intp, n)
    words = np.fromiter((form_id.setdefault(f, len(form_id)) for s in corpus for f in s.forms), np.intp, n)
    lengths = np.array([len(s) for s in corpus])
    pos = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # index within the sentence
    t2 = np.where(pos >= 1, np.roll(tags, 1), k)
    t1 = np.where(pos >= 2, np.roll(tags, 2), k)
    tri = np.bincount((t1 * (k + 1) + t2) * k + tags, minlength=(k + 1) ** 2 * k).reshape(k + 1, k + 1, k)
    emit = np.bincount(words * k + tags, minlength=len(form_id) * k).reshape(-1, k)
    return tri, list(form_id), emit


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
    lt0, lt1, lt = model.log_trans[k, k], model.log_trans[k, :k], model.log_trans[:k, :k]
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
    """The tagset, the config, the forms and the two count arrays."""
    config = {name: getattr(model, name) for name in CONFIG}
    header = {"kind": "tnt", "tagset": model.tagset, "config": config, "forms": model.forms}
    save_container(path, header, [("tri", model.tri), ("emit", model.emit)])


def load_hmm(path):
    """Rebuild a saved model through the constructor `train_hmm` uses."""
    header, arrays = load_container(path)
    if header.get("kind") != "tnt":
        raise ModelError(f"{path}: container holds a {header.get('kind')!r} model, not tnt")

    def field(name, decode):
        return header_field(path, header, name, decode)

    tagset = field("tagset", list)
    config = field("config", lambda c: [c[name] for name in CONFIG])
    forms = field("forms", list)
    try:
        return TrigramModel(tagset, arrays.get("tri"), forms, arrays.get("emit"), *config)
    except ValueError as e:
        raise ModelError(f"{path}: {e}") from e
