"""Test oracles: per-step LSTM references, independent of the fused nodes,
and the dictionary-based TnT model that the count-array model replaced."""

import math
from collections import Counter

import numpy as np

from seqtag.tnt import BOUNDARY


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def gate(mat, k, hdim):
    """Block k of a stacked [i, f, g, o] gate parameter."""
    return mat[k * hdim : (k + 1) * hdim]


def reference_lstm_step(cell, x, h, c):
    """Gate-by-gate evaluation, independent of the fused implementation."""
    hd = cell.hidden_dim
    wx, wh, b = cell.W_x.v, cell.W_h.v, cell.b.v
    i = _sig(gate(wx, 0, hd) @ x + gate(wh, 0, hd) @ h + gate(b, 0, hd))
    f = _sig(gate(wx, 1, hd) @ x + gate(wh, 1, hd) @ h + gate(b, 1, hd))
    g = np.tanh(gate(wx, 2, hd) @ x + gate(wh, 2, hd) @ h + gate(b, 2, hd))
    o = _sig(gate(wx, 3, hd) @ x + gate(wh, 3, hd) @ h + gate(b, 3, hd))
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2


def reference_states(cell, xs):
    """Hidden states after each step of consuming xs in order, from zero."""
    h = np.zeros(cell.hidden_dim)
    c = np.zeros(cell.hidden_dim)
    out = []
    for x in xs:
        h, c = reference_lstm_step(cell, x, h, c)
        out.append(h)
    return out


def reference_grads(cell, xs, dhs):
    """Per-step backpropagation through time, one np.outer per weight per step.

    dhs[t] is the loss gradient reaching the state after step t directly.
    Returns (dW_x, dW_h, db, [dx_t]).
    """
    hd = cell.hidden_dim
    wx, wh = cell.W_x.v, cell.W_h.v
    steps = []
    h = np.zeros(hd)
    c = np.zeros(hd)
    for x in xs:
        a = wx @ x + wh @ h + cell.b.v
        i, f, g, o = _sig(a[:hd]), _sig(a[hd : 2 * hd]), np.tanh(a[2 * hd : 3 * hd]), _sig(a[3 * hd :])
        c2 = f * c + i * g
        steps.append((x, h, c, i, f, g, o, np.tanh(c2)))
        h, c = o * np.tanh(c2), c2
    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(cell.b.v)
    dxs = [None] * len(xs)
    dh_next = np.zeros(hd)
    dc_next = np.zeros(hd)
    for t in range(len(xs) - 1, -1, -1):
        dh = dhs[t] + dh_next
        x, h_prev, c_prev, i, f, g, o, tc = steps[t]
        dc = dh * o * (1.0 - tc * tc) + dc_next
        da = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g * g),
            dh * tc * o * (1.0 - o),
        ])
        dc_next = dc * f
        dwx += np.outer(da, x)
        dwh += np.outer(da, h_prev)
        db += da
        dxs[t] = wx.T @ da
        dh_next = wh.T @ da
    return dwx, dwh, db, dxs


# TnT ------------------------------------------------------------------------
# The tagger's original dictionary implementation: five tuple-keyed Counters
# filled one sentence at a time, and suffix tries keyed by the suffix string.


class ReferenceSuffixTrie:
    """Tag distributions conditioned on word suffixes, recursively smoothed.

    Nodes are keyed by the suffix string itself; node distributions are
    blended with their shorter-suffix parent: P(t|s_1..i) = (ML(t|s_1..i) +
    theta * P(t|s_2..i)) / (1 + theta), rooted at the ML distribution of the
    whole training population for this trie.
    """

    def __init__(self, counts, theta, max_len):
        """counts: {suffix: {tag: count}} including the '' root."""
        self.max_len = max_len
        self.dist = {}
        if sum(counts.get("", {}).values()) == 0:
            return
        for suffix in sorted(counts, key=len):  # parents first
            tags = counts[suffix]
            total = sum(tags.values())
            ml = {t: c / total for t, c in tags.items()}
            if not suffix:
                self.dist[suffix] = ml
                continue
            parent = self.dist[suffix[1:]]
            self.dist[suffix] = {
                t: (ml.get(t, 0.0) + theta * parent.get(t, 0.0)) / (1.0 + theta) for t in set(ml) | set(parent)
            }

    def __bool__(self):
        return bool(self.dist)

    @property
    def prior(self):
        return self.dist.get("", {})

    def query(self, word):
        """Smoothed distribution of the longest matching suffix (root fallback)."""
        for i in range(min(self.max_len, len(word)), 0, -1):
            d = self.dist.get(word[-i:])
            if d is not None:
                return d
        return self.prior


class ReferenceTnt:
    """Counts, interpolation weights, tries and scalar log-probabilities of
    a TnT model, computed with Counters and Python floats."""

    def __init__(self, corpus, max_suffix_len=10, suffix_max_freq=10):
        self.tagset = corpus.tagset()
        self.n_tokens = 0
        self.uni, self.bi, self.hist1 = Counter(), Counter(), Counter()
        self.tri, self.hist2 = Counter(), Counter()
        self.emit, self.word_freq = {}, Counter()
        for sent in corpus:
            padded = [BOUNDARY, BOUNDARY] + list(sent.tags)
            for k in range(2, len(padded)):
                t1, t2, t3 = padded[k - 2], padded[k - 1], padded[k]
                self.uni[t3] += 1
                self.bi[(t2, t3)] += 1
                self.hist1[t2] += 1
                self.tri[(t1, t2, t3)] += 1
                self.hist2[(t1, t2)] += 1
            for form, tag in zip(sent.forms, sent.tags):
                self.emit.setdefault(form, Counter())[tag] += 1
                self.word_freq[form] += 1
            self.n_tokens += len(sent)
        self.lambdas = self._deleted_interpolation()
        probs = [self.uni[t] / self.n_tokens for t in self.tagset]
        self.theta = 0.0
        if len(probs) > 1:
            mean = sum(probs) / len(probs)
            self.theta = math.sqrt(sum((p - mean) ** 2 for p in probs) / (len(probs) - 1))
        upper, lower = {}, {}
        for word, tags in self.emit.items():
            if self.word_freq[word] > suffix_max_freq:
                continue
            store = upper if word[0].isupper() else lower
            for length in range(0, min(max_suffix_len, len(word)) + 1):
                node = store.setdefault(word[-length:] if length else "", Counter())
                for tag, c in tags.items():
                    node[tag] += c
        self.trie_upper = ReferenceSuffixTrie(upper, self.theta, max_suffix_len)
        self.trie_lower = ReferenceSuffixTrie(lower, self.theta, max_suffix_len)

    def _deleted_interpolation(self):
        """Each trigram votes, with its own count removed, for the order whose
        relative-frequency estimate is largest; 0/0 counts as 0 and ties fall
        to the lower order."""
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
        return (l1 / total, l2 / total, l3 / total)

    def transition(self, t1, t2, t3):
        p1 = self.uni[t3] / self.n_tokens
        h1 = self.hist1.get(t2, 0)
        p2 = self.bi.get((t2, t3), 0) / h1 if h1 else p1
        h2 = self.hist2.get((t1, t2), 0)
        p3 = self.tri.get((t1, t2, t3), 0) / h2 if h2 else p2
        l1, l2, l3 = self.lambdas
        return l1 * p1 + l2 * p2 + l3 * p3

    def transition_logp(self, t1, t2, t3):
        p = self.transition(t1, t2, t3)
        return math.log(p) if p > 0.0 else -math.inf

    def emission(self, word, tag):
        counts = self.emit.get(word)
        if counts is not None:
            return counts.get(tag, 0) / self.uni[tag]
        trie = self.trie_upper if word[0].isupper() else self.trie_lower
        if not trie:
            trie = self.trie_lower if trie is self.trie_upper else self.trie_upper
        if not trie:
            return 1.0 / len(self.tagset)
        dist, prior = trie.query(word), trie.prior
        return dist.get(tag, 0.0) / prior[tag] if prior.get(tag, 0.0) else 0.0

    def emission_logp(self, word, tag):
        p = self.emission(word, tag)
        return math.log(p) if p > 0.0 else -math.inf
