"""Test oracles: a finite-difference gradient check, a tape consumer that
keeps every gradient, and the dense form of a sparse row gradient; the
two-phase training loop (whole backward, then every update) that the
updates inside the sweep replaced; per-step LSTM references, independent
of the fused nodes, and the gathered (B, T, D) form of a run over table
rows; the dictionary-based TnT model that the count-array model replaced,
and a scalar transition probability for the count-array model; the two
Viterbi decoders that the survivor-only one is checked against; and the
whole-buffer container writer and reader that the streaming ones
replaced."""

import hashlib
import itertools
import json
import math
import struct
from collections import Counter

import numpy as np

from seqtag.autodiff import Rng, SparseRows, Tape, sgd_step
from seqtag.container import MAGIC, ModelError, _manifest, header_field
from seqtag.representations import build_vocab
from seqtag.tagger import TaggerModel, sentence_loss
from seqtag.tnt import BOUNDARY, NEG_INF


def gradient_check(loss_fn, params, h=1e-5):
    """Max relative error between tape gradients and central differences.

    `loss_fn(tape)` must build and return the scalar loss on the given tape
    (or evaluate without recording when tape is None) and must be
    deterministic: no noise, no RNG consumption that differs between calls.
    The per-component error is |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|); the max over all components of all `params`
    is returned.
    """
    grads = {}
    tape = Tape(collect(grads))
    loss = loss_fn(tape)
    if not np.all(np.isfinite(loss.v)):
        raise FloatingPointError("non-finite loss in gradient_check")
    tape.backward(loss)

    worst = 0.0
    for p in params:
        g = grads.get(p)
        if g is None:
            g = np.zeros(p.v.shape)
        elif isinstance(g, SparseRows):
            g = to_dense(g)
        flat = p.v.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = float(loss_fn(None).v.reshape(()))
            flat[i] = keep - h
            f_minus = float(loss_fn(None).v.reshape(()))
            flat[i] = keep
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError("non-finite evaluation in gradient_check")
            num = (f_plus - f_minus) / (2.0 * h)
            err = abs(gflat[i] - num) / max(1e-8, abs(gflat[i]) + abs(num))
            if err > worst:
                worst = err
    return worst


def collect(grads):
    """A tape consumer that keeps each parameter's gradient in the dict
    grads, keyed by parameter: a dense one as a copy, since the tape reuses
    the buffer it hands over."""

    def keep(param, grad):
        grads[param] = grad.copy() if isinstance(grad, np.ndarray) else grad

    return keep


def to_dense(rows):
    """The dense array of a SparseRows gradient."""
    out = np.zeros(rows.shape)
    ids, summed = rows.summed()
    out[ids] = summed
    return out


def two_phase_train(train_corpus, hp):
    """tagger.train with its updates after the sweep: a whole backward that
    collects every gradient, then sgd_step over every parameter.  No
    pretrained file and no dev corpus."""
    vocab = build_vocab(train_corpus)
    rng = Rng(hp.seed)
    model = TaggerModel(hp, vocab, train_corpus.tagset(), init_rng=rng.child(0))
    train_rng, shuffle_rng = rng.child(1), rng.child(2)
    params = model.parameters()
    sentences = train_corpus.sentences
    grads = {}
    tape = Tape(collect(grads))
    for epoch in range(hp.epochs):
        order = list(range(len(sentences)))
        shuffle_rng.shuffle(order)
        total = 0.0
        for idx in order:
            tape.reset()
            loss = sentence_loss(model, sentences[idx], tape, train_rng)
            tape.backward(loss)
            for p in params:
                sgd_step(p, grads.pop(p), hp.lr)
            total += float(loss.v)
        model.train_history.append({"epoch": epoch + 1, "mean_loss": total / len(sentences)})
    return model


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


def reference_table_run(cell, table, ids, lengths, reverse, g):
    """A run over rows of a table in the gathered form: the (B, T, D) batch
    table[ids], each row consumed step by step by the per-step reference.

    g (B, T, H) is the loss gradient reaching the states.  Returns the
    (B, T, H) states, zero at padding, and (dW_x, dW_h, db, dtable): a table
    row read at several positions sums their input gradients.
    """
    x = table[ids]
    out = np.zeros(ids.shape + (cell.hidden_dim,))
    grads = [np.zeros_like(p.v) for p in cell.parameters()] + [np.zeros_like(table)]
    for b, n in enumerate(lengths):
        order = np.arange(n)[::-1] if reverse else np.arange(n)
        out[b, order] = reference_states(cell, x[b, order])
        dwx, dwh, db, dxs = reference_grads(cell, x[b, order], g[b, order])
        for acc, part in zip(grads, (dwx, dwh, db)):
            acc += part
        np.add.at(grads[3], ids[b, order], np.array(dxs))
    return out, grads


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


def count_reference(corpus):
    """(tagset, tri, forms, emit) of a corpus, the arrays tnt._count returns,
    counted sentence by sentence in dicts: tri[t1, t2, t3] over tag ids with
    k = len(tagset) for the boundary, emit[form id, tag id], the forms in
    first-occurrence order."""
    tagset = sorted({t for sent in corpus for t in sent.tags})
    tag_id = {t: i for i, t in enumerate(tagset)}
    k = len(tagset)
    tri, emit, form_id = {}, {}, {}
    for sent in corpus:
        t1, t2 = k, k
        for form, tag in zip(sent.forms, sent.tags):
            t3, f = tag_id[tag], form_id.setdefault(form, len(form_id))
            tri[t1, t2, t3] = tri.get((t1, t2, t3), 0) + 1
            emit[f, t3] = emit.get((f, t3), 0) + 1
            t1, t2 = t2, t3
    tri_array = np.zeros((k + 1, k + 1, k), np.int64)
    emit_array = np.zeros((len(form_id), k), np.int64)
    for array, counts in ((tri_array, tri), (emit_array, emit)):
        for key, c in counts.items():
            array[key] = c
    return tagset, tri_array, list(form_id), emit_array


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


def transition(model, t1, t2, t3):
    """Interpolated P(t3 | t1, t2) of a TrigramModel; t1 and t2 may be BOUNDARY."""
    return float(model.trans[model._ids(t1, t2, t3)])


def brute_force_viterbi(model, tokens):
    """Exhaustive search over the scalar API, tabulated once, with the same
    accumulation order; ties, and sentences where every path scores -inf,
    keep the lexicographically first sequence of tag indices."""
    tags = model.tagset
    hist = [BOUNDARY] + tags
    trans = {(a, b, c): model.transition_logp(a, b, c) for a in hist for b in hist for c in tags}
    emis = [{t: model.emission_logp(w, t) for t in tags} for w in tokens]
    best = None
    best_seq = None
    for seq in itertools.product(tags, repeat=len(tokens)):
        s = 0.0
        t1, t2 = BOUNDARY, BOUNDARY
        for i, t3 in enumerate(seq):
            s = (s + trans[t1, t2, t3]) + emis[i][t3]
            t1, t2 = t2, t3
        if best_seq is None or s > best:
            best, best_seq = s, seq
    return list(best_seq)


def reference_viterbi(model, tokens, beam=1000.0):
    """The dense decoder the survivor-only one replaced: every (previous,
    current) state scored at every position with numpy, pruned states set
    to -inf.  It gains one rule, the survivor-only decoder's: when no path
    of nonzero probability survives, the result is the first tag everywhere
    (the dense backtrack returned an arbitrary path then)."""
    tags = model.tagset
    k = len(tags)
    lt0, lt1, lt = model.log_trans[k, k], model.log_trans[k, :k], model.log_trans[:k, :k]
    emis = [np.array([model.emission_logp(w, t) for t in tags]) for w in tokens]
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
    if v.max() == NEG_INF:
        return [tags[0]] * len(tokens)

    flat = int(np.argmax(v))
    prev, cur = divmod(flat, k)
    rev = [cur, prev]
    for bp in reversed(backs):
        prev, cur = int(bp[prev, cur]), prev
        rev.append(prev)
    return [tags[i] for i in reversed(rev)]


# Container ------------------------------------------------------------------
# The whole-buffer writer and reader: the file built in memory and written in
# one call; the file read whole, its digest checked, then parsed from slices.


def reference_save_container(path, header, arrays):
    header = dict(header)
    header["arrays"] = [{"name": name, "shape": list(a.shape)} for name, a in arrays]
    hbytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    body = bytearray()
    body += MAGIC
    body += struct.pack("<Q", len(hbytes))
    body += hbytes
    for _, a in arrays:
        body += np.ascontiguousarray(a, dtype="<f8").tobytes()
    body += hashlib.sha256(bytes(body)).digest()
    with open(path, "wb") as fh:
        fh.write(body)
    return len(body)


def reference_load_container(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ModelError(f"{path}: {e}") from e
    if len(data) < len(MAGIC) + 8 + 32:
        raise ModelError(f"{path}: truncated file")
    if data[: len(MAGIC)] != MAGIC:
        if data[:7] == MAGIC[:7]:
            raise ModelError(f"{path}: unsupported container version")
        raise ModelError(f"{path}: not a model container (bad magic)")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ModelError(f"{path}: checksum mismatch (corrupt file)")
    hlen = struct.unpack("<Q", body[8:16])[0]
    if 16 + hlen > len(body):
        raise ModelError(f"{path}: truncated header")
    try:
        header = json.loads(body[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"{path}: bad header: {e}") from e
    if not isinstance(header, dict):
        raise ModelError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    offset = 16 + hlen
    arrays = {}
    for name, shape in header_field(path, header, "arrays", _manifest):
        nbytes = 8 * int(np.prod(shape)) if shape else 8
        chunk = body[offset : offset + nbytes]
        if len(chunk) < nbytes:
            raise ModelError(f"{path}: truncated array block {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise ModelError(f"{path}: {len(body) - offset} unexpected trailing bytes")
    return header, arrays
