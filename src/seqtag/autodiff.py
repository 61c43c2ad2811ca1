"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: a flat operation tape and exactly the
node kinds the taggers record.  Besides parameter leaves there are eight:

  add       elementwise sum (the joint tag + frequency loss)
  affine    x W^T + b (the tag and frequency heads)
  concat    join along the last axis (word o char o byte, forward o reverse)
  take      copy of x[index] (final states of the subword bi-LSTMs)
  lookup    embedding-table rows, with a sparse row gradient
  xent      summed softmax cross-entropy, one gold class per row
  noise     additive Gaussian noise, identity gradient
  lstm_seq  a whole LSTM run over a padded batch (recurrent.py)

The ops that carry a sentence take a matrix with one row per token, so a
sentence records a few nodes, not a few per token.  Everything runs in
64-bit floats so gradient checks are limited by truncation error, not
precision.

Gradients for a table parameter accessed through ``lookup_row`` are kept as
sparse per-row updates (see :class:`SparseRows`); all other gradients are
dense arrays of the parameter's shape.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64 output function on a Python int."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based pseudo-random stream (splitmix64).

    Draw k of the stream is ``mix64(seed + (k+1) * GAMMA)`` where ``mix64``
    is the splitmix64 finalizer and GAMMA is the 64-bit golden ratio
    constant.  Because each draw is a pure function of (seed, k), scalar and
    vectorized draws produce the same stream, and identical seeds give
    bit-identical sequences on any platform.

    Gaussians come from Box-Muller: each pair of uniforms (u1, u2) yields
    z0 = sqrt(-2 ln u1) cos(2 pi u2) and z1 = sqrt(-2 ln u1) sin(2 pi u2).
    A scalar draw consumes one full pair and discards z1; a batch of n
    consumes ceil(n/2) pairs.

    ``child(tag)`` derives an independent stream from the *original* seed,
    so derived streams do not depend on how much of the parent was consumed.
    """

    def __init__(self, seed):
        self._seed = seed & _MASK64
        self._ctr = 0

    def u64(self):
        self._ctr += 1
        return _mix64((self._seed + self._ctr * _GAMMA) & _MASK64)

    def u64_array(self, n):
        idx = np.arange(self._ctr + 1, self._ctr + n + 1, dtype=np.uint64)
        self._ctr += n
        with np.errstate(over="ignore"):
            z = np.uint64(self._seed) + idx * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    def uniform(self):
        """One double in [0, 1), from the top 53 bits of a u64."""
        return (self.u64() >> 11) * 2.0**-53

    def uniform_array(self, n):
        return (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def below(self, n):
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.u64()
            if u < lim:
                return u % n

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def normal(self, n, sigma=1.0):
        """n Gaussian draws N(0, sigma^2) as a float64 array (Box-Muller).

        n may also be a (rows, width) shape: row k then holds exactly what
        the k-th of `rows` successive normal(width) calls would return.
        """
        rows, width = (1, n) if np.ndim(n) == 0 else n
        m = (width + 1) // 2
        u = self.uniform_array(rows * 2 * m).reshape(rows, 2, m)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))  # 1 - u in (0, 1]: keeps log finite
        out = np.empty((rows, 2 * m))
        out[:, 0::2] = r * np.cos(2.0 * np.pi * u[:, 1])
        out[:, 1::2] = r * np.sin(2.0 * np.pi * u[:, 1])
        out = sigma * out[:, :width]
        return out[0] if np.ndim(n) == 0 else out

    def child(self, tag):
        """Independent derived stream; depends only on (seed, tag)."""
        return Rng(_mix64((self._seed + (tag + 1) * _GAMMA) & _MASK64))


class Tensor:
    """A float64 array plus an optional handle into the active tape."""

    __slots__ = ("v", "node")

    def __init__(self, value, node=None):
        self.v = value
        self.node = node

    def __repr__(self):
        return f"Tensor(shape={self.v.shape}, node={self.node})"


def wrap(tape, x):
    """Tensor view of x; Parameters become (cached) leaf nodes on the tape."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Parameter):
        return Tensor(x.v) if tape is None else tape.leaf(x)
    return Tensor(np.asarray(x, dtype=np.float64))


class Parameter:
    """A named trainable array."""

    __slots__ = ("name", "v")

    def __init__(self, name, value):
        self.name = name
        self.v = np.asarray(value, dtype=np.float64)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.v.shape})"


class SparseRows:
    """Row-indexed gradient accumulator for embedding tables."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape):
        self.shape = shape
        self.rows = {}

    def add(self, i, g):
        if i in self.rows:
            self.rows[i] += g
        else:
            self.rows[i] = g.copy()

    def add_rows(self, ids, g):
        """Add g[k] to row ids[k] for every k; ids may repeat."""
        uniq, inv = np.unique(ids, return_inverse=True)
        summed = np.zeros((len(uniq), self.shape[1]))
        np.add.at(summed, inv.reshape(-1), g.reshape(-1, self.shape[1]))
        for i, row in zip(uniq.tolist(), summed):
            self.add(i, row)

    def to_dense(self):
        out = np.zeros(self.shape)
        for i, g in self.rows.items():
            out[i] += g
        return out


# kind -> fn(tape, node_index, incoming_grad); extended by recurrent.py
BACKWARD = {}


class Tape:
    """Ordered record of forward operations for one reverse sweep.

    Node i stores (kind, parent node ids, forward value, aux payload) where
    aux carries whatever the backward rule needs (input values, cached
    activations).  Parent ids are None for constants, which receive no
    gradient.  Topological order is construction order.
    """

    def __init__(self):
        self.kinds = []
        self.parents = []
        self.values = []
        self.aux = []
        self.grads = None
        self._leaves = {}  # id(Parameter) -> node index

    def __len__(self):
        return len(self.kinds)

    def record(self, kind, parents, value, aux=None):
        self.kinds.append(kind)
        self.parents.append(parents)
        self.values.append(value)
        self.aux.append(aux)
        return Tensor(value, len(self.kinds) - 1)

    def leaf(self, param):
        """Tensor view of a parameter, one tape node per parameter."""
        node = self._leaves.get(id(param))
        if node is None:
            t = self.record("leaf", (), param.v, param)
            self._leaves[id(param)] = t.node
            return t
        return Tensor(self.values[node], node)

    # gradient buffers ----------------------------------------------------

    def gbuf(self, node):
        """Dense gradient buffer for a node, zero-initialized on first use."""
        g = self.grads[node]
        if g is None:
            g = np.zeros(self.values[node].shape)
            self.grads[node] = g
        return g

    def sbuf(self, node):
        """Sparse row-gradient buffer for a table leaf."""
        g = self.grads[node]
        if g is None:
            g = SparseRows(self.values[node].shape)
            self.grads[node] = g
        return g

    def acc(self, node, g):
        if node is not None:
            self.gbuf(node)
            self.grads[node] += g

    # reverse sweep -------------------------------------------------------

    def backward(self, loss):
        """Populate gradients of `loss` w.r.t. every ancestor node."""
        if loss.node is None:
            raise ValueError("loss was not recorded on this tape")
        if loss.v.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.v.shape}")
        self.grads = [None] * len(self.kinds)
        self.grads[loss.node] = np.ones(loss.v.shape)
        for i in range(loss.node, -1, -1):
            g = self.grads[i]
            if g is None:
                continue
            kind = self.kinds[i]
            if kind == "leaf":
                continue
            BACKWARD[kind](self, i, g)

    def grad(self, param):
        """Gradient accumulated for a parameter, or None if unused."""
        if self.grads is None:
            raise ValueError("backward() has not run on this tape")
        node = self._leaves.get(id(param))
        if node is None:
            return None
        return self.grads[node]

    def gradients(self, params):
        """name -> gradient map; raises if a parameter has none."""
        out = {}
        for p in params:
            g = self.grad(p)
            if g is None:
                raise ValueError(f"no gradient for trainable parameter {p.name!r}")
            out[p.name] = g
        return out


# primitives ---------------------------------------------------------------


def add(tape, a, b):
    a, b = wrap(tape, a), wrap(tape, b)
    if a.v.shape != b.v.shape:
        raise ValueError(f"add: shape mismatch {a.v.shape} vs {b.v.shape}")
    out = a.v + b.v
    if tape is None:
        return Tensor(out)
    return tape.record("add", (a.node, b.node), out)


def _bw_add(tape, i, g):
    pa, pb = tape.parents[i]
    tape.acc(pa, g)
    tape.acc(pb, g)


def affine(tape, w, x, b):
    """W x + b for a vector x, or x W^T + b row by row for a matrix x."""
    w, x, b = wrap(tape, w), wrap(tape, x), wrap(tape, b)
    if w.v.ndim != 2 or x.v.ndim not in (1, 2) or w.v.shape[1] != x.v.shape[-1] \
            or b.v.shape != (w.v.shape[0],):
        raise ValueError(f"affine: bad shapes {w.v.shape}, {x.v.shape}, {b.v.shape}")
    out = x.v @ w.v.T + b.v
    if tape is None:
        return Tensor(out)
    return tape.record("affine", (w.node, x.node, b.node), out, (w.v, x.v))


def _bw_affine(tape, i, g):
    pw, px, pb = tape.parents[i]
    wv, xv = tape.aux[i]
    g2 = g.reshape(-1, g.shape[-1])
    if pw is not None:
        tape.gbuf(pw)
        tape.grads[pw] += g2.T @ xv.reshape(g2.shape[0], -1)
    if px is not None:
        tape.gbuf(px)
        tape.grads[px] += (g2 @ wv).reshape(xv.shape)
    tape.acc(pb, g2.sum(axis=0))


def concat(tape, parts):
    """Parts joined along their last axis; the other axes must agree."""
    parts = [wrap(tape, p) for p in parts]
    if not parts:
        raise ValueError("concat of zero parts")
    lead = parts[0].v.shape[:-1]
    for p in parts:
        if p.v.ndim == 0 or p.v.shape[:-1] != lead:
            raise ValueError(f"concat: shapes {[q.v.shape for q in parts]} differ before the last axis")
    out = np.concatenate([p.v for p in parts], axis=-1)
    if tape is None:
        return Tensor(out)
    sizes = tuple(p.v.shape[-1] for p in parts)
    return tape.record("concat", tuple(p.node for p in parts), out, sizes)


def _bw_concat(tape, i, g):
    off = 0
    for parent, size in zip(tape.parents[i], tape.aux[i]):
        tape.acc(parent, g[..., off : off + size])
        off += size


def take(tape, x, index):
    """x[index] as a copy; the gradient scatters back (repeats accumulate)."""
    x = wrap(tape, x)
    out = np.array(x.v[index])
    if tape is None:
        return Tensor(out)
    return tape.record("take", (x.node,), out, index)


def _bw_take(tape, i, g):
    parent = tape.parents[i][0]
    if parent is not None:
        np.add.at(tape.gbuf(parent), tape.aux[i], g)


def lookup_row(tape, table, i):
    """Row i of an embedding table, or the rows of an integer array i (one
    output row per id, in i's shape); the gradient is a sparse row update."""
    table = wrap(tape, table)
    tv = table.v
    ids = np.asarray(i)
    if ids.size and not (0 <= ids.min() and ids.max() < tv.shape[0]):
        raise IndexError(f"lookup_row: row {i} outside table of {tv.shape[0]}")
    out = tv[i].copy()
    if tape is None:
        return Tensor(out)
    return tape.record("lookup", (table.node,), out, ids)


def _bw_lookup(tape, i, g):
    parent = tape.parents[i][0]
    if parent is not None:
        tape.sbuf(parent).add_rows(tape.aux[i], g)


def softmax_xent(tape, logits, gold):
    """Scalar -log softmax(logits)[gold], computed via log-sum-exp.

    For a (T, K) logits matrix, gold holds one class per row and the result
    is the sum of the T row losses.
    """
    z = wrap(tape, logits)
    if z.v.ndim not in (1, 2):
        raise ValueError("softmax_xent expects a logits vector or matrix")
    z2 = z.v.reshape(-1, z.v.shape[-1])
    gold = np.asarray(gold, dtype=np.intp).reshape(-1)
    if gold.shape != (z2.shape[0],):
        raise ValueError(f"softmax_xent: {gold.size} gold classes for {z2.shape[0]} rows")
    if not (0 <= gold.min() and gold.max() < z2.shape[1]):
        raise IndexError(f"gold index {gold.tolist()} outside {z2.shape[1]} classes")
    rows = np.arange(z2.shape[0])
    m = z2.max(axis=1, keepdims=True)
    ez = np.exp(z2 - m)
    total = ez.sum(axis=1, keepdims=True)
    out = np.asarray((m[:, 0] + np.log(total[:, 0]) - z2[rows, gold]).sum())
    if tape is None:
        return Tensor(out)
    return tape.record("xent", (z.node,), out, (ez / total, rows, gold))


def _bw_xent(tape, i, g):
    parent = tape.parents[i][0]
    if parent is None:
        return
    probs, rows, gold = tape.aux[i]
    d = probs * g
    d[rows, gold] -= g
    tape.acc(parent, d.reshape(tape.values[parent].shape))


def gaussian_noise(tape, x, sigma, rng):
    """x + eps with eps ~ N(0, sigma^2) elementwise; identity gradient.

    A matrix draws eps row by row, so each row gets the noise it would get
    noised on its own.  (One normal(x.size) draw would not do: Box-Muller
    pairs its u1 and u2 blocks across rows.)
    """
    x = wrap(tape, x)
    width = x.v.shape[-1]
    out = x.v + rng.normal((x.v.size // width, width), sigma).reshape(x.v.shape)
    if tape is None:
        return Tensor(out)
    return tape.record("noise", (x.node,), out)


def _bw_noise(tape, i, g):
    tape.acc(tape.parents[i][0], g)


BACKWARD.update(
    {
        "add": _bw_add,
        "affine": _bw_affine,
        "concat": _bw_concat,
        "take": _bw_take,
        "lookup": _bw_lookup,
        "xent": _bw_xent,
        "noise": _bw_noise,
    }
)


# optimizer ------------------------------------------------------------------


def sgd_step(params, grads, lr):
    """p <- p - lr * grad(p) for every parameter; clears `grads`.

    `grads` maps parameter name to a dense array or SparseRows, as produced
    by Tape.gradients().
    """
    for p in params:
        if p.name not in grads:
            raise ValueError(f"no gradient for trainable parameter {p.name!r}")
        g = grads[p.name]
        if isinstance(g, SparseRows):
            for row, vec in g.rows.items():
                p.v[row] -= lr * vec
        else:
            p.v -= lr * g
    grads.clear()


def glorot(rng, fan_out, fan_in):
    """Glorot-uniform matrix of shape (fan_out, fan_in); zeros when rng is
    None, for a model whose weights are about to be loaded."""
    if rng is None:
        return np.zeros((fan_out, fan_in))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform_array(fan_out * fan_in)
    return (limit * (2.0 * u - 1.0)).reshape(fan_out, fan_in)


# finite-difference oracle -----------------------------------------------------


def gradient_check(loss_fn, params, h=1e-5):
    """Max relative error between tape gradients and central differences.

    `loss_fn(tape)` must build and return the scalar loss on the given tape
    (or evaluate without recording when tape is None) and must be
    deterministic: no noise, no RNG consumption that differs between calls.
    The per-component error is |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|); the max over all components of all `params`
    is returned.
    """
    tape = Tape()
    loss = loss_fn(tape)
    if not np.all(np.isfinite(loss.v)):
        raise FloatingPointError("non-finite loss in gradient_check")
    tape.backward(loss)

    worst = 0.0
    for p in params:
        g = tape.grad(p)
        if g is None:
            g = np.zeros(p.v.shape)
        elif isinstance(g, SparseRows):
            g = g.to_dense()
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
