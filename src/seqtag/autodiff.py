"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: a flat operation tape and exactly the
node kinds the taggers record.  Besides parameter leaves there are six:

  add       elementwise sum (the joint loss, and x plus a constant noise draw)
  affine    x W^T + b (the heads and the LSTM input projections)
  concat    join along the last axis (word o char o byte, forward o reverse)
  take      copy of x[index] (embedding-table rows, final subword states)
  xent      summed softmax cross-entropy, one gold class per row
  lstm_seq  an LSTM recurrence over rows of a projected input (recurrent.py)

The ops that carry a sentence take a matrix with one row per token, so a
sentence records a few nodes, not a few per token.  Everything runs in
64-bit floats so gradient checks are limited by truncation error, not
precision.

A gather gives a parameter rows and anything else a dense scatter: the
gradient a `take` sends to a parameter's leaf is a :class:`SparseRows` of
the row ids it read, and to any other node a dense array.  A parameter
that is gathered is read only by gathers (the word, char and byte tables
are); every other parameter's gradient is a dense array of its shape.

Buffer lifetime.  The reverse sweep frees each non-leaf node's value, aux
and gradient as soon as its rule has run: every node that reads them comes
later in construction order, so the sweep has passed it already.  A
parameter's gradient is complete when the sweep reaches the parameter's
leaf.  A tape built with a consumer, ``Tape(update)``, hands it over there
(training applies its SGD update then), so no full set of gradients is ever
held; a tape without one drops it.  Either way the dense buffer then goes
back to a pool keyed by shape, which parameters of one shape share from
sentence to sentence.
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
    """A table parameter's gradient: the (row ids, rows) pairs its gathers
    sent, where rows[k] is the gradient of row ids[k]; ids may repeat."""

    __slots__ = ("shape", "pairs")

    def __init__(self, shape):
        self.shape = shape
        self.pairs = []

    def summed(self):
        """(ids, rows): the distinct row ids, ascending, and each one's summed
        gradient, one row per id."""
        width = self.shape[1:]
        uniq, inv = np.unique(np.concatenate([ids.reshape(-1) for ids, _ in self.pairs]), return_inverse=True)
        rows = np.zeros((len(uniq),) + width)
        np.add.at(rows, inv.reshape(-1), np.concatenate([g.reshape((-1,) + width) for _, g in self.pairs]))
        return uniq, rows


# kind -> fn(tape, node_index, incoming_grad); extended by recurrent.py
BACKWARD = {}


class Tape:
    """Ordered record of forward operations for one reverse sweep.

    Node i stores (kind, parent node ids, forward value, aux payload) where
    aux carries whatever the backward rule needs (input values, cached
    activations).  Parent ids are None for constants, which receive no
    gradient.  Topological order is construction order.

    `update(param, grad)`, if given, receives each parameter's finished
    gradient (a dense array or SparseRows) once per backward, when the
    sweep reaches the parameter's leaf; it must not keep a dense one, whose
    buffer the tape reuses.  A tape without it keeps no gradient.

    A training loop reuses one tape: `reset()` empties it for the next
    sentence.  Dense parameter gradients are drawn from one pool of buffers
    keyed by shape, which the next backward zeroes and fills instead of
    allocating fresh pages; non-leaf gradients are allocated per sweep and
    freed within it.
    """

    def __init__(self, update=None):
        self._update = update
        self._pool = {}  # shape -> dense gradient buffers free for parameter leaves
        self.reset()

    def reset(self):
        """Forget every node."""
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

    def _buffer(self, node):
        """An uninitialized dense array of the node's shape: for a parameter
        leaf a pooled one, if any."""
        shape = self.values[node].shape
        free = self._pool.get(shape) if self.kinds[node] == "leaf" else None
        return free.pop() if free else np.empty(shape)

    def _release(self, g):
        self._pool.setdefault(g.shape, []).append(g)

    def gbuf(self, node):
        """Dense gradient buffer for a node, zero-initialized on first use."""
        g = self.grads[node]
        if g is None:
            g = self._buffer(node)
            g.fill(0.0)
            self.grads[node] = g
        return g

    def acc_matmul(self, node, a, b):
        """Add a @ b to a node's dense gradient.  The first product is written
        straight into the buffer, so no temporary of its size is made."""
        if node is None:
            return
        if self.grads[node] is None:
            self.grads[node] = np.matmul(a, b, out=self._buffer(node))
        else:
            self.grads[node] += a @ b

    def sbuf(self, node):
        """SparseRows gradient of a table leaf, empty on first use."""
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
        """Gradients of `loss` w.r.t. every ancestor node.

        Every non-leaf node is freed on the way.  When the sweep reaches a
        parameter's leaf, its gradient goes to the consumer, if the tape
        has one, and a dense buffer then returns to the pool.
        """
        if loss.node is None:
            raise ValueError("loss was not recorded on this tape")
        if loss.v.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.v.shape}")
        grads = self.grads = [None] * len(self.kinds)
        grads[loss.node] = np.ones(loss.v.shape)
        for i in range(len(grads) - 1, -1, -1):
            g = grads[i]
            kind = self.kinds[i]
            if kind != "leaf":
                if g is not None:
                    BACKWARD[kind](self, i, g)
                self.values[i] = self.aux[i] = None
            elif g is not None:
                if self._update is not None:
                    self._update(self.aux[i], g)
                if isinstance(g, np.ndarray):
                    self._release(g)
            grads[i] = None


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
    tape.acc_matmul(pw, g2.T, xv.reshape(g2.shape[0], -1))
    tape.acc_matmul(px, g, wv)
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
    """x[index] as a copy.

    A parameter (a Parameter, or its leaf on the tape) is a table: index
    must then hold integer row ids inside it, else IndexError, with a tape
    or without one, and its gradient is SparseRows.  Any other x takes any
    numpy index and gets a dense gradient, scattered back (repeats
    accumulate)."""
    table = isinstance(x, Parameter) or (
        tape is not None and isinstance(x, Tensor) and x.node is not None and tape.kinds[x.node] == "leaf"
    )
    x = wrap(tape, x)
    if table:
        index = np.asarray(index)
        n = len(x.v)
        if index.dtype.kind not in "iu" or (index.size and not (0 <= index.min() and index.max() < n)):
            raise IndexError(f"take: row ids {index.tolist()} are not integers in a table of {n} rows")
    out = np.array(x.v[index])
    if tape is None:
        return Tensor(out)
    return tape.record("take", (x.node,), out, index)


def _bw_take(tape, i, g):
    parent = tape.parents[i][0]
    if parent is None:
        return
    if tape.kinds[parent] == "leaf":
        tape.sbuf(parent).pairs.append((tape.aux[i], g))
    else:
        np.add.at(tape.gbuf(parent), tape.aux[i], g)


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
    """x + eps with eps ~ N(0, sigma^2) elementwise: an add whose second
    parent is the constant eps, so the gradient passes to x unchanged.

    A matrix draws eps row by row, so each row gets the noise it would get
    noised on its own.  (One normal(x.size) draw would not do: Box-Muller
    pairs its u1 and u2 blocks across rows.)
    """
    x = wrap(tape, x)
    width = x.v.shape[-1]
    return add(tape, x, rng.normal((x.v.size // width, width), sigma).reshape(x.v.shape))


BACKWARD.update(
    {
        "add": _bw_add,
        "affine": _bw_affine,
        "concat": _bw_concat,
        "take": _bw_take,
        "xent": _bw_xent,
    }
)


# optimizer ------------------------------------------------------------------


def sgd_step(param, grad, lr):
    """param <- param - lr * grad, for a dense gradient or SparseRows.

    A dense gradient is scaled by lr in place, so the update allocates no
    temporary of the parameter's size; SparseRows updates its summed rows
    in one indexed subtraction and leaves every other row as it is.
    """
    if isinstance(grad, SparseRows):
        ids, rows = grad.summed()
        param.v[ids] -= lr * rows
    else:
        grad *= lr
        param.v -= grad


def glorot(rng, fan_out, fan_in):
    """Glorot-uniform matrix of shape (fan_out, fan_in).

    The rule of every initialiser here: without an rng a parameter is a
    read-only zero stand-in that takes no memory, for a model whose
    weights are about to be loaded.  A dim numpy cannot hold raises
    ValueError even then."""
    if rng is None:
        return np.broadcast_to(0.0, (fan_out, fan_in))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniform_array(fan_out * fan_in)
    return (limit * (2.0 * u - 1.0)).reshape(fan_out, fan_in)


def zeros(rng, n):
    """Zero vector of length n, a bias's initial value; without an rng a
    read-only stand-in, as in glorot."""
    return np.zeros(n) if rng is not None else np.broadcast_to(0.0, (n,))
