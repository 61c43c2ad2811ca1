"""LSTM cells run over whole sequences as single tape nodes.

The LSTM is the standard input/forget/output-gate formulation without
peepholes:

    i = sig(W_xi x + W_hi h + b_i)      f = sig(W_xf x + W_hf h + b_f)
    o = sig(W_xo x + W_ho h + b_o)      g = tanh(W_xg x + W_hg h + b_g)
    c' = f * c + i * g                  h' = o * tanh(c')

Gate weights are stored stacked row-wise in [i, f, g, o] order inside one
(4H x D) input matrix, one (4H x H) recurrent matrix and one (4H,) bias.
Initial states are zero.

`rnn_seq` runs one cell in one direction over a padded batch of B rows
whose row b holds a sequence of lengths[b] <= T steps; what lies beyond a
row's length is padding and never enters a state.  The input is rows of a
matrix picked by integer ids: step p of row b reads row ids[b, p] of a
(V, D) table.  A subword encoder passes its embedding table and its
symbol ids; a (B, T, D) or (T, D) batch is the table of its own positions.
Following Appleyard et al. 2016 (arXiv:1604.01946), the whole run is one
tape node:

* Packing.  Rows are sorted by length, longest first, and the valid
  positions are gathered step-major: step t covers the n_t rows still
  running, which are a prefix of the sorted rows.  A finished row drops out
  of the prefix and so keeps its final state.
* Reverse direction.  Step t of row b reads position lengths[b] - 1 - t:
  each row's own prefix is reversed, so padding never comes first.
* Forward.  One GEMM projects every distinct input row, P = X[u] W_x^T + b
  over the ids u that some valid position reads, and each packed step
  takes its row of P: a sentence's char runs project its few distinct
  symbols, not every character position.  The recurrence is a loop over T
  steps, each adding h W_h^T to an (n_t, 4H) block of gate rows.  The
  state after step t is written back to the position that step read, so
  output row b, position p is the state after consuming x_0..x_p (forward)
  or x_{len-1}..x_p (reverse).
* Backward.  The same loop runs in reverse and fills the packed gate
  gradient dA.  One GEMM with a one-hot matrix sums dA per distinct row
  into dP; then dW_x = dP^T X[u], dX[u] = dP W_x, dW_h = dA^T H_prev and
  db = sum(dP) are one GEMM or one sum each.

The node takes the cell's Parameter leaves as parents, so tape consumers
see which layer owns it.  Gradients are checked against finite differences
and against a per-step numpy reference in the test suite.
"""

from collections import namedtuple

import numpy as np

from .autodiff import BACKWARD, Parameter, Tensor, concat, glorot, take, wrap


class LstmCell:
    """Stacked [i, f, g, o] gate weights of an LSTM, each gate's block
    initialised on its own; zeros without an rng (see glorot)."""

    def __init__(self, name, input_dim, hidden_dim, rng=None):
        self.name = name
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h, d = hidden_dim, input_dim
        self.W_x = Parameter(f"{name}.W_x", _gates(rng, h, d))
        self.W_h = Parameter(f"{name}.W_h", _gates(rng, h, h))
        self.b = Parameter(f"{name}.b", np.zeros(4 * h))

    def parameters(self):
        return [self.W_x, self.W_h, self.b]


def _gates(rng, h, d):
    """(4h, d): four Glorot blocks of (h, d), drawn in gate order."""
    if rng is None:
        return glorot(None, 4 * h, d)
    return np.vstack([glorot(rng, h, d) for _ in range(4)])


def _packing(lengths, steps, reverse):
    """Step-major (row, position) of every valid entry, and rows per step."""
    order = np.argsort(-lengths, kind="stable")
    ls = lengths[order]
    t, j = np.nonzero(np.arange(steps)[:, None] < ls[None, :])
    pos = ls[j] - 1 - t if reverse else t
    return order[j], pos, np.bincount(t)


def _lstm_forward(p, wh, counts, hdim):
    """Recurrence over packed input projections p (N, 4H), which become the
    activated [i, f, g, o] gates in place.

    One tanh call activates all four gates: sig(a) = tanh(a/2)/2 + 1/2 on
    [i, f, o], tanh(a) on g.
    """
    half, one, zero = np.full(hdim, 0.5), np.ones(hdim), np.zeros(hdim)
    scale = np.concatenate([half, half, one, half])
    shift = np.concatenate([half, half, zero, half])
    p *= scale  # exact: scaling by a power of two
    # A batch's step GEMMs run about twice as fast against a C-contiguous
    # copy; one sequence's matrix-vector steps do not, and the copy costs more.
    wh_t = np.multiply(wh.T, scale, order="C" if counts[0] > 1 else "K")
    n_all = p.shape[0]
    c_all = np.empty((n_all, hdim))
    tc_all = np.empty((n_all, hdim))
    h_all = np.empty((n_all, hdim))
    off = 0
    h = c = None
    for n in counts:
        rows = slice(off, off + n)
        act = p[rows]
        if h is not None:
            act += h[:n] @ wh_t
        np.tanh(act, out=act)
        act *= scale
        act += shift
        i, f, g, o = act[:, :hdim], act[:, hdim : 2 * hdim], act[:, 2 * hdim : 3 * hdim], act[:, 3 * hdim :]
        c_new = np.multiply(i, g, out=c_all[rows])
        if c is not None:
            c_new += f * c[:n]
        c = c_new
        tc = np.tanh(c, out=tc_all[rows])
        h = np.multiply(o, tc, out=h_all[rows])
        off += n
    return h_all, (p, c_all, tc_all)


def _lstm_backward(dh_out, wh, counts, hdim, cache):
    """Packed gate gradients dA (N, 4H) from packed output gradients.

    Everything that does not depend on the incoming state gradients is
    computed for all N entries at once; the loop carries only dh and dc.
    """
    gates, c_all, tc_all = cache
    n_all = gates.shape[0]
    i, f, g, o = gates[:, :hdim], gates[:, hdim : 2 * hdim], gates[:, 2 * hdim : 3 * hdim], gates[:, 3 * hdim :]
    c_prev = _previous(c_all, counts)
    # dA = [dc, dc, dc, dh] * q, and dc = dh * r + (dc of the next step) * f
    q = np.empty((n_all, 4, hdim))
    q[:, 0] = g * i * (1.0 - i)
    q[:, 1] = c_prev * f * (1.0 - f)
    q[:, 2] = i * (1.0 - g * g)
    q[:, 3] = tc_all * o * (1.0 - o)
    r = o * (1.0 - tc_all * tc_all)
    da = np.empty((n_all, 4, hdim))
    starts = np.cumsum(counts) - counts
    dh_rec = dc_rec = None
    for t in range(len(counts) - 1, -1, -1):
        rows = slice(starts[t], starts[t] + counts[t])
        dh = dh_out[rows]
        if dh_rec is not None:
            dh = dh.copy()
            dh[: len(dh_rec)] += dh_rec
        dc = dh * r[rows]
        if dc_rec is not None:
            dc[: len(dc_rec)] += dc_rec
        np.multiply(dc[:, None, :], q[rows, :3], out=da[rows, :3])
        np.multiply(dh, q[rows, 3], out=da[rows, 3])
        if t:
            dh_rec = da[rows].reshape(counts[t], 4 * hdim) @ wh
            dc_rec = dc * f[rows]
    return da.reshape(n_all, 4 * hdim)


def _previous(states, counts):
    """The packed state each entry's step started from: zeros at step 0."""
    starts = np.cumsum(counts) - counts
    t = np.repeat(np.arange(1, len(counts)), counts[1:])
    out = np.zeros_like(states)
    out[counts[0] :] = states[starts[t - 1] + np.arange(counts[0], counts.sum()) - starts[t]]
    return out


# A checked batch: the (V, D) table, the distinct ids u that valid positions
# read, each (B, T) position's index into u (0 at padding), the (B,) lengths,
# and whether the input was one unbatched sequence.
Batch = namedtuple("Batch", ["table", "u", "where", "lengths", "one"])


def _batch(x, ids, lengths, cell):
    """Batch of x and ids; without ids every position of a (B, T, D) or
    (T, D) x is its own row."""
    positions = ids is None
    if positions:
        if x.ndim not in (2, 3) or x.shape[-1] != cell.input_dim:
            raise ValueError(f"rnn_seq: input of shape {x.shape}, expected (T, {cell.input_dim}) "
                             f"or (B, T, {cell.input_dim})")
        ids = np.arange(x.size // x.shape[-1]).reshape(x.shape[:-1])
        x = x.reshape(-1, x.shape[-1])
    else:
        ids = np.asarray(ids)
        if x.ndim != 2 or x.shape[1] != cell.input_dim or ids.ndim not in (1, 2) or ids.dtype.kind not in "iu":
            raise ValueError(f"rnn_seq: table of shape {x.shape} with ids of shape {ids.shape}, "
                             f"expected (V, {cell.input_dim}) with integer (T,) or (B, T) ids")
        if ids.size and not (0 <= ids.min() and ids.max() < x.shape[0]):
            raise IndexError(f"rnn_seq: ids outside a table of {x.shape[0]} rows")
    one = ids.ndim == 1
    ids = ids[None] if one else ids
    b_rows, steps = ids.shape
    lengths = np.full(b_rows, steps) if lengths is None else np.asarray(lengths, dtype=np.intp)
    if b_rows == 0 or steps == 0 or lengths.shape != (b_rows,):
        raise ValueError(f"rnn_seq: need one length per row of a non-empty batch, got {lengths}")
    if lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"rnn_seq: lengths must lie in 1..{steps}, got {lengths.tolist()}")
    valid = np.arange(steps) < lengths[:, None]
    if positions:  # distinct and ascending already
        u = ids[valid]
        inv = np.arange(len(u))
    else:
        u, inv = np.unique(ids[valid], return_inverse=True)
    where = np.zeros(ids.shape, dtype=np.intp)
    where[valid] = inv
    return Batch(x, u, where, lengths, one)


def _run(cell, x, batch, reverse, tape):
    """One direction of `cell` over a Batch of x's rows."""
    b_rows, steps = batch.where.shape
    hdim = cell.hidden_dim
    rows, pos, counts = _packing(batch.lengths, steps, reverse)
    inv = batch.where[rows, pos]
    xu = batch.table[batch.u]
    wx, wh = cell.W_x.v, cell.W_h.v
    h_all, cache = _lstm_forward((xu @ wx.T + cell.b.v)[inv], wh, counts, hdim)
    out = np.zeros((b_rows, steps, hdim))
    out[rows, pos] = h_all
    if batch.one:
        out = out[0]
    if tape is None:
        return Tensor(out)
    pw, ph, pb = (tape.leaf(p).node for p in cell.parameters())
    aux = (wx, wh, xu, batch.u, inv, rows, pos, counts, h_all, cache)
    return tape.record("lstm_seq", (pw, ph, pb, x.node), out, aux)


def rnn_seq(cell, x, lengths=None, reverse=False, tape=None, ids=None):
    """States of `cell` run over every row of a padded batch, as one tape node.

    With `ids`, x is a (V, D) table and step p of row b reads x[ids[b, p]];
    ids is (B, T), with `lengths` giving each row's steps (1 <= length <=
    T), or (T,) for one sequence of T steps.  Without ids, x is (B, T, D)
    or (T, D) and every position reads its own row.  Returns the states at
    the positions they were produced, (B, T, H) or (T, H); padded positions
    hold zeros.  With `reverse`, each row is consumed from its last valid
    position back to its first.
    """
    x = wrap(tape, x)
    return _run(cell, x, _batch(x.v, ids, lengths, cell), reverse, tape)


def _bw_rnn_seq(tape, idx, g):
    pw, ph, pb, px = tape.parents[idx]
    wx, wh, xu, u, inv, rows, pos, counts, h_all, cache = tape.aux[idx]
    g3 = g if g.ndim == 3 else g[None]
    da = _lstm_backward(g3[rows, pos], wh, counts, wh.shape[1], cache)
    if len(u) == len(inv):  # every row read once: the per-row sum is a permutation
        dp = np.empty_like(da)
        dp[inv] = da
    else:
        dp = (np.arange(len(u))[:, None] == inv).astype(np.float64) @ da
    tape.acc_matmul(pw, dp.T, xu)
    if ph is not None:
        tape.acc_matmul(ph, da.T, _previous(h_all, counts))
    tape.acc(pb, dp.sum(axis=0))
    if px is not None:
        gx = tape.gbuf(px)
        gx.reshape(-1, gx.shape[-1])[u] += dp @ wx  # a view: gbuf arrays are contiguous


BACKWARD["lstm_seq"] = _bw_rnn_seq


def birnn_seq(cell_f, cell_r, x, lengths, tape=None, ids=None):
    """(B, 2H) final states of a forward and a reverse run over each row;
    x and ids as for rnn_seq, in their batched form."""
    x = wrap(tape, x)
    batch = _batch(x.v, ids, lengths, cell_f)  # one np.unique for both directions
    fwd, rev = _run(cell_f, x, batch, False, tape), _run(cell_r, x, batch, True, tape)
    last = take(tape, fwd, (np.arange(len(batch.lengths)), batch.lengths - 1))
    first = take(tape, rev, (slice(None), 0))
    return concat(tape, [last, first])


def birnn_ctx(cell_f, cell_r, x, tape=None):
    """(T, 2H) per-position encodings v_1..v_T of a (T, D) sequence.

    v_i concatenates the forward state after consuming x_1..x_i with the
    reverse state after consuming x_T..x_i; both halves include position i.
    """
    x = wrap(tape, x)
    batch = _batch(x.v, None, None, cell_f)
    return concat(tape, [_run(cell_f, x, batch, False, tape), _run(cell_r, x, batch, True, tape)])
