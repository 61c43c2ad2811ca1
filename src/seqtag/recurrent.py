"""LSTM cells run over whole sequences: a projection and a recurrence node.

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
row's length is padding and never enters a state.  The input is rows of an
(N, D) matrix picked by integer ids: step p of row b reads row ids[b, p].
A subword encoder passes the table rows of a sentence's distinct symbols
and each symbol position's index among them; the context bi-LSTM passes
the sentence's token matrix with ids 0..T-1.  Following Appleyard et al.
2016 (arXiv:1604.01946), the input projection is one GEMM outside the
recurrence, and the recurrence is one tape node:

* Projection.  P = x W_x^T + b is an `affine` node over the N rows, so a
  sentence's char runs project its few distinct symbols, not every
  character position; that node owns the gradients of W_x, b and x.
* Packing.  Rows are sorted by length, longest first, and the valid
  positions are gathered step-major: step t covers the n_t rows still
  running, which are a prefix of the sorted rows.  A finished row drops out
  of the prefix and so keeps its final state.
* Reverse direction.  Step t of row b reads position lengths[b] - 1 - t:
  each row's own prefix is reversed, so padding never comes first.
* Forward.  Each packed step takes its row of P.  The recurrence is a loop
  over T steps, each adding h W_h^T to an (n_t, 4H) block of gate rows.
  The state after step t is written back to the position that step read,
  so output row b, position p is the state after consuming x_0..x_p
  (forward) or x_{len-1}..x_p (reverse).
* Backward.  The same loop runs in reverse and fills the packed gate
  gradient dA.  Then dW_h = dA^T H_prev, and dP, which sums dA over the
  positions that read each row, is one GEMM with an (N x packed) one-hot
  matrix.

The `lstm_seq` node takes the W_h leaf and P as parents, so tape consumers
see which layer owns it.  Gradients are checked against finite differences
and against a per-step numpy reference in the test suite.
"""

import numpy as np

from .autodiff import BACKWARD, Parameter, Tensor, affine, concat, glorot, take, wrap, zeros


class LstmCell:
    """Stacked [i, f, g, o] gate weights of an LSTM, each gate's block
    initialised on its own; without an rng every parameter is a read-only
    zero stand-in (see glorot)."""

    def __init__(self, name, input_dim, hidden_dim, rng=None):
        self.name = name
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h, d = hidden_dim, input_dim
        self.W_x = Parameter(f"{name}.W_x", _gates(rng, h, d))
        self.W_h = Parameter(f"{name}.W_h", _gates(rng, h, h))
        self.b = Parameter(f"{name}.b", zeros(rng, 4 * h))

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
    da = q  # each step reads q[rows] only to fill da[rows], so dA overwrites q
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


def _grid(x, ids, lengths, cell):
    """ids as a (B, T) grid and lengths as (B,), checked against x's rows."""
    if x.ndim != 2 or x.shape[1] != cell.input_dim or ids.ndim not in (1, 2) or ids.dtype.kind not in "iu":
        raise ValueError(f"rnn_seq: rows of shape {x.shape} with ids of shape {ids.shape}, "
                         f"expected (N, {cell.input_dim}) with integer (T,) or (B, T) ids")
    if ids.size and not (0 <= ids.min() and ids.max() < x.shape[0]):
        raise IndexError(f"rnn_seq: ids outside {x.shape[0]} rows")
    grid = ids[None] if ids.ndim == 1 else ids
    b_rows, steps = grid.shape
    lengths = np.full(b_rows, steps) if lengths is None else np.asarray(lengths, dtype=np.intp)
    if b_rows == 0 or steps == 0 or lengths.shape != (b_rows,):
        raise ValueError(f"rnn_seq: need one length per row of a non-empty batch, got {lengths}")
    if lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"rnn_seq: lengths must lie in 1..{steps}, got {lengths.tolist()}")
    return grid, lengths


def rnn_seq(cell, x, ids, lengths=None, reverse=False, tape=None):
    """States of `cell` run over every row of a padded batch.

    Step p of row b reads row ids[b, p] of the (N, D) matrix x; ids is (B,
    T), with `lengths` giving each row's steps (1 <= length <= T), or (T,)
    for one sequence of T steps.  Returns the states at the positions they
    were produced, (B, T, H) or (T, H); padded positions hold zeros.  With
    `reverse`, each row is consumed from its last valid position back to
    its first.  The tape gets an affine node and an lstm_seq node.
    """
    x = wrap(tape, x)
    ids = np.asarray(ids)
    grid, lengths = _grid(x.v, ids, lengths, cell)
    rows, pos, counts = _packing(lengths, grid.shape[1], reverse)
    inv = grid[rows, pos]
    p = affine(tape, cell.W_x, x, cell.b)
    h_all, cache = _lstm_forward(p.v[inv], cell.W_h.v, counts, cell.hidden_dim)
    out = np.zeros(grid.shape + (cell.hidden_dim,))
    out[rows, pos] = h_all
    if ids.ndim == 1:
        out = out[0]
    if tape is None:
        return Tensor(out)
    # nothing reads P's values after the gather, only its shape: a zero-strided stand-in owns no memory
    tape.values[p.node] = np.broadcast_to(0.0, p.v.shape)
    aux = (cell.W_h.v, inv, rows, pos, counts, h_all, cache)
    return tape.record("lstm_seq", (tape.leaf(cell.W_h).node, p.node), out, aux)


def _bw_lstm_seq(tape, idx, g):
    ph, pp = tape.parents[idx]
    wh, inv, rows, pos, counts, h_all, cache = tape.aux[idx]
    g3 = g if g.ndim == 3 else g[None]
    da = _lstm_backward(g3[rows, pos], wh, counts, wh.shape[1], cache)
    tape.acc_matmul(ph, da.T, _previous(h_all, counts))
    # row k of P sums the entries that read it: a one-hot product adds only zeros besides
    tape.acc_matmul(pp, (np.arange(len(tape.values[pp]))[:, None] == inv).astype(np.float64), da)


BACKWARD["lstm_seq"] = _bw_lstm_seq


def birnn_seq(cell_f, cell_r, x, ids, lengths, tape=None):
    """(B, 2H) final states of a forward and a reverse run over each row;
    x, ids (B, T) and lengths as for rnn_seq."""
    fwd = rnn_seq(cell_f, x, ids, lengths, False, tape)
    rev = rnn_seq(cell_r, x, ids, lengths, True, tape)
    lengths = np.asarray(lengths)
    last = take(tape, fwd, (np.arange(len(lengths)), lengths - 1))
    first = take(tape, rev, (slice(None), 0))
    return concat(tape, [last, first])


def birnn_ctx(cell_f, cell_r, x, tape=None):
    """(T, 2H) per-position encodings v_1..v_T of a (T, D) sequence.

    v_i concatenates the forward state after consuming x_1..x_i with the
    reverse state after consuming x_T..x_i; both halves include position i.
    """
    x = wrap(tape, x)
    ids = np.arange(len(x.v))
    return concat(tape, [rnn_seq(cell_f, x, ids, tape=tape), rnn_seq(cell_r, x, ids, reverse=True, tape=tape)])
