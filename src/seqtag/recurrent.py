"""LSTM cells run over whole sequences as single tape nodes.

The LSTM is the standard input/forget/output-gate formulation without
peepholes:

    i = sig(W_xi x + W_hi h + b_i)      f = sig(W_xf x + W_hf h + b_f)
    o = sig(W_xo x + W_ho h + b_o)      g = tanh(W_xg x + W_hg h + b_g)
    c' = f * c + i * g                  h' = o * tanh(c')

Gate weights are stored stacked row-wise in [i, f, g, o] order inside one
(4H x D) input matrix, one (4H x H) recurrent matrix and one (4H,) bias.
Initial states are zero.

`rnn_seq` runs one cell in one direction over a padded (B, T, D) batch
whose row b holds a sequence of lengths[b] <= T steps; what lies beyond a
row's length is padding and never enters a state.  Following Appleyard et
al. 2016 (arXiv:1604.01946), the whole run is one tape node:

* Packing.  Rows are sorted by length, longest first, and the valid
  positions are gathered step-major: step t covers the n_t rows still
  running, which are a prefix of the sorted rows.  A finished row drops out
  of the prefix and so keeps its final state.
* Reverse direction.  Step t of row b reads position lengths[b] - 1 - t:
  each row's own prefix is reversed, so padding never comes first.
* Forward.  One GEMM X W_x^T + b projects every valid position; the
  recurrence is a loop over T steps, each adding h W_h^T to an (n_t, 4H)
  block of gate rows.  The state after step t is written back to the
  position that step read, so output row b, position p is the state after
  consuming x_0..x_p (forward) or x_{len-1}..x_p (reverse).
* Backward.  The same loop runs in reverse and fills the packed gate
  gradient dA; then dW_x = dA^T X, dW_h = dA^T H_prev, db = sum(dA) and
  dX = dA W_x are one GEMM or one sum each.

The node takes the cell's Parameter leaves as parents, so tape consumers
see which layer owns it.  Gradients are checked against finite differences
and against a per-step numpy reference in the test suite.
"""

import numpy as np

from .autodiff import BACKWARD, Parameter, Tensor, concat, glorot, take, wrap


class LstmCell:
    """Stacked [i, f, g, o] gate weights of an LSTM; zeros without an rng."""

    def __init__(self, name, input_dim, hidden_dim, rng=None):
        self.name = name
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h, d = hidden_dim, input_dim
        self.W_x = Parameter(f"{name}.W_x", np.vstack([glorot(rng, h, d) for _ in range(4)]))
        self.W_h = Parameter(f"{name}.W_h", np.vstack([glorot(rng, h, h) for _ in range(4)]))
        self.b = Parameter(f"{name}.b", np.zeros(4 * h))

    def parameters(self):
        return [self.W_x, self.W_h, self.b]


def _packing(lengths, steps, reverse):
    """Step-major (row, position) of every valid entry, and rows per step."""
    order = np.argsort(-lengths, kind="stable")
    ls = lengths[order]
    t, j = np.nonzero(np.arange(steps)[:, None] < ls[None, :])
    pos = ls[j] - 1 - t if reverse else t
    return order[j], pos, np.bincount(t)


def _lstm_forward(p, wh, counts, hdim):
    """Recurrence over packed input projections p (N, 4H); p is overwritten.

    One tanh call activates all four gates: sig(a) = tanh(a/2)/2 + 1/2 on
    [i, f, o], tanh(a) on g.
    """
    half, one, zero = np.full(hdim, 0.5), np.ones(hdim), np.zeros(hdim)
    scale = np.concatenate([half, half, one, half])
    shift = np.concatenate([half, half, zero, half])
    p *= scale  # exact: scaling by a power of two
    wh_t = (wh * scale[:, None]).T
    n_all = p.shape[0]
    gates = np.empty_like(p)  # activated [i, f, g, o]
    c_all = np.empty((n_all, hdim))
    tc_all = np.empty((n_all, hdim))
    h_all = np.empty((n_all, hdim))
    off = 0
    h = c = None
    for n in counts:
        rows = slice(off, off + n)
        act = gates[rows]
        np.tanh(p[rows] if h is None else p[rows] + h[:n] @ wh_t, out=act)
        act *= scale
        act += shift
        i, f, g, o = act[:, :hdim], act[:, hdim : 2 * hdim], act[:, 2 * hdim : 3 * hdim], act[:, 3 * hdim :]
        c = i * g if c is None else f * c[:n] + i * g
        tc = np.tanh(c, out=tc_all[rows])
        h = np.multiply(o, tc, out=h_all[rows])
        c_all[rows] = c
        off += n
    return h_all, (gates, c_all, tc_all)


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


def rnn_seq(cell, x, lengths=None, reverse=False, tape=None):
    """States of `cell` run over every row of a padded batch, as one tape node.

    x is (B, T, D) with `lengths` giving each row's steps (1 <= length <= T),
    or (T, D) for one sequence of T steps.  Returns the states at the
    positions they were produced, (B, T, H) or (T, H); padded positions hold
    zeros.  With `reverse`, each row is consumed from its last valid
    position back to its first.
    """
    x = wrap(tape, x)
    if x.v.ndim not in (2, 3):
        raise ValueError(f"rnn_seq: input of shape {x.v.shape}, expected (T, D) or (B, T, D)")
    xv = x.v if x.v.ndim == 3 else x.v[None]
    b_rows, steps, d = xv.shape
    if d != cell.input_dim:
        raise ValueError(f"rnn_seq: input dim {d}, expected {cell.input_dim}")
    lengths = np.full(b_rows, steps) if lengths is None else np.asarray(lengths, dtype=np.intp)
    if b_rows == 0 or steps == 0 or lengths.shape != (b_rows,):
        raise ValueError(f"rnn_seq: need one length per row of a non-empty batch, got {lengths}")
    if lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"rnn_seq: lengths must lie in 1..{steps}, got {lengths.tolist()}")
    hdim = cell.hidden_dim
    rows, pos, counts = _packing(lengths, steps, reverse)
    xs = xv[rows, pos]
    wx, wh = cell.W_x.v, cell.W_h.v
    h_all, cache = _lstm_forward(xs @ wx.T + cell.b.v, wh, counts, hdim)
    out = np.zeros((b_rows, steps, hdim))
    out[rows, pos] = h_all
    if x.v.ndim == 2:
        out = out[0]
    if tape is None:
        return Tensor(out)
    pw, ph, pb = (tape.leaf(p).node for p in cell.parameters())
    aux = (wx, wh, xs, rows, pos, counts, h_all, cache)
    return tape.record("lstm_seq", (pw, ph, pb, x.node), out, aux)


def _bw_rnn_seq(tape, idx, g):
    pw, ph, pb, px = tape.parents[idx]
    wx, wh, xs, rows, pos, counts, h_all, cache = tape.aux[idx]
    g3 = g if g.ndim == 3 else g[None]
    da = _lstm_backward(g3[rows, pos], wh, counts, wh.shape[1], cache)
    if pw is not None:
        tape.gbuf(pw)
        tape.grads[pw] += da.T @ xs
    if ph is not None:
        tape.gbuf(ph)
        tape.grads[ph] += da.T @ _previous(h_all, counts)
    tape.acc(pb, da.sum(axis=0))
    if px is not None:
        dx = np.zeros(g3.shape[:2] + (wx.shape[1],))
        dx[rows, pos] = da @ wx
        tape.acc(px, dx.reshape(tape.values[px].shape))


BACKWARD["lstm_seq"] = _bw_rnn_seq


def birnn_seq(cell_f, cell_r, x, lengths, tape=None):
    """(B, 2H) final states of a forward and a reverse run over each row."""
    lengths = np.asarray(lengths, dtype=np.intp)
    fwd = rnn_seq(cell_f, x, lengths, False, tape)
    rev = rnn_seq(cell_r, x, lengths, True, tape)
    last = take(tape, fwd, (np.arange(len(lengths)), lengths - 1))
    first = take(tape, rev, (slice(None), 0))
    return concat(tape, [last, first])


def birnn_ctx(cell_f, cell_r, x, tape=None):
    """(T, 2H) per-position encodings v_1..v_T of a (T, D) sequence.

    v_i concatenates the forward state after consuming x_1..x_i with the
    reverse state after consuming x_T..x_i; both halves include position i.
    """
    return concat(tape, [rnn_seq(cell_f, x, None, False, tape), rnn_seq(cell_r, x, None, True, tape)])
