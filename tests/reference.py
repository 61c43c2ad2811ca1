"""Plain-numpy per-step LSTM and Elman references, independent of the fused nodes."""

import numpy as np


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


def reference_rnn_step(cell, x, h):
    return np.tanh(cell.W_x.v @ x + cell.W_h.v @ h + cell.b.v)


def reference_states(cell, xs):
    """Hidden states after each step of consuming xs in order, from zero."""
    h = np.zeros(cell.hidden_dim)
    c = np.zeros(cell.hidden_dim)
    out = []
    for x in xs:
        if cell.kind == "lstm":
            h, c = reference_lstm_step(cell, x, h, c)
        else:
            h = reference_rnn_step(cell, x, h)
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
        if cell.kind == "lstm":
            i, f, g, o = _sig(a[:hd]), _sig(a[hd : 2 * hd]), np.tanh(a[2 * hd : 3 * hd]), _sig(a[3 * hd :])
            c2 = f * c + i * g
            steps.append((x, h, c, i, f, g, o, np.tanh(c2)))
            h, c = o * np.tanh(c2), c2
        else:
            h2 = np.tanh(a)
            steps.append((x, h, h2))
            h = h2
    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(cell.b.v)
    dxs = [None] * len(xs)
    dh_next = np.zeros(hd)
    dc_next = np.zeros(hd)
    for t in range(len(xs) - 1, -1, -1):
        dh = dhs[t] + dh_next
        if cell.kind == "lstm":
            x, h_prev, c_prev, i, f, g, o, tc = steps[t]
            dc = dh * o * (1.0 - tc * tc) + dc_next
            da = np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ])
            dc_next = dc * f
        else:
            x, h_prev, h2 = steps[t]
            da = dh * (1.0 - h2 * h2)
        dwx += np.outer(da, x)
        dwh += np.outer(da, h_prev)
        db += da
        dxs[t] = wx.T @ da
        dh_next = wh.T @ da
    return dwx, dwh, db, dxs
