"""Fused sequence nodes and bidirectional compositions against per-step references."""

import numpy as np
import pytest

from seqtag.autodiff import (
    BACKWARD,
    Parameter,
    Rng,
    Tape,
    add,
    affine,
    glorot,
    gradient_check,
    softmax_xent,
    take,
)
from seqtag.recurrent import LstmCell, birnn_ctx, birnn_seq, rnn_seq

from reference import gate, reference_grads, reference_lstm_step, reference_states


def _seeded_lstm(name="lstm", input_dim=3, hidden_dim=4, seed=17):
    return LstmCell(name, input_dim, hidden_dim, Rng(seed))


def _ragged_batch(rng, lengths, dim):
    """(B, T, dim) inputs; the padding is NaN, which must never be read."""
    x = np.full((len(lengths), max(lengths), dim), np.nan)
    for b, n in enumerate(lengths):
        x[b, :n] = rng.normal(n * dim).reshape(n, dim)
    return x


class TestCellStep:
    def test_zero_lstm_params_give_zero_hidden(self):
        # o = 0.5 and tanh(c') = 0, so h' = 0 regardless of input
        cell = LstmCell("z", 3, 4)
        out = rnn_seq(cell, np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_array_equal(out.v, np.zeros((1, 4)))

    def test_lstm_matches_reference(self):
        # the second step starts from the nonzero state the first one left
        cell = _seeded_lstm()
        xs = Rng(99).normal(6).reshape(2, 3)
        h, c = reference_lstm_step(cell, xs[0], np.zeros(4), np.zeros(4))
        want_h, _ = reference_lstm_step(cell, xs[1], h, c)
        got = rnn_seq(cell, xs)
        np.testing.assert_allclose(got.v[0], h, rtol=1e-12)
        np.testing.assert_allclose(got.v[1], want_h, rtol=1e-12)

    def test_dimension_mismatch(self):
        cell = _seeded_lstm()
        with pytest.raises(ValueError):
            rnn_seq(cell, np.zeros((2, 5)))

    def test_gate_views_have_spec_shapes(self):
        # gates are stacked [i, f, g, o]; each block has the spec's shape
        cell = _seeded_lstm(input_dim=3, hidden_dim=4)
        assert cell.W_x.v.shape == (16, 3) and cell.W_h.v.shape == (16, 4)
        assert cell.b.v.shape == (16,)
        assert gate(cell.W_x.v, 0, 4).shape == (4, 3) and gate(cell.W_h.v, 0, 4).shape == (4, 4)
        assert gate(cell.b.v, 1, 4).shape == (4,)


class TestRun:
    def test_length_one_forward_equals_reverse(self):
        cell = _seeded_lstm()
        xs = Rng(1).normal(3).reshape(1, 3)
        np.testing.assert_array_equal(rnn_seq(cell, xs).v, rnn_seq(cell, xs, reverse=True).v)

    def test_reverse_equals_forward_of_reversed(self):
        cell = _seeded_lstm()
        xs = Rng(2).normal(15).reshape(5, 3)
        rev = rnn_seq(cell, xs, reverse=True).v
        fwd = rnn_seq(cell, xs[::-1]).v
        np.testing.assert_array_equal(rev, fwd[::-1])

    def test_three_step_reference(self):
        cell = _seeded_lstm()
        xs = Rng(3).normal(9).reshape(3, 3)
        states = rnn_seq(cell, xs).v
        for got, want in zip(states, reference_states(cell, xs)):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            rnn_seq(_seeded_lstm(), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            rnn_seq(_seeded_lstm(), np.zeros((2, 3, 3)), lengths=[2, 0])

    def test_lengths_outside_the_batch_rejected(self):
        with pytest.raises(ValueError):
            rnn_seq(_seeded_lstm(), np.zeros((2, 3, 3)), lengths=[2, 4])
        with pytest.raises(ValueError):
            rnn_seq(_seeded_lstm(), np.zeros((2, 3, 3)), lengths=[2])

    @pytest.mark.parametrize("kind", ["lstm"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_ragged_rows_match_the_reference_and_ignore_padding(self, kind, reverse):
        cell = _seeded_lstm()
        lengths = [3, 1, 5, 3]
        x = _ragged_batch(Rng(4), lengths, 3)
        out = rnn_seq(cell, x, lengths, reverse).v
        for b, n in enumerate(lengths):
            xs = x[b, :n][::-1] if reverse else x[b, :n]
            want = reference_states(cell, xs)
            got = out[b, :n][::-1] if reverse else out[b, :n]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(out[b, n:], 0.0)


class TestFusedGradientsAgainstReference:
    @pytest.mark.parametrize("kind", ["lstm"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_weights_and_inputs(self, kind, reverse):
        cell = _seeded_lstm(input_dim=3, hidden_dim=4)
        lengths = [1, 3, 5]
        rng = Rng(61)
        x = Parameter("x", np.nan_to_num(_ragged_batch(rng, lengths, 3)))
        g = rng.normal(3 * 5 * 4).reshape(3, 5, 4)  # dL/d(out), padding included
        tape = Tape()
        out = rnn_seq(cell, x, lengths, reverse, tape)
        tape.grads = [None] * len(tape)
        tape.grads[out.node] = g
        BACKWARD[tape.kinds[out.node]](tape, out.node, g)

        want = [np.zeros_like(p.v) for p in cell.parameters()]
        want_x = np.zeros_like(x.v)
        for b, n in enumerate(lengths):
            order = np.arange(n)[::-1] if reverse else np.arange(n)
            dwx, dwh, db, dxs = reference_grads(cell, x.v[b, order], g[b, order])
            for acc, part in zip(want, (dwx, dwh, db)):
                acc += part
            want_x[b, order] = dxs
        for p, w in zip(cell.parameters(), want):
            np.testing.assert_allclose(tape.grad(p), w, rtol=0, atol=1e-10)
        np.testing.assert_allclose(tape.grad(x), want_x, rtol=0, atol=1e-10)


class TestBiRnn:
    def test_seq_single_element_same_cell_duplicates_halves(self):
        cell = _seeded_lstm()
        x = Rng(4).normal(3).reshape(1, 1, 3)
        v = birnn_seq(cell, cell, x, [1])
        np.testing.assert_array_equal(v.v[0, :4], v.v[0, 4:])

    def test_seq_output_dimension(self):
        cf, cr = _seeded_lstm(seed=7), _seeded_lstm(seed=8)
        x = Rng(9).normal(3 * 5 * 3).reshape(3, 5, 3)
        assert birnn_seq(cf, cr, x, [1, 2, 5]).v.shape == (3, 8)

    def test_seq_matches_reference(self):
        cf, cr = _seeded_lstm(seed=7), _seeded_lstm(seed=8)
        lengths = [4, 2]
        x = _ragged_batch(Rng(10), lengths, 3)
        v = birnn_seq(cf, cr, x, lengths).v
        for b, n in enumerate(lengths):
            h = reference_states(cf, x[b, :n])[-1]
            hr = reference_states(cr, x[b, :n][::-1])[-1]
            np.testing.assert_allclose(v[b], np.concatenate([h, hr]), rtol=1e-12)

    def test_ctx_single_position_equals_seq(self):
        cf, cr = _seeded_lstm(seed=7), _seeded_lstm(seed=8)
        xs = Rng(11).normal(3).reshape(1, 3)
        np.testing.assert_array_equal(birnn_ctx(cf, cr, xs).v, birnn_seq(cf, cr, xs[None], [1]).v)

    def test_ctx_last_forward_half_matches_seq(self):
        cf, cr = _seeded_lstm(seed=7), _seeded_lstm(seed=8)
        xs = Rng(12).normal(15).reshape(5, 3)
        vs = birnn_ctx(cf, cr, xs).v
        seq = birnn_seq(cf, cr, xs[None], [5]).v
        np.testing.assert_array_equal(vs[-1, :4], seq[0, :4])
        np.testing.assert_array_equal(vs[0, 4:], seq[0, 4:])

    def test_ctx_per_position_reference(self):
        cf, cr = _seeded_lstm(seed=7), _seeded_lstm(seed=8)
        xs = Rng(13).normal(15).reshape(5, 3)
        vs = birnn_ctx(cf, cr, xs).v
        fwd = reference_states(cf, xs)  # prefix states
        rev = reference_states(cr, xs[::-1])[::-1]  # suffix states, by start position
        for i in range(5):
            np.testing.assert_allclose(vs[i], np.concatenate([fwd[i], rev[i]]), rtol=1e-12)

    def test_reversal_duality(self):
        # reversing xs and swapping cells swaps the halves at mirrored positions
        cf, cr = _seeded_lstm(seed=7), _seeded_lstm(seed=8)
        xs = Rng(14).normal(18).reshape(6, 3)
        vs = birnn_ctx(cf, cr, xs).v
        ws = birnn_ctx(cr, cf, xs[::-1]).v
        for i in range(6):
            mirrored = ws[6 - 1 - i]
            np.testing.assert_allclose(vs[i, :4], mirrored[4:], rtol=1e-12)
            np.testing.assert_allclose(vs[i, 4:], mirrored[:4], rtol=1e-12)


def _head_loss(tape, states, head_w, head_b, gold):
    return softmax_xent(tape, affine(tape, head_w, states, head_b), gold)


class TestGradients:
    def test_six_step_lstm_gradient_check(self):
        cell = _seeded_lstm(input_dim=2, hidden_dim=3, seed=21)
        rng = Rng(22)
        xs = rng.normal(12).reshape(6, 2)
        head_w = Parameter("head.W", glorot(rng, 2, 3))
        head_b = Parameter("head.b", np.zeros(2))

        def loss_fn(tape):
            last = take(tape, rnn_seq(cell, xs, tape=tape), -1)
            return _head_loss(tape, last, head_w, head_b, 1)

        params = cell.parameters() + [head_w, head_b]
        assert gradient_check(loss_fn, params, h=1e-5) < 1e-4

    def test_birnn_ctx_gradient_check(self):
        cf = _seeded_lstm(input_dim=2, hidden_dim=2, seed=41)
        crv = _seeded_lstm(input_dim=2, hidden_dim=2, seed=42)
        rng = Rng(43)
        xs = Parameter("xs", rng.normal(6).reshape(3, 2))
        head_w = Parameter("head.W", glorot(rng, 3, 4))
        head_b = Parameter("head.b", np.zeros(3))

        def loss_fn(tape):
            return _head_loss(tape, birnn_ctx(cf, crv, xs, tape), head_w, head_b, [0, 1, 2])

        params = cf.parameters() + crv.parameters() + [head_w, head_b, xs]
        assert gradient_check(loss_fn, params, h=1e-5) < 1e-4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_ragged_lstm_gradient_check(self, reverse):
        # lengths 1, 3 and 5 in one batch; every valid state feeds the loss
        cell = _seeded_lstm(input_dim=2, hidden_dim=3, seed=51)
        lengths = [1, 3, 5]
        rng = Rng(52)
        x = Parameter("x", np.nan_to_num(_ragged_batch(rng, lengths, 2)))
        head_w = Parameter("head.W", glorot(rng, 3, 3))
        head_b = Parameter("head.b", rng.normal(3, 0.1))
        rows = np.repeat(np.arange(3), lengths)
        cols = np.concatenate([np.arange(n) for n in lengths])
        gold = [k % 3 for k in range(len(rows))]

        def loss_fn(tape):
            states = take(tape, rnn_seq(cell, x, lengths, reverse, tape), (rows, cols))
            return _head_loss(tape, states, head_w, head_b, gold)

        params = cell.parameters() + [head_w, head_b, x]
        assert gradient_check(loss_fn, params, h=1e-5) < 1e-4

    def test_ragged_birnn_seq_gradient_check(self):
        cf = _seeded_lstm("f", input_dim=2, hidden_dim=3, seed=71)
        cr = _seeded_lstm("r", input_dim=2, hidden_dim=3, seed=72)
        lengths = [2, 4, 1]
        rng = Rng(73)
        x = Parameter("x", np.nan_to_num(_ragged_batch(rng, lengths, 2)))
        head_w = Parameter("head.W", glorot(rng, 2, 6))
        head_b = Parameter("head.b", np.zeros(2))

        def loss_fn(tape):
            return _head_loss(tape, birnn_seq(cf, cr, x, lengths, tape), head_w, head_b, [0, 1, 1])

        params = cf.parameters() + cr.parameters() + [head_w, head_b, x]
        assert gradient_check(loss_fn, params, h=1e-5) < 1e-4

    def test_taped_and_untaped_values_agree(self):
        cell = _seeded_lstm()
        lengths = [4, 2]
        x = _ragged_batch(Rng(51), lengths, 3)
        plain = birnn_seq(cell, cell, x, lengths)
        taped = birnn_seq(cell, cell, x, lengths, Tape())
        np.testing.assert_array_equal(plain.v, taped.v)

    def test_one_node_per_direction(self):
        cell = _seeded_lstm()
        tape = Tape()
        loss = softmax_xent(tape, birnn_ctx(cell, cell, Rng(5).normal(30).reshape(10, 3), tape), [0] * 10)
        loss = add(tape, loss, loss)
        assert tape.kinds.count("lstm_seq") == 2
        assert len(tape) == 3 + 2 + 3  # leaves, two runs, concat + xent + add
