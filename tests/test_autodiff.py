"""Tensor/tape engine: forward values, reverse-mode gradients, SGD, RNG."""

import math

import numpy as np
import pytest

from seqtag.autodiff import (
    BACKWARD,
    Parameter,
    Rng,
    SparseRows,
    Tape,
    Tensor,
    add,
    affine,
    concat,
    gaussian_noise,
    glorot,
    gradient_check,
    lookup_row,
    sgd_step,
    softmax_xent,
    take,
)
from seqtag.recurrent import LstmCell, rnn_seq


class TestPrimitiveForward:
    def test_softmax_xent_uniform(self):
        # -log(1/4) = ln 4
        out = softmax_xent(None, np.zeros(4), 2)
        assert out.v == pytest.approx(math.log(4.0), abs=1e-12)

    def test_concat(self):
        out = concat(None, [np.array([1.0, 2.0]), np.array([3.0])])
        np.testing.assert_array_equal(out.v, [1.0, 2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            add(None, np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            affine(None, np.zeros((2, 3)), np.zeros(2), np.zeros(2))

    def test_gold_index_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_xent(None, np.zeros(3), 3)

    def test_lookup_row(self):
        table = Parameter("t", np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(lookup_row(None, table, 1).v, [2.0, 3.0])
        with pytest.raises(IndexError):
            lookup_row(None, table, 3)

    def test_gaussian_noise_training_only_shift(self):
        x = np.ones(5)
        out = gaussian_noise(None, x, 0.5, Rng(7))
        assert out.v.shape == (5,)
        assert not np.allclose(out.v, x)  # sigma > 0 perturbs
        out0 = gaussian_noise(None, x, 0.0, Rng(7))
        np.testing.assert_array_equal(out0.v, x)


class TestBackward:
    def test_square_gradient(self):
        # loss = x*x with x=[[3]], as W x with W and x the same leaf:
        # both paths reach x, so dloss/dx = 3 + 3 = 6
        tape = Tape()
        x = Parameter("x", np.array([[3.0]]))
        xt = tape.leaf(x)
        loss = affine(tape, xt, take(tape, xt, 0), np.zeros(1))
        assert float(loss.v[0]) == 9.0
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x), [[6.0]])

    def test_xent_gradient_is_softmax_minus_onehot(self):
        tape = Tape()
        z = Parameter("z", np.zeros(2))
        loss = softmax_xent(tape, tape.leaf(z), 0)
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(z), [-0.5, 0.5])

    def test_backward_requires_scalar(self):
        tape = Tape()
        z = Parameter("z", np.zeros(3))
        out = add(tape, tape.leaf(z), tape.leaf(z))
        with pytest.raises(ValueError):
            tape.backward(out)

    def test_backward_requires_taped_loss(self):
        tape = Tape()
        with pytest.raises(ValueError):
            tape.backward(Tensor(np.asarray(1.0)))

    def test_lookup_gradient_is_sparse_rows(self):
        tape = Tape()
        table = Parameter("emb", np.zeros((4, 3)))
        r1 = lookup_row(tape, table, 1)
        r1b = lookup_row(tape, table, 1)
        r2 = lookup_row(tape, table, 2)
        v = concat(tape, [r1, r1b, r2])
        loss = softmax_xent(tape, v, 0)
        tape.backward(loss)
        g = tape.grad(table)
        assert isinstance(g, SparseRows)
        assert set(g.rows) == {1, 2}
        dense = g.to_dense()
        assert dense.shape == (4, 3)
        assert np.all(dense[0] == 0) and np.all(dense[3] == 0)

    def test_lookup_of_an_id_list_accumulates_repeats(self):
        tape = Tape()
        table = Parameter("emb", np.zeros((4, 2)))
        rows = lookup_row(tape, table, [2, 0, 2])
        assert rows.v.shape == (3, 2)
        loss = softmax_xent(tape, rows, [0, 1, 0])
        tape.backward(loss)
        g = tape.grad(table)
        assert set(g.rows) == {0, 2}
        np.testing.assert_allclose(g.to_dense()[2], [-1.0, 1.0])
        np.testing.assert_allclose(g.to_dense()[0], [0.5, -0.5])

    def test_tape_isolation_untaped_matches_taped(self):
        # identical values with and without recording, noise disabled
        rng = Rng(3)
        w = Parameter("w", glorot(rng, 4, 3))
        b = Parameter("b", rng.normal(4, 0.1))
        x = np.array([0.3, -0.2, 1.1])

        def forward(tape):
            wt = tape.leaf(w) if tape else w
            bt = tape.leaf(b) if tape else b
            h = affine(tape, wt, x, bt)
            return softmax_xent(tape, affine(tape, wt, take(tape, h, slice(0, 3)), bt), 1)

        taped = forward(Tape())
        plain = forward(None)
        assert taped.v == plain.v


class TestSgd:
    def test_basic_update(self):
        p = Parameter("p", np.array([1.0]))
        sgd_step([p], {"p": np.array([0.5])}, 0.1)
        np.testing.assert_allclose(p.v, [0.95])

    def test_zero_gradient_is_identity(self):
        p = Parameter("p", np.array([2.5, -1.0]))
        sgd_step([p], {"p": np.zeros(2)}, 0.1)
        np.testing.assert_array_equal(p.v, [2.5, -1.0])

    def test_sparse_update_touches_only_rows(self):
        p = Parameter("emb", np.ones((3, 2)))
        g = SparseRows((3, 2))
        g.add(1, np.array([1.0, 2.0]))
        sgd_step([p], {"emb": g}, 0.5)
        np.testing.assert_allclose(p.v[0], [1.0, 1.0])
        np.testing.assert_allclose(p.v[1], [0.5, 0.0])

    def test_missing_gradient_raises(self):
        p = Parameter("p", np.ones(2))
        with pytest.raises(ValueError):
            sgd_step([p], {}, 0.1)

    def test_clears_gradients(self):
        p = Parameter("p", np.ones(1))
        grads = {"p": np.ones(1)}
        sgd_step([p], grads, 0.1)
        assert grads == {}


class TestGradientCheck:
    def test_affine_tanh_layer(self):
        # one LSTM step from the zero state is o * tanh(i * g), with every
        # gate an affine map of x followed by a logistic or tanh squashing
        rng = Rng(11)
        cell = LstmCell("w", 4, 3, rng)
        x = rng.normal(4)

        def loss_fn(tape):
            return softmax_xent(tape, rnn_seq(cell, x[None], tape=tape), [2])

        assert gradient_check(loss_fn, [cell.W_x, cell.b], h=1e-5) < 1e-4

    def test_linear_function_is_near_exact(self):
        # central differences are exact for linear maps up to rounding
        w = Parameter("w", np.array([[0.5, -1.5]]))

        def loss_fn(tape):
            wt = tape.leaf(w) if tape else w
            return affine(tape, wt, np.array([2.0, 3.0]), np.zeros(1))

        assert gradient_check(loss_fn, [w], h=1e-5) < 1e-10

    def test_composite_graph(self):
        # lookup + concat + add + noise + affine + LSTM, against central differences
        rng = Rng(23)
        emb = Parameter("emb", glorot(rng, 5, 3))
        w = Parameter("w", glorot(rng, 4, 6))
        b = Parameter("b", rng.normal(4, 0.1))
        cell = LstmCell("c", 4, 3, rng)

        def loss_fn(tape):
            e = emb if tape is None else tape.leaf(emb)
            wt = w if tape is None else tape.leaf(w)
            bt = b if tape is None else tape.leaf(b)
            r = lookup_row(tape, e, [0, 3])
            both = concat(tape, [r, add(tape, r, r)])
            x = gaussian_noise(tape, both, 0.1, Rng(5))  # a fresh stream: the same noise every call
            h = rnn_seq(cell, affine(tape, wt, x, bt), tape=tape)
            return softmax_xent(tape, h, [1, 2])

        assert gradient_check(loss_fn, [emb, w, b] + cell.parameters(), h=1e-5) < 1e-4


def _one_rule_losses():
    """kind -> (loss_fn, params): a scalar loss whose gradient reaches every
    listed parameter through a node of that kind."""
    rng = Rng(41)
    a = Parameter("a", rng.normal((2, 3)))
    b = Parameter("b", rng.normal((2, 3)))
    c = Parameter("c", rng.normal((2, 5)))
    w = Parameter("w", glorot(rng, 4, 3))
    bias = Parameter("bias", rng.normal(4, 0.1))
    emb = Parameter("emb", glorot(rng, 5, 3))
    batch = Parameter("batch", rng.normal((6, 3)).reshape(2, 3, 3))  # row 1 has one step; the rest is padding
    lstm = LstmCell("lstm", 3, 2, rng)
    gold = [2, 0]

    def lstm_loss(tape):
        states = rnn_seq(lstm, batch, [3, 1], False, tape)
        return softmax_xent(tape, take(tape, states, (np.arange(2), np.array([2, 0]))), [1, 0])

    return {
        "add": (lambda tape: softmax_xent(tape, add(tape, a, b), gold), [a, b]),
        "affine": (lambda tape: softmax_xent(tape, affine(tape, w, a, bias), gold), [w, a, bias]),
        "concat": (lambda tape: softmax_xent(tape, concat(tape, [c, a]), [6, 1]), [c, a]),
        "take": (lambda tape: softmax_xent(tape, take(tape, a, [1, 0, 1]), [0, 2, 1]), [a]),
        "lookup": (lambda tape: softmax_xent(tape, lookup_row(tape, emb, [4, 1, 4]), [0, 1, 2]), [emb]),
        "xent": (lambda tape: softmax_xent(tape, a, gold), [a]),
        # a fresh stream per call draws the same noise every time
        "noise": (lambda tape: softmax_xent(tape, gaussian_noise(tape, a, 0.3, Rng(7)), gold), [a]),
        "lstm_seq": (lstm_loss, lstm.parameters() + [batch]),
    }


_RULE_LOSSES = _one_rule_losses()


@pytest.mark.parametrize("kind", sorted(_RULE_LOSSES))
def test_every_backward_rule_has_a_gradient_check(kind):
    assert set(_RULE_LOSSES) == set(BACKWARD)
    loss_fn, params = _RULE_LOSSES[kind]
    tape = Tape()
    loss_fn(tape)
    assert kind in tape.kinds
    assert gradient_check(loss_fn, params, h=1e-5) < 1e-6


class TestRng:
    """The documented splitmix64 / Box-Muller stream."""

    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.u64() for _ in range(20)] == [b.u64() for _ in range(20)]

    def test_scalar_and_array_paths_agree(self):
        a, b = Rng(7), Rng(7)
        scalars = [a.u64() for _ in range(33)]
        array = b.u64_array(33)
        assert scalars == [int(x) for x in array]

    def test_uniform_range(self):
        rng = Rng(1)
        us = rng.uniform_array(10000)
        assert np.all(us >= 0.0) and np.all(us < 1.0)

    def test_below_is_unbiased_range(self):
        rng = Rng(5)
        draws = [rng.below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_box_muller_moments(self):
        z = Rng(9).normal(40000)
        assert abs(float(z.mean())) < 0.02
        assert abs(float(z.std()) - 1.0) < 0.02

    def test_child_streams_are_stable_and_distinct(self):
        base = Rng(123)
        base.u64()  # consuming the parent must not move children
        c0 = base.child(0)
        assert c0.u64() == Rng(123).child(0).u64()
        assert Rng(123).child(0).u64() != Rng(123).child(1).u64()

    def test_shuffle_is_deterministic_permutation(self):
        xs = list(range(10))
        Rng(4).shuffle(xs)
        ys = list(range(10))
        Rng(4).shuffle(ys)
        assert xs == ys and sorted(xs) == list(range(10))

    def test_glorot_bounds(self):
        m = glorot(Rng(2), 30, 20)
        limit = math.sqrt(6.0 / 50.0)
        assert m.shape == (30, 20)
        assert np.all(np.abs(m) <= limit)
