"""Tensor/tape engine: forward values, reverse-mode gradients, SGD, RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sgd_step,
    softmax_xent,
    take,
)
from seqtag.recurrent import LstmCell, rnn_seq

from reference import collect, gradient_check, to_dense


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
        np.testing.assert_array_equal(take(None, table, 1).v, [2.0, 3.0])
        with pytest.raises(IndexError):
            take(None, table, 3)

    def test_gaussian_noise_training_only_shift(self):
        x = np.ones(5)
        out = gaussian_noise(None, x, 0.5, Rng(7))
        assert out.v.shape == (5,)
        assert not np.allclose(out.v, x)  # sigma > 0 perturbs
        out0 = gaussian_noise(None, x, 0.0, Rng(7))
        np.testing.assert_array_equal(out0.v, x)


class TestBackward:
    def test_square_gradient(self):
        # loss = x*x with x=[[3]], as x W^T with W and x the same leaf:
        # both dense reads reach x, so dloss/dx = 3 + 3 = 6
        grads = {}
        tape = Tape(collect(grads))
        x = Parameter("x", np.array([[3.0]]))
        xt = tape.leaf(x)
        loss = affine(tape, xt, xt, np.zeros(1))
        assert loss.v.item() == 9.0
        tape.backward(loss)
        np.testing.assert_allclose(grads[x], [[6.0]])

    def test_xent_gradient_is_softmax_minus_onehot(self):
        grads = {}
        tape = Tape(collect(grads))
        z = Parameter("z", np.zeros(2))
        loss = softmax_xent(tape, tape.leaf(z), 0)
        tape.backward(loss)
        np.testing.assert_allclose(grads[z], [-0.5, 0.5])

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
        grads = {}
        tape = Tape(collect(grads))
        table = Parameter("emb", np.zeros((4, 3)))
        r1 = take(tape, table, 1)
        r1b = take(tape, table, 1)
        r2 = take(tape, table, 2)
        v = concat(tape, [r1, r1b, r2])
        loss = softmax_xent(tape, v, 0)
        tape.backward(loss)
        g = grads[table]
        assert isinstance(g, SparseRows)
        assert g.summed()[0].tolist() == [1, 2]
        dense = to_dense(g)
        assert dense.shape == (4, 3)
        assert np.all(dense[0] == 0) and np.all(dense[3] == 0)

    def test_lookup_of_an_id_list_accumulates_repeats(self):
        grads = {}
        tape = Tape(collect(grads))
        table = Parameter("emb", np.zeros((4, 2)))
        rows = take(tape, table, [2, 0, 2])
        assert rows.v.shape == (3, 2)
        loss = softmax_xent(tape, rows, [0, 1, 0])
        tape.backward(loss)
        g = grads[table]
        assert g.summed()[0].tolist() == [0, 2]
        np.testing.assert_allclose(to_dense(g)[2], [-1.0, 1.0])
        np.testing.assert_allclose(to_dense(g)[0], [0.5, -0.5])

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


class TestTapeReset:
    @staticmethod
    def _loss(tape, w, b, x, gold):
        return softmax_xent(tape, affine(tape, w, x, b), gold)

    @staticmethod
    def _handed(kept):
        """A consumer that appends, per parameter, the buffer it is handed
        and a copy of what the buffer holds then."""
        return lambda param, grad: kept.setdefault(param, []).append((grad, grad.copy()))

    def _fresh(self, *args):
        grads = {}
        tape = Tape(collect(grads))
        tape.backward(self._loss(tape, *args))
        return grads

    def test_reused_tape_gives_a_fresh_tapes_gradients_in_its_old_buffers(self):
        rng = Rng(8)
        w, b = Parameter("w", glorot(rng, 3, 4)), Parameter("b", rng.normal(3, 0.1))
        xs = [rng.normal((2, 4)), rng.normal((5, 4))]
        kept = {}
        tape = Tape(self._handed(kept))
        tape.backward(self._loss(tape, w, b, xs[0], [0, 2]))
        tape.reset()
        assert len(tape) == 0 and tape.grads is None
        tape.backward(self._loss(tape, w, b, xs[1], [1, 1, 0, 2, 2]))
        fresh = self._fresh(w, b, xs[1], [1, 1, 0, 2, 2])
        (first, _), (second, got) = kept[w]
        assert second is first  # no new buffer, and nothing left of the first sentence
        np.testing.assert_array_equal(got, fresh[w])
        np.testing.assert_array_equal(kept[b][1][1], fresh[b])

    def test_interleaved_tapes_keep_their_own_gradients(self):
        rng = Rng(10)
        w, b = Parameter("w", glorot(rng, 3, 2)), Parameter("b", np.zeros(3))
        kept = [{}, {}]
        tapes = [Tape(self._handed(k)) for k in kept]
        for step in range(3):
            xs = [rng.normal((1 + k, 2)) for k in range(2)]
            for tape, x in zip(tapes, xs):
                tape.reset()
                tape.backward(self._loss(tape, w, b, x, [step] * len(x)))
            for k, x in zip(kept, xs):
                np.testing.assert_array_equal(k[w][-1][1], self._fresh(w, b, x, [step] * len(x))[w])
        assert kept[0][w][-1][0] is not kept[1][w][-1][0]


class TestSgd:
    def test_basic_update(self):
        p = Parameter("p", np.array([1.0]))
        sgd_step(p, np.array([0.5]), 0.1)
        np.testing.assert_allclose(p.v, [0.95])

    def test_zero_gradient_is_identity(self):
        p = Parameter("p", np.array([2.5, -1.0]))
        sgd_step(p, np.zeros(2), 0.1)
        np.testing.assert_array_equal(p.v, [2.5, -1.0])

    def test_sparse_update_touches_only_rows(self):
        p = Parameter("emb", np.ones((3, 2)))
        g = SparseRows((3, 2))
        g.pairs.append((np.array([1]), np.array([[1.0, 2.0]])))
        sgd_step(p, g, 0.5)
        np.testing.assert_allclose(p.v[0], [1.0, 1.0])
        np.testing.assert_allclose(p.v[1], [0.5, 0.0])

    def test_dense_update_equals_p_minus_lr_g(self):
        rng = Rng(9)
        p = Parameter("p", rng.normal((3, 4)))
        g = rng.normal((3, 4))
        want = p.v - 0.3 * g
        sgd_step(p, g.copy(), 0.3)
        np.testing.assert_array_equal(p.v, want)


# row ids that take must reject for a table of 6 rows
_BAD_ROW_IDS = st.one_of(
    st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(lambda ids: min(ids) < 0 or max(ids) > 5),
    st.lists(st.booleans(), min_size=1, max_size=3),
    st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
)


class TestTableTake:
    """Several takes of one parameter table on one tape: the SparseRows
    gradient against the dense scatter, and the row-id check."""

    @staticmethod
    def _gradient(table, gathers, dense):
        """The table's gradient of a sum of one cross-entropy per take.  With
        dense the takes read table + 0, which is not a parameter, so their
        gradient is the dense np.add.at scatter, handed on to the table."""
        grads = {}
        tape = Tape(collect(grads))
        src = add(tape, table, np.zeros(table.v.shape)) if dense else table
        loss = None
        for ids in gathers:
            part = softmax_xent(tape, take(tape, src, ids), [k % 3 for k in range(len(ids))])
            loss = part if loss is None else add(tape, loss, part)
        tape.backward(loss)
        return grads[table]

    @settings(max_examples=60, deadline=None)
    @given(
        gathers=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=1, max_size=4),
        seed=st.integers(0, 2**32),
        lr=st.floats(0.01, 1.0),
    )
    def test_summed_rows_are_the_dense_scatter_and_sgd_touches_only_them(self, gathers, seed, lr):
        table = Parameter("emb", Rng(seed).normal((8, 3)))  # rows 6 and 7 are never read
        sparse = self._gradient(table, gathers, dense=False)
        dense = self._gradient(table, gathers, dense=True)
        assert isinstance(sparse, SparseRows) and isinstance(dense, np.ndarray)
        ids, rows = sparse.summed()
        assert ids.tolist() == sorted({i for g in gathers for i in g})
        np.testing.assert_array_equal(rows, dense[ids])
        unread = np.setdiff1d(np.arange(8), ids)
        assert not dense[unread].any()
        before, want = table.v.copy(), table.v - lr * dense
        sgd_step(table, sparse, lr)
        np.testing.assert_array_equal(table.v, want)
        np.testing.assert_array_equal(table.v[unread], before[unread])

    @settings(max_examples=60, deadline=None)
    @given(ids=_BAD_ROW_IDS, how=st.sampled_from(["parameter", "taped parameter", "leaf"]))
    def test_negative_outside_bool_or_float_row_ids_raise(self, ids, how):
        table = Parameter("emb", np.zeros((6, 3)))
        tape = None if how == "parameter" else Tape()
        with pytest.raises(IndexError, match="^take: row ids"):
            take(tape, tape.leaf(table) if how == "leaf" else table, ids)


class TestTapeLifetime:
    """What a tape holds after backward, with and without a consumer."""

    @staticmethod
    def _model(rng):
        emb = Parameter("emb", glorot(rng, 5, 4))
        cell = LstmCell("c", 4, 3, rng)
        w, b = Parameter("w", glorot(rng, 2, 3)), Parameter("b", np.zeros(2))
        return [emb] + cell.parameters() + [w, b], cell

    @staticmethod
    def _loss(tape, params, cell, ids):
        emb, _, _, _, w, b = params
        x = gaussian_noise(tape, take(tape, emb, ids), 0.1, Rng(2))
        h = rnn_seq(cell, x, np.arange(len(ids)), tape=tape)
        return softmax_xent(tape, affine(tape, w, h, b), [k % 2 for k in range(len(ids))])

    def test_no_non_leaf_value_or_gradient_is_left(self):
        params, cell = self._model(Rng(4))
        for update in (None, lambda p, g: None):
            tape = Tape(update)
            tape.backward(self._loss(tape, params, cell, [3, 1, 3, 0]))
            inner = [i for i, kind in enumerate(tape.kinds) if kind != "leaf"]
            assert len(inner) >= 5
            assert all(tape.values[i] is None and tape.aux[i] is None and tape.grads[i] is None for i in inner)
            leaves = [i for i, kind in enumerate(tape.kinds) if kind == "leaf"]
            assert {id(tape.aux[i]) for i in leaves} == set(map(id, params))  # leaves keep their parameter
            assert all(tape.values[i] is tape.aux[i].v for i in leaves)

    def test_each_parameter_is_passed_once_with_the_plain_tapes_gradient(self):
        params, cell = self._model(Rng(5))
        plain = {}
        first = Tape(collect(plain))
        first.backward(self._loss(first, params, cell, [2, 4, 2]))
        seen = []

        def update(param, grad):
            want = plain[param]
            if isinstance(grad, SparseRows):
                grad, want = to_dense(grad), to_dense(want)
            np.testing.assert_array_equal(grad, want)
            seen.append(param.name)

        tape = Tape(update)
        tape.backward(self._loss(tape, params, cell, [2, 4, 2]))
        assert sorted(seen) == sorted(p.name for p in params)
        assert all(g is None for g in tape.grads)

    def test_a_tape_without_a_consumer_keeps_no_gradient(self):
        params, cell = self._model(Rng(6))
        tape = Tape()
        tape.backward(self._loss(tape, params, cell, [1, 0, 3]))
        assert "leaf" in tape.kinds and all(g is None for g in tape.grads)

    def test_parameters_of_one_shape_share_a_pooled_buffer(self):
        # b's gradient is handed over before a's is started, so both get one buffer
        a, b = Parameter("a", np.eye(3)), Parameter("b", 2.0 * np.eye(3))
        seen = {}
        tape = Tape(lambda param, grad: seen.setdefault(param.name, grad))
        tape.backward(softmax_xent(tape, affine(tape, b, affine(tape, a, np.ones(3), np.zeros(3)), np.zeros(3)), 0))
        assert seen["a"] is seen["b"]


class TestGradientCheck:
    def test_affine_tanh_layer(self):
        # one LSTM step from the zero state is o * tanh(i * g), with every
        # gate an affine map of x followed by a logistic or tanh squashing
        rng = Rng(11)
        cell = LstmCell("w", 4, 3, rng)
        x = rng.normal(4)

        def loss_fn(tape):
            return softmax_xent(tape, rnn_seq(cell, x[None], [0], tape=tape), [2])

        assert gradient_check(loss_fn, [cell.W_x, cell.b], h=1e-5) < 1e-4

    def test_linear_function_is_near_exact(self):
        # central differences are exact for linear maps up to rounding
        w = Parameter("w", np.array([[0.5, -1.5]]))

        def loss_fn(tape):
            wt = tape.leaf(w) if tape else w
            return affine(tape, wt, np.array([2.0, 3.0]), np.zeros(1))

        assert gradient_check(loss_fn, [w], h=1e-5) < 1e-10

    def test_composite_graph(self):
        # table take + concat + add + noise + affine + LSTM, against central differences
        rng = Rng(23)
        emb = Parameter("emb", glorot(rng, 5, 3))
        w = Parameter("w", glorot(rng, 4, 6))
        b = Parameter("b", rng.normal(4, 0.1))
        cell = LstmCell("c", 4, 3, rng)

        def loss_fn(tape):
            e = emb if tape is None else tape.leaf(emb)
            wt = w if tape is None else tape.leaf(w)
            bt = b if tape is None else tape.leaf(b)
            r = take(tape, e, [0, 3])
            both = concat(tape, [r, add(tape, r, r)])
            x = gaussian_noise(tape, both, 0.1, Rng(5))  # a fresh stream: the same noise every call
            h = rnn_seq(cell, affine(tape, wt, x, bt), [0, 1], tape=tape)
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
    batch = Parameter("batch", rng.normal((6, 3)))  # rows 0-2 for sequence 0, 3 for 1; 4 and 5 are padding
    lstm = LstmCell("lstm", 3, 2, rng)
    gold = [2, 0]

    def lstm_loss(tape):
        states = rnn_seq(lstm, batch, np.arange(6).reshape(2, 3), [3, 1], False, tape)
        return softmax_xent(tape, take(tape, states, (np.arange(2), np.array([2, 0]))), [1, 0])

    def take_loss(tape):  # both gradients: rows of the table emb, a dense scatter into a + b
        gathered = add(tape, take(tape, emb, [4, 1, 4]), take(tape, add(tape, a, b), [1, 0, 1]))
        return softmax_xent(tape, gathered, [0, 2, 1])

    return {
        "add": (lambda tape: softmax_xent(tape, add(tape, a, b), gold), [a, b]),
        "affine": (lambda tape: softmax_xent(tape, affine(tape, w, a, bias), gold), [w, a, bias]),
        "concat": (lambda tape: softmax_xent(tape, concat(tape, [c, a]), [6, 1]), [c, a]),
        "take": (take_loss, [emb, a, b]),
        "xent": (lambda tape: softmax_xent(tape, a, gold), [a]),
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


def test_gaussian_noise_is_an_add_of_a_constant():
    a = Parameter("a", Rng(43).normal((2, 3)))

    def loss_fn(tape):  # a fresh stream per call draws the same noise every time
        return softmax_xent(tape, gaussian_noise(tape, a, 0.3, Rng(7)), [2, 0])

    tape = Tape()
    loss_fn(tape)
    (node,) = [i for i, kind in enumerate(tape.kinds) if kind == "add"]
    x, noise = tape.parents[node]
    assert tape.kinds[x] == "leaf" and noise is None
    assert gradient_check(loss_fn, [a], h=1e-5) < 1e-6


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
