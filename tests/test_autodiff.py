"""Unit tests for the differentiable tensor substrate."""

import contextlib
import gc
import os
import tracemalloc
import weakref
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from segcvae import autodiff as ad
from segcvae import gradsuite
from segcvae.errors import DegenerateVector, DomainError, SegcvaeError, ShapeError


def _t(values, grad=True):
    return ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 1.0], [2.0, 5.0]])
        out = ad.matmul(_t(np.eye(2)), _t(b))
        np.testing.assert_array_equal(out.values, b)

    def test_hand_product(self):
        out = ad.matmul(_t([[1.0, 2.0]]), _t([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(_t(np.zeros((2, 3))), _t(np.zeros((2, 3))))

    def test_batched_against_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 3, 2))
        b = rng.normal(size=(2, 5))
        out = ad.matmul(_t(a), _t(b))
        expected = np.stack([a[i] @ b for i in range(4)])
        np.testing.assert_allclose(out.values, expected)


class TestStackedMatmul:
    """A (B, T, K) stack times a (K, N) matrix runs as one 2-D GEMM."""

    def test_grad_check_both_operands(self):
        r = np.random.default_rng(8)
        a, b = _t(r.normal(size=(2, 3, 4))), _t(r.normal(size=(4, 5)))
        def f(a, b):
            y = ad.matmul(a, b)
            return ad.tsum(ad.mul(y, y))

        err = ad.grad_check(f, [a, b])
        assert err < 1e-6

    def test_gradients_match_the_per_entry_products(self):
        r = np.random.default_rng(9)
        a, b = _t(r.normal(size=(3, 2, 4))), _t(r.normal(size=(4, 5)))
        g = r.normal(size=(3, 2, 5))
        ad.matmul(a, b).backward(g)
        np.testing.assert_allclose(a.grad, np.stack([g[i] @ b.values.T for i in range(3)]))
        np.testing.assert_allclose(b.grad, sum(a.values[i].T @ g[i] for i in range(3)))
        assert b.grad.shape == (4, 5)


class TestLinear:
    """``linear(x, w, b)`` is ``add(matmul(x, w), b)`` as one node."""

    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 2, 4)])
    def test_same_bits_as_matmul_then_add(self, x_shape):
        r = np.random.default_rng(19)
        x, w, b = _t(r.normal(size=x_shape)), _t(r.normal(size=(4, 6))), _t(r.normal(size=6))
        g = r.normal(size=x_shape[:-1] + (6,))
        got = ad.linear(x, w, b)
        assert got._parents == (x, w, b)
        got.backward(g)
        ref = [_t(t.values.copy()) for t in (x, w, b)]
        want = ad.add(ad.matmul(ref[0], ref[1]), ref[2])
        want.backward(g)
        np.testing.assert_array_equal(got.values, want.values)
        for t, t_ref in zip((x, w, b), ref):
            np.testing.assert_array_equal(t.grad, t_ref.grad)
            assert t.grad.shape == t.shape

    def test_only_the_operands_that_need_it_get_a_gradient(self):
        r = np.random.default_rng(20)
        x, w, b = _t(r.normal(size=(3, 4)), grad=False), _t(r.normal(size=(4, 2))), _t(np.zeros(2))
        ad.tsum(ad.linear(x, w, b)).backward()
        assert x.grad is None and w.grad is not None
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_shapes_checked(self):
        with pytest.raises(ShapeError):
            ad.linear(_t(np.zeros((2, 3))), _t(np.zeros((2, 3))), _t(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.linear(_t(np.zeros((2, 3))), _t(np.zeros((2, 3, 4))), _t(np.zeros(4)))


class TestInPlaceAccumulation:
    def test_slices_and_repeated_row_gathers_keep_aliased_buffers_intact(self):
        """x reaches the loss whole, through a row slice and through a gather
        with repeated ids; x and y first receive aliases of the sum's
        gradient, so writing x's later contributions in place would corrupt
        y's gradient and every intermediate that shares the buffer."""
        r = np.random.default_rng(10)
        x, y = _t(r.normal(size=(4, 3))), _t(r.normal(size=(4, 3)))
        w = r.normal(size=(4, 3))
        ids = np.array([2, 0, 2, 2])
        s = ad.add(x, y)
        t = ad.add(s, x[1])
        u = ad.add(t, ad.take(x, ids))
        ad.tsum(ad.mul(u, ad.Tensor(w))).backward()
        for node in (u, t, s, y):
            np.testing.assert_array_equal(node.grad, w)
        want = w.copy()
        want[1] += w.sum(axis=0)
        np.add.at(want, ids, w)
        np.testing.assert_allclose(x.grad, want, rtol=1e-14)

    def test_a_mask_gather_scatters_without_add_at(self, monkeypatch):
        """A boolean mask selects no position twice, so its backward adds
        the gradient by plain indexed assignment, never through np.add.at."""
        add = np.add

        class NoAt:
            def __call__(self, *args, **kwargs):
                return add(*args, **kwargs)

            def at(self, *args):
                pytest.fail("np.add.at ran")

        r = np.random.default_rng(12)
        x = _t(r.normal(size=(2, 3, 4)))
        live = np.array([[True, False, True], [False, True, True]])
        g = r.normal(size=(4, 4))
        monkeypatch.setattr(np, "add", NoAt())
        ad.take(x, live).backward(g)
        monkeypatch.undo()
        want = np.zeros((2, 3, 4))
        want[live] = g
        np.testing.assert_array_equal(x.grad, want)

    def test_grad_check_through_slices_and_gathers(self):
        r = np.random.default_rng(11)
        ids = np.array([[1, 1], [3, 1]])

        def f(x):
            mixed = ad.add(ad.add(x, x[2]), ad.mul(x[:, 1:2], x))
            rows = ad.take(x, ids)  # (2, 2, 3)
            return ad.add(ad.tsum(ad.mul(mixed, mixed)), ad.tsum(ad.mul(ad.mul(rows, rows), rows)))

        assert ad.grad_check(f, [_t(r.normal(size=(4, 3)))]) < 1e-6

    @pytest.mark.parametrize("gemm_first", [False, True])
    def test_a_gemm_result_becomes_the_owned_gradient(self, gemm_first):
        """A GEMM gradient is the backward's own array, so the tensor keeps it
        and adds later contributions into it; when an aliased contribution
        came first, the sum lands in the GEMM's array and the alias, which y
        shares, stays as it was.  The bits are those of the plain sum."""
        r = np.random.default_rng(13)
        x, y, w = _t(r.normal(size=(4, 3))), _t(r.normal(size=(4, 3))), _t(r.normal(size=(3, 3)))
        upstream = r.normal(size=(4, 3))
        s, product = ad.add(x, y), ad.matmul(x, w)
        total = ad.add(product, s) if gemm_first else ad.add(s, product)
        ad.tsum(ad.mul(total, ad.Tensor(upstream))).backward()
        np.testing.assert_array_equal(y.grad, upstream)
        assert x.grad.tobytes() == (upstream @ w.values.T + upstream).tobytes()
        assert x._owns_grad and not np.shares_memory(x.grad, y.grad)

    def test_a_second_gemm_contribution_adds_into_the_first(self):
        """Two GEMM gradients of one 1 MB weight: the first is kept as the
        weight's gradient and the second added into it, so backward's traced
        peak stays near two weight-sized arrays, not the three a fresh sum
        would take."""
        r = np.random.default_rng(14)
        w = _t(r.normal(size=(128, 1024)))
        xs = [_t(r.normal(size=(2, 128)), grad=False) for _ in range(2)]
        loss = ad.add(*(ad.tsum(ad.matmul(x, w)) for x in xs))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ones = np.ones((2, 1024))
        want = xs[0].values.T @ ones
        want += xs[1].values.T @ ones
        assert w.grad.tobytes() == want.tobytes()
        assert peak < 2.5 * w.values.nbytes, peak / w.values.nbytes

    def test_assigned_gradient_is_not_written_in_place(self):
        x = _t(np.ones(3))
        mine = np.zeros(3)
        x.grad = mine
        ad.tsum(ad.add(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(mine, 0.0)


class TestGraphRelease:
    def test_intermediates_die_with_the_loss_without_a_collector_pass(self):
        x = _t(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            h = ad.exp(ad.matmul(x, _t(np.ones((4, 2)))))
            ref = weakref.ref(h)
            loss = ad.tsum(ad.mul(h, h))
            del h
            assert ref() is not None  # reachable through the loss
            loss.backward()
            del loss
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
        assert x.grad is not None

    def test_a_graph_dropped_without_backward_dies_by_reference_counting(self):
        x = _t(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            h = ad.exp(ad.matmul(x, _t(np.ones((4, 2)))))
            ref = weakref.ref(h)
            loss = ad.tsum(ad.mul(h, ad.exp(ad.add(h, 1.0))))
            del h, loss
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_backward_lets_go_of_each_node_once_its_backward_has_run(self):
        """A chain of k ops on a 1 MB array holds k value arrays when
        backward starts.  Each link's values and gradient are freed once its
        backward has run, so the traced peak stays near k + 2 arrays (the
        values still to be walked, the gradient in hand and the one being
        made), not the 2k that keeping every node to the end would take."""
        k = 8
        x = _t(np.linspace(-1.0, 1.0, 1 << 17))  # 1 MB
        tracemalloc.start()
        try:
            y = x
            for _ in range(k):
                y = ad.mul(y, 0.5)
            loss = ad.tsum(y)
            del y
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 0.5 ** k))
        assert peak < (k + 3) * x.values.nbytes, peak / x.values.nbytes

    def test_second_backward_through_a_freed_graph_is_rejected(self):
        x = _t(np.ones(3))
        h = ad.exp(x)
        ad.tsum(h).backward()
        with pytest.raises(DomainError, match="already ran"):
            ad.tsum(ad.mul(h, 2.0)).backward()


def _softmax_rows_node(a):
    """Reference: the row softmax as its own node, written out separately
    from the engine's."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return ad._unary(a, e / e.sum(axis=-1, keepdims=True),
                     lambda g, y: y * (g - (g * y).sum(axis=-1, keepdims=True)))


class TestSoftmax:
    def test_same_bits_as_the_reference_node(self):
        r = np.random.default_rng(18)
        upstream = _t(r.normal(size=(3, 7)), grad=False)
        a = _t(r.normal(size=(3, 7)) * 5.0)
        ref = _t(a.values.copy())
        got, want = ad.softmax_rows(a), _softmax_rows_node(ref)
        for out in (got, want):
            ad.tsum(ad.mul(out, upstream)).backward()
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(a.grad, ref.grad)

    def test_uniform_on_equal_logits(self):
        out = ad.softmax_rows(_t([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.values, [1 / 3] * 3)

    def test_direct_evaluation(self):
        out = ad.softmax_rows(_t([2.0, 1.0, 0.5]))
        np.testing.assert_allclose(out.values, [0.6285, 0.2312, 0.1403], atol=1e-3)

    def test_no_overflow_on_large_logits(self):
        out = ad.softmax_rows(_t([1000.0, 0.0]))
        np.testing.assert_allclose(out.values, [1.0, 0.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.softmax_rows(_t(rng.normal(size=(6, 9)) * 10))
        assert np.all(out.values >= 0)
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-6)


class TestGumbelSoftmax:
    def test_reduces_to_softmax_without_noise(self):
        logits = _t([1.0, -0.5, 2.0])
        gs = ad.gumbel_softmax(logits, tau=1.0, noise=False)
        sm = ad.softmax_rows(logits)
        np.testing.assert_allclose(gs.values, sm.values)

    def test_low_temperature_concentrates_argmax(self):
        gs = ad.gumbel_softmax(_t([2.0, 1.0, 0.5]), tau=0.1, noise=False)
        assert gs.values[0] > 0.99

    def test_uniform_logits_stay_uniform(self):
        for tau in (0.05, 1.0, 7.0):
            gs = ad.gumbel_softmax(_t([1.0, 1.0, 1.0, 1.0]), tau=tau, noise=False)
            np.testing.assert_allclose(gs.values, 0.25, atol=1e-12)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            ad.gumbel_softmax(_t([1.0, 2.0]), tau=0.0, noise=False)

    def test_noise_is_reproducible(self):
        a = ad.gumbel_softmax(_t([0.3, 0.7]), tau=0.5, rng=ad.Rng(11), noise=True)
        b = ad.gumbel_softmax(_t([0.3, 0.7]), tau=0.5, rng=ad.Rng(11), noise=True)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("shape", [(7,), (2, 3, 6)])
    def test_one_node_equals_the_composition(self, noise, shape):
        """The fused node against add-noise, scale and softmax as three
        nodes, the same bits in values and in the logits gradient."""
        r = np.random.default_rng(17)
        upstream = _t(r.normal(size=shape), grad=False)
        tau = 0.3

        logits = _t(r.normal(size=shape) * 4.0)
        got = ad.gumbel_softmax(logits, tau, rng=ad.Rng(5), noise=noise)
        assert got._parents == (logits,)
        ad.tsum(ad.mul(got, upstream)).backward()

        ref_logits = _t(logits.values.copy())
        perturbed = ref_logits
        if noise:
            perturbed = ad.add(ref_logits, ad.Tensor(ad.Rng(5).gumbel(shape)))
        want = _softmax_rows_node(ad.mul(perturbed, 1.0 / tau))
        ad.tsum(ad.mul(want, upstream)).backward()

        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(logits.grad, ref_logits.grad)

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("mask_shape", [(6,), (3, 6)])
    def test_a_mask_taken_in_equals_adding_it_first(self, noise, mask_shape):
        """A 0/-inf mask added into the node's own buffer against the mask
        added as a node of its own: the same bits in values and gradient,
        and -inf columns get zero weight and zero gradient."""
        r = np.random.default_rng(21)
        shape, tau = (2, 3, 6), 0.3
        mask = np.where(r.uniform(size=mask_shape) < 0.4, -np.inf, 0.0)
        mask[..., 0] = 0.0  # every row keeps a column
        upstream = _t(r.normal(size=shape), grad=False)

        logits = _t(r.normal(size=shape) * 4.0)
        got = ad.gumbel_softmax(logits, tau, rng=ad.Rng(6), noise=noise, mask=mask)
        assert got._parents == (logits,)
        ad.tsum(ad.mul(got, upstream)).backward()

        ref_logits = _t(logits.values.copy())
        want = ad.gumbel_softmax(ad.add(ref_logits, ad.Tensor(mask)), tau,
                                 rng=ad.Rng(6), noise=noise)
        ad.tsum(ad.mul(want, upstream)).backward()

        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(logits.grad, ref_logits.grad)
        excluded = np.broadcast_to(mask == -np.inf, shape)
        assert excluded.any()
        assert np.all(got.values[excluded] == 0.0) and np.all(logits.grad[excluded] == 0.0)


def _nonfinite(values):
    """``values`` with a NaN, a +inf and a -inf planted in separate rows."""
    values = values.copy()
    values[0, 1], values[1, 2], values[2, 0] = np.nan, np.inf, -np.inf
    return values


class TestInPlaceForms:
    """The engine-internal forms write the result over the input's buffer;
    the public forms leave the input as it is.  Both run the same operations,
    so their values and gradients agree bit for bit."""

    SHAPE = (4, 3, 7)

    @staticmethod
    def _softmaxes(noise, with_mask):
        r = np.random.default_rng(31)
        mask = None
        if with_mask:
            mask = np.where(r.uniform(size=TestInPlaceForms.SHAPE[-1]) < 0.4, -np.inf, 0.0)
            mask[0] = 0.0
        return {
            "log_softmax": (ad.log_softmax, lambda a: ad._log_softmax(a, in_place=True)),
            "gumbel_softmax": (
                lambda a: ad.gumbel_softmax(a, 0.3, rng=ad.Rng(8), noise=noise, mask=mask),
                lambda a: ad._gumbel_softmax(a, 0.3, ad.Rng(8), noise, mask, in_place=True)),
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs
    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("with_mask", [False, True])
    @pytest.mark.parametrize("finite", [True, False])
    def test_in_place_equals_out_of_place_bit_for_bit(self, graph, noise, with_mask, finite):
        r = np.random.default_rng(33)
        values = r.normal(size=self.SHAPE) * 3.0
        values = values if finite else _nonfinite(values)
        upstream = r.normal(size=self.SHAPE)
        for name, forms in self._softmaxes(noise, with_mask).items():
            inputs, outs = [], []
            for form in forms:
                a = _t(values.copy())
                with contextlib.nullcontext() if graph else ad.no_grad():
                    out = form(a)
                if graph:
                    ad.tsum(ad.mul(out, ad.Tensor(upstream))).backward()
                inputs.append(a)
                outs.append(out)
            assert inputs[0].values.tobytes() == values.tobytes(), name  # the public form's
            assert not np.shares_memory(outs[0].values, inputs[0].values), name
            assert np.shares_memory(outs[1].values, inputs[1].values), name
            assert outs[1].values.tobytes() == outs[0].values.tobytes(), name
            if graph:
                assert inputs[1].grad.tobytes() == inputs[0].grad.tobytes(), name
            else:
                assert outs[1]._backward is None and inputs[1].grad is None, name
            if not finite:
                assert np.isnan(outs[0].values).any(), name

    def test_the_in_place_forms_check_before_they_write(self):
        a = _t(np.arange(6.0).reshape(2, 3))
        for bad in (dict(tau=0.0, noise=False), dict(tau=1.0, noise=True)):
            with pytest.raises(DomainError):
                ad._gumbel_softmax(a, bad["tau"], None, bad["noise"], None, in_place=True)
        np.testing.assert_array_equal(a.values, np.arange(6.0).reshape(2, 3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs
    @pytest.mark.parametrize("finite", [True, False])
    def test_the_vocabulary_head_equals_the_out_of_place_chain(self, finite):
        """linear, log-softmax, a target gather and the expected embedding,
        against the chain with the public log-softmax and ``exp`` and
        ``matmul`` as nodes of their own: the same bits in every value and
        gradient, and no node holds ``exp(logp)``."""
        r = np.random.default_rng(34)
        rows, hidden, vocab, emb_dim = 5, 4, 9, 3
        arrays = [r.normal(size=(rows, hidden)), r.normal(size=(hidden, vocab)),
                  r.normal(size=vocab), r.normal(size=(vocab, emb_dim))]
        if not finite:  # a NaN row, a row of +-inf logits and an -inf column
            arrays[0][0, 0], arrays[0][1, 1], arrays[1][1, 3] = np.nan, np.inf, np.inf
        targets = r.integers(0, vocab, rows)
        upstream = r.normal(size=(rows, emb_dim))
        results = []
        for in_place in (False, True):
            block, w, b, emb = (_t(x.copy()) for x in arrays)
            logits = ad.linear(block, w, b)
            if in_place:
                logp = ad._log_softmax(logits, in_place=True)
                expected = ad._exp_matmul(logp, emb)
                assert expected._parents == (logp, emb)
                assert np.shares_memory(logp.values, logits.values)
            else:
                logp = ad.log_softmax(logits)
                expected = ad.matmul(ad.exp(logp), emb)
            picked = ad.take(logp, (np.arange(rows), targets))
            ad.add(ad.tsum(picked), ad.tsum(ad.mul(expected, ad.Tensor(upstream)))).backward()
            results.append([picked.values, expected.values]
                           + [t.grad for t in (block, w, b, emb)])
        for got, want in zip(results[1], results[0]):
            assert got.tobytes() == want.tobytes()
        if not finite:
            assert np.isnan(results[0][1][:2]).all() and np.isfinite(results[0][1][2:]).all()


class TestConvSeq:
    def test_output_shape_matches_contract(self):
        c = _t(np.zeros((1, 25, 300)))
        k = _t(np.zeros((3, 300, 1, 3)))
        assert ad.conv_seq(c, k).shape == (1, 3, 23)

    def test_all_ones_hand_convolution(self):
        c = _t(np.ones((1, 3, 2)))
        k = _t(np.ones((2, 2, 1, 1)))
        out = ad.conv_seq(c, k)
        np.testing.assert_array_equal(out.values, np.full((1, 1, 2), 4.0))

    def test_zero_kernel_gives_zero_output(self):
        rng = np.random.default_rng(3)
        out = ad.conv_seq(_t(rng.normal(size=(1, 5, 4))), _t(np.zeros((2, 4, 1, 3))))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_too_short_sequence(self):
        with pytest.raises(ShapeError):
            ad.conv_seq(_t(np.zeros((1, 2, 4))), _t(np.zeros((3, 4, 1, 1))))

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(3, 6, 4))
        k = _t(rng.normal(size=(2, 4, 1, 3)))
        batched = ad.conv_seq(_t(c), k)
        for i in range(3):
            single = ad.conv_seq(_t(c[i:i + 1]), k)
            np.testing.assert_allclose(batched.values[i], single.values[0])


class TestGru:
    def test_zero_params_zero_input_gives_zero_state(self):
        params = ad.GruParams(
            wx=_t(np.zeros((4, 12))), wh=_t(np.zeros((4, 12))),
            bx=_t(np.zeros(12)), bh=_t(np.zeros(12)))
        h = ad.gru_encode(params, _t(np.zeros((1, 1, 4))))
        np.testing.assert_array_equal(h.values, np.zeros((1, 4)))

    def test_hidden_size_contract(self):
        params = ad.gru_params(300, 300, ad.Rng(1))
        h = ad.gru_encode(params, _t(np.zeros((1, 1, 300))))
        assert h.shape == (1, 300)

    def test_pad_steps_do_not_update_state(self):
        rng = np.random.default_rng(2)
        params = ad.gru_params(3, 5, ad.Rng(2))
        seq = _t(rng.normal(size=(1, 2, 3)))
        states = ad.gru_scan(params, seq, _t(np.zeros((1, 5))), mask=np.array([[1, 0]]))
        assert states.shape == (1, 2, 5)
        np.testing.assert_array_equal(states.values[:, 1], states.values[:, 0])
        # the padded encoding is the prefix's, up to the rounding of a
        # different GEMM shape for the hoisted input projection
        h_one = ad.gru_encode(params, seq[:, :1], mask=np.array([[1]]))
        h_two = ad.gru_encode(params, seq, mask=np.array([[1, 0]]))
        np.testing.assert_allclose(h_two.values, h_one.values, rtol=1e-14, atol=0)

    @staticmethod
    def _graph_size(out):
        seen, stack = set(), [out]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        return len(seen)

    def test_scan_is_one_node_whatever_the_length(self):
        params = ad.gru_params(3, 5, ad.Rng(4))
        rng = np.random.default_rng(4)
        sizes = []
        for steps in (2, 8):
            states = ad.gru_scan(params, _t(rng.normal(size=(2, steps, 3))),
                                 _t(rng.normal(size=(2, 5))), mask=np.ones((2, steps)))
            assert states.shape == (2, steps, 5)
            sizes.append(self._graph_size(states))
        # seq, wx, bx, the projection's linear node, h, wh, bh and the scan
        assert sizes == [8, 8]

    def test_scan_keeps_no_graph_under_no_grad(self):
        params = ad.gru_params(3, 5, ad.Rng(5))
        seq = np.random.default_rng(5).normal(size=(2, 4, 3))
        with ad.no_grad():
            states = ad.gru_scan(params, _t(seq), _t(np.ones((2, 5))))
        assert states._parents == () and states._backward is None
        assert not states.requires_grad
        recorded = ad.gru_scan(params, _t(seq), _t(np.ones((2, 5))))
        np.testing.assert_array_equal(states.values, recorded.values)

    @pytest.mark.parametrize("masked", [False, True])
    def test_scan_equals_the_per_step_formulas(self, masked):
        """The fused forward does the per-step arithmetic of a plain numpy
        cell in the same order, so the states agree bit for bit."""
        rng = np.random.default_rng(6)
        params = ad.gru_params(3, 5, ad.Rng(6))
        seq, h = rng.normal(size=(3, 6, 3)), rng.normal(size=(3, 5))
        mask = (rng.uniform(size=(3, 6)) > 0.4) if masked else None
        states = ad.gru_scan(params, _t(seq), _t(h), mask=mask).values

        def sigmoid(a):
            return np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                            np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))

        wx, wh, bx, bh = (p.values for p in (params.wx, params.wh, params.bx, params.bh))
        gx = (seq.reshape(-1, 3) @ wx).reshape(3, 6, 15) + bx
        for t in range(6):
            gh = h @ wh + bh
            r = sigmoid(gx[:, t, :5] + gh[:, :5])
            u = sigmoid(gx[:, t, 5:10] + gh[:, 5:10])
            n = np.tanh(gx[:, t, 10:] + r * gh[:, 10:])
            nxt = (1.0 - u) * n + u * h
            if mask is not None:
                keep = mask[:, t:t + 1].astype(np.float64)
                nxt = nxt * keep + h * (1.0 - keep)
            h = nxt
            np.testing.assert_array_equal(states[:, t], h)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_broadcast_scan_equals_the_scan_of_tiled_rows(self, copies, masked):
        """A B-row seq read by k*B state rows (k branch-major copies) gives the
        states and every gradient of the scan over the seq tiled k times."""
        rng = np.random.default_rng(8)
        seq, h = rng.normal(size=(2, 5, 3)), rng.normal(size=(2 * copies, 4))
        mask = (rng.uniform(size=(2 * copies, 5)) > 0.4) if masked else None
        weights = ad.Tensor(rng.normal(size=(2 * copies, 5, 4)))
        results = []
        for tiled in (False, True):
            params = ad.gru_params(3, 4, ad.Rng(8))
            x, h0 = _t(np.tile(seq, (copies, 1, 1)) if tiled else seq), _t(h)
            states = ad.gru_scan(params, x, h0, mask=mask)
            ad.tsum(ad.mul(states, weights)).backward()
            d_seq = x.grad.reshape((copies,) + seq.shape).sum(axis=0) if tiled else x.grad
            results.append({"states": states.values, "seq": d_seq, "h": h0.grad,
                            **{k: getattr(params, k).grad for k in ("wx", "bx", "wh", "bh")}})
        got, want = results
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("rows", [0, 3, 5])
    def test_state_rows_must_be_a_multiple_of_the_sequence_rows(self, rows):
        params = ad.gru_params(3, 4, ad.Rng(9))
        with pytest.raises(ShapeError, match=rf"state \({rows}, 4\), sequence \(2, 5, 3\)"):
            ad.gru_scan(params, _t(np.zeros((2, 5, 3))), _t(np.zeros((rows, 4))))

    def test_empty_sequence_rejected(self):
        params = ad.gru_params(3, 5, ad.Rng(2))
        with pytest.raises(DomainError):
            ad.gru_encode(params, _t(np.zeros((1, 0, 3))))

    def test_decode_step_shapes_and_zero_params(self):
        params = ad.GruParams(
            wx=_t(np.zeros((4, 15))), wh=_t(np.zeros((5, 15))),
            bx=_t(np.zeros(15)), bh=_t(np.zeros(15)))
        out_w, out_b = _t(np.zeros((5, 11))), _t(np.zeros(11))
        logits, state = ad.gru_decode_step(params, out_w, out_b,
                                           _t(np.zeros((2, 5))), _t(np.zeros((2, 4))))
        assert logits.shape == (2, 11)
        np.testing.assert_array_equal(logits.values, 0.0)
        np.testing.assert_array_equal(state.values, 0.0)

    def test_decode_step_deterministic(self):
        params = ad.gru_params(4, 5, ad.Rng(9))
        out_w, out_b = ad.glorot((5, 7), ad.Rng(10)), _t(np.zeros(7))
        x, h = _t(np.ones((1, 4))), _t(np.ones((1, 5)))
        l1, s1 = ad.gru_decode_step(params, out_w, out_b, h, x)
        l2, s2 = ad.gru_decode_step(params, out_w, out_b, h, x)
        np.testing.assert_array_equal(l1.values, l2.values)
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_decode_step_state_shape_checked(self):
        params = ad.gru_params(4, 5, ad.Rng(9))
        with pytest.raises(ShapeError):
            ad.gru_decode_step(params, _t(np.zeros((5, 7))), _t(np.zeros(7)),
                               _t(np.zeros((1, 4))), _t(np.zeros((1, 4))))


class TestGaussianKl:
    def test_identical_distributions(self):
        mu, lv = _t([0.3, -1.0]), _t([0.1, 0.4])
        out = ad.gaussian_kl(mu, lv, _t([0.3, -1.0]), _t([0.1, 0.4]))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_unit_mean_shift(self):
        out = ad.gaussian_kl(_t([1.0]), _t([0.0]), _t([0.0]), _t([0.0]))
        np.testing.assert_allclose(out.values, 0.5)

    def test_variance_ratio_closed_form(self):
        out = ad.gaussian_kl(_t([0.0]), _t([1.0]), _t([0.0]), _t([0.0]))
        np.testing.assert_allclose(out.values, 0.5 * (np.e - 2.0), atol=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            args = [_t(rng.normal(size=6)) for _ in range(4)]
            assert ad.gaussian_kl(*args).values >= -1e-12


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        z = ad.reparameterize(_t([1.5, -2.0]), _t([0.3, 0.3]), np.zeros(2))
        np.testing.assert_array_equal(z.values, [1.5, -2.0])

    def test_unit_noise_unit_variance(self):
        z = ad.reparameterize(_t([0.0]), _t([0.0]), np.ones(1))
        np.testing.assert_allclose(z.values, [1.0])

    def test_same_seed_same_sample(self):
        mu, lv = _t([0.2, 0.4, -0.3]), _t([0.5, -0.5, 0.0])
        z1 = ad.reparameterize(mu, lv, ad.Rng(77).normal(mu.shape))
        z2 = ad.reparameterize(mu, lv, ad.Rng(77).normal(mu.shape))
        np.testing.assert_array_equal(z1.values, z2.values)

    def test_gradient_reaches_mu_and_logvar_only(self):
        mu, lv = _t([0.2, 0.4]), _t([0.5, -0.5])
        z = ad.reparameterize(mu, lv, ad.Rng(77).normal(mu.shape))
        ad.tsum(z).backward()
        assert mu.grad is not None and lv.grad is not None
        np.testing.assert_array_equal(mu.grad, [1.0, 1.0])


class TestCosine:
    def test_parallel(self):
        v = _t([1.0, 2.0, 3.0])
        np.testing.assert_allclose(ad.cosine(v, v).values, 1.0)

    def test_orthogonal(self):
        np.testing.assert_allclose(ad.cosine(_t([1.0, 0.0]), _t([0.0, 2.0])).values, 0.0)

    def test_antiparallel(self):
        np.testing.assert_allclose(ad.cosine(_t([1.0, 0.0]), _t([-1.0, 0.0])).values, -1.0)

    def test_degenerate_vector_rejected(self):
        with pytest.raises(DegenerateVector):
            ad.cosine(_t([0.0, 0.0]), _t([1.0, 0.0]))


class TestGradCheck:
    def test_quadratic(self):
        x = _t([3.0])
        err = ad.grad_check(lambda t: ad.tsum(ad.mul(t, t)), [x])
        assert err < 1e-7
        np.testing.assert_allclose(x.grad, [6.0])

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(12)
        logits = _t(rng.normal(size=(3, 5)))
        target = np.array([1, 4, 0])

        def f(t):
            logp = ad.log_softmax(t)
            return ad.mul(ad.tsum(ad.take(logp, (np.arange(3), target))), -1.0)

        assert ad.grad_check(f, [logits]) < 1e-5

    def test_gumbel_softmax_noiseless(self):
        rng = np.random.default_rng(13)
        logits = _t(rng.normal(size=(2, 4)))

        def f(t):
            return ad.tsum(ad.mul(ad.gumbel_softmax(t, tau=0.7, noise=False), _t(rng_weights, grad=False)))

        rng_weights = rng.normal(size=(2, 4))
        assert ad.grad_check(f, [logits]) < 1e-5


@pytest.mark.parametrize("name", sorted(case for case, _, _ in gradsuite.primitive_cases(0)))
def test_primitive_gradients(name):
    """Every primitive case of the gradient suite passes the central-difference
    check on four seeded random draws."""
    for seed in range(4):
        cases = gradsuite.primitive_cases(zlib.crc32(name.encode()) % 10_000 + seed)
        f, tensors = next((f, tensors) for case, f, tensors in cases if case == name)
        assert ad.grad_check(f, tensors) < gradsuite.TOLERANCE, f"{name} seed {seed}"


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = ad.Rng(123456), ad.Rng(123456)
        np.testing.assert_array_equal(a.normal((5,)), b.normal((5,)))
        np.testing.assert_array_equal(a.gumbel((3, 2)), b.gumbel((3, 2)))
        np.testing.assert_array_equal(a.permutation(10), b.permutation(10))

    def test_state_roundtrip_resumes_exactly(self):
        rng = ad.Rng(99)
        rng.normal((7,))
        state = rng.get_state()
        expected = rng.normal((11,))
        rng2 = ad.Rng(0)
        rng2.set_state(state)
        np.testing.assert_array_equal(rng2.normal((11,)), expected)

    def test_bad_state_rejected(self):
        with pytest.raises(DomainError):
            ad.Rng(0).set_state(np.zeros(5, dtype=np.uint64))

    def test_state_format_checked_without_assert(self):
        rng = ad.Rng(0)
        rng.STATE_WORDS = 12  # the captured state no longer matches the format
        with pytest.raises(DomainError):
            rng.get_state()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        arrays = {
            "w1": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(4,)).astype(np.float32),
            "step": np.array(17, dtype=np.uint64),
        }
        meta = {"tau": "0.1", "M": "8"}
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, arrays, meta)
        loaded, loaded_meta = ad.load_checkpoint(path)
        assert loaded_meta == meta
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == arrays[name].dtype

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ad.save_checkpoint(p1, arrays, {"k": "v"})
        ad.save_checkpoint(p2, dict(reversed(list(arrays.items()))), {"k": "v"})
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, {"a": np.arange(4.0)}, {"k": "old"})
        old = path.read_bytes()

        def open_failing_after_header(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            write = fh.write

            def write_header_only(data):
                if fh.tell() > 0:
                    raise OSError("disk full")
                return write(data)

            fh.write = write_header_only
            return fh

        monkeypatch.setattr(ad, "open", open_failing_after_header, raising=False)
        with pytest.raises(OSError, match="disk full"):
            ad.save_checkpoint(path, {"a": np.arange(8.0)}, {"k": "new"})
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_save_replaces_a_longer_file(self, tmp_path):
        path, fresh = tmp_path / "model.ckpt", tmp_path / "fresh.ckpt"
        ad.save_checkpoint(path, {"a": np.arange(64.0)})
        ad.save_checkpoint(path, {"a": np.arange(2.0)})
        ad.save_checkpoint(fresh, {"a": np.arange(2.0)})
        assert path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.ckpt", "model.ckpt"]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not-a-checkpoint\n\nxx")
        with pytest.raises(SegcvaeError):
            ad.load_checkpoint(path)

    @pytest.mark.parametrize("line, why", [
        ("array w float64 2,3 8", "past the end"),          # offset + size > body
        ("array w float64 2,3", "malformed index line 2"),  # missing offset
        ("array w float64 2,x 0", "malformed index line 2"),
        ("array w float64 2,3 -8", "past the end"),
        ("array w float64 -2,3 0", "past the end"),
        ("array w complex_float 2,3 0", "unknown dtype"),
        ("array w object 1 0", "unknown dtype"),
        ("meta lonely", "malformed index line 2"),
        ("blob w float64 2,3 0", "malformed index line 2"),
    ])
    def test_malformed_index_names_the_file(self, tmp_path, line, why):
        path = tmp_path / "broken.ckpt"
        body = np.arange(6, dtype=np.float64).tobytes()
        path.write_bytes(f"{ad.CHECKPOINT_TAG}\n{line}\n\n".encode() + body)
        with pytest.raises(SegcvaeError, match=why) as info:
            ad.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_save_writes_the_arrays_own_buffers(self, tmp_path):
        """The body is each array's ``tobytes()``, a view or a scalar
        included, and a save of contiguous arrays copies none of them."""
        rng = np.random.default_rng(9)
        arrays = {f"w{i}": rng.normal(size=(256, 512)) for i in range(4)}  # 1 MB each
        tracemalloc.start()
        try:
            ad.save_checkpoint(tmp_path / "big.ckpt", arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(a.nbytes for a in arrays.values()), peak
        arrays.update(t=arrays["w0"][:3, :5].T, s=np.array(2.5), i=np.arange(3, dtype=np.int32))
        path = tmp_path / "mixed.ckpt"
        ad.save_checkpoint(path, arrays, {"k": "v"})
        data = path.read_bytes()
        body = data[data.index(b"\n\n") + 2:]
        assert body == b"".join(arrays[k].tobytes() for k in sorted(arrays))
        loaded, _ = ad.load_checkpoint(path)
        for name, a in arrays.items():
            assert loaded[name].tobytes() == a.tobytes() and loaded[name].shape == a.shape

    def test_a_prefix_reads_only_its_arrays_and_checks_every_line(self, tmp_path):
        rng = np.random.default_rng(10)
        arrays = {"p.a": rng.normal(size=(2, 3)), "q.big": rng.normal(size=(256, 512)),
                  "p.b": np.arange(4, dtype=np.int64)}
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, arrays)
        tracemalloc.start()
        try:
            loaded, _ = ad.load_checkpoint(path, prefix="p.")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(loaded) == ["p.a", "p.b"] and peak < arrays["q.big"].nbytes
        for name, a in loaded.items():
            np.testing.assert_array_equal(a, arrays[name])
        data = path.read_bytes()
        for old, new in ((b"array q.big float64 256,512", b"array q.big float64 257,512"),
                         (b"array q.big float64 256,512", b"array q.big object 256,512")):
            path.write_bytes(data.replace(old, new, 1))
            with pytest.raises(SegcvaeError, match="'q.big'"):
                ad.load_checkpoint(path, prefix="p.")

    def test_load_peaks_at_the_arrays_it_returns(self, tmp_path):
        """Each array is read into its own buffer: a load never holds the
        file body beside the arrays."""
        rng = np.random.default_rng(9)
        arrays = {f"w{i}": rng.normal(size=(256, 512)) for i in range(4)}  # 4 MB
        path = tmp_path / "big.ckpt"
        ad.save_checkpoint(path, arrays)
        tracemalloc.start()
        try:
            loaded, _ = ad.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in loaded.values())
        assert held == sum(a.nbytes for a in arrays.values())
        assert peak <= 1.1 * held, (peak, held)
        for name, a in arrays.items():
            np.testing.assert_array_equal(loaded[name], a)

    def test_a_body_cut_short_while_read_is_rejected(self, tmp_path, monkeypatch):
        """A file that shrinks after its size was taken leaves no array
        holding bytes that were never read."""
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, {"a": np.arange(6, dtype=np.float64)})
        path.write_bytes(path.read_bytes()[:-8])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8))
        with pytest.raises(SegcvaeError, match="'a' was cut short") as info:
            ad.load_checkpoint(path)
        monkeypatch.undo()
        assert str(path) in str(info.value)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, {"a": np.arange(6, dtype=np.float64)})
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SegcvaeError, match="past the end"):
            ad.load_checkpoint(path)


class TestDeterminism:
    def test_same_seed_bitwise_identical_pipeline(self):
        def run():
            rng = ad.Rng(123456)
            x = ad.Tensor(rng.normal((4, 3)), requires_grad=True)
            w = ad.Tensor(rng.normal((3, 2)), requires_grad=True)
            y = ad.tsum(ad.softmax_rows(ad.matmul(x, w)))
            y.backward()
            return x.values.tobytes(), y.values.tobytes(), x.grad.tobytes()

        assert run() == run()
