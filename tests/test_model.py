"""Unit tests for trigger selection, latent heads, and the semantic norms."""

import contextlib

import numpy as np
import pytest

from segcvae import autodiff as ad
from segcvae import model as m
from segcvae.autodiff import Rng, Tensor
from segcvae.corpus import PAD_ID, DialoguePair, build_vocab, encode_pairs
from segcvae.errors import DomainError, ShapeError

from branches import branch_slices


def _tiny_setup(num_triggers=2, **overrides):
    """A 10-token vocabulary and a desk-size model."""
    pairs = [
        DialoguePair(("a", "b", "c"), ("d", "e")),
        DialoguePair(("d", "e"), ("a", "f")),
        DialoguePair(("c", "f"), ("b", "a")),
    ]
    vocab = build_vocab(pairs, max_size=10, emb_dim=5, seed=3)
    cfg = dict(vocab_size=vocab.size, max_len=6, emb_dim=5, hidden_dim=4,
               latent_dim=3, kernel_width=2, conv_channels=2,
               num_triggers=num_triggers, tau=0.1)
    cfg.update(overrides)
    config = m.ModelConfig(**cfg)
    net = m.SegCVAE(config, vocab.embedding, Rng(11))
    ctx, resp = encode_pairs(pairs, vocab, config.max_len)
    return net, vocab, ctx, resp


def _eps(net, resp):
    """Standard-normal latent noise for one branch's bound over ``resp``."""
    return Rng(0).normal((len(resp), net.config.latent_dim))


def _zero(tensor):
    tensor.values = np.zeros_like(tensor.values)


class TestSelectPositive:
    def test_argmax(self):
        assert m.select_positive([-3.2, -1.1, -7.0]) == 1

    def test_single_branch(self):
        assert m.select_positive(np.array([-4.0])) == 0

    def test_tie_takes_lowest_index(self):
        assert m.select_positive([-2.0, -2.0]) == 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            m.select_positive([])

    def test_batched_per_example(self):
        elbos = np.array([[-1.0, -9.0], [-5.0, -2.0]])  # (branches, examples)
        np.testing.assert_array_equal(m.select_positive(elbos), [0, 1])

    def test_batched_tie_takes_lowest_index(self):
        elbos = np.array([[-3.0, 0.5], [-3.0, 0.9], [-4.0, 0.9]])
        np.testing.assert_array_equal(m.select_positive(elbos), [0, 1])

    def test_invariant_under_common_shift(self):
        values = np.array([[-3.0, 0.5], [-1.0, 0.2], [-2.0, 0.9]])
        base = m.select_positive(values)
        shifted = m.select_positive(values + 17.5)
        np.testing.assert_array_equal(base, shifted)


class TestSan:
    def test_single_vector_is_zero(self):
        assert m.san(Tensor(np.random.default_rng(0).normal(size=(1, 1, 4)))).item() == 0.0

    def test_zero_matrix_value(self):
        assert m.san(Tensor(np.zeros((1, 2, 3)))).item() == pytest.approx(0.5)

    def test_scaled_orthogonal_rows_vanish(self):
        x = np.zeros((1, 2, 2))
        x[0, 0, 0] = x[0, 1, 1] = 10.0
        assert m.san(Tensor(x)).item() < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = Tensor(rng.normal(size=(1, 3, 5)))
            assert m.san(x).item() >= 0.0

    def test_batched_mean_matches_per_example(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(4, 3, 5))
        batched = m.san(Tensor(batch)).item()
        singles = np.mean([m.san(Tensor(batch[i:i + 1])).item() for i in range(4)])
        assert batched == pytest.approx(singles)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 1, 3, 5)])
    def test_a_stack_that_is_not_a_batch_is_refused(self, shape):
        with pytest.raises(ShapeError, match="expected"):
            m.san(Tensor(np.zeros(shape)))

    def test_gradient(self):
        x = Tensor(np.random.default_rng(3).normal(size=(1, 3, 4)), requires_grad=True)
        assert ad.grad_check(lambda t: m.san(t), [x]) < 1e-4


class TestScn:
    @staticmethod
    def _stack(*vectors):
        return Tensor(np.stack(vectors))

    def test_aligned_sum_is_zero(self):
        v = np.array([1.0, 2.0, 0.5])
        assert m.scn(Tensor(v), self._stack(v)).item() == pytest.approx(0.0)

    def test_opposed_sum_is_two(self):
        v = np.array([1.0, 2.0, 0.5])
        assert m.scn(Tensor(v), self._stack(-v)).item() == pytest.approx(2.0)

    def test_orthogonal_sum_is_one(self):
        assert m.scn(Tensor(np.array([1.0, 0.0])),
                     self._stack(np.array([0.0, 3.0]))).item() == pytest.approx(1.0)

    def test_sums_the_branch_vectors(self):
        v = np.array([2.0, -1.0, 0.0])
        assert m.scn(Tensor(v), self._stack(0.5 * v, 0.5 * v)).item() == pytest.approx(0.0)

    def test_empty_stack_rejected(self):
        with pytest.raises(DomainError):
            m.scn(Tensor(np.ones(3)), Tensor(np.ones((0, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        enc_c = Tensor(rng.normal(size=(2, 5)) + 0.5, requires_grad=True)
        xs = Tensor(rng.normal(size=(3, 2, 5)) + 0.5, requires_grad=True)
        err = ad.grad_check(lambda c, x: m.scn(c, x), [enc_c, xs])
        assert err < 1e-4


class TestSdn:
    def test_matching_representations_give_zero(self):
        r = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
        assert m.sdn(r, Tensor(r.values.copy())).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vs_identical_rows_oracle(self):
        r_gt = Tensor(np.eye(2))
        u = np.array([1.0, 0.0])
        r_gen = Tensor(np.stack([u, u]))
        assert m.sdn(r_gt, r_gen).item() == pytest.approx(0.11094407167172737, abs=1e-12)

    def test_scale_sensitive(self):
        rng = np.random.default_rng(6)
        r_gt = Tensor(rng.normal(size=(3, 4)))
        r_gen = rng.normal(size=(3, 4))
        v1 = m.sdn(r_gt, Tensor(r_gen)).item()
        v2 = m.sdn(r_gt, Tensor(2.0 * r_gen)).item()
        assert v1 != pytest.approx(v2)

    def test_small_batch_rejected(self):
        with pytest.raises(DomainError):
            m.sdn(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))

    def test_gradient_only_into_generated_side(self):
        rng = np.random.default_rng(7)
        r_gt = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        r_gen = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        m.sdn(r_gt, r_gen).backward()
        assert r_gt.grad is None
        assert r_gen.grad is not None and np.any(r_gen.grad != 0)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        r_gt = Tensor(rng.normal(size=(3, 4)))
        r_gen = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert ad.grad_check(lambda t: m.sdn(r_gt, t), [r_gen]) < 1e-4


class TestFrozenTarget:
    def test_frozen_target_at_base_point_changes_nothing(self):
        net, _, ctx, resp = _tiny_setup()
        with ad.no_grad():
            r_gt = net.encode_ids(resp).values.copy()
        plain = net.forward_losses(ctx, resp, 0.5, Rng(5))
        frozen = net.forward_losses(ctx, resp, 0.5, Rng(5), r_gt=r_gt)
        for key in ("elbo_plus", "san", "scn", "sdn"):
            assert frozen[key].values.tobytes() == plain[key].values.tobytes()

    def test_frozen_target_is_the_distillation_target(self):
        net, _, ctx, resp = _tiny_setup()
        with ad.no_grad():
            r_gt = net.encode_ids(resp).values
        plain = net.forward_losses(ctx, resp, 0.5, Rng(5))
        moved = net.forward_losses(ctx, resp, 0.5, Rng(5), r_gt=r_gt * 3.0)
        assert moved["elbo_plus"].item() == plain["elbo_plus"].item()
        assert moved["sdn"].item() != plain["sdn"].item()


class TestTotalLoss:
    def test_lambda_zero_is_identity(self):
        out = m.total_loss(Tensor(np.array(-4.2)), Tensor(np.array(9.0)),
                           Tensor(np.array(9.0)), Tensor(np.array(9.0)), 0.0)
        assert out.item() == pytest.approx(-4.2)

    def test_arithmetic(self):
        out = m.total_loss(Tensor(np.array(-5.0)), Tensor(np.array(0.5)),
                           Tensor(np.array(0.1)), Tensor(np.array(0.2)), 1.0)
        assert out.item() == pytest.approx(-5.8)

    @pytest.mark.parametrize("norm", ["san", "scn", "sdn"])
    def test_disabled_norm_is_an_exact_zero(self, norm):
        """A switched-off norm drops out of the loss: forward_losses gives
        it as an exact zero, the others as they are."""
        net, ctx, resp = _ablation_batch(38, **{f"no_{norm}": True})
        parts = net.forward_losses(ctx, resp, 0.5, Rng(2))
        for name in ("san", "scn", "sdn"):
            value = parts[name].item()
            assert (value == 0.0) if name == norm else (value != 0.0), name
        want = parts["elbo_plus"].item() - 0.5 * sum(parts[k].item() for k in ("san", "scn", "sdn"))
        got = m.total_loss(parts["elbo_plus"], parts["san"], parts["scn"], parts["sdn"], 0.5)
        assert got.item() == pytest.approx(want, rel=1e-14)

    def test_lambda_out_of_range(self):
        with pytest.raises(DomainError):
            m.total_loss(Tensor(np.array(0.0)), 0.0, 0.0, 0.0, 1.5)


def _trigger(net, path, i):
    """Trigger ``i`` of a family as (kernel, dense) views of its stacked
    parameters: writes go through to the live parameters."""
    where = dict(branch_slices(net, i))
    return tuple(net.params[f"{path}.{part}"].values[where[f"{path}.{part}"]]
                 for part in ("kernel", "dense"))


class TestTriggerSelection:
    def test_paper_config_shapes(self):
        rng = np.random.default_rng(9)
        config = m.ModelConfig(vocab_size=40, max_len=25, emb_dim=300,
                               hidden_dim=300, latent_dim=16, kernel_width=3,
                               conv_channels=3, num_triggers=8, tau=0.1)
        net = m.SegCVAE(config, rng.normal(size=(40, 300)), Rng(1))
        ctx = np.zeros((1, 25), dtype=np.int64)
        ctx[0, :5] = [4, 5, 6, 7, 8]
        with ad.no_grad():
            c_emb = net.embed_matrix(ctx)
            c_is = net.internal_separation(c_emb, ctx == 0)
            v_eg = net.external_guidance(c_emb)
            xs = net.prominent_semantics(ctx)
        assert c_is.shape == v_eg.shape == (8, 3, 300)
        assert net.is_kernel.shape == net.eg_kernel.shape == (3, 300, 1, 24)
        assert net.is_dense.shape == (8, 23, 25) and net.eg_dense.shape == (8, 23, 40)
        assert xs.shape == (8, 1, 300)
        assert len(list(xs)) == 8 and all(x.shape == (1, 300) for x in xs)

    def test_single_token_context_gets_all_mass(self):
        net, vocab, _, _ = _tiny_setup()
        ctx = np.zeros((1, net.config.max_len), dtype=np.int64)
        ctx[0, 0] = 4
        chan = net.config.conv_channels
        with ad.no_grad():
            c_emb = net.embed_matrix(ctx)
            weights = net._selection(c_emb, net.is_kernel, net.is_dense,
                                     np.repeat(np.where(ctx == 0, -np.inf, 0.0), chan, axis=0),
                                     rng=None, noise=False)
            c_is = net.internal_separation(c_emb, ctx == 0)
        np.testing.assert_allclose(weights.values[..., 0], 1.0)  # every trigger and channel
        for i in range(net.config.num_triggers):
            for ch in range(chan):
                np.testing.assert_allclose(c_is.values[i, ch], vocab.embedding[4], atol=1e-12)

    def test_low_temperature_matches_argmax_oracle(self):
        net, vocab, ctx, _ = _tiny_setup(tau=0.01)
        # enlarge the weights so logit gaps clear the sharpening premise
        net.is_kernel.values *= 10.0
        net.is_dense.values *= 10.0
        row = ctx[:1]
        with ad.no_grad():
            c_emb = net.embed_matrix(row)
            c_is = net.internal_separation(c_emb, row == 0, noise=False)

        # independent selection oracle: explicit convolution and argmax pick
        def oracle(kernel, dense):
            kern = kernel[:, :, 0, :]
            emb_rows = vocab.embedding[row[0]]
            width = kern.shape[0]
            out_len = row.shape[1] - width + 1
            f_c = np.zeros((kern.shape[2], out_len))
            for ch in range(kern.shape[2]):
                for t in range(out_len):
                    f_c[ch, t] = (emb_rows[t:t + width] * kern[:, :, ch]).sum()
            logits = f_c @ dense
            logits[:, row[0] == 0] = -np.inf
            return emb_rows[np.argmax(logits, axis=1)]

        for i in range(net.config.num_triggers):
            np.testing.assert_allclose(c_is.values[i], oracle(*_trigger(net, "is", i)), atol=1e-3)

    def test_zero_conv_features_give_mean_unmasked_embedding(self):
        net, vocab, ctx, _ = _tiny_setup()
        _zero(net.eg_kernel)
        with ad.no_grad():
            v_eg = net.external_guidance(net.embed_matrix(ctx[:1]), noise=False)
        expected = vocab.embedding[4:].mean(axis=0)
        for i in range(net.config.num_triggers):
            for ch in range(net.config.conv_channels):
                np.testing.assert_allclose(v_eg.values[i, ch], expected, atol=1e-12)

    def test_identical_triggers_give_identical_semantics(self):
        net, _, ctx, _ = _tiny_setup(num_triggers=3)
        for path in ("is", "eg"):
            kernel, dense = _trigger(net, path, 0)
            for i in (1, 2):
                other_kernel, other_dense = _trigger(net, path, i)
                other_kernel[...], other_dense[...] = kernel, dense
        with ad.no_grad():
            xs = net.prominent_semantics(ctx[:2], noise=False)
        for x in xs[1:]:
            np.testing.assert_array_equal(x.values, xs[0].values)

    def test_no_is_uses_vocabulary_selection_only(self):
        net, _, ctx, _ = _tiny_setup(no_is=True)
        assert net.is_kernel is None and net.is_dense is None
        assert not any(name.startswith("is") for name in net.params)
        assert not any(name.startswith("is") for name in net.state_arrays())
        batch = ctx.shape[0]
        with ad.no_grad():
            xs = net.prominent_semantics(ctx, noise=False)
            v_eg = net.external_guidance(net.embed_matrix(ctx), noise=False)
            direct = [ad.gru_encode(net.enc, v_eg[i * batch:(i + 1) * batch])
                      for i in range(net.config.num_triggers)]
        assert xs.shape[0] == net.config.num_triggers
        for x, d in zip(xs, direct):
            np.testing.assert_array_equal(x.values, d.values)

    def test_both_paths_ablated_fall_back_to_context_encoding(self):
        net, _, ctx, _ = _tiny_setup(no_is=True, no_eg=True)
        with ad.no_grad():
            xs = net.prominent_semantics(ctx, noise=False)
            direct = net.encode_ids(ctx)
        assert xs.shape[0] == net.config.num_triggers
        for x in xs:
            np.testing.assert_array_equal(x.values, direct.values)

    @pytest.mark.parametrize("overrides", [{}, {"no_is": True}, {"no_eg": True},
                                           {"no_is": True, "no_eg": True}])
    def test_all_padding_context_row_rejected(self, overrides):
        """Internal separation would mask every column of such a row (a NaN
        selection); every ablation rejects it alike."""
        net, _, ctx, _ = _tiny_setup(**overrides)
        ctx = ctx.copy()
        ctx[2] = PAD_ID
        with pytest.raises(DomainError, match="all-padding"):
            net.prominent_semantics(ctx)

    def test_padding_before_a_token_rejected(self):
        """The encoder reads each row's state at its length, so a pad inside
        a row is an error, not a step to skip."""
        net, _, _, resp = _tiny_setup()
        resp = resp.copy()
        resp[0, 1] = PAD_ID  # between the start marker and a word
        with pytest.raises(DomainError, match="suffix"):
            net.encode_ids(resp)


class TestTriggerGroups:
    """external_guidance runs the vocabulary-wide work of every trigger as
    one chain, up to one product with ``emb``, whatever the batch size."""

    @staticmethod
    def _emb_products(net, monkeypatch) -> tuple[list[int], list[tuple]]:
        """Triggers in each product with ``emb``, and the shapes of every
        tensor that is concatenated."""
        triggers, joined = [], []
        matmul, concat = ad.matmul, ad.concat

        def counting(a, b):
            if b is net.emb:
                triggers.append(a.shape[0])
            return matmul(a, b)

        def recording(tensors, axis=0):
            joined.extend(t.shape for t in tensors)
            return concat(tensors, axis)

        monkeypatch.setattr(ad, "matmul", counting)
        monkeypatch.setattr(ad, "concat", recording)
        return triggers, joined

    def test_one_product_for_one_context(self, monkeypatch):
        """One context, and a batch whose selections (8 triggers x rows x
        channels x vocabulary float64 entries) exceed the 4 MiB budget that
        used to cut the triggers into groups: one product, no V-wide concat."""
        net, _, ctx, _ = _tiny_setup(num_triggers=8)
        cfg = net.config
        split = m.TF_BLOCK_BYTES // (8 * 8 * cfg.conv_channels * cfg.vocab_size) + 1
        triggers, joined = self._emb_products(net, monkeypatch)
        for batch in (1, split):
            triggers.clear()
            joined.clear()
            rows = ctx[np.arange(batch) % len(ctx)]
            with ad.no_grad():
                xs = net.prominent_semantics(rows)
            assert xs.shape == (8, batch, cfg.hidden_dim)
            assert triggers == [8], batch
            assert all(shape[-1] != cfg.vocab_size for shape in joined), batch

    @pytest.mark.parametrize("budget_triggers", [100, 3, 0])
    def test_outputs_and_emb_gradient_match_per_trigger_products(self, budget_triggers,
                                                            monkeypatch):
        """The one chain against one conv/dense/mask/noise/softmax chain per
        trigger on that trigger's own arrays, drawing the noise trigger by
        trigger from the same stream. TF_BLOCK_BYTES, set to the selections
        of ``budget_triggers`` triggers (0 means one byte), bounds teacher
        forcing only and leaves external guidance as it is."""
        net, _, ctx, _ = _tiny_setup(num_triggers=8)
        batch, cfg = ctx.shape[0], net.config
        one = 8 * batch * cfg.conv_channels * cfg.vocab_size
        monkeypatch.setattr(m, "TF_BLOCK_BYTES", max(1, budget_triggers * one))
        mask_row = np.zeros((1, 1, cfg.vocab_size))
        mask_row[..., :4] = -np.inf
        weights = Tensor(np.random.default_rng(7).normal(size=(8 * batch, 2, 5)))

        net.zero_grad()
        got = net.external_guidance(net.embed_matrix(ctx), Rng(5), noise=True)
        ad.tsum(ad.mul(got, weights)).backward()
        got_grads = {k: net.params[k].grad for k in ("emb", "eg.kernel", "eg.dense")}

        net.zero_grad()
        rng, c_emb = Rng(5), net.embed_matrix(ctx)
        triggers = [tuple(Tensor(a.copy(), requires_grad=True) for a in _trigger(net, "eg", i))
                    for i in range(8)]
        want = []
        for kernel, dense in triggers:
            logits = ad.add(ad.matmul(ad.conv_seq(c_emb, kernel), dense), Tensor(mask_row))
            selection = ad.gumbel_softmax(logits, cfg.tau, rng=rng, noise=True)
            want.append(ad.matmul(selection, net.emb))
        want = ad.concat(want)
        ad.tsum(ad.mul(want, weights)).backward()

        def close(g, w):
            return np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

        assert close(got.values, want.values)
        assert close(got_grads["emb"], net.emb.grad)
        for i, (kernel, dense) in enumerate(triggers):
            where = dict(branch_slices(net, i))
            assert close(got_grads["eg.kernel"][where["eg.kernel"]], kernel.grad), i
            assert close(got_grads["eg.dense"][where["eg.dense"]], dense.grad), i


class TestElbo:
    def test_matched_heads_give_zero_kl(self):
        net, _, ctx, resp = _tiny_setup()
        _zero(net.rec_w)
        _zero(net.pri_w)
        net.pri_b.values = net.rec_b.values.copy()
        with ad.no_grad():
            r_e = net.encode_ids(resp)
            xs = net.prominent_semantics(ctx, noise=False)
            out = net.elbo(resp, xs[0], r_e, kl_weight=1.0, eps=_eps(net, resp))
        np.testing.assert_allclose(out["kl"].values, 0.0, atol=1e-12)
        np.testing.assert_allclose(out["elbo"].values, out["recon"].values)

    def test_zero_kl_weight_ignores_kl(self):
        net, _, ctx, resp = _tiny_setup()
        with ad.no_grad():
            r_e = net.encode_ids(resp)
            xs = net.prominent_semantics(ctx, noise=False)
            out = net.elbo(resp, xs[0], r_e, kl_weight=0.0, eps=_eps(net, resp))
        assert np.all(out["kl"].values > 0)
        np.testing.assert_allclose(out["elbo"].values, out["recon"].values)

    def test_uniform_decoder_closed_form(self):
        # 3 real tokens plus the end marker = 4 scored positions
        net, vocab, _, _ = _tiny_setup()
        assert vocab.size == 10
        for name in ("dec.wx", "dec.wh", "dec.bx", "dec.bh", "out.w", "out.b",
                     "init.w", "init.b"):
            _zero(net.params[name])
        pair = DialoguePair(("a",), ("a", "b", "c"))
        ctx, resp = encode_pairs([pair], vocab, net.config.max_len)
        with ad.no_grad():
            r_e = net.encode_ids(resp)
            xs = net.prominent_semantics(ctx, noise=False)
            out = net.elbo(resp, xs[0], r_e, kl_weight=0.0, eps=_eps(net, resp))
        assert out["recon"].values[0] == pytest.approx(4 * np.log(1 / 10), rel=1e-12)

    def test_elbo_never_exceeds_recon_under_positive_kl(self):
        net, _, ctx, resp = _tiny_setup()
        with ad.no_grad():
            r_e = net.encode_ids(resp)
            xs = net.prominent_semantics(ctx, noise=False)
            out = net.elbo(resp, xs[0], r_e, kl_weight=0.7, eps=_eps(net, resp))
        assert np.all(out["kl"].values > 0)
        assert np.all(out["elbo"].values <= out["recon"].values)

    def test_bad_kl_weight(self):
        net, _, ctx, resp = _tiny_setup()
        with pytest.raises(DomainError):
            net.elbo(resp, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))),
                     kl_weight=1.5, eps=_eps(net, resp))


def _ablation_batch(seed, batch=9, vocab_seed=None, net_seed=None, **overrides):
    """A fresh model and a batch at the ablation acceptance test's shape
    (V=80, D=H=Z=16, M=4, B=9, max_len=8), contexts and responses of spread
    lengths; ``overrides`` change the model configuration."""
    r = np.random.default_rng(seed)

    def words(n):
        return tuple(f"w{i}" for i in r.integers(0, 120, n))

    pairs = [DialoguePair(words(int(r.integers(1, 9))), words(int(r.integers(1, 9))))
             for _ in range(batch)]
    vocab = build_vocab(pairs, max_size=80, emb_dim=16,
                        seed=seed if vocab_seed is None else vocab_seed)
    cfg = dict(vocab_size=vocab.size, max_len=8, emb_dim=16, hidden_dim=16,
               latent_dim=16, kernel_width=3, conv_channels=2, num_triggers=4, tau=0.1)
    cfg.update(overrides)
    net = m.SegCVAE(m.ModelConfig(**cfg), vocab.embedding,
                    Rng(seed + 1 if net_seed is None else net_seed))
    ctx, resp = encode_pairs(pairs, vocab, net.config.max_len)
    return net, ctx, resp


def _ablation_shape_setup():
    """The model and a batch at the shape of the ablation acceptance test
    (V=80, D=H=Z=16, M=4, B=9, max_len=8), with responses of spread lengths."""
    net, _, resp = _ablation_batch(17, vocab_seed=5, net_seed=6)
    state = Tensor(np.random.default_rng(18).normal(size=(9, 16)) * 0.5)
    return net, resp, state


def _per_step_teacher_forcing(net, resp, state):
    """Reference: decode_step and log_softmax one time step at a time."""
    inputs, targets = resp[:, :-1], resp[:, 1:]
    live = targets != PAD_ID
    steps = int(live.any(axis=0).sum())
    recon = Tensor(np.zeros(resp.shape[0]))
    expected = []
    for t in range(steps):
        logits, state = net.decode_step(state, inputs[:, t])
        logp = ad.log_softmax(logits)
        picked = ad.take(logp, (np.arange(len(resp)), targets[:, t]))
        recon = ad.add(recon, ad.mul(picked, Tensor(live[:, t].astype(np.float64))))
        expected.append(ad.matmul(ad.exp(logp), net.emb))
    rows = [ad.reshape(e, (e.shape[0], 1, e.shape[1])) for e in expected]
    return recon, ad.gru_encode(net.enc, ad.concat(rows, axis=1), live[:, :steps].sum(axis=1))


class TestTeacherForcedBlocks:
    @pytest.mark.parametrize("block_steps", [None, 1, 3])
    def test_matches_per_step_decoding(self, block_steps, monkeypatch):
        """None keeps the byte budget (one block at this shape); 1 and 3
        shrink it to one and three rows' worth of positions, so that the
        block loop runs several times."""
        net, resp, state = _ablation_shape_setup()
        if block_steps is not None:
            monkeypatch.setattr(m, "TF_BLOCK_BYTES",
                                8 * resp.shape[0] * net.config.vocab_size * block_steps)
        with ad.no_grad():
            want_recon, want_generated = _per_step_teacher_forcing(net, resp, state)
            recon, generated = net._teacher_forced(resp, state, want_generated=True)
        assert (resp[:, 1:] != PAD_ID).any(axis=0).sum() > 3
        np.testing.assert_allclose(recon.values, want_recon.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(generated.values, want_generated.values,
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("block_steps", [None, 1, 3])
    def test_scoring_pass_equals_the_graph_chain(self, block_steps, monkeypatch):
        """Without a graph and without the distillation input, only the
        target entries are computed, in place; the bits are the graph's."""
        net, resp, state = _ablation_shape_setup()
        if block_steps is not None:
            monkeypatch.setattr(m, "TF_BLOCK_BYTES",
                                8 * resp.shape[0] * net.config.vocab_size * block_steps)
        assert (resp[:, 1:] == PAD_ID).any(axis=1).sum() > 1  # padded rows
        graph, _ = net._teacher_forced(resp, state, want_generated=False)
        assert graph._backward is not None
        with ad.no_grad():
            scored, generated = net._teacher_forced(resp, state, want_generated=False)
        assert generated is None and scored._backward is None
        assert scored.values.tobytes() == graph.values.tobytes()

    def test_gradients_match_per_step_decoding(self, monkeypatch):
        monkeypatch.setattr(m, "TF_BLOCK_BYTES", 1)  # one time step per block
        grads = []
        for forward in (_per_step_teacher_forcing,
                        lambda net, resp, state: net._teacher_forced(resp, state, True)):
            net, resp, state = _ablation_shape_setup()
            recon, generated = forward(net, resp, state)
            net.zero_grad()
            ad.add(ad.tsum(recon), ad.tsum(generated)).backward()
            grads.append({k: p.grad for k, p in net.params.items() if p.grad is not None})
        assert grads[0].keys() == grads[1].keys()
        for name, g in grads[0].items():
            np.testing.assert_allclose(grads[1][name], g, rtol=1e-10, atol=1e-13, err_msg=name)


class TestPackedPositions:
    """_teacher_forced runs the vocabulary work on the live (row, step)
    positions only, packed into blocks, and scatters the results back."""

    @staticmethod
    def _block_rows(net, monkeypatch) -> tuple[list[int], list[int]]:
        """Rows of each out-projection block: the in-place scorer's and the
        graph path's."""
        scorer, graph = [], []
        target_log_probs, linear = net._target_log_probs, ad.linear
        monkeypatch.setattr(net, "_target_log_probs", lambda states, targets: (
            scorer.append(states.shape[0]) or target_log_probs(states, targets)))
        monkeypatch.setattr(ad, "linear", lambda x, w, b: (
            graph.append(x.shape[0]) if w is net.out_w else None) or linear(x, w, b))
        return scorer, graph

    @pytest.mark.parametrize("budget_positions", [0, 1, 5, 16])
    def test_blocks_keep_to_the_budget_whatever_the_row_count(self, budget_positions,
                                                              monkeypatch):
        """72 rows, so that one time step alone is over the budget; 0 means
        a budget of one byte."""
        net, resp, state = _ablation_shape_setup()
        resp, state = np.tile(resp, (8, 1)), Tensor(np.tile(state.values, (8, 1)))
        one = 8 * net.config.vocab_size  # bytes of one position's (1, vocab) array
        budget = max(1, budget_positions * one)
        monkeypatch.setattr(m, "TF_BLOCK_BYTES", budget)
        scorer, graph = self._block_rows(net, monkeypatch)
        with ad.no_grad():
            net._teacher_forced(resp, state, want_generated=False)
            net._teacher_forced(resp, state, want_generated=True)
        live = int((resp[:, 1:] != PAD_ID).sum())
        assert one * resp.shape[0] > budget
        for rows in (scorer, graph):
            assert sum(rows) == live
            assert all(r * one <= max(budget, one) for r in rows)

    def test_row_without_a_target_scores_zero_and_gets_no_gradient(self):
        net, resp, state = _ablation_shape_setup()
        resp[2, 1:] = PAD_ID  # only the start marker: no target to score
        state = Tensor(state.values, requires_grad=True)
        recon, generated = net._teacher_forced(resp, state, want_generated=False)
        assert recon.values[2] == 0.0 and np.all(recon.values[resp[:, 1] != PAD_ID] < 0)
        ad.tsum(recon).backward()
        assert np.all(state.grad[2] == 0.0)
        assert np.all(np.any(np.delete(state.grad, 2, axis=0) != 0.0, axis=1))

    def test_row_without_a_target_has_no_distillation_input(self):
        """Its encoding would be of an empty sequence."""
        net, resp, state = _ablation_shape_setup()
        resp[2, 1:] = PAD_ID
        with pytest.raises(DomainError, match="empty sequence"):
            net._teacher_forced(resp, state, want_generated=True)

    @pytest.mark.parametrize("block_positions", [None, 1, 4])
    def test_one_full_row_among_one_target_rows(self, block_positions, monkeypatch):
        net, resp, state = _ablation_shape_setup()
        resp[1:, 2:] = PAD_ID  # one target each
        resp[0, 1:] = np.arange(4, 4 + resp.shape[1] - 1)  # a target at every step
        if block_positions is not None:
            monkeypatch.setattr(m, "TF_BLOCK_BYTES", 8 * net.config.vocab_size * block_positions)
        with ad.no_grad():
            want_recon, want_generated = _per_step_teacher_forcing(net, resp, state)
            recon, generated = net._teacher_forced(resp, state, want_generated=True)
            scored, _ = net._teacher_forced(resp, state, want_generated=False)
        np.testing.assert_allclose(recon.values, want_recon.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(generated.values, want_generated.values,
                                   rtol=1e-12, atol=1e-14)
        assert scored.values.tobytes() == recon.values.tobytes()

    @pytest.mark.parametrize("recorded", [False, True])
    def test_no_target_at_all_scores_zeros(self, recorded):
        net, resp, state = _ablation_shape_setup()
        resp[:, 1:] = PAD_ID
        state = Tensor(state.values, requires_grad=recorded)
        with contextlib.nullcontext() if recorded else ad.no_grad():
            recon, generated = net._teacher_forced(resp, state, want_generated=False)
        assert generated is None
        assert recon.values.tobytes() == np.zeros(resp.shape[0]).tobytes()
        with pytest.raises(DomainError, match="empty sequence"):
            net._teacher_forced(resp, state, want_generated=True)


class TestForwardLosses:
    def test_deterministic_given_seed(self):
        net, _, ctx, resp = _tiny_setup()
        a = net.forward_losses(ctx, resp, 0.5, Rng(21))
        b = net.forward_losses(ctx, resp, 0.5, Rng(21))
        assert a["elbo_plus"].values.tobytes() == b["elbo_plus"].values.tobytes()
        assert a["san"].values.tobytes() == b["san"].values.tobytes()
        np.testing.assert_array_equal(a["positive"], b["positive"])

    def test_gradient_blocking_on_unselected_branches(self):
        net, _, ctx, resp = _tiny_setup(num_triggers=3)
        row_ctx, row_resp = ctx[:1], resp[:1]
        parts = net.forward_losses(row_ctx, row_resp, 0.5, Rng(5))
        loss = ad.mul(m.total_loss(parts["elbo_plus"], parts["san"], parts["scn"],
                                   parts["sdn"], lambda_w=0.0), -1.0)
        net.zero_grad()
        loss.backward()
        selected = set(parts["positive"].tolist())
        assert len(selected) == 1
        for i in range(3):
            slices = branch_slices(net, i)
            assert len(slices) == 4, "a kernel and a dense slice per family"
            grads = [net.params[name].grad[where] for name, where in slices]
            if i in selected:
                assert any(np.any(g != 0) for g in grads)
            else:
                for g in grads:
                    assert not np.any(g != 0)

    def test_norms_reach_all_branches(self):
        net, _, ctx, resp = _tiny_setup(num_triggers=2)
        parts = net.forward_losses(ctx, resp, 0.5, Rng(5))
        loss = ad.mul(m.total_loss(parts["elbo_plus"], parts["san"], parts["scn"],
                                   parts["sdn"], lambda_w=1.0), -1.0)
        net.zero_grad()
        loss.backward()
        for i in range(2):
            for name, where in branch_slices(net, i):
                assert np.any(net.params[name].grad[where] != 0), (i, name)

    def test_the_selection_and_the_vocabulary_head_each_hold_one_wide_buffer(self):
        """External guidance's softmax is written over its projection, and the
        teacher-forcing block's log-softmax over its out-projection, whose
        expected embedding holds no exp(logp): the graph's (..., V) arrays
        are two buffers, each held by a projection and its softmax."""
        net, _, ctx, resp = _tiny_setup()
        vocab = net.config.vocab_size
        parts = net.forward_losses(ctx, resp, 0.5, Rng(5))
        nodes = _graph_nodes([parts[k] for k in ("elbo_plus", "san", "scn", "sdn")])
        buffers: list[list[np.ndarray]] = []
        for node in nodes:
            if node._parents and node.values.ndim > 1 and node.values.shape[-1] == vocab:
                group = next((g for g in buffers if np.shares_memory(g[0], node.values)), None)
                if group is None:
                    buffers.append([node.values])
                else:
                    group.append(node.values)
        assert sorted((len(g), g[0].ndim) for g in buffers) == [(2, 2), (2, 3)]

    def test_sdn_skipped_for_singleton_batch(self):
        net, _, ctx, resp = _tiny_setup()
        parts = net.forward_losses(ctx[:1], resp[:1], 0.5, Rng(5))
        assert parts["sdn"].values == 0.0


def _one_hot_reference(net, ctx, resp, kl_weight, rng):
    """The all-branch forward pass: every branch decoded with a graph, each
    bound and distillation encoding mixed by an exact-zero one-hot."""
    cfg = net.config
    batch = ctx.shape[0]
    r_e = net.encode_ids(resp)
    xs = net.prominent_semantics(ctx, rng, noise=True)
    want_generated = not cfg.no_sdn and batch >= 2
    branches = [net.elbo(resp, x, r_e, kl_weight, rng.normal((batch, cfg.latent_dim)),
                         want_generated) for x in xs]
    positive = np.atleast_1d(m.select_positive(np.stack([b["elbo"].values for b in branches])))
    one_hot = np.zeros((cfg.num_triggers, batch))
    one_hot[positive, np.arange(batch)] = 1.0
    elbo_plus = Tensor(np.zeros(batch))
    for i, b in enumerate(branches):
        elbo_plus = ad.add(elbo_plus, ad.mul(b["elbo"], Tensor(one_hot[i])))
    sdn_v = Tensor(np.zeros(()))
    if want_generated:
        generated = Tensor(np.zeros((batch, cfg.hidden_dim)))
        for i, b in enumerate(branches):
            generated = ad.add(generated, ad.mul(b["generated"], Tensor(one_hot[i][:, None])))
        sdn_v = m.sdn(r_e.detach(), generated)
    loss = m.total_loss(ad.tmean(elbo_plus), m.san(ad.transpose(xs, (1, 0, 2))),
                        m.scn(net.encode_ids(ctx), xs), sdn_v, lambda_w=1.0)
    return loss, positive


def _loss_and_grads(net, forward):
    net.zero_grad()
    loss, positive = forward()
    loss.backward()
    return loss.item(), positive, {k: p.grad for k, p in net.params.items()}


def _graph_nodes(roots):
    seen, stack, nodes = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestTwoPassForward:
    """forward_losses scores every branch without a graph and differentiates
    only the winners; it must train exactly like the all-branch pass."""

    @pytest.mark.parametrize("seed, batch, overrides", [
        (21, 9, {}), (22, 9, {}), (23, 9, {}),
        (24, 1, {}),                              # no distillation
        (25, 9, {"no_is": True, "no_eg": True}),  # every branch is the context encoding
    ])
    def test_matches_the_one_hot_reference(self, seed, batch, overrides):
        net, ctx, resp = _ablation_batch(seed, batch, **overrides)

        def two_pass():
            parts = net.forward_losses(ctx, resp, 0.5, Rng(seed))
            loss = m.total_loss(parts["elbo_plus"], parts["san"], parts["scn"],
                                parts["sdn"], lambda_w=1.0)
            return loss, parts["positive"]

        want_loss, want_positive, want = _loss_and_grads(
            net, lambda: _one_hot_reference(net, ctx, resp, 0.5, Rng(seed)))
        loss, positive, got = _loss_and_grads(net, two_pass)
        assert loss == want_loss
        np.testing.assert_array_equal(positive, want_positive)
        for name, g in want.items():
            assert (got[name] is None) == (g is None), name
            if g is not None:
                assert np.abs(got[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_draws_the_noise_of_one_draw_per_branch(self):
        net, ctx, resp = _ablation_batch(26)
        rng = Rng(7)
        net.forward_losses(ctx, resp, 0.5, rng)
        want = Rng(7)
        with ad.no_grad():
            net.prominent_semantics(ctx, want, noise=True)
        for _ in range(net.config.num_triggers):
            want.normal((ctx.shape[0], net.config.latent_dim))
        np.testing.assert_array_equal(rng.get_state(), want.get_state())

    def test_graph_holds_one_branch_decode(self):
        # without vocabulary selection only the decoder makes (..., V) nodes
        counts = []
        for num_triggers in (2, 4):
            net, ctx, resp = _ablation_batch(27, num_triggers=num_triggers, no_eg=True)
            parts = net.forward_losses(ctx, resp, 0.5, Rng(3))
            roots = [parts[k] for k in ("elbo_plus", "san", "scn", "sdn")]
            vocab = net.config.vocab_size
            counts.append(sum(1 for t in _graph_nodes(roots)
                              if t._parents and t.shape[-1:] == (vocab,)))
        assert counts[0] == counts[1] > 0

    def test_semantics_graph_does_not_grow_with_the_trigger_count(self):
        """One chain per selection path whatever M: the tensors reachable
        from the semantics (leaves included) number the same for M=2 and M=4."""
        counts = []
        for num_triggers in (2, 4):
            net, ctx, _ = _ablation_batch(28, num_triggers=num_triggers)
            xs = net.prominent_semantics(ctx, Rng(3), noise=True)
            counts.append(len(_graph_nodes([xs])))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("num_triggers", [1, 2, 8])
    def test_one_parameter_per_trigger_family_array(self, num_triggers):
        net, _, _ = _ablation_batch(29, num_triggers=num_triggers)
        assert len(net.params) == 21
        arrays = net.state_arrays()
        assert list(arrays) == list(net.params)
        assert all(arrays[name] is p.values for name, p in net.params.items())

    def test_reparameterize_rejects_noise_of_another_shape(self):
        mu, logvar = Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4)))
        np.testing.assert_array_equal(ad.reparameterize(mu, logvar, np.ones((3, 4))).values, 1.0)
        with pytest.raises(ShapeError):
            ad.reparameterize(mu, logvar, np.ones((4, 3)))


class TestBatchedBranches:
    """The M branches run as one branch-major batch of M*B rows; each must
    compute what it computes alone."""

    @pytest.mark.parametrize("seed, batch, overrides", [
        (31, 9, {}), (32, 9, {}), (33, 9, {}),
        (34, 1, {}),
        (35, 9, {"no_is": True, "no_eg": True}),
    ])
    def test_branch_elbos_match_a_per_branch_loop(self, seed, batch, overrides):
        net, ctx, resp = _ablation_batch(seed, batch, **overrides)
        parts = net.forward_losses(ctx, resp, 0.5, Rng(seed))
        rng = Rng(seed)
        with ad.no_grad():
            r_e = net.encode_ids(resp)
            xs = net.prominent_semantics(ctx, rng, noise=True)
            eps = rng.normal((net.config.num_triggers, batch, net.config.latent_dim))
            want = np.stack([net.elbo(resp, x, r_e, 0.5, eps[i])["elbo"].values
                             for i, x in enumerate(xs)])
        assert parts["branch_elbos"].shape == want.shape
        np.testing.assert_allclose(parts["branch_elbos"], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("overrides", [{}, {"no_is": True}, {"no_eg": True}])
    def test_semantics_match_encoding_each_selection_alone(self, overrides):
        net, ctx, _ = _ablation_batch(36, **overrides)
        with ad.no_grad():
            xs = net.prominent_semantics(ctx, Rng(4), noise=True)
            rng = Rng(4)
            c_emb = net.embed_matrix(ctx)
            paths = []
            if not net.config.no_is:
                paths.append(net.internal_separation(c_emb, ctx == PAD_ID, rng, noise=True))
            if not net.config.no_eg:
                paths.append(net.external_guidance(c_emb, rng, noise=True))
            batch = ctx.shape[0]
            want = [ad.gru_encode(net.enc, ad.concat([p[i * batch:(i + 1) * batch] for p in paths],
                                                     axis=1))
                    for i in range(net.config.num_triggers)]
        assert xs.shape[0] == len(want) == net.config.num_triggers
        for x, w in zip(xs, want):
            assert x.shape == (ctx.shape[0], net.config.hidden_dim)
            np.testing.assert_allclose(x.values, w.values, rtol=1e-12, atol=1e-15)

    def test_one_encoder_pass_and_one_scoring_pass(self, monkeypatch):
        net, ctx, resp = _ablation_batch(37, num_triggers=4)
        encodes, elbo_rows = [], []
        gru_encode, elbo = ad.gru_encode, net.elbo
        monkeypatch.setattr(ad, "gru_encode",
                            lambda p, seq, lengths=None: encodes.append(seq.shape) or
                            gru_encode(p, seq, lengths))
        monkeypatch.setattr(net, "elbo",
                            lambda resp_ids, x, *a: elbo_rows.append(x.shape[0]) or
                            elbo(resp_ids, x, *a))
        net.prominent_semantics(ctx, Rng(1), noise=True)
        assert len(encodes) == 1 and encodes[0][0] == 4 * ctx.shape[0]
        net.forward_losses(ctx, resp, 0.5, Rng(1))
        assert elbo_rows == [4 * ctx.shape[0], ctx.shape[0]]  # scoring, then the winners


class TestModelState:
    def test_state_roundtrip(self, tmp_path):
        net, vocab, ctx, resp = _tiny_setup()
        path = tmp_path / "model.ckpt"
        ad.save_checkpoint(path, net.state_arrays(), net.config.meta())
        arrays, meta = ad.load_checkpoint(path)
        config = m.ModelConfig.from_meta(meta)
        assert config == net.config
        clone = m.SegCVAE(config, vocab.embedding, Rng(99))
        clone.load_state(arrays)
        with ad.no_grad():
            a = net.forward_losses(ctx, resp, 0.5, Rng(1))
            b = clone.forward_losses(ctx, resp, 0.5, Rng(1))
        np.testing.assert_array_equal(a["elbo_plus"].values, b["elbo_plus"].values)

    def test_missing_parameter_rejected(self):
        net, vocab, _, _ = _tiny_setup()
        arrays = net.state_arrays()
        arrays.pop("out.w")
        clone = m.SegCVAE(net.config, vocab.embedding, Rng(0))
        with pytest.raises(DomainError):
            clone.load_state(arrays)

    @pytest.mark.parametrize("broken", ["missing", "misshapen"])
    def test_rejected_load_changes_nothing(self, broken):
        """Every entry is checked before any is copied: a bad last-created
        parameter leaves every parameter's bytes as they were."""
        net, vocab, _, _ = _tiny_setup()
        clone = m.SegCVAE(net.config, vocab.embedding, Rng(99))
        before = {k: v.copy() for k, v in clone.state_arrays().items()}
        arrays = {k: v.copy() for k, v in net.state_arrays().items()}
        last = list(m.parameter_shapes(net.config))[-1]
        if broken == "missing":
            del arrays[last]
        else:
            arrays[last] = arrays[last][:-1]
        with pytest.raises(DomainError if broken == "missing" else ShapeError, match=last):
            clone.load_state(arrays)
        for name, p in clone.params.items():
            assert p.values.tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize("overrides", [{}, {"no_is": True}, {"no_eg": True},
                                           {"no_is": True, "no_eg": True}],
                             ids=["all", "no_is", "no_eg", "no_is+no_eg"])
    def test_parameter_shapes_is_the_parameter_list(self, overrides):
        """Fresh and stored models hold exactly the table's parameters, in
        its order and at its shapes; an ablated family's aliases are None."""
        net, _, _, _ = _tiny_setup(num_triggers=3, **overrides)
        shapes = m.parameter_shapes(net.config)
        clone = m.SegCVAE.from_arrays(net.config, net.state_arrays())
        for model in (net, clone):
            assert list(shapes) == list(model.params)
            assert {k: p.shape for k, p in model.params.items()} == shapes
            for path in ("is", "eg"):
                ablated = overrides.get(f"no_{path}", False)
                assert (getattr(model, f"{path}_kernel") is None) == ablated
                assert (getattr(model, f"{path}_dense") is None) == ablated
            assert model.enc.wx is model.params["enc.wx"] and model.dec.bh is model.params["dec.bh"]
            assert model.rec_w is model.params["rec.w"] and model.out_b is model.params["out.b"]

    def test_load_state_writes_into_the_live_buffers(self):
        """Each parameter keeps its array and takes the loaded values, also
        when handed the model's own arrays (a no-op)."""
        net, vocab, _, _ = _tiny_setup()
        clone = m.SegCVAE(net.config, vocab.embedding, Rng(99))
        buffers = dict(clone.state_arrays())
        clone.load_state({k: v.copy() for k, v in net.state_arrays().items()})
        for name, p in clone.params.items():
            assert p.values is buffers[name], name
            assert p.values.tobytes() == net.params[name].values.tobytes(), name
        before = {k: v.copy() for k, v in clone.state_arrays().items()}
        clone.load_state(clone.state_arrays())
        for name, p in clone.params.items():
            assert p.values is buffers[name], name
            assert p.values.tobytes() == before[name].tobytes(), name

    def test_from_arrays_draws_nothing_and_copies_nothing(self, monkeypatch):
        """Every array, trigger families included, becomes a live parameter
        as it is."""
        net, vocab, ctx, resp = _tiny_setup()
        arrays = {k: v.copy() for k, v in net.state_arrays().items()}
        monkeypatch.setattr(ad, "glorot", lambda *a, **k: pytest.fail("random draw"))
        monkeypatch.setattr(Rng, "uniform_into", lambda *a, **k: pytest.fail("random draw"))
        clone = m.SegCVAE.from_arrays(net.config, arrays)
        assert list(clone.params) == list(net.params) == list(arrays)
        assert {"is.kernel", "is.dense", "eg.kernel", "eg.dense"} <= set(clone.params)
        for name, p in clone.params.items():
            assert p.values is arrays[name], name
            assert clone.state_arrays()[name] is arrays[name], name
        with ad.no_grad():
            a = net.forward_losses(ctx, resp, 0.5, Rng(1))
            b = clone.forward_losses(ctx, resp, 0.5, Rng(1))
        np.testing.assert_array_equal(a["elbo_plus"].values, b["elbo_plus"].values)

    def test_the_constructor_copies_the_callers_table(self):
        """``SegCVAE(config, table, rng)`` keeps a copy of ``table``: writing
        the model's ``emb`` leaves the caller's array as it was, and two
        models built from one table and one seed hold equal bytes in arrays
        that share no memory with each other or with the table."""
        net, vocab, _, _ = _tiny_setup()
        table = vocab.embedding
        before = table.copy()
        a, b = (m.SegCVAE(net.config, table, Rng(11)) for _ in range(2))
        for name, p in a.params.items():
            assert p.values.tobytes() == b.params[name].values.tobytes() == \
                net.params[name].values.tobytes(), name
            assert not np.shares_memory(p.values, table), name
            assert not any(np.shares_memory(p.values, q.values) for q in b.params.values()), name
        a.emb.values += 1.0
        assert table.tobytes() == before.tobytes()
        assert b.emb.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("num_triggers, overrides", [(3, {}), (2, {"no_is": True})])
    def test_fresh_families_are_drawn_one_trigger_at_a_time(self, num_triggers, overrides):
        """A fresh model's families hold what drawing each trigger alone,
        kernel then projection, in parameter order gives, byte for byte."""
        net, _, _, _ = _tiny_setup(num_triggers=num_triggers, **overrides)
        c, rng = net.config, Rng(11)
        conv_len = c.max_len - c.kernel_width + 1
        ad.glorot((c.emb_dim, 3 * c.hidden_dim), rng)  # enc.wx
        ad.glorot((c.hidden_dim, 3 * c.hidden_dim), rng)  # enc.wh
        for path, width in (("is", c.max_len), ("eg", c.vocab_size)):
            if f"{path}.kernel" not in net.params:
                continue
            for i in range(num_triggers):
                kernel = ad.glorot((c.kernel_width, c.emb_dim, 1, c.conv_channels), rng).values
                dense = ad.glorot((conv_len, width), rng).values
                got_kernel, got_dense = _trigger(net, path, i)
                assert got_kernel.tobytes() == kernel.tobytes(), (path, i)
                assert got_dense.tobytes() == dense.tobytes(), (path, i)
        rec_w = ad.glorot((2 * c.hidden_dim, 2 * c.latent_dim), rng).values
        assert net.rec_w.values.tobytes() == rec_w.tobytes()

    def test_from_arrays_checks_names_and_shapes(self):
        net, _, _, _ = _tiny_setup()
        arrays = net.state_arrays()
        arrays.pop("dec.bh")
        with pytest.raises(DomainError, match="missing parameter 'dec.bh'"):
            m.SegCVAE.from_arrays(net.config, arrays)
        arrays = net.state_arrays()
        arrays["out.w"] = arrays["out.w"][:, :-1]
        with pytest.raises(ShapeError, match="'out.w'"):
            m.SegCVAE.from_arrays(net.config, arrays)
