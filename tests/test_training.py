"""Unit tests for schedules, the optimizer, and the training loop."""

import contextlib
import gc
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from segcvae import autodiff as ad
from segcvae import training as tr
from segcvae.autodiff import Rng, Tensor
from segcvae.corpus import PAD_ID, DialoguePair, build_vocab, encode_pairs
from segcvae.errors import (DomainError, EmptyCorpus, NonFiniteGradient, NonFiniteLoss,
                            ShapeError)
from segcvae.model import SegCVAE

from branches import branch_slices


def _toy_corpus(n=16):
    """n distinct pairs with tiny vocabulary overlap."""
    pairs = []
    for i in range(n):
        pairs.append(DialoguePair((f"q{i}", "do", "you"), (f"a{i}", "yes", f"b{i}")))
    return pairs


def _desk_config(**overrides):
    cfg = dict(learning_rate=0.003, batch_size=8, epochs=2, snorm_step=200,
               kl_anneal_steps=400, seed=123456, vocab_cap=64, max_len=8,
               emb_dim=8, hidden_dim=8, latent_dim=4, kernel_width=2,
               conv_channels=2, num_triggers=2, tau=0.1)
    cfg.update(overrides)
    return tr.TrainingConfig(**cfg)


def _setup(n=16, **overrides):
    cfg = _desk_config(**overrides)
    pairs = _toy_corpus(n)
    vocab = build_vocab(pairs, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim,
                        seed=cfg.seed)
    data = encode_pairs(pairs, vocab, cfg.max_len)
    return cfg, pairs, vocab, data


def _grads_at_update(monkeypatch) -> list[dict]:
    """Record, at each ``Adam.step``, the gradient each parameter holds then
    (``train_step`` lets them go once the update has used them)."""
    seen, step = [], tr.Adam.step

    def recording(opt, *args, **kwargs):
        seen.append({k: p.grad for k, p in opt.params.items() if p.grad is not None})
        return step(opt, *args, **kwargs)

    monkeypatch.setattr(tr.Adam, "step", recording)
    return seen


class TestSchedules:
    def test_lambda_ramp(self):
        cfg = _desk_config(snorm_step=1000)
        assert tr.lambda_schedule(0, cfg) == 0.0
        assert tr.lambda_schedule(500, cfg) == 0.5
        assert tr.lambda_schedule(1000, cfg) == 1.0
        assert tr.lambda_schedule(5000, cfg) == 1.0

    def test_lambda_constant_override(self):
        cfg = _desk_config(lambda_constant=1.0)
        for step in (0, 3, 10 ** 6):
            assert tr.lambda_schedule(step, cfg) == 1.0

    def test_kl_ramp(self):
        cfg = _desk_config(kl_anneal_steps=10000)
        assert tr.kl_anneal(0, cfg) == 0.0
        assert tr.kl_anneal(5000, cfg) == 0.5
        assert tr.kl_anneal(10000, cfg) == 1.0
        assert tr.kl_anneal(20000, cfg) == 1.0

    def test_monotone_nondecreasing(self):
        cfg = _desk_config(snorm_step=77, kl_anneal_steps=131)
        lam = [tr.lambda_schedule(s, cfg) for s in range(300)]
        klw = [tr.kl_anneal(s, cfg) for s in range(300)]
        assert all(b >= a for a, b in zip(lam, lam[1:]))
        assert all(b >= a for a, b in zip(klw, klw[1:]))
        assert lam[-1] == klw[-1] == 1.0

    def test_negative_step_rejected(self):
        with pytest.raises(DomainError):
            tr.lambda_schedule(-1, _desk_config())


class TestAdam:
    def test_minimizes_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        w = Tensor(np.zeros(3), requires_grad=True)
        opt = tr.Adam({"w": w}, lr=0.05)
        for _ in range(400):
            w.grad = None
            diff = ad.sub(w, Tensor(target))
            loss = ad.tsum(ad.mul(diff, diff))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.values, target, atol=1e-3)

    def test_clip_rescales_global_norm(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        opt = tr.Adam({"w": w}, lr=0.01)
        g = np.array([30.0, 0.0, 40.0, 0.0])  # norm 50
        w.grad = g.copy()
        opt.step(clip=5.0)
        np.testing.assert_allclose(opt.m["w"], 0.1 * g * (5.0 / 50.0))

    def test_skips_parameters_without_gradient(self):
        w = Tensor(np.ones(2), requires_grad=True)
        u = Tensor(np.ones(2), requires_grad=True)
        opt = tr.Adam({"w": w, "u": u}, lr=0.1)
        w.grad = np.ones(2)
        opt.step()
        assert np.all(u.values == 1.0)
        assert np.all(opt.m["u"] == 0.0)
        assert np.any(w.values != 1.0)

    @pytest.mark.parametrize("clip", [None, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_changes_nothing(self, clip, bad):
        w = Tensor(np.ones(3), requires_grad=True)
        opt = tr.Adam({"w": w}, lr=0.1)
        w.grad = np.array([0.5, bad, 0.5])
        with pytest.raises(NonFiniteGradient):
            opt.step(clip=clip)
        assert opt.t == 0 and np.all(w.values == 1.0)
        assert np.all(opt.m["w"] == 0.0) and np.all(opt.v["w"] == 0.0)


class _PlainAdam:
    """Reference: the out-of-place update, one whole-array expression per
    line (the optimizer must reproduce its bits)."""

    def __init__(self, values: dict, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.values = {k: v.copy() for k, v in values.items()}
        self.m = {k: np.zeros_like(v) for k, v in values.items()}
        self.v = {k: np.zeros_like(v) for k, v in values.items()}
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0

    def step(self, grads: dict, clip=None) -> float:
        names = sorted(grads)
        norm = math.sqrt(math.fsum(float((grads[k] ** 2).sum()) for k in names))
        scale = clip / norm if clip is not None and norm > clip else 1.0
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for k in names:
            g = grads[k] * scale
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            m_hat = self.m[k] / correct1
            v_hat = self.v[k] / correct2
            self.values[k] = self.values[k] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return norm


class TestInPlaceAdam:
    SHAPES = {"one": (1,), "below": (tr.ADAM_BLOCK - 1,), "above": (tr.ADAM_BLOCK + 1,),
              "rows": (5, tr.ADAM_BLOCK // 2 + 3), "wide": (2, tr.ADAM_BLOCK + 1),
              "matrix": (200, 300), "idle": (7,)}

    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_equals_the_out_of_place_formula_bit_for_bit(self, clip):
        rng = np.random.default_rng(31)
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in self.SHAPES.items()}
        opt = tr.Adam(params, lr=0.01)
        plain = _PlainAdam({k: p.values for k, p in params.items()}, lr=0.01)
        for _ in range(5):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items() if k != "idle"}
            for k, p in params.items():
                p.grad = grads.get(k)
            norm = opt.step(clip=clip)
            assert norm == plain.step(grads, clip=clip)
            assert clip is None or norm > clip  # the clip is active on every step
        for k, p in params.items():
            for got, want in ((p.values, plain.values[k]), (opt.m[k], plain.m[k]),
                              (opt.v[k], plain.v[k])):
                assert got.tobytes() == want.tobytes(), k
        assert np.all(opt.m["idle"] == 0.0) and np.all(opt.v["idle"] == 0.0)

    def test_fresh_moments_take_two_steps_as_the_formula_does(self):
        """Fresh moments are float64 zeros of each parameter's shape (large
        ones are left as untouched zero pages); the first two steps from them
        equal the out-of-place formula bit for bit."""
        rng = np.random.default_rng(33)
        shapes = {"big": (300, 700), "small": (3,), "scalar": ()}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
        opt = tr.Adam(params, lr=0.01)
        for k, p in params.items():
            for moment in (opt.m[k], opt.v[k]):
                assert moment.shape == p.shape and moment.dtype == np.float64
                assert moment.tobytes() == np.zeros_like(p.values).tobytes()
        plain = _PlainAdam({k: p.values for k, p in params.items()}, lr=0.01)
        for _ in range(2):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            for k, p in params.items():
                p.grad = grads[k]
            assert opt.step(clip=1.0) == plain.step(grads, clip=1.0)
        for k, p in params.items():
            for got, want in ((p.values, plain.values[k]), (opt.m[k], plain.m[k]),
                              (opt.v[k], plain.v[k])):
                assert got.tobytes() == want.tobytes(), k

    def test_updates_values_and_moments_in_place(self):
        rng = np.random.default_rng(32)
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in self.SHAPES.items()}
        opt = tr.Adam(params, lr=0.01)
        arrays = {k: (p.values, opt.m[k], opt.v[k]) for k, p in params.items()}
        before = {k: p.values.copy() for k, p in params.items()}
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt.step(clip=1.0)
        for k, p in params.items():
            assert p.values is arrays[k][0] and opt.m[k] is arrays[k][1] and opt.v[k] is arrays[k][2]
            assert not np.array_equal(p.values, before[k]), k

    @pytest.mark.parametrize("which", ["values", "m", "v"])
    def test_a_non_contiguous_parameter_or_moment_is_a_shape_error(self, which):
        arrays = {"values": np.ones((4, 3)), "m": np.zeros((4, 3)), "v": np.zeros((4, 3))}
        arrays[which] = np.zeros((4, 6))[:, ::2]  # every other column: a strided view
        w = Tensor(arrays["values"], requires_grad=True)
        with pytest.raises(ShapeError, match="'w'"):
            tr.Adam({"w": w}, lr=0.01, moments=[{"w": arrays["m"]}, {"w": arrays["v"]}])

    def test_from_arrays_makes_a_non_contiguous_parameter_a_live_contiguous_one(self):
        """A non-contiguous float64 array becomes a C-contiguous copy with its
        values, and Adam updates that copy in place."""
        cfg, pairs, vocab, data = _setup()
        source = tr.init_state(cfg, vocab).model
        arrays = dict(source.state_arrays())
        arrays["out.w"] = np.asfortranarray(arrays["out.w"])
        assert not arrays["out.w"].flags.c_contiguous
        model = SegCVAE.from_arrays(source.config, arrays)
        live = model.params["out.w"].values
        assert live.flags.c_contiguous and live.tobytes() == source.params["out.w"].values.tobytes()
        opt = tr.Adam(model.params, lr=0.01)
        before = live.copy()
        model.params["out.w"].grad = np.ones(live.shape)
        opt.step()
        assert model.params["out.w"].values is live and not np.array_equal(live, before)


class TestInitState:
    def test_no_initial_weight_replays_the_table_draws(self):
        """``build_vocab(..., seed=cfg.seed)`` and the Glorot weights draw from
        different streams.  A weight that rescaled a run of the table's draws
        would share its ratios: its first two values' ratio would equal that
        of two consecutive table entries, whatever the scale."""
        cfg, _, vocab, _ = _setup()
        table = vocab.embedding[1:].ravel()  # the table's draws, in draw order
        table_ratios = table[1:] / table[:-1]
        params = tr.init_state(cfg, vocab).model.params
        weights = {name: p.values.ravel() for name, p in params.items()
                   if name != "emb" and p.values.ndim > 1}
        assert len(weights) > 10 and sum(w.size for w in weights.values()) > table.size
        for name, w in weights.items():
            assert not np.isclose(table_ratios, w[1] / w[0], rtol=1e-9, atol=0).any(), name


class TestTrainStep:
    def test_bitwise_deterministic(self):
        def run():
            cfg, pairs, vocab, data = _setup()
            state = tr.init_state(cfg, vocab)
            lines = []
            for _ in range(3):
                stats = tr.train_step(data, state, cfg)
                lines.append(tr.format_stats(stats))
            return "\n".join(lines)

        assert run() == run()

    def test_the_last_steps_gradients_are_gone_before_the_next_forward(self, monkeypatch):
        """A step's graph is built with no parameter holding a gradient, even
        one a caller left, and no gradient outlives the step; yet every
        parameter holds one when Adam runs."""
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        held, forward_losses = [], tr.SegCVAE.forward_losses

        def recording(model, *args, **kwargs):
            held.append(sorted(k for k, p in model.params.items() if p.grad is not None))
            return forward_losses(model, *args, **kwargs)

        monkeypatch.setattr(tr.SegCVAE, "forward_losses", recording)
        at_update = _grads_at_update(monkeypatch)
        params = state.model.params
        for _ in range(2):
            for p in params.values():  # a caller's stale gradients
                p.grad = np.ones_like(p.values)
            tr.train_step(data, state, cfg)
            assert all(p.grad is None for p in params.values())
        assert held == [[], []]
        assert [sorted(grads) for grads in at_update] == [sorted(params)] * 2

    def test_reduces_to_plain_cvae(self):
        flags = dict(num_triggers=1, no_is=True, no_eg=True, no_san=True,
                     no_scn=True, no_sdn=True)
        cfg, pairs, vocab, data = _setup(**flags)
        state = tr.init_state(cfg, vocab)
        stats = tr.train_step(data, state, cfg)

        # independent single-branch bound with the same seeds
        clone = tr.init_state(cfg, vocab)
        with ad.no_grad():
            r_e = clone.model.encode_ids(data[1])
            x = clone.model.encode_ids(data[0])
            eps = clone.rng.normal((len(data[1]), cfg.latent_dim))
            out = clone.model.elbo(data[1], x, r_e, kl_weight=0.0, eps=eps)
        assert stats["loss"] == -float(out["elbo"].values.mean())
        assert stats["san"] == stats["scn"] == stats["sdn"] == 0.0

    def test_loss_improves_on_toy_corpus(self):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        losses = []
        for _ in range(120):
            index = state.data_rng.permutation(len(pairs))[:cfg.batch_size]
            stats = tr.train_step((data[0][index], data[1][index]), state, cfg)
            losses.append(stats["loss"])
        quarter = len(losses) // 4
        assert np.mean(losses[-quarter:]) < np.mean(losses[:quarter])

    def test_non_finite_loss_aborts_with_batch_id(self):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        state.step = 41
        state.model.params["out.b"].values[:] = np.nan
        with pytest.raises(NonFiniteLoss) as err:
            tr.train_step(data, state, cfg)
        assert err.value.batch_id == 41

    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        tr.train_step(data, state, cfg)  # moments are non-zero from here on
        before = {k: (p.values.copy(), state.optimizer.m[k].copy(), state.optimizer.v[k].copy())
                  for k, p in state.model.params.items()}
        backward = ad.Tensor.backward

        def planted(loss, grad=None):
            backward(loss, grad)
            out_b = state.model.params["out.b"]
            out_b.grad = out_b.grad.copy()
            out_b.grad[5] = np.inf

        monkeypatch.setattr(ad.Tensor, "backward", planted)
        with pytest.raises(NonFiniteLoss, match="non-finite gradient norm") as err:
            tr.train_step(data, state, cfg)
        assert err.value.batch_id == 1 and state.step == 1 and state.optimizer.t == 1
        assert all(p.grad is None for p in state.model.params.values())  # let go all the same
        for k, p in state.model.params.items():
            values, m1, m2 = before[k]
            assert np.array_equal(p.values, values), k
            assert np.array_equal(state.optimizer.m[k], m1), k
            assert np.array_equal(state.optimizer.v[k], m2), k

    def test_branch_wins_name_the_branches_that_get_gradient(self, monkeypatch):
        # four rows and six branches: at least two branches lose everywhere
        cfg, pairs, vocab, data = _setup(num_triggers=6)
        state = tr.init_state(cfg, vocab)
        assert tr.lambda_schedule(state.step, cfg) == 0.0  # the norms reach no branch
        grads = _grads_at_update(monkeypatch)
        tr.train_step((data[0][:4], data[1][:4]), state, cfg)
        wins = state.branch_wins
        assert wins.shape == (6,) and wins.sum() == 4
        for i in range(6):
            slices = branch_slices(state.model, i)
            assert len(slices) == 4
            got_gradient = [np.any(grads[0][name][where] != 0) for name, where in slices]
            assert (any(got_gradient) if wins[i] else not any(got_gradient)), i

    @pytest.mark.parametrize("clip", [1e-3, 1e6, None])
    def test_leaves_the_pre_clip_gradient_norm_and_clip_flag(self, clip, monkeypatch):
        cfg, pairs, vocab, data = _setup(grad_clip=clip)
        state = tr.init_state(cfg, vocab)
        at_update = _grads_at_update(monkeypatch)
        stats = tr.train_step(data, state, cfg)
        grads = [g.ravel() for g in at_update[0].values()]
        assert state.grad_norm == pytest.approx(np.linalg.norm(np.concatenate(grads)), rel=1e-12)
        assert state.grad_clipped == (clip is not None and state.grad_norm > clip)
        assert state.grad_clipped == (clip == 1e-3)
        assert "grad_norm" not in stats and "grad_clipped" not in stats

    def test_log_line_format(self):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        stats = tr.train_step(data, state, cfg)
        line = tr.format_stats(stats)
        keys = [part.split("=")[0] for part in line.split(" ")]
        assert keys == ["step", "elbo", "recon", "kl", "san", "scn", "sdn", "loss"]
        assert line == _FIXED_FORMAT.format(**stats)
        hand = {"step": 12, "elbo": -3.25, "recon": -3.0, "kl": 0.1, "san": 0.0,
                "scn": 1e-17, "sdn": 2.0 / 3.0, "loss": 3.5}
        assert tr.format_stats(hand) == _FIXED_FORMAT.format(**hand) == (
            "step=12 elbo=-3.25 recon=-3.0 kl=0.1 san=0.0 scn=1e-17 "
            "sdn=0.6666666666666666 loss=3.5")


# the log line's fixed layout: format_stats must write these bytes
_FIXED_FORMAT = ("step={step} elbo={elbo!r} recon={recon!r} kl={kl!r} "
                 "san={san!r} scn={scn!r} sdn={sdn!r} loss={loss!r}")


def _per_branch_perplexity(model, dataset, batch_size):
    """The reference: batches of ``batch_size`` contexts, each branch
    decoded as a pass of its own, as perplexity ran before its one-pass
    branch scorer."""
    ctx_ids, resp_ids = dataset
    nll, tokens = 0.0, 0
    with ad.no_grad():
        for start in range(0, len(ctx_ids), batch_size):
            ctx, resp = ctx_ids[start:start + batch_size], resp_ids[start:start + batch_size]
            recons = []
            for x in model.prominent_semantics(ctx):
                mu_p, _ = model.prior(x)
                recon, _ = model._teacher_forced(resp, model.decoder_initial(mu_p, x), False)
                recons.append(recon.values)
            nll -= float(np.max(recons, axis=0).sum())
            tokens += int((resp[:, 1:] != PAD_ID).sum())
    return math.exp(nll / tokens)


def _trained_three_branch_model():
    cfg, pairs, vocab, data = _setup(num_triggers=3)
    state = tr.init_state(cfg, vocab)
    for i in range(2):
        tr.train_step((data[0][i::2], data[1][i::2]), state, cfg)
    return cfg, state.model, data


class TestPerplexity:
    @pytest.mark.parametrize("batch_size", [7, 2, 32])  # M=3: 2, 1 and 10 contexts a pass
    def test_one_pass_scorer_matches_the_per_branch_loop(self, batch_size):
        cfg, model, data = _trained_three_branch_model()
        want = _per_branch_perplexity(model, data, batch_size)
        assert tr.perplexity(model, data, batch_size=batch_size) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("batch_size", [7, 2, 32])
    def test_a_pass_decodes_at_most_max_of_batch_size_and_m_rows(self, batch_size, monkeypatch):
        cfg, model, data = _trained_three_branch_model()
        rows, decoder_initial = [], tr.SegCVAE.decoder_initial

        def recording(self, z, x):
            rows.append(z.shape[0])
            return decoder_initial(self, z, x)

        monkeypatch.setattr(tr.SegCVAE, "decoder_initial", recording)
        tr.perplexity(model, data, batch_size=batch_size)
        assert max(rows) <= max(batch_size, cfg.num_triggers), rows
        assert sum(rows) == cfg.num_triggers * len(data[0])

    def test_uniform_model_gives_vocab_size(self):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        for name in ("dec.wx", "dec.wh", "dec.bx", "dec.bh",
                     "out.w", "out.b", "init.w", "init.b", "pri.w", "pri.b"):
            state.model.params[name].values[:] = 0.0
        assert tr.perplexity(state.model, data) == pytest.approx(vocab.size, rel=1e-9)

    def test_perfect_predictor_gives_one(self):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        token = vocab.id_of("yes")
        for name in ("dec.wx", "dec.wh", "dec.bx", "dec.bh", "out.w", "init.w", "init.b"):
            state.model.params[name].values[:] = 0.0
        state.model.params["out.b"].values[:] = 0.0
        state.model.params["out.b"].values[token] = 1000.0
        resp = np.full((4, 6), 0, dtype=np.int64)
        resp[:, 0] = 2  # leading marker
        resp[:, 1:4] = token
        ctx = data[0][:4]
        assert tr.perplexity(state.model, (ctx, resp)) == 1.0

    def test_an_overflowing_mean_nll_gives_infinity(self):
        """A mean per-token negative log-likelihood above ~709.8 nats is an
        infinite perplexity, not an OverflowError."""
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        state.model.params["out.b"].values[4:] = -1e4  # every word far below the specials
        assert tr.perplexity(state.model, data) == math.inf

    def test_empty_dataset_rejected(self):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        empty = (np.zeros((0, cfg.max_len), dtype=np.int64),) * 2
        with pytest.raises(EmptyCorpus):
            tr.perplexity(state.model, empty)

    def test_dataset_without_target_tokens_rejected(self, monkeypatch):
        """Responses that hold nothing to score after BOS are an error raised
        before any pass, like an empty dataset, not a division by zero."""
        cfg, pairs, vocab, (ctx, resp) = _setup()
        state = tr.init_state(cfg, vocab)
        resp = resp.copy()
        resp[:, 1:] = PAD_ID
        monkeypatch.setattr(state.model, "prior_recon", None)  # a pass would fail to call it
        with pytest.raises(EmptyCorpus):
            tr.perplexity(state.model, (ctx, resp))

    def test_all_padding_context_rejected(self):
        """Such a row has nothing to select from; it is an error, not a NaN."""
        cfg, pairs, vocab, (ctx, resp) = _setup()
        state = tr.init_state(cfg, vocab)
        ctx = ctx.copy()
        ctx[1] = PAD_ID
        with pytest.raises(DomainError, match="all-padding"):
            tr.perplexity(state.model, (ctx, resp))

    def test_sharded_evaluation_matches_single_thread(self, monkeypatch):
        """The calling thread and threads - 1 pool threads share out passes
        of two contexts, each thread taking at least one, so exactly
        min(threads, passes) threads run passes; the passes' sums are added
        exactly, so the result is the same bits."""
        ran, prior_recon = [], tr.SegCVAE.prior_recon

        def recording(self, ctx_ids, resp_ids):
            ran.append(threading.get_ident())
            return prior_recon(self, ctx_ids, resp_ids)

        for n in (2, 16):  # one pass, or eight
            cfg, pairs, vocab, data = _setup(n)
            state = tr.init_state(cfg, vocab)
            monkeypatch.delenv("SEGCVAE_THREADS", raising=False)
            base = tr.perplexity(state.model, data, batch_size=4)
            monkeypatch.setattr(tr.SegCVAE, "prior_recon", recording)
            for threads in (1, 2, 3):
                monkeypatch.setenv("SEGCVAE_THREADS", str(threads))
                ran.clear()
                assert tr.perplexity(state.model, data, batch_size=4) == base
                assert len(ran) == n // 2
                assert len(set(ran)) == min(threads, n // 2) and threading.get_ident() in ran
            monkeypatch.undo()

    def test_more_threads_than_cores_take_each_pass_once(self, monkeypatch):
        """Eight threads, switching as often as the interpreter allows,
        share out sixteen one-context passes: each pass runs once and the
        sum is the single-thread one."""
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        base = tr.perplexity(state.model, data, batch_size=cfg.num_triggers)
        firsts, prior_recon = [], tr.SegCVAE.prior_recon

        def recording(self, ctx_ids, resp_ids):
            firsts.append(tuple(ctx_ids[0]))
            return prior_recon(self, ctx_ids, resp_ids)

        monkeypatch.setattr(tr.SegCVAE, "prior_recon", recording)
        monkeypatch.setenv("SEGCVAE_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert tr.perplexity(state.model, data, batch_size=cfg.num_triggers) == base
        finally:
            sys.setswitchinterval(interval)
        assert sorted(firsts) == sorted(tuple(row) for row in data[0])

    @pytest.mark.parametrize("bad_row", [0, 15])  # the caller's first pass, the last pass
    def test_an_error_in_any_pass_propagates(self, monkeypatch, bad_row):
        cfg, pairs, vocab, (ctx, resp) = _setup()
        state = tr.init_state(cfg, vocab)
        ctx = ctx.copy()
        ctx[bad_row] = PAD_ID
        monkeypatch.setenv("SEGCVAE_THREADS", "3")
        with pytest.raises(DomainError, match="all-padding"):
            tr.perplexity(state.model, (ctx, resp), batch_size=4)

    def test_a_thread_that_cannot_start_raises_without_a_hang(self, monkeypatch):
        """The threads that did start are freed from the wait for the others
        and joined; the start error reaches the caller."""
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        start, started = threading.Thread.start, []

        def failing_second(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_second)
        monkeypatch.setenv("SEGCVAE_THREADS", "3")
        with pytest.raises(RuntimeError, match="can't start"):
            tr.perplexity(state.model, data, batch_size=4)
        assert len(started) == 1 and not started[0].is_alive()

    def test_scoring_pass_equals_the_node_path(self, monkeypatch):
        """At the test_09 configuration, after a few steps, perplexity is the
        same number whether the targets are scored in place or through
        log_softmax nodes (recorded when ``no_grad`` does not switch the
        graph off)."""
        cfg, pairs, vocab, data = _setup(batch_size=4, snorm_step=100, kl_anneal_steps=200)
        state = tr.init_state(cfg, vocab)
        for index in tr.iterate_batches(len(pairs), cfg.batch_size, state.data_rng):
            tr.train_step((data[0][index], data[1][index]), state, cfg)
        scored = tr.perplexity(state.model, data, batch_size=cfg.batch_size)
        monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
        monkeypatch.setattr(tr.SegCVAE, "_target_log_probs",
                            lambda *a: pytest.fail("the in-place scorer ran"))
        assert tr.perplexity(state.model, data, batch_size=cfg.batch_size) == scored


class TestResumability:
    def test_stats_identical_after_reload(self, tmp_path):
        cfg, pairs, vocab, data = _setup()
        batches = [(data[0][i::4], data[1][i::4]) for i in range(4)]

        state = tr.init_state(cfg, vocab)
        for b in batches[:2]:
            tr.train_step(b, state, cfg)
        tr.save_state(state, cfg, tmp_path / "mid.ckpt")
        tail_direct = [tr.format_stats(tr.train_step(b, state, cfg)) for b in batches[2:]]

        resumed = tr.load_state(tmp_path / "mid.ckpt", cfg)
        tail_resumed = [tr.format_stats(tr.train_step(b, resumed, cfg)) for b in batches[2:]]
        assert tail_direct == tail_resumed


    def test_round_trip_restores_stacked_parameters_and_moments_bitwise(self, tmp_path):
        cfg, pairs, vocab, data = _setup(num_triggers=3)
        state = tr.init_state(cfg, vocab)
        for i in range(2):
            tr.train_step((data[0][i::2], data[1][i::2]), state, cfg)
        tr.save_state(state, cfg, tmp_path / "state.ckpt")
        loaded = tr.load_state(tmp_path / "state.ckpt", cfg)
        assert {"is.kernel", "is.dense", "eg.kernel", "eg.dense"} <= set(state.model.params)
        assert (loaded.optimizer.t, loaded.step) == (state.optimizer.t, state.step)
        for name, p in state.model.params.items():
            for got, want in ((loaded.model.params[name].values, p.values),
                              (loaded.optimizer.m[name], state.optimizer.m[name]),
                              (loaded.optimizer.v[name], state.optimizer.v[name])):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_per_trigger_views_stay_live_under_adam(self):
        """``state_arrays`` are the live parameter arrays themselves, and a
        trigger's slices of its families are views that Adam's in-place
        update reaches."""
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        params = state.model.params
        arrays = state.model.state_arrays()
        views = {(name, i): params[name].values[where] for i in range(cfg.num_triggers)
                 for name, where in branch_slices(state.model, i)}
        before = {k: v.copy() for k, v in views.items()}
        tr.train_step(data, state, cfg)
        now = state.model.state_arrays()
        for name, a in arrays.items():
            assert a is now[name] is params[name].values, name
        for (name, i), view in views.items():
            where = dict(branch_slices(state.model, i))[name]
            assert view.tobytes() == params[name].values[where].tobytes(), (name, i)
        for key in (("is.kernel", 0), ("is.dense", 1), ("eg.kernel", 1), ("eg.dense", 0)):
            assert not np.array_equal(views[key], before[key]), key

    def test_load_state_takes_the_loaded_arrays_as_they_are(self, tmp_path, monkeypatch):
        """The loaded parameters and Adam moments are the arrays
        ``load_checkpoint`` returned: nothing is copied or zero-filled."""
        cfg, pairs, vocab, data = _setup(num_triggers=3)
        state = tr.init_state(cfg, vocab)
        tr.train_step(data, state, cfg)
        tr.save_state(state, cfg, tmp_path / "state.ckpt")
        returned, load_checkpoint = {}, ad.load_checkpoint

        def recording(path):
            arrays, meta = load_checkpoint(path)
            returned.update(arrays)
            return arrays, meta

        monkeypatch.setattr(ad, "load_checkpoint", recording)
        monkeypatch.setattr(np, "zeros_like", lambda *a, **k: pytest.fail("zero-filled"))
        loaded = tr.load_state(tmp_path / "state.ckpt", cfg)
        monkeypatch.undo()
        for name, p in loaded.model.params.items():
            assert p.values is returned[f"param.{name}"], name
            assert loaded.optimizer.m[name] is returned[f"adam.m.{name}"], name
            assert loaded.optimizer.v[name] is returned[f"adam.v.{name}"], name
        before = {k: v.copy() for k, v in loaded.optimizer.m.items()}
        tr.train_step(data, loaded, cfg)  # the moments are updated in place
        assert any(not np.array_equal(before[k], returned[f"adam.m.{k}"]) for k in before)

    def test_missing_moment_is_a_domain_error(self, tmp_path):
        cfg, pairs, vocab, data = _setup()
        state = tr.init_state(cfg, vocab)
        tr.save_state(state, cfg, tmp_path / "state.ckpt")
        arrays, meta = ad.load_checkpoint(tmp_path / "state.ckpt")
        del arrays["adam.v.eg.dense"]
        ad.save_checkpoint(tmp_path / "state.ckpt", arrays, meta)
        with pytest.raises(DomainError, match="'adam.v.eg.dense'"):
            tr.load_state(tmp_path / "state.ckpt", cfg)

    @pytest.mark.parametrize("name, value, what", [
        *((name, None, "is missing") for name in
          ("opt.t", "train.step", "train.best_ppl", "rng.noise", "rng.data")),
        ("opt.t", np.array([1, 2], dtype=np.uint64), "has 2 values, want 1"),
        ("train.best_ppl", np.zeros(0), "has 0 values, want 1"),
        ("rng.noise", np.zeros(3, dtype=np.uint64), "has 3 values, want 13"),
    ])
    def test_missing_or_misshapen_entry_is_a_domain_error(self, tmp_path, name, value, what):
        cfg, pairs, vocab, data = _setup()
        path = tmp_path / "state.ckpt"
        tr.save_state(tr.init_state(cfg, vocab), cfg, path)
        arrays, meta = ad.load_checkpoint(path)
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
        ad.save_checkpoint(path, arrays, meta)
        with pytest.raises(DomainError, match=re.escape(f"{path}: checkpoint entry '{name}' {what}")):
            tr.load_state(path, cfg)

    def test_repeated_loads_keep_traced_memory_flat(self, tmp_path):
        """With the cyclic collector off, each load's arrays are freed as
        soon as the state is dropped: no reference cycle holds them."""
        cfg, pairs, vocab, data = _setup(emb_dim=64, hidden_dim=128)
        state = tr.init_state(cfg, vocab)
        tr.save_state(state, cfg, tmp_path / "state.ckpt")
        state_bytes = (tmp_path / "state.ckpt").stat().st_size
        del state
        traced, held = [], None
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(3):
                held = None
                held = tr.load_state(tmp_path / "state.ckpt", cfg)
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held is not None and traced[0] >= state_bytes * 0.9
        assert traced[2] - traced[0] < state_bytes * 0.1, traced


class TestFit:
    def test_checkpoint_tracks_minimum_validation_ppl(self, tmp_path):
        cfg, pairs, vocab, _ = _setup(epochs=3)
        splits = {"train": pairs, "valid": pairs[:8]}
        result = tr.fit(splits, vocab, cfg, tmp_path / "run")
        assert len(result.val_ppl) == 3
        best = min(result.val_ppl)
        loaded = tr.load_state(result.checkpoint_path, cfg)
        valid_data = encode_pairs(pairs[:8], vocab, cfg.max_len)
        assert tr.perplexity(loaded.model, valid_data,
                             batch_size=cfg.batch_size) == pytest.approx(best, rel=1e-12)
        assert loaded.best_ppl == pytest.approx(best, rel=1e-12)

    def test_zero_epochs_rejected(self, tmp_path):
        cfg, pairs, vocab, _ = _setup(epochs=0)
        with pytest.raises(DomainError):
            tr.fit({"train": pairs, "valid": pairs}, vocab, cfg, tmp_path)

    def test_empty_corpus_rejected(self, tmp_path):
        cfg, pairs, vocab, _ = _setup()
        with pytest.raises(EmptyCorpus):
            tr.fit({"train": [], "valid": []}, vocab, cfg, tmp_path)

    @pytest.mark.parametrize("ppl", [math.nan, math.inf])
    def test_a_run_without_finite_ppl_replaces_an_earlier_checkpoint(self, ppl, tmp_path,
                                                                     monkeypatch):
        """The fallback save follows whether this run saved, not whether the
        directory already holds a checkpoint."""
        cfg, pairs, vocab, _ = _setup(epochs=1)
        splits = {"train": pairs, "valid": pairs[:8]}
        earlier = tr.fit(splits, vocab, cfg, tmp_path / "run").checkpoint_path.read_bytes()
        monkeypatch.setattr(tr, "perplexity", lambda *a, **k: ppl)
        rerun = _desk_config(epochs=1, seed=7)
        result = tr.fit(splits, vocab, rerun, tmp_path / "run")
        kept_the_earlier = result.checkpoint_path.read_bytes() == earlier
        assert not kept_the_earlier
        assert ad.load_checkpoint(result.checkpoint_path)[1]["seed"] == "7"
        loaded = tr.load_state(result.checkpoint_path, rerun)
        logged = result.log_path.read_text(encoding="utf-8").splitlines()
        steps = sum(line.startswith("step=") for line in logged)
        assert loaded.step == steps > 0 and loaded.best_ppl == math.inf

    def test_runs_are_byte_identical(self, tmp_path):
        cfg, pairs, vocab, _ = _setup(epochs=2, batch_size=8)
        splits = {"train": pairs, "valid": pairs[:8]}
        r1 = tr.fit(splits, vocab, cfg, tmp_path / "a")
        r2 = tr.fit(splits, vocab, cfg, tmp_path / "b")
        assert r1.log_path.read_bytes() == r2.log_path.read_bytes()
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
