"""Finite-difference verification sweep over primitives and loss terms.

Each case builds a fresh random configuration, runs the reverse-mode
gradients against central differences, and reports the worst relative
error.  Loss cases that involve branch selection are only generated when
the per-example selection gaps are wide enough that an h-perturbation
cannot flip the argmax.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import model as mod
from .autodiff import Rng, Tensor

TOLERANCE = 1e-4
SAMPLE_COORDS = 8  # coordinates probed per parameter tensor of a loss case


def _t(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def _sum_sq(x: Tensor) -> Tensor:
    """The sum of squares: a loss whose gradient reaches every entry of ``x``."""
    return ad.tsum(ad.mul(x, x))


def primitive_cases(seed: int):
    """One (name, f, inputs) triple per primitive, shapes drawn from seed."""
    r = np.random.default_rng(seed)

    def rand(*shape, shift=0.0):
        return _t(r.normal(size=shape) + shift)

    w_soft = Tensor(r.normal(size=(2, 4)))
    w_logsoft = Tensor(r.normal(size=(2, 4)))
    ids = np.array([0, 2, 2, 1])  # a repeated row scatters through np.add.at
    gather_ids = np.array([3, 0])
    live = np.array([[True, False, True], [False, True, True]])  # a mask scatters in place
    lengths = r.integers(1, 4, size=2)  # each row's steps of the 3-step gru_seq
    logit_mask = np.where(r.uniform(0, 1, size=(3, 4)) > 0.6, -np.inf, 0.0)  # 0 or -inf
    logit_mask[:, 0] = 0.0  # every row keeps a column

    gru = ad.gru_params(3, 4, Rng(seed * 7 + 1))
    gru_seq = rand(2, 3, 3)

    def gru_case(wx, wh, bx, bh, seq):
        return _sum_sq(ad.gru_encode(ad.GruParams(wx, wh, bx, bh), seq, lengths))

    def scan_case(wx, wh, bx, bh, seq, h0):  # every state, from an h0 that needs a gradient
        return _sum_sq(ad.gru_scan(ad.GruParams(wx, wh, bx, bh), seq, h0))

    dec_net = _tiny_model(seed)[0]  # the model's own decoder step
    dec_ids = r.integers(4, dec_net.config.vocab_size, size=2)

    def decode_case(*params):  # the decoder, out-projection and embedding, then the state
        logits, nxt = dec_net.decode_step(params[-1], dec_ids)
        return ad.add(_sum_sq(logits), _sum_sq(nxt))

    return [
        ("add", lambda a, b: ad.tsum(ad.add(a, b)), [rand(3, 4), rand(3, 4)]),
        ("add_broadcast", lambda a, b: ad.tsum(ad.add(a, b)), [rand(3, 4), rand(4)]),
        ("sub", lambda a, b: ad.tsum(ad.sub(a, b)), [rand(2, 3), rand(2, 3)]),
        ("mul", lambda a, b: ad.tsum(ad.mul(a, b)), [rand(2, 3), rand(2, 3)]),
        ("div", lambda a, b: ad.tsum(ad.div(a, b)), [rand(2, 3), rand(2, 3, shift=3.0)]),
        ("exp", lambda a: ad.tsum(ad.exp(a)), [rand(2, 3)]),
        ("sqrt", lambda a: ad.tsum(ad.sqrt(a)), [rand(5, shift=4.0)]),
        ("abs", lambda a: ad.tsum(ad.absolute(a)), [rand(3, 3, shift=2.0)]),
        ("clamp", lambda a: _sum_sq(ad.clamp(a, -0.8, 0.8)), [rand(6)]),
        ("sum", lambda a: _sum_sq(ad.tsum(a, axis=1)), [rand(3, 4)]),
        ("sum_axis", lambda a: ad.tsum(ad.mul(ad.tsum(a, axis=0), ad.tsum(a, axis=0))),
         [rand(3, 4)]),
        ("mean", lambda a: ad.tmean(ad.mul(a, a)), [rand(3, 4)]),
        ("reshape", lambda a: _sum_sq(ad.reshape(a, (2, 6))), [rand(3, 4)]),
        ("transpose", lambda a: _sum_sq(ad.transpose(a, (1, 0))), [rand(3, 4)]),
        ("reshape_transpose", lambda a: _sum_sq(ad.transpose(ad.reshape(a, (3, 4)))),
         [rand(12)]),
        ("concat", lambda a, b: _sum_sq(ad.concat([a, b], axis=1)), [rand(2, 3), rand(2, 2)]),
        ("take", lambda a: _sum_sq(a[1:, :2]), [rand(3, 4)]),
        ("take_rows", lambda a: _sum_sq(ad.take(a, ids)), [rand(4, 3)]),
        ("take_pairs", lambda a: _sum_sq(ad.take(a, (np.arange(2), gather_ids))), [rand(2, 4)]),
        ("matmul", lambda a, b: ad.tsum(ad.matmul(a, b)), [rand(3, 4), rand(4, 2)]),
        ("matmul_rows", lambda a, b: ad.tsum(ad.matmul(a, b)), [rand(2, 3, 4), rand(4, 3)]),
        ("matmul_batched", lambda a, b: ad.tsum(ad.matmul(a, b)),
         [rand(2, 3, 4), rand(2, 4, 3)]),
        ("linear", lambda x, w, b: _sum_sq(ad.linear(x, w, b)), [rand(3, 4), rand(4, 2), rand(2)]),
        ("linear_rows", lambda x, w, b: _sum_sq(ad.linear(x, w, b)),
         [rand(2, 3, 4), rand(4, 3), rand(3)]),
        ("softmax_rows", lambda a: ad.tsum(ad.mul(ad.softmax_rows(a), w_soft)), [rand(2, 4)]),
        ("log_softmax", lambda a: ad.tsum(ad.mul(ad.log_softmax(a), w_logsoft)), [rand(2, 4)]),
        ("gumbel_softmax", lambda a: _sum_sq(ad.gumbel_softmax(a, tau=0.7, noise=False)),
         [rand(2, 4)]),
        # a fresh Rng per call, so every finite-difference evaluation sees the same draws
        ("gumbel_softmax_noise", lambda a: _sum_sq(
            ad.gumbel_softmax(a, tau=0.7, rng=Rng(seed), noise=True)), [rand(2, 4)]),
        ("gumbel_softmax_mask", lambda a: _sum_sq(
            ad.gumbel_softmax(a, tau=0.7, noise=False, mask=logit_mask)), [rand(2, 3, 4)]),
        ("gumbel_mask_noise", lambda a: _sum_sq(
            ad.gumbel_softmax(a, tau=0.7, rng=Rng(seed), noise=True, mask=logit_mask)),
         [rand(2, 3, 4)]),
        ("conv_seq", lambda c, k: _sum_sq(ad.conv_seq(c, k)), [rand(1, 6, 3), rand(2, 3, 1, 2)]),
        ("conv_seq_batched", lambda c, k: _sum_sq(ad.conv_seq(c, k)),
         [rand(2, 6, 3), rand(2, 3, 1, 2)]),
        ("gru_encode", gru_case, [gru.wx, gru.wh, gru.bx, gru.bh, gru_seq]),
        ("gru_scan", scan_case, [gru.wx, gru.wh, gru.bx, gru.bh, gru_seq, rand(2, 4)]),
        ("gru_scan_broadcast", scan_case, [gru.wx, gru.wh, gru.bx, gru.bh, gru_seq, rand(4, 4)]),
        ("gru_decode_step", decode_case,
         [dec_net.params[n] for n in ("dec.wx", "dec.wh", "dec.bx", "dec.bh", "out.w", "out.b",
                                      "emb")] + [rand(2, dec_net.config.hidden_dim)]),
        ("gaussian_kl", lambda *a: ad.tsum(ad.gaussian_kl(*a)),
         [rand(2, 3) for _ in range(4)]),
        ("reparameterize", lambda mu, lv: _sum_sq(
            ad.reparameterize(mu, lv, Rng(seed).normal(mu.shape))), [rand(2, 3), rand(2, 3)]),
        ("cosine", lambda u, v: ad.tsum(ad.cosine(u, v)),
         [rand(2, 4, shift=1.0), rand(2, 4, shift=1.0)]),
        ("take_mask", lambda a: _sum_sq(ad.take(a, live)), [rand(2, 3, 4)]),
    ]


def _tiny_model(seed: int, num_triggers: int = 2):
    r = np.random.default_rng(seed)
    config = mod.ModelConfig(
        vocab_size=9, max_len=5, emb_dim=4, hidden_dim=8, latent_dim=3,
        kernel_width=2, conv_channels=2, num_triggers=num_triggers, tau=0.5)
    net = mod.SegCVAE(config, r.normal(size=(9, 4)) * 0.5, Rng(seed))
    batch = 3
    ctx = r.integers(4, 9, size=(batch, 5)).astype(np.int64)
    ctx[:, -1] = 0  # one padded tail position
    resp = np.zeros((batch, 5), dtype=np.int64)
    resp[:, 0] = 2
    resp[:, 1:3] = r.integers(4, 9, size=(batch, 2))
    resp[:, 3] = 3
    return net, ctx, resp


def _selection_gap(net, ctx, resp, noise_seed: int) -> float:
    """Smallest per-example gap between the best and second-best branch
    bound of the ``loss_total`` forward pass."""
    if net.config.num_triggers < 2:
        return np.inf  # a single branch cannot flip
    with ad.no_grad():
        values = net.forward_losses(ctx, resp, 0.5, Rng(noise_seed))["branch_elbos"]
    top2 = np.sort(values, axis=0)[-2:]
    return float((top2[1] - top2[0]).min())


def loss_cases(seed: int):
    """(name, f, inputs) triples for every loss term.

    ``elbo`` and ``total`` differentiate through the whole network with the
    model parameters as the checked inputs; ``total`` runs the training
    forward pass itself.  The three norms are checked on raw representation
    tensors as well.
    """
    r = np.random.default_rng(seed ^ 0x5EED)
    r_gt = Tensor(r.normal(size=(3, 4)))
    cases = [
        ("loss_san", lambda x: mod.san(x), [_t(r.normal(size=(1, 3, 5)))]),
        ("loss_scn", lambda c, x: mod.scn(c, x),
         [_t(r.normal(size=(2, 5)) + 1.0), _t(r.normal(size=(2, 2, 5)))]),
        ("loss_sdn", lambda g: mod.sdn(r_gt, g), [_t(r.normal(size=(3, 4)))]),
    ]

    net, ctx, resp = _tiny_model(seed, num_triggers=1 + seed % 3)
    names = sorted(net.params)
    tensors = [net.params[k] for k in names]

    def elbo_case(*params):
        rng = Rng(seed + 3)
        r_e = net.encode_ids(resp)
        x = net.prominent_semantics(ctx, rng, noise=True)[0]
        eps = rng.normal((len(resp), net.config.latent_dim))
        return ad.tmean(net.elbo(resp, x, r_e, 0.5, eps)["elbo"])

    cases.append(("loss_elbo", elbo_case, tensors))

    # pick a noise seed whose branch selection cannot flip under +-h
    total_net, total_ctx, total_resp = _tiny_model(seed + 101,
                                                   num_triggers=2 + seed % 2)
    noise_seed = seed + 11
    for _ in range(20):
        if _selection_gap(total_net, total_ctx, total_resp, noise_seed) > 1e-3:
            break
        noise_seed += 1

    total_names = sorted(total_net.params)
    total_tensors = [total_net.params[k] for k in total_names]
    # the distillation target is stop-gradiented, so the difference quotient
    # must hold it fixed while the parameters move
    with ad.no_grad():
        frozen_rgt = total_net.encode_ids(total_resp).values.copy()

    def loss_total(*params):
        parts = total_net.forward_losses(total_ctx, total_resp, 0.5, Rng(noise_seed),
                                         r_gt=frozen_rgt)
        return mod.total_loss(parts["elbo_plus"], parts["san"], parts["scn"],
                              parts["sdn"], lambda_w=1.0)

    cases.append(("loss_total", loss_total, total_tensors))
    return cases


def run_suite(primitive_rounds: int = 4, loss_rounds: int = 2) -> list[tuple[str, float, int]]:
    """Run the whole sweep; returns (name, worst error, configurations)."""
    results = []
    picker = Rng(999)
    worst: dict[str, float] = {}
    count: dict[str, int] = {}
    for round_idx in range(primitive_rounds):
        for name, f, tensors in primitive_cases(round_idx):
            err = ad.grad_check(f, tensors)
            worst[name] = max(worst.get(name, 0.0), err)
            count[name] = count.get(name, 0) + 1
    for round_idx in range(loss_rounds):
        for name, f, tensors in loss_cases(31 * (round_idx + 1)):
            # the wider step keeps cancellation noise below tolerance on
            # coordinates whose true gradient is itself near zero
            err = ad.grad_check(f, tensors, h=1e-4,
                                max_coords=SAMPLE_COORDS, rng=picker)
            worst[name] = max(worst.get(name, 0.0), err)
            count[name] = count.get(name, 0) + 1
    for name in sorted(worst):
        results.append((name, worst[name], count[name]))
    return results
