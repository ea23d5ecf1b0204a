"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them live).  Expected values marked as frozen were computed once with
independent brute-force oracles and pinned.
"""

import contextlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from segcvae import autodiff as ad
from segcvae import cli
from segcvae import evaluation as ev
from segcvae import model as mod
from segcvae import training as tr
from segcvae.autodiff import Rng, Tensor
from segcvae.corpus import (DialoguePair, build_cdm_dataset, build_vocab,
                            encode_pairs, mine_cdm, write_pairs)
from segcvae.gradsuite import TOLERANCE, run_suite


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    print(f"[criterion {num:2d}] {name}: PASS")


def test_01_gradient_suite():
    with criterion(1, "gradient suite < 1e-4 on 100+ configurations"):
        start = time.monotonic()
        results = run_suite(primitive_rounds=3, loss_rounds=2)
        elapsed = time.monotonic() - start
        names = {name for name, _, _ in results}
        for required in ("loss_elbo", "loss_san", "loss_scn", "loss_sdn",
                         "loss_total", "softmax_rows", "gumbel_softmax",
                         "conv_seq", "gru_encode", "gru_decode_step",
                         "gaussian_kl", "reparameterize", "cosine", "matmul"):
            assert required in names, f"missing {required}"
        total = sum(count for _, _, count in results)
        assert total >= 100, f"only {total} configurations"
        worst = max(err for _, err, _ in results)
        assert worst < TOLERANCE, f"worst relative error {worst}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _scaled_trigger_model():
    """Desk model with trigger weights enlarged so top-2 logit gaps >= 0.5."""
    pairs = [DialoguePair(("a", "b", "c"), ("d", "e")),
             DialoguePair(("d", "e", "f"), ("a",))]
    vocab = build_vocab(pairs, max_size=12, emb_dim=6, seed=5)
    config = mod.ModelConfig(vocab_size=vocab.size, max_len=6, emb_dim=6,
                             hidden_dim=5, latent_dim=4, kernel_width=2,
                             conv_channels=2, num_triggers=2, tau=0.01)
    net = mod.SegCVAE(config, vocab.embedding, Rng(7))
    for name in ("is.kernel", "is.dense", "eg.kernel", "eg.dense"):
        net.params[name].values *= 12.0
    ctx, _ = encode_pairs(pairs, vocab, config.max_len)
    return net, vocab, ctx[:1]


def _np_conv(emb_rows, kernel):
    width, _, _, channels = kernel.shape
    out_len = emb_rows.shape[0] - width + 1
    out = np.zeros((channels, out_len))
    for ch in range(channels):
        for t in range(out_len):
            out[ch, t] = (emb_rows[t:t + width] * kernel[:, :, 0, ch]).sum()
    return out


def test_02_gumbel_softmax_limit():
    with criterion(2, "low-temperature limit matches the argmax oracle"):
        rng = np.random.default_rng(0)
        logits = rng.uniform(-0.2, 0.2, size=(6, 10))
        rows = np.arange(6)
        top = rng.integers(0, 10, size=6)
        logits[rows, top] = logits.max(axis=1) + 0.5  # enforce the gap premise
        out = ad.gumbel_softmax(Tensor(logits), tau=0.01, noise=False)
        assert np.all(out.values[rows, top] >= 1.0 - 1e-6)

        net, vocab, ctx = _scaled_trigger_model()
        row = ctx[0]
        emb_rows = vocab.embedding[row]
        with ad.no_grad():
            c_emb = net.embed_matrix(ctx)
            c_is = net.internal_separation(c_emb, ctx == 0, noise=False)
            v_eg = net.external_guidance(c_emb, noise=False)
        assert c_is.shape[0] == v_eg.shape[0] == net.config.num_triggers

        def trigger(path, i):  # trigger i's slices of a family
            where = dict(net.branch_slices(i))
            return [net.params[f"{path}.{part}"].values[where[f"{path}.{part}"]]
                    for part in ("kernel", "dense")]

        for i, got in enumerate(c_is.values):  # one context: entry i is trigger i's
            kernel, dense = trigger("is", i)
            logits = _np_conv(emb_rows, kernel) @ dense
            logits[:, row == 0] = -np.inf
            ranked = np.sort(logits, axis=1)
            assert np.all(ranked[:, -1] - ranked[:, -2] >= 0.5), "gap premise"
            expected = emb_rows[np.argmax(logits, axis=1)]
            np.testing.assert_allclose(got, expected, atol=1e-3)
        for i, got in enumerate(v_eg.values):
            kernel, dense = trigger("eg", i)
            logits = _np_conv(emb_rows, kernel) @ dense
            logits[:, :4] = -np.inf
            ranked = np.sort(logits, axis=1)
            assert np.all(ranked[:, -1] - ranked[:, -2] >= 0.5), "gap premise"
            expected = vocab.embedding[np.argmax(logits, axis=1)]
            np.testing.assert_allclose(got, expected, atol=1e-3)


def test_03_gradient_blocking():
    with criterion(3, "non-selected branches receive exactly zero gradient"):
        pairs = [DialoguePair(("how", "are", "you"), ("fine", "thanks")),
                 DialoguePair(("what", "now"), ("no", "idea"))]
        vocab = build_vocab(pairs, max_size=20, emb_dim=6, seed=2)
        config = mod.ModelConfig(vocab_size=vocab.size, max_len=6, emb_dim=6,
                                 hidden_dim=5, latent_dim=4, kernel_width=2,
                                 conv_channels=2, num_triggers=3, tau=0.1)
        net = mod.SegCVAE(config, vocab.embedding, Rng(3))
        ctx, resp = encode_pairs(pairs, vocab, config.max_len)

        parts = net.forward_losses(ctx, resp, kl_weight=0.5, rng=Rng(13))
        loss = ad.mul(mod.total_loss(parts["elbo_plus"], parts["san"],
                                     parts["scn"], parts["sdn"], lambda_w=0.0),
                      -1.0)
        net.zero_grad()
        loss.backward()

        selected = set(parts["positive"].tolist())
        assert selected and selected != set(range(3)), "need unselected branches"
        for i in range(3):
            slices = net.branch_slices(i)
            assert len(slices) == 4, "a kernel and a dense slice in each trigger family"
            grads = [net.params[name].grad[where] for name, where in slices]
            if i in selected:
                assert any(np.any(g != 0.0) for g in grads), \
                    f"selected branch {i} got no gradient"
            else:
                for (name, _), g in zip(slices, grads):
                    assert not np.any(g != 0.0), \
                        f"branch {i}'s slice of {name} leaked gradient from a non-selected branch"


def test_04_norm_identities():
    with criterion(4, "norm identities hold exactly"):
        rng = np.random.default_rng(4)
        assert mod.san(Tensor(rng.normal(size=(1, 6)))).item() == 0.0
        scaled = np.zeros((3, 3))
        np.fill_diagonal(scaled, 10.0)
        assert mod.san(Tensor(scaled)).item() < 1e-6
        enc_c = Tensor(rng.normal(size=(4,)))
        assert abs(mod.scn(enc_c, Tensor(np.stack([0.25 * enc_c.values,
                                                   0.5 * enc_c.values]))).item()) < 1e-12
        r = Tensor(rng.normal(size=(5, 4)))
        assert abs(mod.sdn(r, Tensor(r.values.copy())).item()) < 1e-12


def test_05_overfit_toy_corpus():
    with criterion(5, "16-pair overfit reaches ppl < 1.5 within 2000 steps"):
        start = time.monotonic()
        pairs = [DialoguePair((f"q{i}", "do", "you", "know"),
                              ("well", f"a{i}", "yes", f"b{i}")) for i in range(16)]
        cfg = tr.TrainingConfig(
            learning_rate=0.01, batch_size=16, epochs=1, snorm_step=20000,
            kl_anneal_steps=10000, seed=123456, vocab_cap=64, max_len=10,
            emb_dim=16, hidden_dim=16, latent_dim=16, kernel_width=3,
            conv_channels=2, num_triggers=2, tau=0.1)
        vocab = build_vocab(pairs, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim,
                            seed=cfg.seed)
        assert vocab.size <= 64
        data = encode_pairs(pairs, vocab, cfg.max_len)
        state = tr.init_state(cfg, vocab)
        ppl = np.inf
        for step in range(2000):
            index = state.data_rng.permutation(len(pairs))
            tr.train_step((data[0][index], data[1][index]), state, cfg)
            if (step + 1) % 100 == 0:
                ppl = tr.perplexity(state.model, data)
                if ppl < 1.4:
                    break
        if ppl >= 1.5:
            ppl = tr.perplexity(state.model, data)
        elapsed = time.monotonic() - start
        assert ppl < 1.5, f"perplexity {ppl}"
        assert state.step <= 2000
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def _planted_corpus():
    """200 pairs with exactly known group structure.

    5 one-to-many groups with [3, 2, 4, 2, 3] distinct responses, 4
    many-to-one groups with [2, 3, 2, 2] distinct contexts, 177 unique
    fillers.  All token pools are disjoint so nothing collides.
    """
    pairs = []
    o2m_sizes = [3, 2, 4, 2, 3]
    for g, size in enumerate(o2m_sizes):
        for j in range(size):
            pairs.append(DialoguePair((f"oc{g}", "asks"), (f"or{g}_{j}", "said")))
    m2o_sizes = [2, 3, 2, 2]
    for h, size in enumerate(m2o_sizes):
        for j in range(size):
            pairs.append(DialoguePair((f"mc{h}_{j}", "wonders"), (f"mr{h}", "replied")))
    fillers = 200 - sum(o2m_sizes) - sum(m2o_sizes)
    for i in range(fillers):
        pairs.append(DialoguePair((f"fc{i}", "says"), (f"fr{i}", "answered")))
    truth = {
        "o2m_groups": len(o2m_sizes), "o2m_pairs": sum(o2m_sizes),
        "m2o_groups": len(m2o_sizes), "m2o_pairs": sum(m2o_sizes),
        "total": 200,
    }
    return pairs, truth


def test_06_cdm_mining_oracle():
    with criterion(6, "mined mappings match the planted ground truth exactly"):
        pairs, truth = _planted_corpus()
        assert len(pairs) == truth["total"]
        report = mine_cdm(pairs)
        assert len(report.o2m_groups) == truth["o2m_groups"]
        assert len(report.m2o_groups) == truth["m2o_groups"]
        assert report.o2m_pair_count == truth["o2m_pairs"]
        assert report.m2o_pair_count == truth["m2o_pairs"]
        assert report.o2m_pair_fraction == truth["o2m_pairs"] / 200
        assert report.m2o_pair_fraction == truth["m2o_pairs"] / 200
        assert report.cdm_fraction == (truth["o2m_pairs"] + truth["m2o_pairs"]) / 200

        splits, _ = build_cdm_dataset(pairs, "o2m")
        kept = [p for split in splits.values() for p in split]
        assert len(kept) == truth["o2m_pairs"]
        contexts = {p.context for p in kept}
        assert len(kept) / len(contexts) >= 2.0


# 20-sentence fixture; expected values frozen from an independent
# fraction-arithmetic oracle over the same definitions.
FIXTURE = [s.split() for s in [
    "a b c d", "b c d e", "a c e", "d d a b c", "e f",
    "f a b", "c c c", "a b c d e f", "g a", "b g c",
    "d e f g", "a a b b", "c d", "e a c g", "f f b",
    "g c a d", "b e", "a d f", "c g e b", "d b a",
]]
FROZEN = {
    "distinct-1": 0.10294117647058823,   # 7 / 68
    "distinct-2": 0.6041666666666666,    # 29 / 48
    "length": 3.4,
    "bleu-1 s7 (s0,s1)": 0.8333333333333334,
    "bleu-2 s7 (s0,s1)": 0.8333333333333334,
    "bleu-3 s7 (s0,s1)": 0.8220706914434901,
    "bleu-1 s12 (s0)": 0.36787944117144233,  # brevity exp(1 - 4/2)
    "bleu-2 s12 (s0)": 0.36787944117144233,
    "bleu-1 s6 (s4)": 0.0,
    "emb_avg abc-cd": 0.9429903335828894,
    "coherence ad-bcc": 0.9429903335828895,
}


def test_07_metric_oracles():
    with criterion(7, "metric suite matches the frozen oracle table to 1e-9"):
        assert len(FIXTURE) == 20
        assert abs(ev.distinct_n(FIXTURE, 1) - FROZEN["distinct-1"]) < 1e-9
        assert abs(ev.distinct_n(FIXTURE, 2) - FROZEN["distinct-2"]) < 1e-9
        assert abs(ev.length_avg(FIXTURE) - FROZEN["length"]) < 1e-9
        for n in (1, 2, 3):
            got = ev.bleu_n(FIXTURE[7], [FIXTURE[0], FIXTURE[1]], n)
            assert abs(got - FROZEN[f"bleu-{n} s7 (s0,s1)"]) < 1e-9
        for n in (1, 2):
            got = ev.bleu_n(FIXTURE[12], [FIXTURE[0]], n)
            assert abs(got - FROZEN[f"bleu-{n} s12 (s0)"]) < 1e-9
        assert ev.bleu_n(FIXTURE[6], [FIXTURE[4]], 1) == FROZEN["bleu-1 s6 (s4)"]
        for sentence in FIXTURE:
            for n in (1, 2, 3):
                assert ev.bleu_n(sentence, [sentence], n) == pytest.approx(1.0, abs=1e-12)

        hand = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
                "c": np.array([2.0, 1.0]), "d": np.array([1.0, 3.0])}
        vocab = build_vocab([DialoguePair(("a", "b"), ("c", "d"))], max_size=10,
                            emb_dim=2, embedding_source=hand)
        got = ev.embedding_average(["a", "b", "c"], ["c", "d"], vocab)
        assert abs(got - FROZEN["emb_avg abc-cd"]) < 1e-9
        got = ev.coherence(["a", "d"], ["b", "c", "c"], vocab)
        assert abs(got - FROZEN["coherence ad-bcc"]) < 1e-9

        # uniform decoder: per-token likelihood 1/vocab everywhere
        pairs = [DialoguePair((f"q{i}",), (f"a{i}", "ok")) for i in range(6)]
        cfg = tr.TrainingConfig(batch_size=6, epochs=1, vocab_cap=32, max_len=6,
                                emb_dim=8, hidden_dim=8, latent_dim=4,
                                kernel_width=2, conv_channels=2, num_triggers=2)
        uvocab = build_vocab(pairs, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim)
        state = tr.init_state(cfg, uvocab)
        for name in ("dec.wx", "dec.wh", "dec.bx", "dec.bh", "out.w", "out.b",
                     "init.w", "init.b", "pri.w", "pri.b"):
            state.model.params[name].values[:] = 0.0
        data = encode_pairs(pairs, uvocab, cfg.max_len)
        ppl = tr.perplexity(state.model, data)
        assert ppl == pytest.approx(uvocab.size, rel=1e-9)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_to_many_corpus():
    pairs, contexts = [], []
    for i, k in enumerate([2, 3, 4, 2, 3, 4]):
        ctx = ("tell", "me", "about", f"t{i}")
        contexts.append(ctx)
        for j in range(k):
            pairs.append(DialoguePair(ctx, (f"u{i}{j}", f"v{i}{j}", f"w{i}{j}")))
    return pairs, contexts


def _diversity_run(seed: int, full: bool, steps: int = 700) -> float:
    pairs, contexts = _one_to_many_corpus()
    cfg = tr.TrainingConfig(
        learning_rate=0.005, batch_size=9, epochs=1, lambda_constant=1.0,
        kl_anneal_steps=400, seed=seed, vocab_cap=80, max_len=8,
        emb_dim=16, hidden_dim=16, latent_dim=16, kernel_width=3,
        conv_channels=2, num_triggers=4 if full else 1, tau=0.1,
        no_san=not full, no_scn=not full, no_sdn=not full)
    vocab = build_vocab(pairs, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim,
                        seed=cfg.seed)
    data = encode_pairs(pairs, vocab, cfg.max_len)
    state = tr.init_state(cfg, vocab)
    for _ in range(steps):
        index = state.data_rng.permutation(len(pairs))[:cfg.batch_size]
        tr.train_step((data[0][index], data[1][index]), state, cfg)
    rng = Rng(seed + 77)
    responses = []
    for ctx in contexts:
        responses.extend(ev.generate_n(state.model, vocab, ctx, 8, rng).responses)
    return ev.distinct_n(responses, 2)


def _diversity_runs(seeds, full_flags) -> tuple[list[float], int]:
    """``_diversity_run(seed, full)`` of each pair, in order, over at most two
    worker processes and never more than there are CPUs (serial on one CPU),
    with BLAS pinned to one thread in each; also returns the worker count."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(2, cpus or 1)
    if workers == 1:
        return list(map(_diversity_run, seeds, full_flags)), 1
    # spawned workers read the environment before they import numpy
    with mock.patch.dict(os.environ, dict.fromkeys(BLAS_THREAD_VARS, "1")), \
            ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_diversity_run, seeds, full_flags)), workers


def test_08_ablation_direction():
    with criterion(8, "segmentation beats the single-branch ablation on distinct-2"):
        seeds = (1, 2, 3, 4, 5)
        values, workers = _diversity_runs(seeds * 2, (True,) * 5 + (False,) * 5)
        full, ablated = values[:5], values[5:]
        assert np.mean(full) > np.mean(ablated), \
            f"full {np.mean(full):.4f} vs ablated {np.mean(ablated):.4f}"
        if workers > 1:  # a worker process computes what this one does
            assert _diversity_run(seeds[0], full=False) == ablated[0]


TRAIN_CONFIG = """\
learning_rate = 0.003
batch_size = 4
epochs = 2
snorm_step = 100
kl_anneal_steps = 200
vocab_cap = 64
max_clen = 8
N_emb = 8
N_hid = 8
d_z = 4
m = 2
chan = 2
M = 2
tau = 0.1
"""


def test_09_training_determinism(tmp_path):
    with criterion(9, "identical manifests give byte-identical runs"):
        config = tmp_path / "run.cfg"
        config.write_text(TRAIN_CONFIG, encoding="utf-8")
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        pairs = [DialoguePair((f"q{i}", "and", "you"), (f"a{i}", "sure"))
                 for i in range(12)]
        write_pairs(data_dir / "train.tsv", pairs)
        write_pairs(data_dir / "valid.tsv", pairs[:4])

        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = cli.dispatch(["train", "--config", str(config),
                                 "--in", str(data_dir), "--out", str(out)])
            assert code == 0
            outputs.append(out)
        for name in (cli.MANIFEST, *cli.OUTPUTS["train"]):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_10_schedules():
    with criterion(10, "norm and KL ramps hit their anchor points exactly"):
        cfg = tr.TrainingConfig(snorm_step=20000, kl_anneal_steps=10000)
        assert tr.lambda_schedule(0, cfg) == 0.0
        assert tr.lambda_schedule(10000, cfg) == 0.5
        assert tr.lambda_schedule(20000, cfg) == 1.0
        assert tr.lambda_schedule(35000, cfg) == 1.0
        assert tr.kl_anneal(0, cfg) == 0.0
        assert tr.kl_anneal(5000, cfg) == 0.5
        assert tr.kl_anneal(10000, cfg) == 1.0
        assert tr.kl_anneal(50000, cfg) == 1.0
        pinned = tr.TrainingConfig(lambda_constant=1.0)
        assert all(tr.lambda_schedule(s, pinned) == 1.0 for s in (0, 1, 10 ** 6))
