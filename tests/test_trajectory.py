"""Pinned training trajectory at a mid-sized shape.

Twelve ``train_step`` calls (V about 300, D=32, M=4, B=8) from a fixed
seed, then one validation perplexity and one ``save_state``.  The recorded
winners, losses, parameter norms, perplexity and checkpoint index are in
``trajectory.json``; a refactor that claims to compute the same thing must
reproduce them.  Parameter norms are keyed by checkpoint name, so they
survive a change in how the parameters are held in memory.

Regenerate the fixture (only when the computation is meant to change) with

    PYTHONPATH=src python tests/test_trajectory.py
"""

import json
from pathlib import Path

import numpy as np

from segcvae import training as tr
from segcvae.corpus import DialoguePair, build_vocab, encode_pairs

FIXTURE = Path(__file__).with_name("trajectory.json")
STEPS = 12
RTOL = 1e-10


def _corpus():
    """Training and validation pairs over ~300 word types."""
    r = np.random.default_rng(20221)

    def utterance(low, high):
        return tuple(f"w{k}" for k in r.integers(0, 320, size=int(r.integers(low, high))))

    pairs = [DialoguePair(utterance(3, 11), utterance(2, 10)) for _ in range(128)]
    return pairs[:96], pairs[96:]


def _config():
    return tr.TrainingConfig(
        learning_rate=0.01, batch_size=8, epochs=1, grad_clip=5.0, snorm_step=6,
        kl_anneal_steps=8, seed=4242, vocab_cap=300, max_len=10, emb_dim=32,
        hidden_dim=32, latent_dim=16, kernel_width=3, conv_channels=2,
        num_triggers=4, tau=0.1)


def _checkpoint_index(path):
    """(name, dtype, shape) of every array line of a checkpoint index."""
    header = Path(path).read_bytes().split(b"\n\n", 1)[0].decode("utf-8")
    return [line.split(" ")[1:4] for line in header.splitlines() if line.startswith("array ")]


def run_trajectory(tmp_dir) -> dict:
    cfg = _config()
    train, valid = _corpus()
    vocab = build_vocab(train, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim, seed=cfg.seed)
    train_data = encode_pairs(train, vocab, cfg.max_len)
    valid_data = encode_pairs(valid, vocab, cfg.max_len)
    state = tr.init_state(cfg, vocab)

    winners, margins = [], []
    forward = state.model.forward_losses

    def recording(*args, **kwargs):
        parts = forward(*args, **kwargs)
        winners.append(parts["semantics"].positive_index.tolist())
        top2 = np.sort(parts["branch_elbos"], axis=0)[-2:]
        margins.append(float((top2[1] - top2[0]).min()))
        return parts

    state.model.forward_losses = recording
    losses = []
    for index in list(tr.iterate_batches(len(train), cfg.batch_size, state.data_rng))[:STEPS]:
        stats = tr.train_step((train_data[0][index], train_data[1][index]), state, cfg)
        losses.append({k: v for k, v in stats.items() if k != "step"})
    path = Path(tmp_dir) / "trajectory.ckpt"
    tr.save_state(state, cfg, path)
    return {
        "vocab_size": vocab.size,
        "winners": winners,
        "losses": losses,
        "norms": {name: float(np.linalg.norm(a))
                  for name, a in state.model.state_arrays().items()},
        "val_ppl": tr.perplexity(state.model, valid_data, batch_size=cfg.batch_size),
        "min_margin": min(margins),
        "index": _checkpoint_index(path),
    }


def _close(got, want, what):
    assert abs(got - want) <= RTOL * abs(want), f"{what}: {got!r} != {want!r}"


def test_trajectory_matches_fixture(tmp_path):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = run_trajectory(tmp_path)
    assert got["vocab_size"] == want["vocab_size"]
    assert got["winners"] == want["winners"]
    assert got["index"] == want["index"]
    assert len(got["losses"]) == STEPS
    for step, (g, w) in enumerate(zip(got["losses"], want["losses"])):
        assert sorted(g) == sorted(w)
        for key in w:
            _close(g[key], w[key], f"step {step} {key}")
    assert sorted(got["norms"]) == sorted(want["norms"])
    for name, value in want["norms"].items():
        _close(got["norms"][name], value, f"norm of {name}")
    _close(got["val_ppl"], want["val_ppl"], "validation perplexity")
    _close(got["min_margin"], want["min_margin"], "smallest winner margin")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = run_trajectory(tmp)
    FIXTURE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: smallest winner margin {record['min_margin']:.3g}")
