"""Pinned training trajectory at a mid-sized shape.

Twelve ``train_step`` calls (V about 300, D=32, M=4, B=8) from a fixed
seed, then one validation perplexity in passes of 8 rows (two contexts) and
one ``save_state``.  The recorded
winners, losses, parameter norms (keyed by parameter name), perplexity and
checkpoint index are in ``trajectory.json``; a refactor that claims to
compute the same thing must reproduce them.

Regenerate the fixture (only when the computation is meant to change) with

    PYTHONPATH=src python tests/test_trajectory.py

which first prints each top-level field that changes and the largest
relative change among the numbers the old and new field share.
"""

import json
from pathlib import Path
from unittest import mock

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
        winners.append(parts["positive"].tolist())
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
    with mock.patch.object(tr, "PASS_ROWS", cfg.batch_size):  # the fixture's pass shape
        val_ppl = tr.perplexity(state.model, valid_data)
    return {
        "vocab_size": vocab.size,
        "winners": winners,
        "losses": losses,
        "norms": {name: float(np.linalg.norm(a))
                  for name, a in state.model.state_arrays().items()},
        "val_ppl": val_ppl,
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


def _numbers(value, path=()):
    """{path: number} of every number inside a JSON value."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items() for k, v in _numbers(item, path + (key,)).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _numbers(item, path + (i,)).items()}
    return {path: value} if isinstance(value, (int, float)) and not isinstance(value, bool) else {}


def changes(old: dict, new: dict) -> list[str]:
    """One line per top-level field whose value differs between two records."""
    lines = []
    for field in dict.fromkeys([*old, *new]):
        if old.get(field) == new.get(field):
            continue
        before, after = _numbers(old.get(field)), _numbers(new.get(field))
        shared = [k for k in before if k in after]
        rel = max((abs(after[k] - before[k]) / abs(before[k]) if before[k] else abs(after[k])
                   for k in shared), default=0.0)
        size = {name: len(v) if isinstance(v, (list, dict)) else 1
                for name, v in (("old", old.get(field)), ("new", new.get(field)))}
        lines.append(f"{field}: {size['old']} -> {size['new']} entries; largest relative "
                     f"change {rel:.3g} over {len(shared)} shared numbers")
    return lines


def test_changes_name_each_moved_field_and_its_largest_relative_change():
    old = {"vocab_size": 300, "losses": [{"elbo": 2.0}, {"elbo": 4.0}],
           "index": [["param.emb", "float64", "300,32"]], "val_ppl": 187.5}
    new = {"vocab_size": 300, "losses": [{"elbo": 2.0}, {"elbo": 5.0}], "index": [],
           "val_ppl": 187.5}
    assert changes(old, new) == [
        "losses: 2 -> 2 entries; largest relative change 0.25 over 2 shared numbers",
        "index: 1 -> 0 entries; largest relative change 0 over 0 shared numbers"]
    assert changes(new, new) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = run_trajectory(tmp)
    if FIXTURE.exists():
        committed = json.loads(FIXTURE.read_text(encoding="utf-8"))
        print("\n".join(changes(committed, record)) or "no field changes")
    FIXTURE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}: smallest winner margin {record['min_margin']:.3g}")
