"""Golden formats of the hyperparameter schema.

The configuration snapshot, the ``config.*`` lines of a run manifest and
the ``meta`` lines of a checkpoint index are pinned as literal text, so a
change to how the hyperparameters are declared cannot silently change a
file that earlier runs wrote or that later runs must read.
"""

from dataclasses import fields

import pytest

from segcvae import cli, corpus
from segcvae import training as tr
from segcvae.config import key_of
from segcvae.corpus import DialoguePair
from segcvae.errors import ConfigError, DomainError

from test_cli import CONFIG_TEXT

DEFAULT_SNAPSHOT = """\
M = 8
N_emb = 300
N_hid = 300
batch_size = 64
chan = 3
d_z = 300
epochs = 50
grad_clip = 5.0
gs_noise = true
kl_anneal_steps = 10000
learning_rate = 0.001
m = 3
max_clen = 25
no_eg = false
no_is = false
no_san = false
no_scn = false
no_sdn = false
seed = 123456
snorm_step = 20000
tau = 0.1
vocab_cap = 20000"""

MANIFEST_CONFIG_LINES = """\
config.M = 2
config.N_emb = 8
config.N_hid = 8
config.batch_size = 4
config.chan = 2
config.d_z = 4
config.epochs = 2
config.grad_clip = 5.0
config.gs_noise = true
config.kl_anneal_steps = 200
config.lambda_constant = 0.5
config.learning_rate = 0.003
config.m = 2
config.max_clen = 8
config.no_eg = false
config.no_is = false
config.no_san = true
config.no_scn = false
config.no_sdn = false
config.seed = 123456
config.snorm_step = 100
config.tau = 0.1
config.vocab_cap = 64"""

CHECKPOINT_META_LINES = """\
meta M 2
meta N_emb 8
meta N_hid 8
meta chan 2
meta d_z 4
meta m 2
meta max_clen 8
meta no_eg 0
meta no_is 0
meta no_san 0
meta no_scn 0
meta no_sdn 0
meta seed 123456
meta tau 0.1
meta vocab_size 31"""


def _parsed(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    cfg, _ = cli.parse_config(path)
    return cfg


def test_default_snapshot():
    snapshot = cli.config_snapshot(tr.TrainingConfig())
    text = "\n".join(f"{k} = {v}" for k, v in sorted(snapshot.items()))
    assert text == DEFAULT_SNAPSHOT


def test_manifest_config_lines(tmp_path):
    cfg = _parsed(tmp_path, CONFIG_TEXT + "lambda_constant = 0.5\nno_san = true\n")
    manifest = cli.write_manifest(tmp_path / "run", "train", cfg, [])
    lines = [line for line in manifest.read_text(encoding="utf-8").splitlines()
             if line.startswith("config.")]
    assert "\n".join(lines) == MANIFEST_CONFIG_LINES


def test_checkpoint_meta_lines(tmp_path):
    cfg = _parsed(tmp_path, CONFIG_TEXT)
    pairs = [DialoguePair((f"q{i}", "and", "you"), (f"a{i}", "sure")) for i in range(12)]
    vocab = corpus.build_vocab(pairs, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim,
                               seed=cfg.seed)
    path = tmp_path / "checkpoint.bin"
    tr.save_state(tr.init_state(cfg, vocab), cfg, path)
    data = path.read_bytes()
    header = data[:data.find(b"\n\n")].decode("utf-8").splitlines()
    assert "\n".join(line for line in header if line.startswith("meta ")) == CHECKPOINT_META_LINES


@pytest.mark.parametrize("f", [f for f in fields(tr.TrainingConfig)
                               if f.metadata["kind"] is not bool], ids=key_of)
def test_file_and_constructor_share_range_rules(tmp_path, f):
    """A value the config file rejects is rejected by ``validate`` too,
    and the other way round."""
    kind = f.metadata["kind"]
    candidates = [-1, 0, 1, 2, 3, 4, 5] if kind is int else [-0.5, 0.0, 0.5, 1.0, 1.5]
    for value in candidates:
        path = tmp_path / "one.cfg"
        path.write_text(f"{key_of(f)} = {value}\n", encoding="utf-8")
        try:
            cli.parse_config(path)
            by_file = True
        except ConfigError:
            by_file = False
        try:
            tr.TrainingConfig(**{f.name: value}).validate()
            by_constructor = True
        except DomainError:
            by_constructor = False
        assert by_file == by_constructor, f"{key_of(f)} = {value}"
