"""End-to-end tests of the command-line surface."""

import builtins
import dataclasses
import hashlib
import io
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segcvae import autodiff as ad
from segcvae import cli, corpus
from segcvae import evaluation as ev
from segcvae import training as tr
from segcvae.corpus import DialoguePair
from segcvae.config import parse_config
from segcvae.errors import ConfigError

CORPUS_TEXT = """\
hello there
hi
hi

hello there
what ?
ok

good morning
ok

something new
fresh reply
"""

CONFIG_TEXT = """\
# desk-scale run
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


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def data_dir(tmp_path):
    pairs = [DialoguePair((f"q{i}", "and", "you"), (f"a{i}", "sure")) for i in range(12)]
    d = tmp_path / "data"
    d.mkdir()
    corpus.write_pairs(d / "train.tsv", pairs)
    corpus.write_pairs(d / "valid.tsv", pairs[:4])
    corpus.write_pairs(d / "test.tsv", pairs[:4])
    return d


class TestParseConfig:
    def test_values_and_defaults(self, config_file):
        cfg = cli.parse_config(config_file)
        assert cfg.learning_rate == 0.001 or cfg.learning_rate == 0.003
        assert cfg.learning_rate == 0.003
        assert cfg.seed == 123456  # absent key keeps its default
        assert cfg.kernel_width == 2

    def test_negative_dimension_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = -1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":1:.*'m'"):
            cli.parse_config(path)

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("tau = 0.1\nwhatever = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":2:.*unknown key"):
            cli.parse_config(path)

    def test_type_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("batch_size = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":1:.*'batch_size'"):
            cli.parse_config(path)

    @pytest.mark.parametrize("key", ["data_dir", "corpus"])
    def test_input_path_keys_are_unknown(self, tmp_path, key):
        """Inputs are named by --in alone, so a path line is an unknown key."""
        path = tmp_path / "paths.cfg"
        path.write_text(f"tau = 0.1\n{key} = /somewhere\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"paths\.cfg:2: unknown key '{key}'"):
            cli.parse_config(path)

    def test_kernel_wider_than_context_names_file_and_both_keys(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text("max_clen = 2\nm = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"short\.cfg: 'max_clen' 2 .*'m' 3"):
            cli.parse_config(path)

    def test_snapshot_roundtrips(self, config_file, tmp_path):
        cfg = cli.parse_config(config_file)
        snapshot = cli.config_snapshot(cfg)
        rewritten = tmp_path / "snap.cfg"
        rewritten.write_text(
            "".join(f"{k} = {v}\n" for k, v in snapshot.items()), encoding="utf-8")
        cfg2 = cli.parse_config(rewritten)
        assert cfg2 == cfg


class TestDispatchBasics:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self):
        assert cli.dispatch(["generate"]) == 2

    @pytest.mark.parametrize("flag", ["--limit", "--n-responses"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_generate_count_is_usage_error(self, data_dir, tmp_path, capsys,
                                                         flag, value):
        code = cli.dispatch(["generate", "--run", str(tmp_path / "run"),
                             "--data", str(data_dir / "test.tsv"),
                             "--out", str(tmp_path / "gen"), flag, value])
        assert code == 2
        assert "must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_negative_seed_argument_is_usage_error(self, command, config_file, data_dir,
                                                   tmp_path, capsys):
        where = (["--config", str(config_file), "--in", str(data_dir)] if command == "train"
                 else ["--run", str(tmp_path / "run"), "--data", str(data_dir / "test.tsv")])
        code = cli.dispatch([command, *where, "--out", str(tmp_path / "out"), "--seed", "-5"])
        assert code == 2
        assert "must be a non-negative integer, got -5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_in_config_file_exits_one(self, config_file, data_dir, tmp_path,
                                                    capsys):
        config_file.write_text(CONFIG_TEXT + "seed = -3\n", encoding="utf-8")
        code = cli.dispatch(["train", "--config", str(config_file), "--in", str(data_dir),
                             "--out", str(tmp_path / "out")])
        assert code == 1
        assert "'seed' must be at least 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_seed_is_accepted(self, config_file, data_dir, tmp_path):
        assert cli.dispatch(["train", "--config", str(config_file), "--in", str(data_dir),
                             "--out", str(tmp_path / "out"), "--seed", "0"]) == 0

    def test_empty_context_in_pair_file_exits_one(self, config_file, data_dir, tmp_path,
                                                  capsys):
        train = data_dir / "train.tsv"
        train.write_text(train.read_text(encoding="utf-8") + "\tsure\n", encoding="utf-8")
        code = cli.dispatch(["train", "--config", str(config_file),
                             "--in", str(data_dir), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "train.tsv:13: empty context" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, data_dir, tmp_path, capsys):
        code = cli.dispatch(["train", "--config", str(tmp_path / "absent.cfg"),
                             "--in", str(data_dir), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "absent.cfg" in capsys.readouterr().err

    def test_run_without_checkpoint_exits_one(self, data_dir, tmp_path, capsys):
        empty_run = tmp_path / "empty_run"
        empty_run.mkdir()
        code = cli.dispatch(["generate", "--run", str(empty_run),
                             "--data", str(data_dir / "test.tsv"), "--out", str(tmp_path / "gen")])
        assert code == 1
        assert "checkpoint.bin" in capsys.readouterr().err

    def test_non_utf8_corpus_exits_one(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"hello there\nhi \xff\xfe\n")
        code = cli.dispatch(["prepare-data", "--in", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "corpus.txt:2: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_pair_line_exits_one(self, config_file, data_dir, tmp_path, capsys):
        train = data_dir / "train.tsv"
        train.write_bytes(train.read_bytes() + b"q\xc3 x\tsure\n")
        code = cli.dispatch(["train", "--config", str(config_file),
                             "--in", str(data_dir), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "train.tsv:13: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("infile", [None, ""], ids=["absent", "empty"])
    @pytest.mark.parametrize("command", ["prepare-data", "train"])
    def test_missing_input_is_not_the_working_directory(self, command, infile, data_dir,
                                                        tmp_path, monkeypatch, capsys):
        """A missing or empty --in is a usage error, even where the working
        directory holds a train.tsv the command could read."""
        monkeypatch.chdir(data_dir)
        out = tmp_path / "out"
        given = [] if infile is None else ["--in", infile]
        assert cli.dispatch([command, *given, "--out", str(out)]) == 2
        assert "--in" in capsys.readouterr().err
        assert not out.exists()

    def test_drop_offers_each_ablation_switch_of_the_schema(self, tmp_path, capsys):
        """--drop takes the name of each no_<name> field of the config schema,
        in field order, and sets that field."""
        switches = [f.name for f in dataclasses.fields(tr.TrainingConfig)
                    if f.name.startswith("no_")]
        assert switches == ["no_is", "no_eg", "no_san", "no_scn", "no_sdn"]
        for switch in switches:
            args = cli.build_parser().parse_args(["train", "--in", str(tmp_path), "--out",
                                                  str(tmp_path), "--drop", switch[3:]])
            cfg = cli._load_config(args)
            assert [name for name in switches if getattr(cfg, name)] == [switch]
        assert cli.dispatch(["train", "--in", str(tmp_path), "--out", str(tmp_path),
                             "--drop", "zz"]) == 2
        assert "(choose from 'is', 'eg', 'san', 'scn', 'sdn')" in capsys.readouterr().err

    def test_domain_error_exits_one(self, tmp_path, capsys):
        code = cli.dispatch(["train", "--in", str(tmp_path / "nope"),
                             "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, stream, start", [
    ([], 2, "stderr", "usage:"),
    (["cdm-stats", "--in", "absent.txt"], 1, "stderr", "error:"),
    (["cdm-stats", "--in", "corpus.txt"], 0, "stdout", "pairs:"),
], ids=["no-subcommand", "missing-file", "corpus"])
def test_module_entry_point_exit_codes(argv, code, stream, start, corpus_file):
    """``python -m segcvae.cli`` exits with ``dispatch``'s code: 2 for a
    usage error, 1 for a domain error and 0 for success."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "segcvae.cli", *argv], cwd=corpus_file.parent,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert getattr(done, stream).startswith(start)


class TestCdmStats:
    def test_prints_report(self, corpus_file, capsys):
        assert cli.dispatch(["cdm-stats", "--in", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "o2m_pair_fraction:" in out and "cdm_fraction:" in out

    def test_optional_report_file(self, corpus_file, tmp_path, capsys):
        out_dir = tmp_path / "stats"
        assert cli.dispatch(["cdm-stats", "--in", str(corpus_file),
                             "--out", str(out_dir)]) == 0
        assert (out_dir / "cdm_report.txt").exists()
        assert (out_dir / "manifest.txt").exists()


class TestPrepareData:
    def test_o2m_dataset(self, corpus_file, tmp_path, capsys):
        out_dir = tmp_path / "o2m"
        code = cli.dispatch(["prepare-data", "--in", str(corpus_file),
                             "--out", str(out_dir), "--mode", "o2m"])
        assert code == 0
        pairs = []
        for name in ("train", "valid", "test"):
            pairs += corpus.read_pairs(out_dir / f"{name}.tsv")
        assert len(pairs) == 2  # the two responses of "hello there"
        assert all(p.context == ("hello", "there") for p in pairs)
        manifest = (out_dir / "manifest.txt").read_text()
        assert "command = prepare-data" in manifest
        assert "input.corpus.txt = sha256:" in manifest

    def test_general_split_keeps_everything(self, corpus_file, tmp_path):
        out_dir = tmp_path / "gen"
        assert cli.dispatch(["prepare-data", "--in", str(corpus_file),
                             "--out", str(out_dir), "--mode", "general"]) == 0
        total = sum(len(corpus.read_pairs(out_dir / f"{n}.tsv"))
                    for n in ("train", "valid", "test"))
        assert total == 6  # 4 dialogues: (3-1)+(3-1)+(2-1)+(2-1) adjacent pairs


def _write_full_state(run_dir):
    """Replace a run's checkpoint with a full ``save_state`` file of its
    model, as versions before the model-only checkpoint wrote."""
    model = tr.load_model(run_dir / tr.CHECKPOINT_NAME)
    state = tr.TrainState(model, tr.Adam(model.params), ad.Rng(1), ad.Rng(2), step=3)
    tr.save_state(state, tr.TrainingConfig(), run_dir / tr.CHECKPOINT_NAME)


class TestTrainGenerateEvaluate:
    @pytest.fixture
    def run_dir(self, config_file, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.dispatch(["train", "--config", str(config_file),
                             "--in", str(data_dir), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        return out

    def test_train_writes_all_artifacts(self, run_dir):
        assert sorted(p.name for p in run_dir.iterdir()) == sorted((cli.MANIFEST,
                                                                    *cli.OUTPUTS["train"]))
        log = (run_dir / "train_log.txt").read_text().splitlines()
        assert log[0].startswith("step=0 elbo=")
        assert any(line.startswith("epoch=0 val_ppl=") for line in log)

    def test_manifest_written_with_config_snapshot(self, run_dir):
        manifest = (run_dir / "manifest.txt").read_text()
        assert "config.m = 2" in manifest
        assert "config.tau = 0.1" in manifest
        assert "seed = 123456" in manifest
        assert "input.train.tsv = sha256:" in manifest

    def test_config_that_cannot_train_creates_nothing(self, data_dir, tmp_path, capsys):
        """The kernel-width rule is checked with the file, before any output."""
        config = tmp_path / "short.cfg"
        config.write_text(CONFIG_TEXT + "max_clen = 2\nm = 3\n", encoding="utf-8")
        out = tmp_path / "run"
        assert cli.dispatch(["train", "--config", str(config), "--in", str(data_dir),
                             "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "short.cfg" in err and "'max_clen'" in err and "'m'" in err
        assert not out.exists()

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["cdm-stats", "prepare-data", "train", "generate",
                                         "evaluate"])
    def test_unwritable_output_path_exits_one(self, command, under_file, request, corpus_file,
                                              config_file, data_dir, tmp_path, monkeypatch,
                                              capsys):
        """An --out that is an existing file, or lies under one, is exit 1
        with a message naming it, not a traceback.  Every input is read and
        checked, then --out is made, then the work runs: so nothing is
        trained, mined, generated or scored, and nothing is printed."""
        run = request.getfixturevalue("run_dir") if command in ("generate", "evaluate") else None

        def never(*args, **kwargs):
            raise AssertionError("the work ran before --out was made")

        for module, name in ((tr, "fit"), (corpus, "mine_cdm"), (ev, "generate_n"),
                             (tr, "perplexity")):
            monkeypatch.setattr(module, name, never)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "x" if under_file else blocker
        dump = tmp_path / "generated.tsv"
        dump.write_text("q0 and you\ta0 sure\n", encoding="utf-8")
        args = {"cdm-stats": ["--in", str(corpus_file)],
                "prepare-data": ["--in", str(corpus_file)],
                "train": ["--config", str(config_file), "--in", str(data_dir)],
                "generate": ["--run", str(run), "--data", str(data_dir / "test.tsv")],
                "evaluate": ["--in", str(dump), "--data", str(data_dir / "test.tsv"),
                             "--run", str(run)]}[command]
        capsys.readouterr()
        assert cli.dispatch([command, *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out}: ") and "Traceback" not in captured.err
        assert captured.out == ""

    def test_generate_and_evaluate(self, run_dir, data_dir, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        code = cli.dispatch(["generate", "--run", str(run_dir),
                             "--data", str(data_dir / "test.tsv"),
                             "--out", str(gen_dir), "--n-responses", "4",
                             "--seed", "7"])
        assert code == 0
        lines = (gen_dir / "generated.tsv").read_text().splitlines()
        assert len(lines) == 4  # four distinct test contexts
        assert all(len(line.split("\t")) == 5 for line in lines)

        ckpt_before = (run_dir / "checkpoint.bin").read_bytes()
        capsys.readouterr()
        code = cli.dispatch(["evaluate", "--in", str(gen_dir / "generated.tsv"),
                             "--data", str(data_dir / "test.tsv"),
                             "--run", str(run_dir), "--out", str(tmp_path / "metrics")])
        assert code == 0
        out = capsys.readouterr().out
        assert "distinct-1:" in out and "ppl:" in out and "bleu-1:" in out
        assert (tmp_path / "metrics" / "metrics.txt").exists()
        assert (run_dir / "checkpoint.bin").read_bytes() == ckpt_before

    def test_evaluate_prints_trains_validation_perplexity(self, config_file, data_dir,
                                                          tmp_path, capsys):
        """Scoring the validation pairs, evaluate's ppl is train's best_val_ppl
        to the last digit.  Seed 2 is one where two 2-context passes and one
        4-context pass round to different last digits, so validation must cut
        its passes as evaluate does."""
        run = tmp_path / "run"
        assert cli.dispatch(["train", "--config", str(config_file), "--in", str(data_dir),
                             "--out", str(run), "--seed", "2"]) == 0
        (best,) = [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("best_val_ppl: ")]
        dump = tmp_path / "generated.tsv"
        dump.write_text("q0 and you\ta0 sure\n", encoding="utf-8")
        assert cli.dispatch(["evaluate", "--in", str(dump), "--data", str(data_dir / "valid.tsv"),
                             "--run", str(run), "--out", str(tmp_path / "metrics")]) == 0
        metrics = (tmp_path / "metrics" / "metrics.txt").read_text(encoding="utf-8")
        assert f"\nppl: {best}\n" in metrics

    def test_literal_special_tokens_train_then_generate(self, config_file, data_dir, tmp_path,
                                                        capsys):
        """Special-token strings in the data are plain unknown words: the
        vocabulary holds each special once, so the run loads and generates."""
        for name in ("train.tsv", "test.tsv"):
            path = data_dir / name
            path.write_text(path.read_text(encoding="utf-8")
                            + "<eos> <pad> and\t<bos> sure <eos>\n<eos>\t<unk>\n",
                            encoding="utf-8")
        run = tmp_path / "run"
        assert cli.dispatch(["train", "--config", str(config_file), "--in", str(data_dir),
                             "--out", str(run)]) == 0, capsys.readouterr().err
        tokens = (run / "vocab.txt").read_text(encoding="utf-8").splitlines()
        assert tokens[:4] == list(corpus.SPECIALS) and len(set(tokens)) == len(tokens)
        assert self._generate(run, data_dir, tmp_path) == 0, capsys.readouterr().err
        contexts = [line.split("\t")[0] for line in
                    (tmp_path / "gen" / "generated.tsv").read_text(encoding="utf-8").splitlines()]
        assert "<eos> <pad> and" in contexts and "<eos>" in contexts

    def test_per_trigger_checkpoint_is_refused(self, run_dir, data_dir, tmp_path,
                                               monkeypatch, capsys):
        """A segcvae-ckpt-1 checkpoint, whose trigger arrays are standalone
        per-trigger arrays, is refused with exit 1 and a message that names
        the file."""
        model = tr.load_model(run_dir / "checkpoint.bin")
        cfg = model.config

        def per_trigger(by_param):
            out = {}
            for name, a in by_param.items():
                path, _, part = name.partition(".")
                if path not in ("is", "eg"):
                    out[name] = a
                    continue
                chan = cfg.conv_channels
                for i in range(cfg.num_triggers):
                    out[f"{path}{i}.{part}"] = np.array(a[..., i * chan:(i + 1) * chan]
                                                        if part == "kernel" else a[i])
            return out

        arrays = {"param." + k: a for k, a in per_trigger(model.state_arrays()).items()}
        saved, meta = ad.load_checkpoint(run_dir / "checkpoint.bin")
        assert len(arrays) == len(saved) + 4 * (cfg.num_triggers - 1)
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        monkeypatch.setattr(ad, "CHECKPOINT_TAG", "segcvae-ckpt-1")
        ad.save_checkpoint(legacy / "checkpoint.bin", arrays, meta)
        monkeypatch.undo()
        assert (legacy / "checkpoint.bin").read_bytes().startswith(b"segcvae-ckpt-1\n")
        shutil.copy(run_dir / "vocab.txt", legacy / "vocab.txt")

        capsys.readouterr()
        assert self._generate(legacy, data_dir, tmp_path) == 1
        err = capsys.readouterr().err
        assert str(legacy / "checkpoint.bin") in err and "segcvae-ckpt-2" in err
        assert not (tmp_path / "gen" / "generated.tsv").exists()

    def test_evaluate_reports_an_overflowing_perplexity_as_inf(self, run_dir, data_dir,
                                                               tmp_path, capsys):
        assert self._generate(run_dir, data_dir, tmp_path) == 0
        model = tr.load_model(run_dir / "checkpoint.bin")
        model.params["out.b"].values[4:] = -1e4  # every word far below the specials
        tr.save_model(model, run_dir / "checkpoint.bin")
        capsys.readouterr()
        assert self._evaluate(tmp_path / "gen" / "generated.tsv", run_dir, data_dir) == 0
        assert "ppl: inf\n" in capsys.readouterr().out

    def test_a_checkpoint_missing_a_parameter_is_refused(self, run_dir, data_dir, tmp_path,
                                                        capsys):
        """generate on a run whose checkpoint lacks one parameter exits 1 with
        a message naming the file and the entry as it is stored."""
        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        arrays, meta = ad.load_checkpoint(broken / tr.CHECKPOINT_NAME)
        del arrays["param.dec.bh"]
        ad.save_checkpoint(broken / tr.CHECKPOINT_NAME, arrays, meta)
        capsys.readouterr()
        assert self._generate(broken, data_dir, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{broken / tr.CHECKPOINT_NAME}: checkpoint entry 'param.dec.bh' is missing" in err
        assert not (tmp_path / "gen" / "generated.tsv").exists()

    def test_an_older_full_state_checkpoint_still_loads(self, run_dir, data_dir, tmp_path):
        """A run whose checkpoint is a full ``save_state`` file, as older
        versions wrote, generates what its model-only checkpoint does."""
        older = tmp_path / "older"
        shutil.copytree(run_dir, older)
        _write_full_state(older)
        dumps = []
        for run in (run_dir, older):
            out = tmp_path / f"gen_{run.name}"
            assert cli.dispatch(["generate", "--run", str(run),
                                 "--data", str(data_dir / "test.tsv"), "--out", str(out)]) == 0
            dumps.append((out / "generated.tsv").read_bytes())
        assert dumps[0] == dumps[1]

    def _generate(self, run_dir, data_dir, tmp_path):
        return cli.dispatch(["generate", "--run", str(run_dir),
                             "--data", str(data_dir / "test.tsv"),
                             "--out", str(tmp_path / "gen")])

    def _evaluate(self, dump, run_dir, data_dir):
        return cli.dispatch(["evaluate", "--in", str(dump),
                             "--data", str(data_dir / "test.tsv"), "--run", str(run_dir)])

    def test_evaluate_missing_dump_exits_one(self, run_dir, data_dir, tmp_path, capsys):
        capsys.readouterr()
        assert self._evaluate(tmp_path / "absent.tsv", run_dir, data_dir) == 1
        assert "absent.tsv: cannot read" in capsys.readouterr().err

    def test_evaluate_non_utf8_dump_exits_one(self, run_dir, data_dir, tmp_path, capsys):
        dump = tmp_path / "generated.tsv"
        dump.write_bytes(b"q0 and you\ta0 sure\nq1 \xff\ta1\n")
        capsys.readouterr()
        assert self._evaluate(dump, run_dir, data_dir) == 1
        assert "generated.tsv:2: not UTF-8" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_one(self, run_dir, data_dir, tmp_path, capsys):
        path = run_dir / "checkpoint.bin"
        path.write_bytes(path.read_bytes()[:-100])
        capsys.readouterr()
        assert self._generate(run_dir, data_dir, tmp_path) == 1
        assert "checkpoint.bin" in capsys.readouterr().err

    def test_a_moment_entry_past_the_body_exits_one(self, run_dir, data_dir, tmp_path, capsys):
        """generate reads an older run's full-state checkpoint whole: an
        ``adam.*`` entry that reaches past the body is exit 1."""
        _write_full_state(run_dir)
        path = run_dir / "checkpoint.bin"
        head, sep, body = path.read_bytes().partition(b"\n\n")
        lines = head.split(b"\n")
        i = next(i for i, line in enumerate(lines) if line.startswith(b"array adam.v."))
        lines[i] = lines[i].rsplit(b" ", 1)[0] + b" %d" % len(body)
        path.write_bytes(b"\n".join(lines) + sep + body)
        capsys.readouterr()
        assert self._generate(run_dir, data_dir, tmp_path) == 1
        err = capsys.readouterr().err
        assert "checkpoint.bin" in err and "reaches past the end" in err

    def test_missing_meta_key_exits_one(self, run_dir, data_dir, tmp_path, capsys):
        path = run_dir / "checkpoint.bin"
        data = path.read_bytes()
        path.write_bytes(data.replace(b"\nmeta d_z 4\n", b"\n", 1))
        capsys.readouterr()
        assert self._generate(run_dir, data_dir, tmp_path) == 1
        assert "d_z" in capsys.readouterr().err

    def test_run_without_vocabulary_exits_one(self, run_dir, data_dir, tmp_path, capsys):
        (run_dir / "vocab.txt").unlink()
        capsys.readouterr()
        assert self._generate(run_dir, data_dir, tmp_path) == 1
        assert "vocab.txt" in capsys.readouterr().err

    def test_repeated_vocabulary_token_exits_one(self, run_dir, data_dir, tmp_path, capsys):
        path = run_dir / "vocab.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[6] = lines[5]  # line 7 repeats the token on line 6
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert self._generate(run_dir, data_dir, tmp_path) == 1
        assert f"vocab.txt:7: token '{lines[5].strip()}' repeats line 6" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(cli.OUTPUTS))
    def test_a_used_out_is_refused_and_left_as_it_was(self, command, run_dir, corpus_file,
                                                      config_file, data_dir, tmp_path,
                                                      monkeypatch, capsys):
        """A first run into an existing empty --out goes ahead.  A second run
        into it, with other inputs or options and dying in its work, is exit
        1 naming --out, prints nothing and changes no byte there; after a
        second train, generate still decodes only the first run's words."""
        other = tmp_path / "other"
        other.mkdir()
        second = [(f"zq{i}", f"za{i}") for i in range(12)]  # words of the second run only
        corpus.write_pairs(other / "train.tsv", [DialoguePair((q, "and", "you"), (a, "sure"))
                                                  for q, a in second])
        other_corpus = tmp_path / "other.txt"
        other_corpus.write_text("zq0\nza0\n\nzq0\nza1\n", encoding="utf-8")
        test = data_dir / "test.tsv"
        assert self._generate(run_dir, data_dir, tmp_path) == 0
        dump = tmp_path / "gen" / cli.OUTPUTS["generate"][0]
        # the first run's arguments, the second run's, and a step of the second run's work
        first, again, work = {
            "prepare-data": (["--in", corpus_file], ["--in", other_corpus, "--mode", "o2m"],
                             (corpus, "write_pairs")),
            "cdm-stats": (["--in", corpus_file], ["--in", other_corpus], (corpus, "mine_cdm")),
            "train": (["--config", config_file, "--in", data_dir],
                      ["--config", config_file, "--in", other], (tr, "save_model")),
            "generate": (["--run", run_dir, "--data", test, "--seed", "1"],
                         ["--run", run_dir, "--data", test, "--seed", "2"],
                         (ev, "write_generation")),
            "evaluate": (["--in", dump, "--data", test, "--run", run_dir],
                         ["--in", dump, "--data", other / "train.tsv", "--run", run_dir],
                         (tr, "perplexity")),
        }[command]
        out = tmp_path / "used"
        out.mkdir()
        assert cli.dispatch(list(map(str, [command, *first, "--out", out]))) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {cli.MANIFEST, *cli.OUTPUTS[command]}

        def crash(*args, **kwargs):
            raise RuntimeError("the second run died in its work")

        monkeypatch.setattr(*work, crash)
        capsys.readouterr()
        assert cli.dispatch(list(map(str, [command, *again, "--out", out]))) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out}: not empty") and captured.out == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        monkeypatch.undo()
        if command == "train":
            gen = tmp_path / "gen_used"
            assert cli.dispatch(["generate", "--run", str(out), "--data", str(test),
                                 "--out", str(gen)]) == 0
            words = {w for line in (gen / dump.name).read_text(encoding="utf-8").splitlines()
                     for response in line.split("\t")[1:] for w in response.split()}
            assert words and words <= set(before[tr.VOCAB_NAME].decode("utf-8").split())
            assert words.isdisjoint(w for pair in second for w in pair)

    def test_generate_manifest_records_limit(self, run_dir, data_dir, tmp_path):
        """Runs that differ only in --limit have different manifests; without
        --limit the manifest has no limit line."""
        manifests = {}
        for limit in ([], ["--limit", "1"], ["--limit", "2"]):
            out = tmp_path / f"gen{''.join(limit)}"
            assert cli.dispatch(["generate", "--run", str(run_dir),
                                 "--data", str(data_dir / "test.tsv"),
                                 "--out", str(out), *limit]) == 0
            manifests[tuple(limit)] = (out / cli.MANIFEST).read_text(encoding="utf-8")
        assert len(set(manifests.values())) == 3
        assert "limit" not in manifests[()]
        assert "\nlimit = 1\n" in manifests[("--limit", "1")]

    def test_manifests_digest_the_run_files_read(self, run_dir, data_dir, tmp_path):
        """generate and evaluate list each run file they read; evaluate
        against another checkpoint gives another manifest, whose only
        different line is that checkpoint's digest."""
        assert self._generate(run_dir, data_dir, tmp_path) == 0
        (dump,) = cli.OUTPUTS["generate"]
        other = tmp_path / "other_run"
        shutil.copytree(run_dir, other)
        model = tr.load_model(other / tr.CHECKPOINT_NAME)
        model.params["out.b"].values[4:] += 1.0
        tr.save_model(model, other / tr.CHECKPOINT_NAME)
        manifests = []
        for run in (run_dir, other):
            out = tmp_path / f"metrics_{run.name}"
            assert cli.dispatch(["evaluate", "--in", str(tmp_path / "gen" / dump),
                                 "--data", str(data_dir / "test.tsv"), "--run", str(run),
                                 "--out", str(out)]) == 0
            manifests.append((out / cli.MANIFEST).read_text(encoding="utf-8").splitlines())
        generated = (tmp_path / "gen" / cli.MANIFEST).read_text(encoding="utf-8").splitlines()
        for manifest, run in ((generated, run_dir), (manifests[0], run_dir),
                              (manifests[1], other)):
            for name in tr.READ_BACK:
                assert f"input.{name} = sha256:{cli._digest(run / name)}" in manifest
        assert len(manifests[0]) == len(manifests[1])
        changed = [a for a, b in zip(*manifests) if a != b]
        assert [line.split(" = ")[0] for line in changed] == [f"input.{tr.CHECKPOINT_NAME}"]

    def test_digest_does_not_hold_the_file_whole(self, tmp_path):
        """Digesting a 16 MiB file peaks far below its size, with the same
        digest as hashing its bytes at once."""
        data = np.random.default_rng(0).bytes(16 << 20)
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        expected = hashlib.sha256(data).hexdigest()
        del data
        tracemalloc.start()
        try:
            digest = cli._digest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == expected
        assert peak < 4 << 20

    def test_ablate_sets_flag(self, config_file, data_dir, tmp_path):
        out = tmp_path / "ablate_run"
        code = cli.dispatch(["train", "--config", str(config_file),
                             "--in", str(data_dir), "--out", str(out),
                             "--drop", "san", "--drop", "is"])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "config.no_san = true" in manifest
        assert "config.no_is = true" in manifest
        log = (out / "train_log.txt").read_text()
        assert " san=0.0 " in log.splitlines()[0]

    def test_a_library_fit_leaves_a_complete_run(self, config_file, data_dir, tmp_path,
                                                 capsys):
        """fit into a fresh directory leaves exactly training's run files;
        generate and evaluate read it, and load_run gives back the parameters
        load_model gives and the tokens of the vocabulary fit got, with the
        model's own embedding table as the vocabulary's."""
        cfg = parse_config(config_file)
        pairs = corpus.read_pairs(data_dir / "train.tsv")
        vocab = corpus.build_vocab(pairs, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim,
                                   seed=cfg.seed)
        run = tmp_path / "lib_run"
        tr.fit({"train": pairs, "valid": pairs[:4]}, vocab, cfg, run)
        assert self._generate(run, data_dir, tmp_path) == 0, capsys.readouterr().err
        assert self._evaluate(tmp_path / "gen" / "generated.tsv", run, data_dir) == 0, \
            capsys.readouterr().err
        assert sorted(p.name for p in run.iterdir()) == sorted(tr.RUN_FILES)
        model, loaded = tr.load_run(run)
        expected = tr.load_model(run / tr.CHECKPOINT_NAME).params
        assert list(model.params) == list(expected)
        for name, param in expected.items():
            assert np.array_equal(model.params[name].values, param.values), name
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.embedding is model.emb.values  # one table, the model's


KILLED = 75  # the exit status of a child ended at a write point


def _write_points(monkeypatch, point):
    """Call ``point(path)`` at each write point of the package: after each
    open for writing, after each ``os.replace``, and after the first, middle
    and last array write of each checkpoint save (to its ``.tmp`` file)."""
    real_open, real_replace = io.open, os.replace

    class Saving:  # a checkpoint being written: its index, then one write per array
        def __init__(self, fh, path):
            self.fh, self.path, self.arrays, self.written = fh, path, None, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            size = self.fh.write(data)
            if self.arrays is None:  # the index, with one 'array' line per write to come
                self.arrays = bytes(data).count(b"\narray ")
            else:
                self.written += 1
                if self.written in (1, (self.arrays + 1) // 2, self.arrays):
                    point(self.path)
            return size

    def opening(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wax+"):
            point(file)
            if os.fspath(file).endswith(".tmp"):
                return Saving(fh, file)
        return fh

    def replacing(src, dst, **kwargs):
        real_replace(src, dst, **kwargs)
        point(dst)

    for module in (builtins, io):
        monkeypatch.setattr(module, "open", opening)
    monkeypatch.setattr(os, "replace", replacing)


def _run_killed_at(kill_at: int, argv):
    """A forked child's body: run ``argv``, ending the process at its
    ``kill_at``-th write point; its exit status is KILLED, or the command's."""
    seen = 0

    def point(path):
        nonlocal seen
        seen += 1
        if seen == kill_at:
            os._exit(KILLED)

    try:
        _write_points(pytest.MonkeyPatch(), point)
        code = cli.dispatch(argv)
    except BaseException:  # an error the command let through: neither KILLED nor 0-2
        code = 70
    os._exit(code)


def _exit_status_killed_at(kill_at: int, argv) -> int:
    """Fork a child that runs ``argv`` killed at write point ``kill_at``,
    join it, and return its exit status."""
    assert threading.active_count() == 1  # forking a process with threads can deadlock
    child = multiprocessing.get_context("fork").Process(target=_run_killed_at,
                                                        args=(kill_at, argv))
    child.start()
    child.join(timeout=120)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    return child.exitcode


class TestKillAnywhere:
    """A train killed at any write point, into a fresh --out or into a
    finished run's, leaves a directory that generate and evaluate either
    refuse with exit 1 naming the missing run file, or read back whole: each
    run file they read equals the reference run's (the checkpoint after one
    of its saves), and no ``.tmp`` file is ever read."""

    def test_every_write_point(self, config_file, data_dir, tmp_path, monkeypatch, capfd):
        def train(out):
            return ["train", "--config", str(config_file), "--in", str(data_dir),
                    "--out", str(out)]

        points, saves = [], []  # of an uninterrupted reference run

        def record(path):
            points.append(Path(path).name)
            if Path(path).name == tr.CHECKPOINT_NAME:
                saves.append(Path(path).read_bytes())

        ref = tmp_path / "ref"
        with monkeypatch.context() as patch:
            _write_points(patch, record)
            assert cli.dispatch(train(ref)) == 0
        assert set(points) == {cli.MANIFEST, *tr.RUN_FILES, tr.CHECKPOINT_NAME + ".tmp"}
        assert saves and saves[-1] == (ref / tr.CHECKPOINT_NAME).read_bytes()
        (dump,) = cli.OUTPUTS["generate"]
        assert cli.dispatch(["generate", "--run", str(ref), "--data", str(data_dir / "test.tsv"),
                             "--out", str(tmp_path / "ref_gen")]) == 0
        finished = {p.name: p.read_bytes() for p in ref.iterdir()}
        used = tmp_path / "used"
        shutil.copytree(ref, used)

        for k in range(1, len(points) + 1):
            for out in (tmp_path / f"fresh{k}", used):
                status = _exit_status_killed_at(k, train(out))
                if out == used:  # refused before any write point
                    assert status == 1
                    assert {p.name: p.read_bytes() for p in used.iterdir()} == finished
                else:
                    assert status == KILLED
                self._read_back(out, ref, saves, tmp_path / "ref_gen" / dump, data_dir,
                                tmp_path / f"gen_{out.name}{k}", monkeypatch, capfd)

    @staticmethod
    def _read_back(run, ref, saves, dump, data_dir, gen_out, monkeypatch, capfd):
        opened, real_open = [], io.open

        def recording(file, *args, **kwargs):
            opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        test = str(data_dir / "test.tsv")
        for argv in (["generate", "--run", str(run), "--data", test, "--out", str(gen_out)],
                     ["evaluate", "--in", str(dump), "--data", test, "--run", str(run)]):
            opened.clear()
            with monkeypatch.context() as patch:
                for module in (builtins, io):
                    patch.setattr(module, "open", recording)
                code = cli.dispatch(argv)
            err = capfd.readouterr().err
            assert not [p for p in opened if p.suffix == ".tmp"]
            if code == 1:
                assert any(err.startswith(f"error: {run / name}: ") for name in tr.READ_BACK), err
                continue
            assert code == 0, err
            read = {p for p in opened if p.parent == run}
            assert {p.name for p in read} == set(tr.READ_BACK)
            for path in read:
                assert path.read_bytes() in (saves if path.name == tr.CHECKPOINT_NAME
                                             else [(ref / path.name).read_bytes()])


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert cli.dispatch(["gradcheck", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "loss_total" in out and "FAIL" not in out

    @pytest.mark.parametrize("rounds", ["0", "-2"])
    def test_non_positive_rounds_is_usage_error(self, rounds, capsys):
        assert cli.dispatch(["gradcheck", "--rounds", rounds]) == 2
        err = capsys.readouterr().err
        assert "must be a positive integer" in err
