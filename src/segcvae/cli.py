"""Command-line surface: data preparation, training, generation, evaluation.

Every artifact-producing run records a manifest (tool version, seed, full
config snapshot, content digests of the inputs, artifact paths) before any
work starts, so a run can be reproduced byte for byte from its manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import __version__
from . import corpus as cp
from . import evaluation as ev
from . import training as tr
from .autodiff import Rng
from .config import config_snapshot, parse_config
from .errors import MissingKey, SegcvaeError
from .gradsuite import TOLERANCE, run_suite
from .model import SegCVAE


def _digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: tr.TrainingConfig | None,
                   inputs: list[Path], artifacts: list[str],
                   extra: dict[str, str] = None) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command = {command}", f"tool_version = {__version__}"]
    if cfg is not None:
        for key, value in sorted(config_snapshot(cfg).items()):
            lines.append(f"config.{key} = {value}")
        lines.append(f"seed = {cfg.seed}")
    for key, value in sorted((extra or {}).items()):
        lines.append(f"{key} = {value}")
    for path in inputs:
        lines.append(f"input.{Path(path).name} = sha256:{_digest(path)}")
    for name in artifacts:
        lines.append(f"artifact.{name} = {name}")
    path = out_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _load_config(args) -> tuple[tr.TrainingConfig, dict[str, str]]:
    if getattr(args, "config", None):
        cfg, paths = parse_config(args.config)
    else:
        cfg, paths = tr.TrainingConfig(), {}
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    for name in getattr(args, "drop", None) or ():
        setattr(cfg, f"no_{name}", True)
    cfg.validate()
    return cfg, paths


def _load_run(run_dir: Path) -> tuple[SegCVAE, cp.Vocabulary]:
    model = tr.load_model(Path(run_dir) / tr.CHECKPOINT_NAME)
    return model, cp.Vocabulary.load(Path(run_dir) / "vocab.txt", model.emb.values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _input_path(args, paths: dict[str, str], key: str) -> Path:
    """``--in``, else the config file's ``key`` entry; neither is a MissingKey
    (an empty path would name the working directory)."""
    if not (where := args.infile or paths.get(key)):
        raise MissingKey(f"{args.command} needs --in or a '{key}' config entry")
    return Path(where)


def _cmd_prepare_data(args) -> int:
    cfg, paths = _load_config(args)
    corpus_path = _input_path(args, paths, "corpus")
    pairs = cp.pairs_from_corpus(cp.read_corpus_file(corpus_path))
    if args.mode == "general":
        splits, manifest = cp.general_split(pairs)
    else:
        splits, manifest = cp.build_cdm_dataset(pairs, args.mode)
    out_dir = Path(args.out)
    artifacts = [f"{name}.tsv" for name in splits]
    extra = {"mode": args.mode,
             "groups": str(manifest["groups"]),
             **{f"pairs.{k}": str(v) for k, v in manifest["pairs"].items()}}
    write_manifest(out_dir, "prepare-data", cfg, [corpus_path], artifacts, extra)
    for name, split in splits.items():
        cp.write_pairs(out_dir / f"{name}.tsv", split)
    print(f"wrote {sum(manifest['pairs'].values())} pairs "
          f"({manifest['pairs']}) to {out_dir}")
    return 0


def _cmd_cdm_stats(args) -> int:
    pairs = cp.pairs_from_corpus(cp.read_corpus_file(args.infile))
    if args.out:
        write_manifest(Path(args.out), "cdm-stats", None, [Path(args.infile)],
                       ["cdm_report.txt"])
    text = cp.mine_cdm(pairs).text()
    sys.stdout.write(text)
    if args.out:
        (Path(args.out) / "cdm_report.txt").write_text(text, encoding="utf-8")
    return 0


def _train_like(args) -> int:
    cfg, paths = _load_config(args)
    data_dir = _input_path(args, paths, "data_dir")
    train_pairs = cp.read_pairs(data_dir / "train.tsv")
    valid_path = data_dir / "valid.tsv"
    valid_pairs = cp.read_pairs(valid_path) if valid_path.exists() else []
    vocab = cp.build_vocab(train_pairs, max_size=cfg.vocab_cap,
                           emb_dim=cfg.emb_dim, seed=cfg.seed)
    out_dir = Path(args.out)
    inputs = [data_dir / "train.tsv"] + ([valid_path] if valid_path.exists() else [])
    write_manifest(out_dir, args.command, cfg, inputs,
                   [tr.CHECKPOINT_NAME, tr.LOG_NAME, "vocab.txt"])
    vocab.save(out_dir / "vocab.txt")
    result = tr.fit({"train": train_pairs, "valid": valid_pairs}, vocab, cfg, out_dir)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    print(f"best_val_ppl: {min(result.val_ppl)!r}")
    return 0


def _by_context(pairs) -> dict[tuple, list]:
    """Each context's responses, contexts in first-seen order."""
    grouped = {}
    for pair in pairs:
        grouped.setdefault(pair.context, []).append(pair.response)
    return grouped


def _cmd_generate(args) -> int:
    model, vocab = _load_run(args.run)
    grouped = list(_by_context(cp.read_pairs(args.data)).items())
    if args.limit:
        grouped = grouped[:args.limit]
    out_dir = Path(args.out)
    write_manifest(out_dir, "generate", None,
                   [Path(args.run) / tr.CHECKPOINT_NAME, Path(args.data)],
                   ["generated.tsv"],
                   {"n_responses": str(args.n_responses),
                    "seed": str(args.seed)})
    rng = Rng(args.seed)
    records = [ev.generate_n(model, vocab, ctx, args.n_responses, rng,
                             ground_truths=truths)
               for ctx, truths in grouped]
    ev.write_generation(out_dir / "generated.tsv", records)
    print(f"wrote {len(records)} contexts x {args.n_responses} responses "
          f"to {out_dir / 'generated.tsv'}")
    return 0


def _cmd_evaluate(args) -> int:
    model, vocab = _load_run(args.run)
    records = ev.read_generation(args.infile)
    pairs = cp.read_pairs(args.data)
    truths = _by_context(pairs)
    for rec in records:
        rec.ground_truths = [tuple(t) for t in truths.get(rec.context, [])]
    data = cp.encode_pairs(pairs, vocab, model.config.max_len)
    if args.out:
        write_manifest(Path(args.out), "evaluate", None,
                       [Path(args.infile), Path(args.data)], ["metrics.txt"])
    metrics = ev.evaluate_records(records, vocab)
    metrics["ppl"] = tr.perplexity(model, data)
    text = ev.report_text(metrics, corpus_size=len(pairs))
    sys.stdout.write(text)
    if args.out:
        (Path(args.out) / "metrics.txt").write_text(text, encoding="utf-8")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(primitive_rounds=args.rounds, loss_rounds=1)
    failed = False
    for name, err, count in results:
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{name:20s} max_rel_err={err:.3e} configs={count} {status}")
        failed = failed or err >= TOLERANCE
    print(f"checked {sum(c for _, _, c in results)} configurations")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _integer(low: int, what: str):
    """An argument type: an integer of at least ``low``, ``what`` in the message."""
    def integer(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text}")
        return value
    return integer


_positive_int, _seed = _integer(1, "positive"), _integer(0, "non-negative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segcvae",
        description="Dialogue generation with segmented prominent semantics",
        epilog="SEGCVAE_THREADS caps evaluation worker counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, infile=True, out_required=True):
        p.add_argument("--config", help="key = value configuration file")
        if infile:
            p.add_argument("--in", dest="infile", help="input path")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=_seed, help="override the configured seed")

    p = sub.add_parser("prepare-data", help="build datasets from a raw corpus")
    common(p)
    p.add_argument("--mode", choices=("o2m", "m2o", "general"), default="general")
    p.set_defaults(func=_cmd_prepare_data)

    p = sub.add_parser("cdm-stats", help="report one-to-many / many-to-one fractions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="optional directory for the report file")
    p.set_defaults(func=_cmd_cdm_stats)

    for name, what in (("train", "train on a prepared dataset directory"),
                       ("ablate", "train with components dropped")):
        p = sub.add_parser(name, help=what)
        common(p)
        p.add_argument("--drop", action="append", required=name == "ablate",
                       choices=("is", "eg", "san", "scn", "sdn"))
        p.set_defaults(func=_train_like)

    p = sub.add_parser("generate", help="generate N responses per test context")
    p.add_argument("--run", required=True, help="training output directory")
    p.add_argument("--data", required=True, help="pair file with test contexts")
    p.add_argument("--out", required=True)
    p.add_argument("--n-responses", type=_positive_int, default=8)
    p.add_argument("--seed", type=_seed, default=123456)
    p.add_argument("--limit", type=_positive_int, help="cap the number of contexts")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="score a generation dump against references")
    p.add_argument("--in", dest="infile", required=True, help="generation dump")
    p.add_argument("--data", required=True, help="reference pair file")
    p.add_argument("--run", required=True, help="training output directory")
    p.add_argument("--out", help="optional directory for the metric report")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--rounds", type=_positive_int, default=3)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except SegcvaeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # an output path that cannot be written
        print(f"error: {err.filename}: {err.strerror}" if err.filename else f"error: {err}",
              file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
