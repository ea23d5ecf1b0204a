"""Command-line surface: data preparation, training, generation, evaluation.

An input is named by ``--in`` (or ``--run`` and ``--data``) and nothing
else: a config file holds hyperparameters only, and no path option may be
empty, so no input is ever the working directory by default.  Every
artifact-producing run records a manifest (tool version, the config
snapshot where it reads a config, the options it ran with, content
digests of the inputs, run files read included, artifact names) before any
work starts, so a run can be reproduced byte for byte from its manifest.
The manifest is every command's first write, and it refuses an ``--out``
that holds any entry, so a run directory never mixes two runs.  ``train``
(``--drop`` for an ablation arm) leaves the rest of its directory to
``training``, which names, writes and reads back every run file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from . import corpus as cp
from . import evaluation as ev
from . import training as tr
from .autodiff import Rng
from .config import config_snapshot, parse_config
from .errors import DomainError, SegcvaeError
from .gradsuite import TOLERANCE, run_suite

MANIFEST = "manifest.txt"
# the files each command writes under --out beside MANIFEST, in manifest order
OUTPUTS = {
    "prepare-data": ("train.tsv", "valid.tsv", "test.tsv"),
    "cdm-stats": ("cdm_report.txt",),
    "train": tr.RUN_FILES,
    "generate": ("generated.tsv",),
    "evaluate": ("metrics.txt",),
}


def _digest(path: Path) -> str:
    """A file's sha256, read in 1 MiB chunks so a checkpoint is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: tr.TrainingConfig | None,
                   inputs: list[Path], extra: dict[str, str] = None) -> Path:
    """Write ``command``'s manifest into a new or empty ``out_dir``; any entry
    there already is a DomainError, raised before anything is written."""
    if out_dir.is_dir() and any(out_dir.iterdir()):
        raise DomainError(f"{out_dir}: not empty; a run needs a directory of its own")
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command = {command}", f"tool_version = {__version__}"]
    if cfg is not None:
        for key, value in sorted(config_snapshot(cfg).items()):
            lines.append(f"config.{key} = {value}")
    for key, value in sorted((extra or {}).items()):
        lines.append(f"{key} = {value}")
    for path in inputs:
        lines.append(f"input.{path.name} = sha256:{_digest(path)}")
    for name in OUTPUTS[command]:
        lines.append(f"artifact.{name} = {name}")
    path = out_dir / MANIFEST
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _load_config(args) -> tr.TrainingConfig:
    """``train``'s configuration: the file, then --seed and --drop."""
    cfg = parse_config(args.config) if args.config else tr.TrainingConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    for name in args.drop or ():
        setattr(cfg, f"no_{name}", True)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_prepare_data(args) -> int:
    pairs = cp.pairs_from_corpus(cp.read_corpus_file(args.infile))
    if args.mode == "general":
        splits, manifest = cp.general_split(pairs)
    else:
        splits, manifest = cp.build_cdm_dataset(pairs, args.mode)
    extra = {"mode": args.mode,
             "groups": str(manifest["groups"]),
             **{f"pairs.{k}": str(v) for k, v in manifest["pairs"].items()}}
    write_manifest(args.out, "prepare-data", None, [args.infile], extra)
    for name in OUTPUTS["prepare-data"]:
        cp.write_pairs(args.out / name, splits[Path(name).stem])
    print(f"wrote {sum(manifest['pairs'].values())} pairs "
          f"({manifest['pairs']}) to {args.out}")
    return 0


def _report(args, text: str) -> int:
    """Print a text report and, with --out, write it there as the command's output."""
    sys.stdout.write(text)
    if args.out:
        (name,) = OUTPUTS[args.command]
        (args.out / name).write_text(text, encoding="utf-8")
    return 0


def _cmd_cdm_stats(args) -> int:
    pairs = cp.pairs_from_corpus(cp.read_corpus_file(args.infile))
    if args.out:
        write_manifest(args.out, "cdm-stats", None, [args.infile])
    return _report(args, cp.mine_cdm(pairs).text())


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    train_path, valid_path, _ = (args.infile / name for name in OUTPUTS["prepare-data"])
    train_pairs = cp.read_pairs(train_path)
    valid_pairs = cp.read_pairs(valid_path) if valid_path.exists() else []
    vocab = cp.build_vocab(train_pairs, max_size=cfg.vocab_cap,
                           emb_dim=cfg.emb_dim, seed=cfg.seed)
    inputs = [train_path] + ([valid_path] if valid_path.exists() else [])
    write_manifest(args.out, "train", cfg, inputs)
    val_ppls = tr.fit({"train": train_pairs, "valid": valid_pairs}, vocab, cfg, args.out)
    print(f"checkpoint: {args.out / tr.CHECKPOINT_NAME}")
    print(f"log: {args.out / tr.LOG_NAME}")
    print(f"best_val_ppl: {min(val_ppls)!r}")
    return 0


def _cmd_generate(args) -> int:
    model, vocab = tr.load_run(args.run)
    run_files = [args.run / name for name in tr.READ_BACK]
    contexts = list(dict.fromkeys(p.context for p in cp.read_pairs(args.data)))
    if args.limit:
        contexts = contexts[:args.limit]
    options = {"limit": args.limit, "n_responses": args.n_responses, "seed": args.seed}
    write_manifest(args.out, "generate", None, run_files + [args.data],
                   {k: str(v) for k, v in options.items() if v is not None})
    rng = Rng(args.seed)
    records = [ev.generate_n(model, vocab, ctx, args.n_responses, rng) for ctx in contexts]
    (dump,) = OUTPUTS["generate"]
    ev.write_generation(args.out / dump, records)
    print(f"wrote {len(records)} contexts x {args.n_responses} responses "
          f"to {args.out / dump}")
    return 0


def _cmd_evaluate(args) -> int:
    model, vocab = tr.load_run(args.run)
    run_files = [args.run / name for name in tr.READ_BACK]
    records = ev.read_generation(args.infile)
    pairs = cp.read_pairs(args.data)
    data = cp.encode_pairs(pairs, vocab, model.config.max_len)
    if args.out:
        write_manifest(args.out, "evaluate", None, run_files + [args.infile, args.data])
    metrics = ev.evaluate_records(records, pairs, vocab)
    metrics["ppl"] = tr.perplexity(model, data)
    return _report(args, ev.report_text(metrics, corpus_size=len(pairs)))


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


def _path(text: str) -> Path:
    """An argument type: a path; an empty one would name the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segcvae",
        description="Dialogue generation with segmented prominent semantics",
        epilog="SEGCVAE_THREADS caps the threads that score perplexity, in train's "
               "validation and in evaluate, the calling thread included (unset: 1).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-data", help="build datasets from a raw corpus")
    p.add_argument("--in", dest="infile", type=_path, required=True, help="raw corpus file")
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.add_argument("--mode", choices=("o2m", "m2o", "general"), default="general")
    p.set_defaults(func=_cmd_prepare_data)

    p = sub.add_parser("cdm-stats", help="report one-to-many / many-to-one fractions")
    p.add_argument("--in", dest="infile", type=_path, required=True, help="raw corpus file")
    p.add_argument("--out", type=_path, help="optional directory for the report file")
    p.set_defaults(func=_cmd_cdm_stats)

    p = sub.add_parser("train", help="train on a prepared dataset directory")
    p.add_argument("--config", type=_path, help="key = value configuration file")
    p.add_argument("--in", dest="infile", type=_path, required=True,
                   help="prepared data directory (train.tsv, optional valid.tsv)")
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.add_argument("--seed", type=_seed, help="override the configured seed")
    # --drop <name> sets the schema's no_<name> switch; choices in field order
    p.add_argument("--drop", action="append", help="drop a component (repeatable)",
                   choices=[f.name[3:] for f in fields(tr.TrainingConfig)
                            if f.name.startswith("no_")])
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("generate", help="generate N responses per test context")
    p.add_argument("--run", type=_path, required=True, help="training output directory")
    p.add_argument("--data", type=_path, required=True, help="pair file with test contexts")
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.add_argument("--n-responses", type=_positive_int, default=8)
    p.add_argument("--seed", type=_seed, default=123456)
    p.add_argument("--limit", type=_positive_int, help="cap the number of contexts")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="score a generation dump against references")
    p.add_argument("--in", dest="infile", type=_path, required=True,
                   help="generation dump (generate's generated.tsv)")
    p.add_argument("--data", type=_path, required=True, help="reference pair file")
    p.add_argument("--run", type=_path, required=True, help="training output directory")
    p.add_argument("--out", type=_path, help="optional directory for the metric report")
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
