"""Training loop: schedules, optimizer, checkpointing, deterministic replay.

The objective is maximized, so each step minimizes its negation.  Both the
norm weight and the KL weight ramp linearly from zero; the norm weight can
instead be pinned to a constant.  This module owns a training run's
directory: ``RUN_FILES`` names its files, ``fit`` writes all of them (the
vocabulary, the log and, at every new validation-perplexity minimum, the
model) and ``load_run`` reads the model and vocabulary back; perplexity
runs passes of one fixed size, so validation and ``evaluate`` print the
same number for a checkpoint and its pairs.  A ``save_state`` file adds
to the model the optimizer moments, step and generator states that an
exact resume needs, though no entry point resumes yet.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .config import ModelConfig, TrainingConfig
from .corpus import PAD_ID, DialoguePair, Vocabulary, encode_pairs
from .errors import DomainError, EmptyCorpus, NonFiniteGradient, NonFiniteLoss, ShapeError
from .model import SegCVAE, initial_arrays, total_loss

# the files of a training run, in manifest order, and those load_run reads back
RUN_FILES = CHECKPOINT_NAME, LOG_NAME, VOCAB_NAME = "checkpoint.bin", "train_log.txt", "vocab.txt"
READ_BACK = CHECKPOINT_NAME, VOCAB_NAME
ADAM_BLOCK = 1 << 15  # elements per Adam block: the block's arrays and scratch stay in L2
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
PASS_ROWS = 32  # rows a perplexity pass decodes: M per context, at least one context
PARAM = "param."  # a parameter's checkpoint entry is PARAM + its name


def _ramp(step: int, steps: int) -> float:
    """Linear 0 to 1 over the first ``steps`` batches; a negative step is a DomainError."""
    if step < 0:
        raise DomainError("step must be non-negative")
    return min(step / steps, 1.0)


def lambda_schedule(step: int, cfg: TrainingConfig) -> float:
    """Norm weight: the ramp over the first snorm_step batches, unless
    pinned by lambda_constant (then the ramp is inactive)."""
    ramp = _ramp(step, cfg.snorm_step)
    return ramp if cfg.lambda_constant is None else cfg.lambda_constant


def kl_anneal(step: int, cfg: TrainingConfig) -> float:
    """KL weight: the ramp over the first kl_anneal_steps batches."""
    return _ramp(step, cfg.kl_anneal_steps)


def _sum_squares(flat: np.ndarray, buf: np.ndarray) -> np.float64:
    """``(flat ** 2).sum()`` bit for bit, squaring through ``buf`` a piece at
    a time instead of into a copy of ``flat``.  numpy sums a contiguous run
    pairwise, splitting it in halves rounded down to a multiple of 8, so the
    run is split the same way until a piece fits ``buf`` and numpy sums that.
    ``flat`` is an array's elements in memory order (``np.ravel(g, "K")``),
    the order in which numpy sums the array's squares."""
    if flat.size <= buf.size:
        return np.multiply(flat, flat, out=buf[:flat.size]).sum()
    half = flat.size // 2
    half -= half % 8
    return _sum_squares(flat[:half], buf) + _sum_squares(flat[half:], buf)


class Adam:
    """Adaptive-moment updates with global-norm gradient clipping.

    Parameters whose gradient is absent are left untouched, moments
    included.  A non-finite global gradient norm raises NonFiniteGradient
    before any parameter or moment changes.  The moments start at zero
    unless ``moments`` holds a saved state's (m, v), updated in place.
    Fresh moments come from ``np.zeros``, whose large arrays are untouched
    zero pages until the first update writes them, so a state that is never
    stepped (one about to be overwritten by a load) costs no resident memory
    for them.  A parameter or moment that is not C-contiguous is a
    ShapeError: the update walks each one as a flat run of its elements.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001, moments=None):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m, self.v = moments or [{k: np.zeros(p.values.shape, p.values.dtype)
                                      for k, p in params.items()} for _ in range(2)]
        for k, p in params.items():
            if not all(a.flags.c_contiguous for a in (p.values, self.m[k], self.v[k])):
                raise ShapeError(f"parameter '{k}' or a moment of it is not C-contiguous")

    def step(self, clip: float = None) -> float:
        """One update; returns the global gradient norm before clipping.

        Parameter values and moments are updated in place, each walked as
        one flat run of its elements in blocks of ADAM_BLOCK elements
        through one (2, ADAM_BLOCK) scratch, with the same elementwise
        operations in the same order as the plain formula
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p = p - lr*(m/c1) / (sqrt(v/c2) + eps)``, so the bits are the same.
        The norm, ``sqrt(fsum((g ** 2).sum() for each g))``, squares each
        gradient through the same scratch (``_sum_squares``), with the bits
        of that formula and no squared copy of any gradient.
        """
        names = [k for k in sorted(self.params) if self.params[k].grad is not None]
        scratch = np.empty((2, ADAM_BLOCK))
        try:
            norm = math.sqrt(math.fsum(float(_sum_squares(np.ravel(self.params[k].grad, "K"),
                                                          scratch[0])) for k in names))
        except OverflowError:
            norm = math.inf
        if not math.isfinite(norm):
            raise NonFiniteGradient(f"gradient norm is {norm}")
        scale = clip / norm if clip is not None and norm > clip else 1.0
        self.t += 1
        b1, b2 = BETA1, BETA2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        for k in names:
            p = self.params[k]
            flat = [x.reshape(-1) for x in (p.grad, self.m[k], self.v[k], p.values)]
            for i in range(0, flat[0].size, ADAM_BLOCK):
                g, m, v, w = (x[i:i + ADAM_BLOCK] for x in flat)
                a, b = scratch[:, :g.size]
                np.multiply(g, scale, out=a)
                np.multiply(m, b1, out=m)
                np.add(m, np.multiply(a, 1.0 - b1, out=b), out=m)
                np.multiply(v, b2, out=v)
                np.multiply(np.multiply(a, 1.0 - b2, out=b), a, out=b)
                np.add(v, b, out=v)
                np.multiply(np.divide(m, correct1, out=a), self.lr, out=a)
                np.add(np.sqrt(np.divide(v, correct2, out=b), out=b), ADAM_EPS, out=b)
                np.subtract(w, np.divide(a, b, out=a), out=w)
        return norm


@dataclass
class TrainState:
    """Everything a run needs to continue exactly where it stopped."""

    model: SegCVAE
    optimizer: Adam
    rng: Rng         # trigger/latent noise stream
    data_rng: Rng    # batch-order stream
    step: int = 0
    best_ppl: float = math.inf
    # diagnostics of the last step, not saved: examples won per branch, the
    # global gradient norm before clipping and whether clipping fired
    branch_wins: np.ndarray | None = None
    grad_norm: float | None = None
    grad_clipped: bool | None = None


def init_state(cfg: TrainingConfig, vocab: Vocabulary) -> TrainState:
    """A fresh run on ``vocab``.  Each random array has a Philox stream of
    its own, so none replays another's draws: ``cfg.seed`` is the embedding
    table's (``build_vocab(..., seed=cfg.seed)``; a built vocabulary that
    records another seed is a DomainError), ``cfg.seed + 1`` the
    trigger/latent noise's, ``cfg.seed + 2`` the batch order's and
    ``cfg.seed + 3`` the Glorot weights'.  Every parameter array is
    allocated once and the model adopts it without a copy: the model's
    ``emb``, the run's only table, is filled by ``vocab.table``, which draws
    the table straight into it, or copies in the table the vocabulary
    already holds."""
    cfg.validate()
    if vocab.draw is not None and vocab.draw[1] != cfg.seed:  # a given table records no seed
        raise DomainError(f"the vocabulary's table is drawn from seed {vocab.draw[1]}, "
                          f"not from cfg.seed {cfg.seed}")
    noise, batches, weights = (Rng(cfg.seed + k) for k in (1, 2, 3))
    config = cfg.model_config(vocab.size)
    emb = vocab.table(out=np.empty((vocab.size, cfg.emb_dim)))
    model = SegCVAE.from_arrays(config, initial_arrays(config, emb, weights))
    return TrainState(model=model, optimizer=Adam(model.params, lr=cfg.learning_rate),
                      rng=noise, data_rng=batches)


def train_step(batch: tuple[np.ndarray, np.ndarray], state: TrainState,
               cfg: TrainingConfig) -> dict:
    """One optimization step; returns the logged statistics, all finite
    scalars, and leaves the step's wins per branch, its pre-clip gradient
    norm and whether that norm was clipped on ``state``.

    No parameter holds a gradient between steps: any left by a caller go
    before the forward pass, and the step's own go once Adam has used them
    (or the backward pass or the update raised), so none sits under what
    runs between steps, such as a validation perplexity or a checkpoint save.
    """
    ctx_ids, resp_ids = batch
    lam = lambda_schedule(state.step, cfg)
    klw = kl_anneal(state.step, cfg)
    state.model.zero_grad()  # a caller's gradients go before this step's graph is built
    parts = state.model.forward_losses(ctx_ids, resp_ids, klw, state.rng)
    objective = total_loss(parts["elbo_plus"], parts["san"], parts["scn"], parts["sdn"], lam)
    loss = ad.mul(objective, -1.0)
    if not np.isfinite(loss.values):
        raise NonFiniteLoss(state.step)
    try:
        loss.backward()
        norm = state.optimizer.step(clip=cfg.grad_clip)
    except NonFiniteGradient:
        raise NonFiniteLoss(state.step, "non-finite gradient norm") from None
    finally:
        state.model.zero_grad()
    stats = {
        "step": state.step,
        "elbo": float(parts["elbo_plus"].values),
        "recon": parts["recon_mean"],
        "kl": parts["kl_mean"],
        "san": float(parts["san"].values),
        "scn": float(parts["scn"].values),
        "sdn": float(parts["sdn"].values),
        "loss": float(loss.values),
    }
    state.branch_wins = np.bincount(parts["positive"], minlength=state.model.config.num_triggers)
    state.grad_norm = norm  # None from an Adam subclass whose step returns nothing
    state.grad_clipped = None if norm is None else norm > cfg.grad_clip
    state.step += 1
    return stats


def format_stats(stats: dict) -> str:
    """One log line: ``key=repr(value)`` for each statistic, in the dict's order."""
    return " ".join(f"{key}={value!r}" for key, value in stats.items())


def iterate_batches(n: int, batch_size: int, data_rng: Rng):
    order = data_rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


# ---------------------------------------------------------------------------
# evaluation-time likelihood
# ---------------------------------------------------------------------------

def worker_count() -> int:
    """Threads for perplexity: the SEGCVAE_THREADS cap, or 1 when it is
    unset or unparseable."""
    try:
        return max(1, int(os.environ.get("SEGCVAE_THREADS", "")))
    except ValueError:
        return 1


def perplexity(model: SegCVAE, dataset: tuple[np.ndarray, np.ndarray]) -> float:
    """A best-of-M score: exp of the mean per-token negative log-likelihood
    under teacher forcing, each response scored under the branch that
    scores it best, a branch chosen with the response, and with the latent
    at the prior mean.  It is not the model's likelihood, which would mix
    the branches and marginalise the latent: it reads at or below the
    uniform branch mixture, and an M=1 model gets no best-of-M advantage.
    All M branches of a context are scored in one no-graph pass
    (``SegCVAE.prior_recon``) of ``max(1, PASS_ROWS // M)`` contexts; each
    pass's sum is rounded on its own, so no caller sets the pass size.  The
    calling thread and ``worker_count() - 1`` threads started for the call
    share out the passes, thread i of T taking passes i, i + T, i + 2T, ...;
    the passes' sums are added exactly, so the result does not depend on
    the number of threads."""
    ctx_ids, resp_ids = dataset
    tokens = int((resp_ids[:, 1:] != PAD_ID).sum())  # the scored targets, EOS included
    if tokens == 0:  # no pair, or only responses of padding after BOS
        raise EmptyCorpus("cannot evaluate perplexity without a target token")
    step = max(1, PASS_ROWS // model.config.num_triggers)
    passes = [slice(start, start + step) for start in range(0, ctx_ids.shape[0], step)]
    results = [0.0] * len(passes)
    workers = min(worker_count(), len(passes))

    def run_passes(first: int):  # passes first, first + workers, ...
        for i in range(first, len(passes), workers):  # each response under its best branch
            rows = passes[i]
            results[i] = -float(model.prior_recon(ctx_ids[rows], resp_ids[rows]).max(axis=0).sum())

    # helpers start once all are up: one that ended before the next started
    # would hand its thread id on, and the two would count as one thread
    errors, started = [], threading.Event()

    def helper(first: int):  # a helper's error is raised on the calling thread
        started.wait()
        try:
            run_passes(first)
        except BaseException as err:
            errors.append(err)

    helpers = [threading.Thread(target=helper, args=(i,)) for i in range(1, workers)]
    try:
        for thread in helpers:
            thread.start()
        started.set()
        run_passes(0)
    finally:
        started.set()  # frees the started helpers when another one could not start
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    try:
        return math.exp(math.fsum(results) / tokens)
    except OverflowError:  # a mean negative log-likelihood above ~709.8 nats
        return math.inf


# ---------------------------------------------------------------------------
# state persistence
# ---------------------------------------------------------------------------

def save_model(model: SegCVAE, path):
    """Write what ``load_model`` reads: a ``param.<name>`` entry per parameter, and the meta."""
    ad.save_checkpoint(path, {PARAM + k: a for k, a in model.state_arrays().items()},
                       model.config.meta())


def save_state(state: TrainState, cfg: TrainingConfig, path):
    """``save_model``'s entries plus the moments, counters and generator states to resume."""
    model, opt = state.model, state.optimizer
    arrays = {prefix + name: a for prefix, by_name in ((PARAM, model.state_arrays()),
              ("adam.m.", opt.m), ("adam.v.", opt.v)) for name, a in by_name.items()}
    arrays.update({"opt.t": np.array(opt.t, dtype=np.uint64),
                   "train.step": np.array(state.step, dtype=np.uint64),
                   "train.best_ppl": np.array(state.best_ppl, dtype=np.float64),
                   "rng.noise": state.rng.get_state(), "rng.data": state.data_rng.get_state()})
    ad.save_checkpoint(path, arrays, {**model.config.meta(), "seed": str(cfg.seed)})


def load_model(path) -> SegCVAE:
    """The network of a ``save_model`` file, or of a ``save_state`` file."""
    return _model_of(path, *ad.load_checkpoint(path))


def _entry(path, arrays: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """The stored array of checkpoint entry ``name`` (not a parameter's: see
    ``_model_of``); a missing or misshapen one is a DomainError naming both."""
    value = arrays.get(name)
    if value is None or value.shape != shape:
        what = "is missing" if value is None else f"has shape {value.shape}, want {shape}"
        raise DomainError(f"{path}: checkpoint entry '{name}' {what}")
    return value


def _model_of(path, arrays: dict[str, np.ndarray], meta: dict[str, str]) -> SegCVAE:
    """The network of a checkpoint's meta and ``param.*`` arrays, which
    ``from_arrays`` checks, once; a rejected one is a DomainError naming the file."""
    try:
        config = ModelConfig.from_meta(meta)
        config.validate()
    except KeyError as err:
        raise DomainError(f"{path}: checkpoint meta lacks {err}")
    except (ValueError, DomainError) as err:
        raise DomainError(f"{path}: malformed checkpoint meta: {err}")
    params = {name.removeprefix(PARAM): a for name, a in arrays.items() if name.startswith(PARAM)}
    try:
        return SegCVAE.from_arrays(config, params)
    except (DomainError, ShapeError) as err:  # what ``stored_array`` raises
        raise DomainError(f"{path}: {err}")


def load_state(path, cfg: TrainingConfig) -> TrainState:
    """A ``save_state`` file's state, its parameters and moments the loaded
    arrays themselves (float64 and C-contiguous, as saved), a counter read
    at shape ``()`` and a generator state at ``(Rng.STATE_WORDS,)``; a
    missing or misshapen entry is a DomainError naming it and the file."""
    arrays, meta = ad.load_checkpoint(path)
    model = _model_of(path, arrays, meta)
    moments = [{name: np.ascontiguousarray(_entry(path, arrays, f"adam.{k}.{name}", p.shape),
                                           dtype=np.float64)
                for name, p in model.params.items()} for k in "mv"]
    optimizer = Adam(model.params, lr=cfg.learning_rate, moments=moments)
    optimizer.t = int(_entry(path, arrays, "opt.t", ()))
    rng, data_rng = Rng(0), Rng(0)
    rng.set_state(_entry(path, arrays, "rng.noise", (Rng.STATE_WORDS,)))
    data_rng.set_state(_entry(path, arrays, "rng.data", (Rng.STATE_WORDS,)))
    return TrainState(model=model, optimizer=optimizer, rng=rng, data_rng=data_rng,
                      step=int(_entry(path, arrays, "train.step", ())),
                      best_ppl=float(_entry(path, arrays, "train.best_ppl", ())))


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

def fit(splits: dict[str, Sequence[DialoguePair]], vocab: Vocabulary,
        cfg: TrainingConfig, run_dir) -> list[float]:
    """Train for up to ``cfg.epochs`` epochs over ``splits['train']`` into
    ``run_dir``, writing each of ``RUN_FILES`` there: the vocabulary, then
    the log, and the model (``save_model``) at every new validation-perplexity
    minimum.  Returns each epoch's validation perplexity."""
    cfg.validate()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    train_pairs = list(splits.get("train", ()))
    valid_pairs = list(splits.get("valid", ())) or train_pairs
    if not train_pairs:
        raise EmptyCorpus("training split is empty")

    train_data = encode_pairs(train_pairs, vocab, cfg.max_len)
    valid_data = encode_pairs(valid_pairs, vocab, cfg.max_len)
    state = init_state(cfg, vocab)

    val_ppls = []
    vocab.save(run_dir / VOCAB_NAME)
    with open(run_dir / LOG_NAME, "w", encoding="utf-8") as log:
        for epoch in range(cfg.epochs):
            for index in iterate_batches(len(train_pairs), cfg.batch_size, state.data_rng):
                batch = (train_data[0][index], train_data[1][index])
                stats = train_step(batch, state, cfg)
                log.write(format_stats(stats) + "\n")
            val_ppl = perplexity(state.model, valid_data)
            val_ppls.append(val_ppl)
            log.write(f"epoch={epoch} val_ppl={val_ppl!r}\n")
            if val_ppl < state.best_ppl:
                state.best_ppl = val_ppl
                save_model(state.model, run_dir / CHECKPOINT_NAME)
    if state.best_ppl == math.inf:  # no finite ppl in this run; keep its last model
        save_model(state.model, run_dir / CHECKPOINT_NAME)
    return val_ppls


def load_run(run_dir) -> tuple[SegCVAE, Vocabulary]:
    """The model of a ``fit`` run's checkpoint (its best epoch, or an older
    run's full state) and the run's vocabulary, reading ``READ_BACK`` in order."""
    checkpoint, vocab = (Path(run_dir) / name for name in READ_BACK)
    model = load_model(checkpoint)
    return model, Vocabulary.load(vocab, model.emb.values)
