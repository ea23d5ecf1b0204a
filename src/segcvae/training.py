"""Training loop: schedules, optimizer, checkpointing, deterministic replay.

The objective is maximized, so each step minimizes its negation.  Both the
norm weight and the KL weight ramp linearly from zero; the norm weight can
instead be pinned to a constant.  ``fit`` writes its log (``LOG_NAME``) and,
at every new validation-perplexity minimum, a checkpoint
(``CHECKPOINT_NAME``); perplexity scores all branches of a context in one
no-graph pass, as the training step's scoring pass does.  The serialized
state (each parameter and its optimizer moments by the parameter's name,
step, generator states) holds all an exact resume needs, though no entry
point resumes yet.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .config import ModelConfig, TrainingConfig
from .corpus import PAD_ID, DialoguePair, Vocabulary, encode_pairs
from .errors import DomainError, EmptyCorpus, NonFiniteGradient, NonFiniteLoss, ShapeError
from .model import SegCVAE, stored_array, total_loss

CHECKPOINT_NAME = "checkpoint.bin"
LOG_NAME = "train_log.txt"
ADAM_BLOCK = 1 << 15  # elements per Adam block: the block's arrays and scratch stay in L2
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


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
        """
        names = [k for k in sorted(self.params) if self.params[k].grad is not None]
        try:
            norm = math.sqrt(math.fsum(float((self.params[k].grad ** 2).sum()) for k in names))
        except OverflowError:
            norm = math.inf
        if not math.isfinite(norm):
            raise NonFiniteGradient(f"gradient norm is {norm}")
        scale = clip / norm if clip is not None and norm > clip else 1.0
        self.t += 1
        b1, b2 = BETA1, BETA2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        scratch = np.empty((2, ADAM_BLOCK))
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
    table's (``build_vocab(..., seed=cfg.seed)``), ``cfg.seed + 1`` the
    trigger/latent noise's, ``cfg.seed + 2`` the batch order's and
    ``cfg.seed + 3`` the Glorot weights'."""
    cfg.validate()
    noise, batches, weights = (Rng(cfg.seed + k) for k in (1, 2, 3))
    model = SegCVAE(cfg.model_config(vocab.size), vocab.embedding, weights)
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
    state.grad_clipped = (None if norm is None
                          else cfg.grad_clip is not None and norm > cfg.grad_clip)
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


def perplexity(model: SegCVAE, dataset: tuple[np.ndarray, np.ndarray],
               batch_size: int = 32) -> float:
    """A best-of-M score: exp of the mean per-token negative log-likelihood
    under teacher forcing, each response scored under the branch that
    scores it best, a branch chosen with the response, and with the latent
    at the prior mean.  It is not the model's likelihood, which would mix
    the branches and marginalise the latent: it reads at or below the
    uniform branch mixture, and an M=1 model gets no best-of-M advantage.
    All M branches of a context are scored in one no-graph pass
    (``SegCVAE.prior_recon``) of ``max(1, batch_size // M)`` contexts, so
    ``batch_size`` bounds the rows a pass decodes (M per context), not the
    contexts.  The calling thread and ``worker_count() - 1`` threads
    started for the call share out the passes, thread i of T taking passes
    i, i + T, i + 2T, ...; the passes' sums are added exactly, so the
    result does not depend on the number of threads."""
    ctx_ids, resp_ids = dataset
    tokens = int((resp_ids[:, 1:] != PAD_ID).sum())  # the scored targets, EOS included
    if tokens == 0:  # no pair, or only responses of padding after BOS
        raise EmptyCorpus("cannot evaluate perplexity without a target token")
    step = max(1, batch_size // model.config.num_triggers)
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

def save_state(state: TrainState, cfg: TrainingConfig, path):
    model, opt = state.model, state.optimizer
    arrays = {prefix + name: a for prefix, by_name in (("param.", model.state_arrays()),
              ("adam.m.", opt.m), ("adam.v.", opt.v)) for name, a in by_name.items()}
    arrays["opt.t"] = np.array(state.optimizer.t, dtype=np.uint64)
    arrays["train.step"] = np.array(state.step, dtype=np.uint64)
    arrays["train.best_ppl"] = np.array(state.best_ppl, dtype=np.float64)
    arrays["rng.noise"] = state.rng.get_state()
    arrays["rng.data"] = state.data_rng.get_state()
    meta = model.config.meta()
    meta["seed"] = str(cfg.seed)
    ad.save_checkpoint(path, arrays, meta)


def load_model(path) -> SegCVAE:
    """Rebuild the network stored in a checkpoint, reading only its
    ``param.*`` arrays (every index line is still checked)."""
    return _model_of(path, *ad.load_checkpoint(path, prefix="param."))


def _model_of(path, arrays: dict[str, np.ndarray], meta: dict[str, str]) -> SegCVAE:
    """The network of a checkpoint's meta and ``param.*`` arrays."""
    try:
        config = ModelConfig.from_meta(meta)
    except KeyError as err:
        raise DomainError(f"{path}: checkpoint meta lacks {err}")
    except ValueError as err:
        raise DomainError(f"{path}: malformed checkpoint meta: {err}")
    return SegCVAE.from_arrays(config, {k[len("param."):]: v for k, v in arrays.items()
                                        if k.startswith("param.")})


def load_state(path, cfg: TrainingConfig) -> TrainState:
    """A ``save_state`` file's state, its parameters and moments the loaded arrays
    themselves; a missing or misshapen entry is a DomainError naming it and the file."""
    arrays, meta = ad.load_checkpoint(path)
    model = _model_of(path, arrays, meta)

    def stored(name: str, size: int = 1):  # a number, or an array of size values
        value = arrays.get(name)
        if value is None or value.size != size:
            what = "is missing" if value is None else f"has {value.size} values, want {size}"
            raise DomainError(f"{path}: checkpoint entry '{name}' {what}")
        return value.item() if size == 1 else value

    moments = [{name: stored_array(arrays, f"adam.{k}.{name}", p.shape)
                for name, p in model.params.items()} for k in "mv"]
    optimizer = Adam(model.params, lr=cfg.learning_rate, moments=moments)
    optimizer.t = int(stored("opt.t"))
    rng, data_rng = Rng(0), Rng(0)
    rng.set_state(stored("rng.noise", Rng.STATE_WORDS))
    data_rng.set_state(stored("rng.data", Rng.STATE_WORDS))
    return TrainState(model=model, optimizer=optimizer, rng=rng,
                      data_rng=data_rng, step=int(stored("train.step")),
                      best_ppl=float(stored("train.best_ppl")))


# ---------------------------------------------------------------------------
# the full loop
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    checkpoint_path: Path
    log_path: Path
    val_ppl: list[float] = field(default_factory=list)


def fit(splits: dict[str, Sequence[DialoguePair]], vocab: Vocabulary,
        cfg: TrainingConfig, run_dir) -> FitResult:
    """Train for up to ``cfg.epochs`` epochs over ``splits['train']``,
    checkpointing at every new validation-perplexity minimum."""
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

    result = FitResult(run_dir / CHECKPOINT_NAME, run_dir / LOG_NAME)
    with open(result.log_path, "w", encoding="utf-8") as log:
        for epoch in range(cfg.epochs):
            for index in iterate_batches(len(train_pairs), cfg.batch_size, state.data_rng):
                batch = (train_data[0][index], train_data[1][index])
                stats = train_step(batch, state, cfg)
                log.write(format_stats(stats) + "\n")
            val_ppl = perplexity(state.model, valid_data, batch_size=cfg.batch_size)
            result.val_ppl.append(val_ppl)
            log.write(f"epoch={epoch} val_ppl={val_ppl!r}\n")
            if val_ppl < state.best_ppl:
                state.best_ppl = val_ppl
                save_state(state, cfg, result.checkpoint_path)
    if state.best_ppl == math.inf:  # no finite ppl in this run; keep its last state
        save_state(state, cfg, result.checkpoint_path)
    return result
