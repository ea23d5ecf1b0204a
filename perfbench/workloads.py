"""The benchmark's three workloads.

Each workload is a closed loop driven by one process: the next operation
starts when the previous one has returned.

* ``train-tiny``: ``train_step`` at the shape of the ablation acceptance
  test (V=80, D=16, M=4, B=9, L=8, all norms on).  Every array op is tiny,
  so time goes to building and replaying the autodiff graph.
* ``train-paper``: ``train_step`` at the paper-ish shape (V=5004, D=300,
  M=8, B=8, L=25).  Backward with dense V x D gradient buffers dominates.
* ``eval-paper``: the same paper-ish model after a checkpoint round trip,
  used forward only: ``generate_n(n=8)`` over a set of contexts, then
  ``perplexity`` over a few hundred pairs on two worker threads.  The model
  is untrained, so set-up raises its end-marker bias (:func:`end_early`)
  to make greedy responses stop at a spread of lengths below the cap.

Every operation is checked; an operation that raises or fails a check is
counted as failed and the run goes on.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from segcvae import autodiff as ad
from segcvae.autodiff import Rng
from segcvae.corpus import BOS_ID, EOS_ID, PAD_ID, build_vocab, encode_context, encode_pairs
from segcvae.evaluation import generate_n
from segcvae.training import (TrainingConfig, init_state, load_state,
                              perplexity, save_state, train_step)

from synth import CorpusSpec, make_pairs
from spans import Recorder, instrument

GEN_CONTEXTS = 4     # contexts per eval round, one generate_n call each
GEN_N = 8            # responses per generate_n call
PPL_PAIRS = 256      # pairs per perplexity call
MIN_OPS = 3          # timed train steps or eval rounds per run, whatever the time budget
MIN_SETUPS = 3       # set-ups per run, whatever the set-up time
END_BY = 8           # end_early: half the calibration responses end within this many tokens

TINY = dict(learning_rate=0.005, batch_size=9, epochs=1, lambda_constant=1.0,
            kl_anneal_steps=400, vocab_cap=80, max_len=8, emb_dim=16,
            hidden_dim=16, latent_dim=16, kernel_width=3, conv_channels=2,
            num_triggers=4, tau=0.1)
PAPER = dict(batch_size=8, vocab_cap=5004, max_len=25, emb_dim=300,
             hidden_dim=300, latent_dim=300, kernel_width=3, conv_channels=3,
             num_triggers=8, tau=0.1)


@dataclass(frozen=True)
class Workload:
    kind: str               # "train" or "eval"
    corpus: CorpusSpec
    config: dict
    setup_seconds: float    # time set-ups take in a run; setup_s is their median
    guard_steps: int = 0    # train: the loss guard averages this many first steps


WORKLOADS = {
    "train-tiny": Workload("train", CorpusSpec(256, 200, 8), TINY, setup_seconds=1.0,
                           guard_steps=100),
    "train-paper": Workload("train", CorpusSpec(1536, 12000, 25), PAPER,
                            setup_seconds=3.0, guard_steps=2),
    "eval-paper": Workload("eval", CorpusSpec(1536, 12000, 25), PAPER, setup_seconds=5.0),
}


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, name, fn, check=None):
        """Call ``fn``; return its result and seconds, or (None, None) if it
        raised or ``check`` found a problem."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, not fatal
            self.fail(f"{name} raised:\n{traceback.format_exc()}")
            return None, None
        seconds = time.perf_counter() - start
        problem = check(result) if check else None
        if problem:
            self.fail(f"{name}: {problem}")
            return None, None
        return result, seconds

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED {message}", file=sys.stderr)


@dataclass
class Bundle:
    """What set-up produces: the corpus, its encoding and the train state."""

    pairs: list
    vocab: object
    data: tuple
    state: object
    checkpoint_bytes: int = 0
    digest: str = ""        # eval: parameter digest before the checkpoint round trip


def set_up(w: Workload, cfg: TrainingConfig, seed: int, rec: Recorder,
           scratch: Path, tally: Tally) -> tuple[Bundle | None, float | None]:
    """One set-up; returns the bundle and its wall time in seconds."""

    def build() -> Bundle:
        with rec.span("setup", op=True):
            pairs = make_pairs(w.corpus, seed)
            with rec.span("corpus.build_vocab"):
                vocab = build_vocab(pairs, cfg.vocab_cap, emb_dim=cfg.emb_dim, seed=cfg.seed)
            with rec.span("corpus.encode_pairs"):
                data = encode_pairs(pairs, vocab, cfg.max_len)
            with rec.span("training.init_state"):
                state = init_state(cfg, vocab)
            bundle = Bundle(pairs, vocab, data, state)
            if w.kind == "eval":
                with rec.span("end_early"):
                    end_early(state.model, vocab, pairs[GEN_CONTEXTS].context)
                bundle.digest = _digest(state.model)
                path = scratch / f"checkpoint-{os.getpid()}.bin"
                try:
                    with rec.span("training.save_state"):
                        save_state(state, cfg, path)
                    bundle.checkpoint_bytes = path.stat().st_size
                    # only the loaded copy stays, so set-up holds one state at a time
                    bundle.state = state = None
                    with rec.span("training.load_state"):
                        bundle.state = load_state(path, cfg)
                finally:
                    path.unlink(missing_ok=True)
        return bundle

    def check(bundle: Bundle) -> str | None:
        if bundle.vocab.size != cfg.vocab_cap:
            return f"vocabulary has {bundle.vocab.size} ids, want {cfg.vocab_cap}"
        if bundle.digest and _digest(bundle.state.model) != bundle.digest:
            return "checkpoint round trip changed the parameters"
        return None

    return tally.run("set-up", build, check)


class SetUps:
    """Set-ups spread over the run.

    The host's speed drifts over seconds to minutes, so a burst of set-ups
    before the loop would time the machine at one moment.  Instead one
    set-up runs before the loop and more run between timed operations,
    paced to take ``setup_seconds`` over the run; ``setup_s`` is their
    median and sees the same stretch of time as the operations.
    """

    def __init__(self, w: Workload, cfg: TrainingConfig, seed: int, rec: Recorder,
                 scratch: Path, tally: Tally, trace: bool):
        self.w, self.cfg, self.seed, self.rec = w, cfg, seed, rec
        self.scratch, self.tally, self.trace = scratch, tally, trace
        self.seconds: list[float] = []

    def one(self, keep: bool = False) -> Bundle:
        """One set-up; a traced run instruments the state it will ``keep``."""
        gc.collect()
        self.rec.enabled = self.trace
        try:
            bundle, took = set_up(self.w, self.cfg, self.seed, self.rec, self.scratch,
                                  self.tally)
        finally:
            self.rec.enabled = False
        if bundle is None:
            raise RuntimeError("set-up failed; nothing to measure")
        self.seconds.append(took)
        if keep and self.trace:
            bundle.state = instrument(bundle.state, self.cfg.learning_rate, self.rec)
        return bundle

    def pace(self, start: float, seconds: float, bundle: Bundle | None = None):
        """Set up while set-up time is behind its share of the time since
        ``start``.  With ``bundle``, each new state takes the place of its
        state, so that no two are held at once."""
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while sum(self.seconds) < self.w.setup_seconds * share:
            if bundle is None:
                self.one()
            else:
                bundle.state = None
                bundle.state = self.one(keep=True).state

    def finish(self, bundle: Bundle):
        """Top up to the set-up time and count after the loop."""
        bundle.state = None
        while len(self.seconds) < MIN_SETUPS or sum(self.seconds) < self.w.setup_seconds:
            self.one()


def _digest(model) -> str:
    h = hashlib.sha256()
    for name, p in sorted(model.params.items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.values).data)
    return h.hexdigest()


def end_early(model, vocab, context) -> None:
    """Raise the end marker's output bias so that greedy responses end at a
    spread of lengths below the cap.

    An untrained model's logits are nearly uniform and the end marker almost
    never wins, so every response would run to the cap.  Calibration follows
    the greedy path of each branch from ``context`` at the prior mean and
    takes, per path, the smallest lead of the best other token over the end
    marker within the first ``END_BY`` steps; the bias rises by the median
    of these leads.  Generation uses other contexts and sampled latents, so
    the lengths spread; the eval run reports their median and the share
    that reaches the cap.
    """
    cfg = model.config
    ctx_ids = encode_context(tuple(context), vocab, cfg.max_len)[None]
    leads = []
    with ad.no_grad():
        for x in model.prominent_semantics(ctx_ids, noise=False):
            mu, _ = model.prior(x)
            state, token, path = model.decoder_initial(mu, x), BOS_ID, []
            for _ in range(END_BY):
                logits, state = model.decode_step(state, np.array([token]))
                row = logits.values[0].copy()
                end, row[EOS_ID] = row[EOS_ID], -np.inf
                token = int(np.argmax(row))
                path.append(row[token] - end)
            leads.append(min(path))
    arrays = dict(model.state_arrays())
    arrays["out.b"] = arrays["out.b"].copy()
    arrays["out.b"][EOS_ID] += float(np.median(leads))
    model.load_state(arrays)


def _loss_check(stats: dict) -> str | None:
    bad = [k for k, v in stats.items() if not math.isfinite(v)]
    return f"non-finite {', '.join(bad)} at step {stats['step']}" if bad else None


def _record_check(cfg: TrainingConfig, vocab):
    def check(record) -> str | None:
        if len(record.responses) != GEN_N:
            return f"{len(record.responses)} responses, want {GEN_N}"
        for resp in record.responses:
            if len(resp) > cfg.max_len:
                return f"response of {len(resp)} tokens exceeds max_len {cfg.max_len}"
            unknown = [t for t in resp if t not in vocab]
            if unknown:
                return f"tokens outside the vocabulary: {unknown[:3]}"
        want = [k % cfg.num_triggers for k in range(GEN_N)]
        if record.branch_indices != want:
            return f"branch indices {record.branch_indices}, want {want}"
        return None
    return check


def _ppl_check(ppl: float) -> str | None:
    if not math.isfinite(ppl) or ppl < 1.0:
        return f"perplexity {ppl!r} is not a finite value >= 1"
    return None


def _done(start: float, seconds: float, attempts: int) -> bool:
    return time.perf_counter() - start >= seconds and attempts >= MIN_OPS


@dataclass
class Loop:
    """What a timed loop measured."""

    op_seconds: list[float] = field(default_factory=list)
    traced_seconds: list[float] = field(default_factory=list)
    untraced_seconds: list[float] = field(default_factory=list)
    ppl_seconds: list[float] = field(default_factory=list)
    response_lengths: list[int] = field(default_factory=list)
    quality: float = 0.0

    def add(self, seconds: float, traced: bool | None):
        self.op_seconds.append(seconds)
        if traced is not None:
            (self.traced_seconds if traced else self.untraced_seconds).append(seconds)


def train_loop(w: Workload, cfg: TrainingConfig, b: Bundle, seed: int, seconds: float,
               rec: Recorder, trace: bool, tally: Tally, setups: SetUps) -> Loop:
    """Closed loop of train_step on random batches; step 0 warms up."""
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    n = len(b.pairs)
    loop = Loop()
    guard: list[float] = []

    def one(index, traced):
        rec.enabled = traced
        try:
            with rec.span("train_step", op=True):
                return train_step((b.data[0][index], b.data[1][index]), b.state, cfg)
        finally:
            rec.enabled = False

    step = 0
    start = None
    while start is None or not _done(start, seconds, step - 1) or step < w.guard_steps:
        traced = trace and step % 2 == 1
        index = rng.choice(n, cfg.batch_size, replace=False)
        stats, took = tally.run(f"train_step {step}", lambda: one(index, traced), _loss_check)
        if stats is not None and step < w.guard_steps:
            targets = int(np.count_nonzero(b.data[1][index, 1:] != PAD_ID))
            guard.append(stats["loss"] * cfg.batch_size / targets)
        if step == 0:
            start = time.perf_counter()
        elif took is not None:
            loop.add(took, traced if trace else None)
        setups.pace(start, seconds)
        step += 1
    loop.quality = statistics.fmean(guard) if guard else 0.0
    return loop


def eval_loop(cfg: TrainingConfig, b: Bundle, seed: int, seconds: float,
              rec: Recorder, trace: bool, tally: Tally, setups: SetUps) -> Loop:
    """Rounds of generate_n over the first contexts, then perplexity."""
    contexts = [p.context for p in b.pairs[:GEN_CONTEXTS]]
    scored = (b.data[0][:PPL_PAIRS], b.data[1][:PPL_PAIRS])
    rng = Rng(seed)
    check_record = _record_check(cfg, b.vocab)
    loop = Loop()

    def op(name, fn, traced):
        rec.enabled = traced
        try:
            with rec.span(name, op=True):
                return fn()
        finally:
            rec.enabled = False

    def gen(context, traced):
        return op("generate_n", lambda: generate_n(b.state.model, b.vocab, context,
                                                   GEN_N, rng), traced)

    tally.run("generate_n warm-up", lambda: gen(contexts[0], False), check_record)
    start = time.perf_counter()
    ppl_values: list[float] = []
    rounds = 0
    while not _done(start, seconds, rounds):
        rounds += 1
        for context in contexts:
            traced = trace and len(loop.op_seconds) % 2 == 0
            record, took = tally.run("generate_n", lambda: gen(context, traced), check_record)
            if took is not None:
                loop.add(took, traced if trace else None)
                loop.response_lengths += [len(r) for r in record.responses]
            setups.pace(start, seconds, b)
        traced = trace and len(loop.ppl_seconds) % 2 == 0
        ppl, took = tally.run("perplexity",
                              lambda: op("perplexity", lambda: perplexity(b.state.model, scored),
                                         traced), _ppl_check)
        if took is not None:
            loop.ppl_seconds.append(took)
            ppl_values.append(ppl)
        setups.pace(start, seconds, b)
    loop.quality = math.log(statistics.median(ppl_values)) if ppl_values else 0.0
    return loop


def probe(w: Workload, cfg: TrainingConfig, b: Bundle, seed: int, rec: Recorder,
          scratch: Path, tally: Tally):
    """Traced runs only, after the timed loop: one untimed call of each
    operation the loop does not time, so that every per-layer metric is
    measured on every workload, then the probe step.

    The probe step is a train step on the first B pairs that also walks the
    loss graph and counts allocations in backward; that would distort timed
    steps, so it runs only here."""
    batch = (b.data[0][:cfg.batch_size], b.data[1][:cfg.batch_size])

    def round_trip():
        path = scratch / f"checkpoint-{os.getpid()}.bin"
        try:
            with rec.span("training.save_state"):
                save_state(b.state, cfg, path)
            b.checkpoint_bytes = path.stat().st_size
            with rec.span("training.load_state"):
                load_state(path, cfg)
        finally:
            path.unlink(missing_ok=True)

    def op(name, fn, check=None):
        with rec.span(name, op=True):
            tally.run(f"{name} probe", fn, check)

    rec.enabled = True
    try:
        if w.kind == "eval":
            op("train_step", lambda: train_step(batch, b.state, cfg), _loss_check)
        else:
            op("generate_n", lambda: generate_n(b.state.model, b.vocab, b.pairs[0].context,
                                                GEN_N, Rng(seed)), _record_check(cfg, b.vocab))
            scored = (b.data[0][:PPL_PAIRS], b.data[1][:PPL_PAIRS])
            op("perplexity", lambda: perplexity(b.state.model, scored), _ppl_check)
            op("checkpoint", round_trip)
        with rec.probing():
            op("probe_step", lambda: train_step(batch, b.state, cfg), _loss_check)
    finally:
        rec.enabled = False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rate(per_op: int, seconds: list[float]) -> float:
    """Items per second at the median operation time."""
    return per_op / _median(seconds) if seconds else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ms(seconds: list[float]) -> float:
    return 1000.0 * _median(seconds)


def _ms_mean(seconds: list[float]) -> float:
    return 1000.0 * statistics.fmean(seconds) if seconds else 0.0


def _tail(seconds: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(seconds) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(seconds, n=100)[q - 1]
            return f"p{q}", 1000.0 * cut
    return None


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    report: list[tuple[str, float, str]]
    tally: Tally
    spans: list[dict]


def run(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    w = WORKLOADS[name]
    cfg = TrainingConfig(**w.config)
    tally = Tally()
    rec = Recorder()
    setups = SetUps(w, cfg, seed, rec, scratch, tally, trace)
    bundle = setups.one(keep=True)
    setup_rss = peak_rss_mb()

    if w.kind == "train":
        loop = train_loop(w, cfg, bundle, seed, seconds, rec, trace, tally, setups)
        per_s = _rate(cfg.batch_size, loop.op_seconds)
    else:
        loop = eval_loop(cfg, bundle, seed, seconds, rec, trace, tally, setups)
        per_s = _rate(PPL_PAIRS, loop.ppl_seconds)
    if trace:
        probe(w, cfg, bundle, seed, rec, scratch, tally)
    setups.finish(bundle)
    setup_seconds = setups.seconds

    report = _report(w, cfg, loop, setup_seconds, setup_rss, per_s, tally)
    if trace:
        metrics = per_layer(w, cfg, rec, loop, bundle)
        phases = ("model.prominent_semantics_ms", "model.forward_rest_ms")
        if w.kind == "train":
            phases += ("autodiff.backward_ms", "training.adam_ms", "model.encode_ids_ms",
                       "model.elbo_ms")
        report += [("traced_op_ms_mean", _ms_mean(loop.traced_seconds), "ms"),
                   ("phase_sum_ms", sum(metrics[k][0] for k in phases),
                    "ms (" + " + ".join(phases) + ")")]
    else:
        metrics = {
            "setup_s": (_median(setup_seconds), "s"),
            "pairs_per_s": (per_s, "1/s"),
            "op_ms_p50": (_ms(loop.op_seconds), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "quality_nats": (loop.quality, "nats"),
        }
    return Outcome(metrics, report, tally, rec.dump() if trace else [])


def _report(w: Workload, cfg: TrainingConfig, loop: Loop, setup_seconds, setup_rss,
            per_s, tally: Tally) -> list[tuple[str, float, str]]:
    """Every end-to-end figure under its own name, for people to read."""
    rows = [("setup_s", _median(setup_seconds), f"s (median of {len(setup_seconds)})")]
    samples = f"ms (n={len(loop.op_seconds)})"
    if w.kind == "train":
        rows += [("train_pairs_per_s", per_s, "1/s"),
                 ("step_ms_p50", _ms(loop.op_seconds), samples)]
    else:
        rows += [("gen_responses_per_s", _rate(GEN_N, loop.op_seconds), "1/s"),
                 ("gen_context_ms_p50", _ms(loop.op_seconds), samples),
                 ("ppl_pairs_per_s", per_s, f"1/s (median of {len(loop.ppl_seconds)} "
                                            f"calls over {PPL_PAIRS} pairs)")]
        lengths = loop.response_lengths
        if lengths:
            rows += [("gen_tokens_p50", statistics.median(lengths),
                      f"tokens per response (n={len(lengths)})"),
                     ("gen_at_cap_share", sum(n == cfg.max_len for n in lengths) / len(lengths),
                      f"of responses reach max_len {cfg.max_len}")]
    tail = _tail(loop.op_seconds)
    if tail:
        rows.append((("step_ms_" if w.kind == "train" else "gen_context_ms_") + tail[0],
                     tail[1], samples))
    rows += [("peak_rss_mb", peak_rss_mb(), "MB"),
             ("setup_peak_rss_mb", setup_rss, "MB (peak after the first set-up)"),
             ("error_rate", tally.failed / tally.attempted,
              f"({tally.failed} of {tally.attempted} operations)")]
    if w.kind == "train":
        rows.append(("loss_final", loop.quality,
                     f"nats per target token (mean of the first {w.guard_steps} steps)"))
    else:
        rows.append(("ppl_value", math.exp(loop.quality), "(exp of quality_nats)"))
    return rows


def per_layer(w: Workload, cfg: TrainingConfig, rec: Recorder, loop: Loop,
              b: Bundle) -> dict[str, tuple[float, str]]:
    """The traced split.  Each time is per call of the operation it belongs
    to: train-step layers per ``train_step``, ``prominent_semantics`` and
    the rest of the model per timed operation (``train_step`` or
    ``generate_n``), checkpoint layers per save or load, corpus layers per
    set-up.  Operations the loop does not time come from :func:`probe`."""
    m: dict[str, tuple[float, str]] = {}

    def ms(total: float, count: int) -> float:
        return 1000.0 * total / count if count else 0.0

    steps, gens = rec.ops("train_step"), rec.ops("generate_n")
    step, step_kids = rec.inclusive(steps), rec.children(steps)
    m["autodiff.backward_ms"] = (ms(step["train_step"] - sum(step_kids.values()), len(steps)),
                                 "ms")
    m["autodiff.graph_nodes"] = (rec.probe.get("autodiff.graph_nodes", 0.0), "count")
    m["autodiff.grad_bytes"] = (rec.probe.get("autodiff.grad_bytes", 0.0), "B")
    m["autodiff.backward_peak_alloc_bytes"] = (
        rec.probe.get("autodiff.backward_peak_alloc_bytes", 0.0), "B")
    m["model.encode_ids_ms"] = (ms(step["model.encode_ids"], len(steps)), "ms")
    m["model.elbo_ms"] = (ms(step["model.elbo"], len(steps)), "ms")
    m["training.adam_ms"] = (ms(step["training.adam"], len(steps)), "ms")

    ops = steps if w.kind == "train" else gens
    incl, kids = rec.inclusive(ops), rec.children(ops)
    named = incl["model.encode_ids"] + incl["model.prominent_semantics"] + incl["model.elbo"]
    model_top = sum(v for k, v in kids.items() if k.startswith("model."))
    m["model.prominent_semantics_ms"] = (ms(incl["model.prominent_semantics"], len(ops)), "ms")
    m["model.forward_rest_ms"] = (ms(model_top - named, len(ops)), "ms")

    if w.kind == "train":
        probe_step = rec.counts(rec.ops("probe_step"))
        per_context = probe_step["model.prominent_semantics"] / cfg.batch_size
        decode_calls = probe_step["model.decode_step"]
    else:
        per_context = rec.counts(gens)["model.prominent_semantics"] / len(gens)
        decode_calls = rec.counts(gens[:1])["model.decode_step"]
    m["model.prominent_semantics_calls_per_context"] = (per_context, "count")
    m["model.decode_step_calls"] = (float(decode_calls), "count")
    m["evaluation.generate_n_ms"] = (ms(rec.inclusive(gens)["generate_n"], len(gens)), "ms")

    ppl_ops = rec.ops("perplexity")
    m["training.perplexity_ms"] = (ms(rec.inclusive(ppl_ops)["perplexity"], len(ppl_ops)), "ms")
    m["parallel.ppl_workers"] = (float(rec.threads(ppl_ops)), "count")
    setups = rec.ops("setup")
    setup = rec.inclusive(setups)
    saving = setups + rec.ops("checkpoint")
    save, calls = rec.inclusive(saving), rec.counts(saving)
    m["training.save_state_ms"] = (ms(save["training.save_state"], calls["training.save_state"]),
                                   "ms")
    m["training.load_state_ms"] = (ms(save["training.load_state"], calls["training.load_state"]),
                                   "ms")
    m["training.checkpoint_bytes"] = (float(b.checkpoint_bytes), "B")
    m["corpus.build_vocab_ms"] = (ms(setup["corpus.build_vocab"], len(setups)), "ms")
    m["corpus.encode_pairs_ms"] = (ms(setup["corpus.encode_pairs"], len(setups)), "ms")
    overhead = 0.0
    if loop.traced_seconds and loop.untraced_seconds:
        overhead = 100.0 * (statistics.median(loop.traced_seconds)
                            / statistics.median(loop.untraced_seconds) - 1.0)
    m["trace.overhead_pct"] = (overhead, "%")
    return m
