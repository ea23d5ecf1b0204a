"""Span recorder for the traced benchmark run.

Spans are taken in the benchmark's own code, around calls into the
package's public functions and methods: the workload wraps each operation
(``train_step``, ``generate_n``, ``perplexity``) and each set-up call, and
the subclasses below wrap the public methods of ``SegCVAE`` and ``Adam``.
The subclasses are injected into a ``TrainState`` by :func:`instrument`;
nothing in the package is patched.

Spans stay in memory until the run ends.  Each records its parent (the
span open on the same thread when it started) and the operation it belongs
to, so work done on the perplexity worker threads is still charged to the
perplexity call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from segcvae.autodiff import Rng
from segcvae.model import SegCVAE
from segcvae.training import Adam, TrainState


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``enabled``; a disabled recorder records nothing."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.probe: dict[str, float] = {}
        self._probing = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._op: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, op: bool = False):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        if op:
            self._op = sid
        owner = self._op
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, owner, name,
                                   threading.get_ident(), start, end))
            if op:
                self._op = None

    # -- the probe step: exact counts, taken outside any timed operation --
    @contextlib.contextmanager
    def probing(self):
        self._probing = True
        try:
            yield
        finally:
            self._probing = False
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def after_forward(self, parts: dict):
        """Walk the loss inputs' graph, then start counting allocations."""
        if not self._probing:
            return
        roots = [parts[k] for k in ("elbo_plus", "san", "scn", "sdn")]
        self.probe["autodiff.graph_nodes"] = float(count_nodes(roots))
        tracemalloc.start()

    def before_update(self, params: dict):
        """End of backward: gradient bytes and the allocation peak."""
        if not self._probing:
            return
        self.probe["autodiff.grad_bytes"] = float(
            sum(p.grad.nbytes for p in params.values() if p.grad is not None))
        self.probe["autodiff.backward_peak_alloc_bytes"] = float(
            tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    # -- aggregation ------------------------------------------------------
    def ops(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.op == s.sid]

    def inclusive(self, ops: list[Span]) -> dict[str, float]:
        """Seconds per span name, summed over the spans of ``ops``."""
        wanted = {s.sid for s in ops}
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.op in wanted:
                totals[s.name] += s.seconds
        return totals

    def children(self, ops: list[Span]) -> dict[str, float]:
        """Seconds per span name of the direct children of ``ops``."""
        wanted = {s.sid for s in ops}
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.parent in wanted:
                totals[s.name] += s.seconds
        return totals

    def counts(self, ops: list[Span]) -> dict[str, int]:
        wanted = {s.sid for s in ops}
        totals: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.op in wanted and s.sid != s.op:
                totals[s.name] += 1
        return totals

    def threads(self, ops: list[Span]) -> int:
        wanted = {s.sid for s in ops}
        return len({s.thread for s in self.spans
                    if s.op in wanted and s.sid != s.op})

    def dump(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def count_nodes(roots) -> int:
    """Tensors reachable from ``roots`` through their recorded parents."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class TracedSegCVAE(SegCVAE):
    """``SegCVAE`` with a span around each public forward method."""

    recorder: Recorder

    def zero_grad(self):
        with self.recorder.span("model.zero_grad"):
            super().zero_grad()

    def encode_ids(self, ids):
        with self.recorder.span("model.encode_ids"):
            return super().encode_ids(ids)

    def prominent_semantics(self, ctx_ids, rng=None, noise=False):
        with self.recorder.span("model.prominent_semantics"):
            return super().prominent_semantics(ctx_ids, rng, noise)

    def prior(self, x):
        with self.recorder.span("model.prior"):
            return super().prior(x)

    def decoder_initial(self, z, x):
        with self.recorder.span("model.decoder_initial"):
            return super().decoder_initial(z, x)

    def decode_step(self, state, token_ids):
        with self.recorder.span("model.decode_step"):
            return super().decode_step(state, token_ids)

    def elbo(self, resp_ids, x, r_e, kl_weight, rng, want_generated=False):
        with self.recorder.span("model.elbo"):
            return super().elbo(resp_ids, x, r_e, kl_weight, rng, want_generated)

    def forward_losses(self, ctx_ids, resp_ids, kl_weight, rng, gs_noise=True):
        with self.recorder.span("model.forward_losses"):
            parts = super().forward_losses(ctx_ids, resp_ids, kl_weight, rng, gs_noise)
        self.recorder.after_forward(parts)
        return parts


class TracedAdam(Adam):
    """``Adam`` with a span around each update."""

    recorder: Recorder

    def step(self, clip=None):
        self.recorder.before_update(self.params)
        with self.recorder.span("training.adam"):
            super().step(clip)


def instrument(state: TrainState, lr: float, recorder: Recorder) -> TrainState:
    """A copy of ``state`` whose model and optimizer record spans.

    The traced model gets the same configuration and parameter values and
    the traced optimizer the same moments, so it computes what the original
    would have.
    """
    config = state.model.config
    model = TracedSegCVAE(config, np.zeros((config.vocab_size, config.emb_dim)), Rng(0))
    model.recorder = recorder
    model.load_state(state.model.state_arrays())
    optimizer = TracedAdam(model.params, lr=lr)
    optimizer.recorder = recorder
    optimizer.t = state.optimizer.t
    optimizer.m = {k: v.copy() for k, v in state.optimizer.m.items()}
    optimizer.v = {k: v.copy() for k, v in state.optimizer.v.items()}
    return dataclasses.replace(state, model=model, optimizer=optimizer)
