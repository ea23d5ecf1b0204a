"""Decoding and the automatic metric suite.

N-response generation cycles through the semantics branches, draws a fresh
latent from each branch's prior and decodes all responses greedily as one
batch: each starts from the begin marker and stops at the end marker or the
length cap, and none emits the padding, unknown-word or begin markers.  The
metrics are plain functions over token sequences, the references coming
from the scored pairs; special tokens never count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import EPS_NORM, Rng
from .corpus import (BOS_ID, EOS_ID, PAD_ID, SPECIALS, UNK_ID, DialoguePair, Vocabulary,
                     encode_context, text_lines)
from .errors import DegenerateVector, DomainError
from .model import SegCVAE

NEVER_EMITTED = [PAD_ID, UNK_ID, BOS_ID]  # greedy decoding skips these; EOS ends a response
DISTINCT_ORDERS, BLEU_ORDERS = (1, 2), (1, 2, 3)  # the n of the reported distinct-n and BLEU-n


@dataclass
class GenerationRecord:
    """A context, its generated responses and (from generate_n) each one's branch."""

    context: tuple[str, ...]
    responses: list[list[str]]
    branch_indices: list[int] = field(default_factory=list)


def generate_n(model: SegCVAE, vocab: Vocabulary, context: Sequence[str],
               n: int, rng: Rng) -> GenerationRecord:
    """Exactly ``n`` responses: branch k % num_triggers with a fresh prior
    draw per response.  The semantics are computed once for all of them, and
    the n responses decode greedily as one n-row batch; a row stops growing
    at its first end marker, and decoding stops when every row has ended or
    at the length cap."""
    if n < 1:
        raise DomainError(f"need at least one response, got n={n}")
    cfg = model.config
    ctx_ids = encode_context(tuple(context), vocab, cfg.max_len)[None]
    branches = np.arange(n) % cfg.num_triggers
    responses: list[list[int]] = [[] for _ in range(n)]
    with ad.no_grad():
        xs = ad.reshape(model.prominent_semantics(ctx_ids, noise=False), (cfg.num_triggers, -1))
        mu, logvar = model.prior(xs)  # row k is branch k's prior
        z = ad.reparameterize(ad.take(mu, branches), ad.take(logvar, branches),
                              rng.normal((n, cfg.latent_dim)))
        state = model.decoder_initial(z, ad.take(xs, branches))
        tokens = np.full(n, BOS_ID)
        live = np.ones(n, dtype=bool)
        for _ in range(cfg.max_len):
            logits, state = model.decode_step(state, tokens)
            scores = logits.values
            scores[:, NEVER_EMITTED] = -np.inf
            tokens = np.argmax(scores, axis=1)
            live &= tokens != EOS_ID
            if not live.any():
                break
            for k in np.flatnonzero(live):
                responses[k].append(int(tokens[k]))
    return GenerationRecord(tuple(context), [vocab.tokens_of(ids) for ids in responses],
                            branches.tolist())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def distinct_n(responses: Sequence[Sequence[str]], n: int) -> float:
    """Unique n-grams over all generated n-grams, corpus level."""
    grams: list[tuple[str, ...]] = []
    for resp in responses:
        grams.extend(_ngrams(list(resp), n))
    if not grams:
        raise DomainError(f"no {n}-grams in any response")
    return len(set(grams)) / len(grams)


def bleu_n(candidate: Sequence[str], references: Sequence[Sequence[str]],
           n: int) -> float:
    """Geometric mean of clipped k-gram precisions (k = 1..n) with brevity
    penalty; orders above 1 get +1 smoothing on both counts.  Clipping uses
    the per-k-gram maximum over all references."""
    candidate = list(candidate)
    if not candidate:
        raise DomainError("cannot score an empty candidate")
    refs = [list(r) for r in references]
    if not refs:
        raise DomainError("need at least one reference")
    log_sum = 0.0
    for k in range(1, n + 1):
        cand_counts = Counter(_ngrams(candidate, k))
        total = sum(cand_counts.values())
        max_ref = Counter()
        for ref in refs:
            for gram, count in Counter(_ngrams(ref, k)).items():
                max_ref[gram] = max(max_ref[gram], count)
        clipped = sum(min(count, max_ref[gram]) for gram, count in cand_counts.items())
        if k == 1:
            if clipped == 0:
                return 0.0
            precision = clipped / total
        else:
            precision = (clipped + 1.0) / (total + 1.0)
        log_sum += np.log(precision)
    c = len(candidate)
    r = min((len(ref) for ref in refs), key=lambda L: (abs(L - c), L))
    brevity = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(min(1.0, brevity) * np.exp(log_sum / n))


def _mean_embedding(tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    rows = [vocab.embedding[vocab.id_of(t)] for t in tokens if t in vocab]
    if not rows:
        raise DegenerateVector("no usable tokens to embed")
    return np.mean(rows, axis=0)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu <= EPS_NORM or nv <= EPS_NORM:
        raise DegenerateVector("cosine of a near-zero mean embedding")
    return float(u @ v / (nu * nv))


def embedding_average(candidate: Sequence[str], reference: Sequence[str],
                      vocab: Vocabulary) -> float:
    """Cosine of the mean word embeddings of the two sentences."""
    return _cosine(_mean_embedding(candidate, vocab), _mean_embedding(reference, vocab))


def coherence(context: Sequence[str], candidate: Sequence[str],
              vocab: Vocabulary) -> float:
    """Cosine of the mean word embeddings of context and response."""
    return _cosine(_mean_embedding(context, vocab), _mean_embedding(candidate, vocab))


def length_avg(responses: Sequence[Sequence[str]]) -> float:
    """Mean token count over responses, special tokens excluded."""
    if not responses:
        raise DomainError("no responses to measure")
    counts = [sum(1 for t in resp if t not in SPECIALS) for resp in responses]
    return float(np.mean(counts))


# ---------------------------------------------------------------------------
# corpus-level aggregation and report files
# ---------------------------------------------------------------------------

def evaluate_records(records: Sequence[GenerationRecord], pairs: Sequence[DialoguePair],
                     vocab: Vocabulary) -> dict[str, float]:
    """Aggregate the metric suite over generation records, a record's ground
    truths being the responses ``pairs`` give its context.  BLEU and the
    embedding metrics are averaged over generated responses whose context
    has any; BLEU clips over all of them and the embedding score takes the
    best-matching truth."""
    truths = {}
    for pair in pairs:
        truths.setdefault(pair.context, []).append(pair.response)
    all_responses = [resp for rec in records for resp in rec.responses]
    metrics: dict[str, float] = {}
    for n in DISTINCT_ORDERS:
        try:
            metrics[f"distinct-{n}"] = distinct_n(all_responses, n)
        except DomainError:
            metrics[f"distinct-{n}"] = 0.0
    bleu_acc = {n: [] for n in BLEU_ORDERS}
    emb_acc: list[float] = []
    coh_acc: list[float] = []
    for rec in records:
        refs = truths.get(rec.context, ())
        for resp in rec.responses:
            if refs and resp:
                for n in BLEU_ORDERS:
                    bleu_acc[n].append(bleu_n(resp, refs, n))
                scores = []
                for gt in refs:
                    try:
                        scores.append(embedding_average(resp, gt, vocab))
                    except DegenerateVector:
                        pass
                if scores:
                    emb_acc.append(max(scores))
            if resp:
                try:
                    coh_acc.append(coherence(rec.context, resp, vocab))
                except DegenerateVector:
                    pass
    for n in BLEU_ORDERS:
        metrics[f"bleu-{n}"] = float(np.mean(bleu_acc[n])) if bleu_acc[n] else 0.0
    metrics["emb_average"] = float(np.mean(emb_acc)) if emb_acc else 0.0
    metrics["coherence"] = float(np.mean(coh_acc)) if coh_acc else 0.0
    metrics["length"] = length_avg(all_responses) if all_responses else 0.0
    return metrics


def report_text(metrics: dict[str, float], corpus_size: int) -> str:
    lines = [f"pairs: {corpus_size}"]
    for name in sorted(metrics):
        lines.append(f"{name}: {metrics[name]!r}")
    return "\n".join(lines) + "\n"


def write_generation(path, records: Sequence[GenerationRecord]):
    """One line per context: the context and each response, TAB-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            cells = [" ".join(rec.context)] + [" ".join(r) for r in rec.responses]
            fh.write("\t".join(cells) + "\n")


def read_generation(path) -> list[GenerationRecord]:
    """The records of a :func:`write_generation` file; an unreadable or
    non-UTF-8 file is a DomainError naming it."""
    records = []
    for _, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        cells = line.split("\t")
        records.append(GenerationRecord(
            tuple(cells[0].split()), [c.split() for c in cells[1:]]))
    return records
