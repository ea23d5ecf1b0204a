"""Seeded synthetic dialogue corpora for the benchmark.

Word types are named ``w0``, ``w1``, ... and drawn from a Zipf law over a
fixed universe, so a few types are frequent and most are rare, as in real
dialogue text.  Lengths spread up to the shape's cap; a quarter of the
utterances reach or overrun it, so that batches of a few pairs almost
always contain one response as long as the cap and teacher forcing runs
for the full length.  Part of the corpus is planted as one-to-many groups
(one context, several distinct responses) and many-to-one groups (one
response, several distinct contexts), the complex mappings the model is
built for.

The same arguments always give the same pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segcvae.corpus import DialoguePair

ZIPF_S = 1.0        # exponent of the word-frequency law
LONG_SHARE = 0.25   # utterances that reach or overrun the length cap
O2M_SHARE = 0.2     # pairs in one-to-many groups
M2O_SHARE = 0.2     # pairs in many-to-one groups


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: pair count, word universe and length cap."""

    pairs: int
    universe: int
    max_len: int


def make_pairs(spec: CorpusSpec, seed: int) -> list[DialoguePair]:
    """``spec.pairs`` dialogue pairs drawn from ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(1.0 / np.arange(1, spec.universe + 1) ** ZIPF_S)
    cdf /= cdf[-1]

    def utterance() -> tuple[str, ...]:
        if rng.random() < LONG_SHARE:
            length = int(rng.integers(spec.max_len - 2, spec.max_len + 5))
        else:
            length = int(rng.integers(2, spec.max_len + 1))
        ids = np.searchsorted(cdf, rng.random(length), side="right")
        return tuple(f"w{i}" for i in ids)

    pairs: list[DialoguePair] = []
    o2m_target = int(spec.pairs * O2M_SHARE)
    while len(pairs) < o2m_target:
        context = utterance()
        for _ in range(int(rng.integers(2, 5))):
            pairs.append(DialoguePair(context, utterance()))
    m2o_target = len(pairs) + int(spec.pairs * M2O_SHARE)
    while len(pairs) < m2o_target:
        response = utterance()
        for _ in range(int(rng.integers(2, 5))):
            pairs.append(DialoguePair(utterance(), response))
    while len(pairs) < spec.pairs:
        pairs.append(DialoguePair(utterance(), utterance()))
    pairs = pairs[:spec.pairs]
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]
