"""Dialogue corpus tooling.

Covers reading the block-structured corpus format (one utterance per line,
blank line between dialogues), tokenization, vocabulary and embedding-table
construction, mining of complex mappings (one context with several distinct
responses, one response shared by several distinct contexts), and building
the derived datasets that keep only such pairs.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Rng
from .errors import DomainError, EmptyCorpus, ShapeError

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
SPECIALS = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
SPLIT_RATIOS = (0.90, 0.05, 0.05)  # train/valid/test shares of the hash buckets

_TOKEN_RE = re.compile(r"'\w+|\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, detaching punctuation into
    standalone tokens; apostrophe contractions stay with their suffix."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class DialoguePair:
    context: tuple[str, ...]
    response: tuple[str, ...]


def read_corpus(lines: Iterable[str]) -> list[list[tuple[str, ...]]]:
    """Parse the block format: one utterance per line, blank line between
    dialogues.  Each dialogue is the list of its utterances' token tuples,
    in turn order; lines that tokenize to nothing are skipped."""
    dialogues: list[list[tuple[str, ...]]] = []
    current: list[tuple[str, ...]] = []
    for line in lines:
        if not line.strip():
            if current:
                dialogues.append(current)
                current = []
            continue
        tokens = tuple(tokenize(line))
        if tokens:
            current.append(tokens)
    if current:
        dialogues.append(current)
    return dialogues


def read_corpus_file(path) -> list[list[tuple[str, ...]]]:
    return read_corpus(line for _, line in text_lines(path))


def pairs_from_corpus(dialogues: Sequence[Sequence[tuple[str, ...]]]) -> list[DialoguePair]:
    """The adjacent-turn pairs of each dialogue's token tuples, dialogue by
    dialogue: each utterance is the context of the next, so a dialogue of T
    utterances yields exactly T-1 pairs."""
    return [DialoguePair(context, response) for dialogue in dialogues
            for context, response in zip(dialogue, dialogue[1:])]


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

class Vocabulary:
    """Dense token ids and an embedding table: ``id_to_token`` lists the
    tokens, the four specials first, ``id_of`` maps a data word back to its
    id, and row i of ``embedding`` (vocab_size, emb_dim) is token i's vector.

    A vocabulary given a table keeps that array.  One from ``build_vocab``
    records the table's width and seed and draws the table when
    ``embedding`` is first read; ``training.init_state`` has ``table``
    draw it straight into the model's ``emb`` instead, so the model holds
    the only table of a training run.
    """

    def __init__(self, id_to_token: list[str], embedding: np.ndarray | None,
                 draw: tuple[int, int] | None = None):
        self.id_to_token = id_to_token
        # the ids data words encode to: the specials hold the first ids and are not words
        self._word_ids = {tok: i for i, tok in enumerate(id_to_token) if i >= len(SPECIALS)}
        if (embedding is None) == (draw is None):
            raise DomainError("a vocabulary takes either a table or the (emb_dim, seed) of one")
        self._embedding = embedding
        self._draw = draw  # (emb_dim, seed) of a table not yet drawn

    @property
    def embedding(self) -> np.ndarray:
        if self._embedding is None:
            self._embedding = self.table()
        return self._embedding

    def table(self, out: np.ndarray | None = None) -> np.ndarray:
        """Without ``out``, the table held, or else a fresh draw of it (see
        ``build_vocab``) that is not kept.  With ``out``, the table written
        into that C-contiguous (vocab_size, emb_dim) float64 array, and
        ``out`` returned: the held table copied in once, or else the draw
        made straight into it, which is how ``training.init_state`` fills
        the model's ``emb``; an ``out`` of another shape is a ShapeError."""
        if out is None and self._embedding is not None:
            return self._embedding
        width = self._draw[0] if self._embedding is None else self._embedding.shape[1]
        if out is None:
            out = np.empty((self.size, width))
        if out.shape != (self.size, width):
            raise ShapeError(f"table shape {(self.size, width)} does not match {out.shape}")
        if self._embedding is not None:
            np.copyto(out, self._embedding)
        else:
            out[PAD_ID] = 0.0  # the other rows, in id order, are one draw of the table's stream
            Rng(self._draw[1]).uniform_into(-0.1, 0.1, out[1:])
        return out

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        """Whether ``id_of`` gives the data word its own id: a special-token
        string is not in the vocabulary, as it encodes to UNK."""
        return self.id_of(token) != UNK_ID

    def id_of(self, token: str) -> int:
        """The id of a data word: an unknown word, and a special-token
        string, is UNK, so data never injects padding or sequence markers."""
        return self._word_ids.get(token, UNK_ID)

    def tokens_of(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path, embedding: np.ndarray) -> "Vocabulary":
        first: dict[str, int] = {}  # token -> the line it first appears on
        for lineno, line in text_lines(path):
            token = line.rstrip("\n")
            if token and first.setdefault(token, lineno) != lineno:
                raise DomainError(f"{path}:{lineno}: token '{token}' repeats line {first[token]}")
        tokens = list(first)
        if tokens[:4] != list(SPECIALS):
            raise DomainError(f"{path}: vocabulary file must start with {SPECIALS}")
        if embedding.shape[0] != len(tokens):
            raise DomainError(f"{path}: embedding rows {embedding.shape[0]} != tokens {len(tokens)}")
        return cls(tokens, embedding)


def build_vocab(pairs: Sequence[DialoguePair], max_size: int,
                emb_dim: int = 300, seed: int = 123456) -> Vocabulary:
    """Keep the most frequent tokens (ties broken lexicographically) under
    ``max_size`` including the four specials, which the data cannot add a
    second time (see ``Vocabulary.id_of``).  The padding row is zero; every
    other row, in id order, is one uniform [-0.1, 0.1] draw of ``Rng(seed)``,
    the table's own stream (``training.init_state`` lists the others), drawn
    when the table is first read or by ``training.init_state`` straight into
    its model's ``emb`` (see ``Vocabulary.table``), so an ``emb_dim`` below 1
    or a negative ``seed`` is refused here."""
    if max_size < len(SPECIALS):
        raise DomainError(f"max_size must be at least {len(SPECIALS)}")
    if emb_dim < 1:
        raise DomainError(f"emb_dim must be at least 1, got {emb_dim}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    if not pairs:
        raise EmptyCorpus("cannot build a vocabulary from no pairs")
    counts = Counter(chain.from_iterable(utterance for pair in pairs
                                         for utterance in (pair.context, pair.response)))
    ranked = sorted(counts.keys() - SPECIALS)
    ranked.sort(key=counts.__getitem__, reverse=True)  # stable: equal counts stay in token order
    id_to_token = list(SPECIALS) + ranked[:max_size - len(SPECIALS)]
    return Vocabulary(id_to_token, None, (emb_dim, seed))


# ---------------------------------------------------------------------------
# complex mapping mining
# ---------------------------------------------------------------------------

@dataclass
class CdmReport:
    """Counts and fractions of one-to-many and many-to-one dialogue pairs."""

    total_pairs: int
    o2m_groups: list[tuple[tuple[str, ...], list[tuple[str, ...]]]]
    m2o_groups: list[tuple[tuple[str, ...], list[tuple[str, ...]]]]
    o2m_pair_count: int
    m2o_pair_count: int

    @property
    def o2m_pair_fraction(self) -> float:
        return self.o2m_pair_count / self.total_pairs

    @property
    def m2o_pair_fraction(self) -> float:
        return self.m2o_pair_count / self.total_pairs

    @property
    def cdm_fraction(self) -> float:
        return self.o2m_pair_fraction + self.m2o_pair_fraction

    def text(self) -> str:
        lines = [
            f"pairs: {self.total_pairs}",
            f"o2m_groups: {len(self.o2m_groups)}",
            f"m2o_groups: {len(self.m2o_groups)}",
            f"o2m_pairs: {self.o2m_pair_count}",
            f"m2o_pairs: {self.m2o_pair_count}",
            f"o2m_pair_fraction: {self.o2m_pair_fraction!r}",
            f"m2o_pair_fraction: {self.m2o_pair_fraction!r}",
            f"cdm_fraction: {self.cdm_fraction!r}",
        ]
        return "\n".join(lines) + "\n"


def _group(pairs: Sequence[DialoguePair], by_context: bool):
    """Map each key utterance to (distinct counterparts, occurrence count)."""
    counterparts: dict[tuple, dict] = defaultdict(dict)
    occurrences: Counter = Counter()
    for pair in pairs:
        key, other = (pair.context, pair.response) if by_context else (pair.response, pair.context)
        counterparts[key].setdefault(other, None)
        occurrences[key] += 1
    groups = [(key, list(others)) for key, others in counterparts.items() if len(others) >= 2]
    pair_count = sum(occurrences[key] for key, _ in groups)
    return groups, pair_count


def mine_cdm(pairs: Sequence[DialoguePair]) -> CdmReport:
    """Group by exact token-sequence equality; a group needs at least two
    distinct counterparts.  Fractions are over the total pair count."""
    if not pairs:
        raise EmptyCorpus("no pairs to mine")
    o2m_groups, o2m_pairs = _group(pairs, by_context=True)
    m2o_groups, m2o_pairs = _group(pairs, by_context=False)
    return CdmReport(len(pairs), o2m_groups, m2o_groups, o2m_pairs, m2o_pairs)


def _split_of(key: tuple[str, ...]) -> str:
    digest = hashlib.sha256(" ".join(key).encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "big") % 100
    if bucket < round(100 * SPLIT_RATIOS[0]):
        return "train"
    if bucket < round(100 * (SPLIT_RATIOS[0] + SPLIT_RATIOS[1])):
        return "valid"
    return "test"


def _split_manifest(mode: str, groups: int, splits: dict[str, list]) -> dict:
    return {"mode": mode, "ratios": SPLIT_RATIOS, "groups": groups,
            "pairs": {name: len(split) for name, split in splits.items()}}


def build_cdm_dataset(pairs: Sequence[DialoguePair], mode: str
                      ) -> tuple[dict[str, list[DialoguePair]], dict]:
    """Keep only pairs whose group qualifies for ``mode`` ("o2m" or "m2o"),
    grouped by that mode's key alone as ``mine_cdm`` groups it, and split
    whole groups into train/valid/test by a hash of the group key, so every
    one-to-many (or many-to-one) family lands in a single split."""
    mode = mode.lower()
    if mode not in ("o2m", "m2o"):
        raise DomainError(f"mode must be 'o2m' or 'm2o', got '{mode}'")
    if not pairs:
        raise EmptyCorpus("no pairs to mine")
    groups, _ = _group(pairs, by_context=mode == "o2m")
    if not groups:
        raise EmptyCorpus(f"no qualifying {mode} groups")
    keys = {key for key, _ in groups}
    splits: dict[str, list[DialoguePair]] = {"train": [], "valid": [], "test": []}
    for pair in pairs:
        key = pair.context if mode == "o2m" else pair.response
        if key in keys:
            splits[_split_of(key)].append(pair)
    return splits, _split_manifest(mode, len(groups), splits)


def general_split(pairs: Sequence[DialoguePair]) -> tuple[dict[str, list[DialoguePair]], dict]:
    """Plain deterministic split of all pairs, hashed on the whole pair."""
    if not pairs:
        raise EmptyCorpus("no pairs to split")
    splits: dict[str, list[DialoguePair]] = {"train": [], "valid": [], "test": []}
    for pair in pairs:
        splits[_split_of(pair.context + ("\t",) + pair.response)].append(pair)
    return splits, _split_manifest("general", len(pairs), splits)


# ---------------------------------------------------------------------------
# encoding and pair files
# ---------------------------------------------------------------------------

def encode_context(tokens: Sequence[str], vocab: Vocabulary, max_clen: int) -> np.ndarray:
    """A context's ``max_clen`` ids: the context row of ``encode_pairs`` on
    the one pair of ``tokens`` and an empty response (a ``max_clen`` below
    2 is a DomainError there too)."""
    return encode_pairs([DialoguePair(tokens, ())], vocab, max_clen)[0][0]


def encode_pairs(pairs: Sequence[DialoguePair], vocab: Vocabulary, max_clen: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(N, max_clen) int64 context and response id matrices, written in one
    pass over the corpus with no array per row: a context is truncated to
    ``max_clen`` ids, a response framed with BOS/EOS inside the same budget,
    and both padded with a PAD suffix; an unknown word and a literal special
    are UNK (``Vocabulary.id_of``).  No pairs is EmptyCorpus and a
    ``max_clen`` below 2 a DomainError."""
    if not pairs:
        raise EmptyCorpus("no pairs to encode")
    if max_clen < 2:
        raise DomainError("max_clen must be at least 2 to frame a response")
    ids, unk, pad = vocab._word_ids.get, repeat(UNK_ID), [PAD_ID] * max_clen  # id_of's lookup
    contexts: list[int] = []
    responses: list[int] = []
    for pair in pairs:
        ctx, resp = pair.context[:max_clen], pair.response[:max_clen - 2]
        contexts += map(ids, ctx, unk)
        contexts += pad[len(ctx):]
        responses.append(BOS_ID)
        responses += map(ids, resp, unk)
        responses.append(EOS_ID)
        responses += pad[len(resp) + 2:]
    shape = (len(pairs), max_clen)
    return (np.fromiter(contexts, np.int64, len(contexts)).reshape(shape),
            np.fromiter(responses, np.int64, len(responses)).reshape(shape))


def text_lines(path):
    """(line number, line) for each line of a UTF-8 text file.  A file that
    cannot be opened is a DomainError naming it, a line that is not UTF-8
    one naming file:line."""
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as err:
        raise DomainError(f"{path}: cannot read: {err.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # undecodable bytes were kept as lone surrogates
            except UnicodeEncodeError:
                raise DomainError(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line


def write_pairs(path, pairs: Sequence[DialoguePair]):
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(" ".join(pair.context) + "\t" + " ".join(pair.response) + "\n")


def read_pairs(path) -> list[DialoguePair]:
    """One pair per non-blank ``context<TAB>response`` line; a line whose
    context or response holds no token, or that is not UTF-8, is a
    DomainError naming file:line."""
    pairs = []
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        context, tab, response = line.partition("\t")
        pair = DialoguePair(tuple(context.split()), tuple(response.split()))
        if not pair.context:
            raise DomainError(f"{path}:{lineno}: empty context")
        if not pair.response:
            raise DomainError(f"{path}:{lineno}: empty response" if tab else
                              f"{path}:{lineno}: no TAB between context and response")
        pairs.append(pair)
    return pairs
