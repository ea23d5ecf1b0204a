"""Fuzzing of everything that reads outside input: whatever the bytes or
tokens, a reader either returns a well-formed result or raises a
SegcvaeError, which the command line turns into exit code 1.

Examples are derandomized and few, so the suite stays fast and repeatable.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segcvae import autodiff as ad
from segcvae.config import parse_config
from segcvae.corpus import (BOS_ID, EOS_ID, PAD_ID, SPECIALS, UNK_ID, DialoguePair,
                            Vocabulary, _split_of, build_cdm_dataset, build_vocab,
                            encode_context, encode_pairs, mine_cdm, read_corpus_file,
                            read_pairs)
from segcvae.errors import DomainError, EmptyCorpus, SegcvaeError
from segcvae.evaluation import read_generation

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# byte soup biased towards the separators the readers split on
CHUNKS = st.one_of(st.binary(max_size=12),
                   st.sampled_from([b"\t", b"\n", b"\r\n", b"\r", b" ", b"=", b"#", b"a b",
                                    b"\xff", b"\xc3", b"\xed\xa0\x80", "é".encode()]))
SOUP = st.lists(CHUNKS, max_size=24).map(b"".join)


def _returns_or_segcvae_error(fn):
    try:
        return fn()
    except SegcvaeError:
        return None


@FUZZ
@given(data=SOUP)
def test_read_pairs(tmp_path, data):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(data)
    pairs = _returns_or_segcvae_error(lambda: read_pairs(path))
    for pair in pairs or ():
        assert pair.context and pair.response


@FUZZ
@given(data=SOUP)
def test_read_corpus_file(tmp_path, data):
    path = tmp_path / "corpus.txt"
    path.write_bytes(data)
    dialogues = _returns_or_segcvae_error(lambda: read_corpus_file(path))
    for dialogue in dialogues or ():
        assert dialogue and all(utterance for utterance in dialogue)
        assert all(isinstance(t, str) and t for u in dialogue for t in u)


# token lines, so that a vocabulary file can parse
TOKEN_LINES = st.lists(st.one_of(st.sampled_from(["a", "b", "", "a b", "<pad>", "<eos>", "é"]),
                                 st.text(max_size=4)), max_size=8).map(
    lambda tokens: "".join(f"{t}\n" for t in tokens).encode("utf-8", "surrogatepass"))


@FUZZ
@given(specials=st.booleans(), data=st.one_of(SOUP, TOKEN_LINES),
       extra_rows=st.sampled_from([0, 0, 1]))
def test_vocabulary_load(tmp_path, specials, data, extra_rows):
    """Half the files start with the specials, and the embedding mostly has
    a row per distinct line, so some loads succeed."""
    path = tmp_path / "vocab.txt"
    path.write_bytes("".join(f"{t}\n" for t in SPECIALS).encode() * specials + data)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        rows = len(set(fh.read().split("\n")) - {""}) + extra_rows
    vocab = _returns_or_segcvae_error(lambda: Vocabulary.load(path, np.zeros((rows, 3))))
    if vocab is not None:
        assert tuple(vocab.id_to_token[:4]) == SPECIALS and len(vocab.id_to_token) == rows
        assert [vocab.id_of(t) for t in vocab.id_to_token] == [UNK_ID] * 4 + [*range(4, rows)]


@FUZZ
@given(data=SOUP)
def test_read_generation(tmp_path, data):
    path = tmp_path / "generated.tsv"
    path.write_bytes(data)
    records = _returns_or_segcvae_error(lambda: read_generation(path))
    for record in records or ():
        assert all(isinstance(t, str) for t in record.context)
        assert all(isinstance(t, str) for r in record.responses for t in r)


CONFIG_KEYS = ["learning_rate", "batch_size", "max_clen", "N_emb", "m", "M", "tau",
               "lambda_constant", "no_is", "seed", "data_dir", "bogus"]
CONFIG_VALUES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["1", "0", "-3", "0.5", "nan", "inf", "-inf", "1e400", "true", "off",
                     "1_0", "٣", "9" * 5000]))
CONFIG_LINES = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS),
                                  st.sampled_from([" = ", "=", " ", ""]), CONFIG_VALUES)
                        .map(lambda t: "".join(t).encode("utf-8", "surrogatepass")),
                        max_size=8).map(b"\n".join)


@FUZZ
@given(data=st.one_of(CONFIG_LINES, SOUP))
def test_parse_config(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)

    def parse():
        cfg = parse_config(path)
        cfg.validate()
        return cfg

    _returns_or_segcvae_error(parse)


def _valid_checkpoint(path):
    arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3),
              "step": np.array(3, dtype=np.uint64)}
    ad.save_checkpoint(path, arrays, {"M": "2"})
    return path.read_bytes()


SHAPES = st.one_of(
    st.just("-"),
    st.lists(st.sampled_from([-1, 0, 1, 2, 2 ** 70]), min_size=1, max_size=3)
    .map(lambda dims: ",".join(map(str, dims))),
    st.integers(60, 70).map(lambda n: ",".join(["1"] * n)))  # numpy allows 64 dimensions
INDEX_LINE = st.builds(
    "array {} {} {} {}".format, st.sampled_from(["w", "b"]),
    st.sampled_from(["float64", "int8", "uint64", "bool", "float16"])
    | st.sampled_from(["complex128", "object", "U3", "M8", "V8", "(2,)f8", "f8,f8", "", "x"]),
    SHAPES, st.sampled_from([0, 8, -1, 2 ** 70])) | st.sampled_from(["meta k v", "meta", "junk"])


def _load_or_segcvae_error(path, data):
    path.write_bytes(data)
    loaded = _returns_or_segcvae_error(lambda: ad.load_checkpoint(path))
    if loaded is not None:
        arrays, meta = loaded
        assert all(isinstance(a, np.ndarray) for a in arrays.values())


@FUZZ
@given(truncate=st.booleans(), at=st.integers(0, 400), byte=st.integers(0, 255))
def test_load_damaged_checkpoint(tmp_path, truncate, at, byte):
    path = tmp_path / "model.ckpt"
    data = _valid_checkpoint(path)
    at %= len(data)
    data = data[:at] if truncate else data[:at] + bytes([byte]) + data[at + 1:]
    _load_or_segcvae_error(path, data)


@settings(FUZZ, max_examples=100)
@given(line=INDEX_LINE)
def test_load_checkpoint_with_any_index_line(tmp_path, line):
    data = f"{ad.CHECKPOINT_TAG}\narray a float64 2 0\n{line}".encode() + b"\n\n" + bytes(64)
    _load_or_segcvae_error(tmp_path / "model.ckpt", data)


VOCAB = build_vocab([DialoguePair(("a", "b", "c"), ("d", "e"))], max_size=10, emb_dim=3, seed=1)
TOKENS = st.lists(st.one_of(st.sampled_from(["a", "b", "d", "<pad>", "<eos>", ""]),
                            st.text(max_size=4)), max_size=12).map(tuple)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(context=TOKENS, response=TOKENS, max_clen=st.integers(-3, 30))
def test_encode_pair(context, response, max_clen):
    encoded = _returns_or_segcvae_error(
        lambda: encode_pairs([DialoguePair(context, response)], VOCAB, max_clen))
    if encoded is not None:
        (ctx,), (resp,) = encoded
        assert ctx.shape == resp.shape == (max_clen,)
        assert resp[0] == BOS_ID and EOS_ID in resp
        assert ctx.max(initial=0) < VOCAB.size and resp.max() < VOCAB.size


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(context=TOKENS, response=TOKENS, max_clen=st.integers(2, 30))
def test_encode_pair_pads_only_a_suffix(context, response, max_clen):
    """The encoder reads each row's state at its length, which holds only
    while padding is a suffix of every context and response."""
    for (ids,) in encode_pairs([DialoguePair(context, response)], VOCAB, max_clen):
        pads = ids == PAD_ID
        assert not np.any(pads[:-1] & ~pads[1:])


# utterances of up to 12 tokens, longer than any budget below: words of the
# vocabulary, unknown words and literal special strings
UTTERANCE = st.lists(st.one_of(st.sampled_from(["a", "b", "c", "d", "e", "zz", "", *SPECIALS]),
                               st.text(max_size=3)), max_size=12).map(tuple)
CORPUS = st.lists(st.builds(DialoguePair, UTTERANCE, UTTERANCE), min_size=1, max_size=6)


def _reference_ids(tokens, width, framed):
    """Token by token: the first ``width`` tokens (``width - 2`` between BOS
    and EOS when ``framed``), a word's position in the vocabulary, UNK for
    any other token, then PAD up to ``width``."""
    words = VOCAB.id_to_token[len(SPECIALS):]
    ids = []
    for token in tokens[:width - 2 if framed else width]:
        ids.append(len(SPECIALS) + words.index(token) if token in words else UNK_ID)
    if framed:
        ids = [BOS_ID] + ids + [EOS_ID]
    return ids + [PAD_ID] * (width - len(ids))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pairs=CORPUS, max_clen=st.integers(2, 8))
def test_encode_pairs_matches_a_per_token_reference(pairs, max_clen):
    """The corpus encoder, on the corpus and on each one-pair list, and its
    one-row case ``encode_context`` agree with the reference on every id."""
    ctx, resp = encode_pairs(pairs, VOCAB, max_clen)
    assert ctx.dtype == resp.dtype == np.int64
    assert ctx.shape == resp.shape == (len(pairs), max_clen)
    assert ctx.tolist() == [_reference_ids(p.context, max_clen, False) for p in pairs]
    assert resp.tolist() == [_reference_ids(p.response, max_clen, True) for p in pairs]
    for i, pair in enumerate(pairs):
        (one_ctx,), (one_resp,) = encode_pairs([pair], VOCAB, max_clen)
        assert one_ctx.tolist() == ctx[i].tolist() and one_resp.tolist() == resp[i].tolist()
        assert encode_context(pair.context, VOCAB, max_clen).tolist() == ctx[i].tolist()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(pairs=CORPUS, max_clen=st.integers(-3, 1))
def test_encode_pairs_refuses_a_budget_without_room_for_the_frame(pairs, max_clen):
    with pytest.raises(DomainError, match="max_clen"):
        encode_pairs(pairs, VOCAB, max_clen)
    with pytest.raises(EmptyCorpus):
        encode_pairs([], VOCAB, max_clen)


# few distinct utterances, so that contexts and responses repeat and group
FEW = st.sampled_from([("a",), ("b",), ("a", "b"), ("c", "?"), ("<pad>",)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(st.builds(DialoguePair, FEW, FEW), min_size=1, max_size=12),
       mode=st.sampled_from(["o2m", "m2o"]))
def test_cdm_dataset_keeps_the_pairs_mine_cdm_groups(pairs, mode):
    """Each split holds, in corpus order, exactly the pairs whose key (the
    context for o2m, the response for m2o) ``mine_cdm`` groups for the mode
    and whose key hashes to that split; the manifest counts those groups."""
    report = mine_cdm(pairs)
    groups = report.o2m_groups if mode == "o2m" else report.m2o_groups
    keys = {key for key, _ in groups}
    key_of = (lambda p: p.context) if mode == "o2m" else (lambda p: p.response)
    if not groups:
        with pytest.raises(EmptyCorpus):
            build_cdm_dataset(pairs, mode)
        return
    splits, manifest = build_cdm_dataset(pairs, mode)
    assert manifest["groups"] == len(groups)
    for name in ("train", "valid", "test"):
        assert splits[name] == [p for p in pairs
                                if key_of(p) in keys and _split_of(key_of(p)) == name]
