"""Unit tests for decoding and the metric suite."""

import numpy as np
import pytest

from segcvae import autodiff as ad
from segcvae import evaluation as ev
from segcvae.autodiff import Rng, Tensor, no_grad
from segcvae.corpus import (BOS_ID, EOS_ID, PAD_ID, SPECIALS, UNK_ID, DialoguePair,
                            Vocabulary, build_vocab, encode_context)
from segcvae.errors import DegenerateVector, DomainError
from segcvae.model import ModelConfig, SegCVAE


@pytest.fixture
def flat_vocab():
    """Two content tokens with hand-picked 2-d embeddings."""
    return Vocabulary([*SPECIALS, "a", "b"],
                      np.array([[0.0, 0.0]] * len(SPECIALS) + [[1.0, 0.0], [0.0, 1.0]]))


def _model(vocab_size=12, num_triggers=2):
    rng = np.random.default_rng(0)
    config = ModelConfig(vocab_size=vocab_size, max_len=6, emb_dim=5,
                         hidden_dim=4, latent_dim=3, kernel_width=2,
                         conv_channels=2, num_triggers=num_triggers, tau=0.1)
    return SegCVAE(config, rng.normal(size=(vocab_size, 5)), Rng(4))


class TestDistinctN:
    def test_repeated_response(self):
        assert ev.distinct_n([["a", "b"], ["a", "b"]], 1) == 0.5

    def test_all_unique_tokens(self):
        assert ev.distinct_n([["a", "b", "c", "d"]], 1) == 1.0

    def test_repeated_bigram(self):
        assert ev.distinct_n([["a", "a", "a"]], 2) == 0.5

    def test_no_ngrams_rejected(self):
        with pytest.raises(DomainError):
            ev.distinct_n([["a"]], 2)

    def test_adding_seen_ngrams_never_increases(self):
        base = [["a", "b", "c"], ["c", "d"]]
        before = ev.distinct_n(base, 2)
        after = ev.distinct_n(base + [["a", "b"]], 2)
        assert after <= before


class TestBleuN:
    def test_identity_is_one(self):
        for n in (1, 2, 3):
            assert ev.bleu_n(["to", "be", "or", "not"], [["to", "be", "or", "not"]], n) == \
                pytest.approx(1.0)

    def test_short_identity_is_one_via_smoothing(self):
        assert ev.bleu_n(["hi"], [["hi"]], 3) == pytest.approx(1.0)

    def test_disjoint_unigrams_zero(self):
        assert ev.bleu_n(["a", "b"], [["c", "d"]], 1) == 0.0

    def test_three_quarters_overlap(self):
        assert ev.bleu_n(list("abcd"), [list("abce")], 1) == pytest.approx(0.75)

    def test_reference_order_invariant(self):
        cand = ["a", "b", "c"]
        refs = [["a", "x"], ["b", "c", "d"], ["a", "b", "c", "e"]]
        assert ev.bleu_n(cand, refs, 2) == ev.bleu_n(cand, list(reversed(refs)), 2)

    def test_brevity_penalizes_short_candidates(self):
        full = ev.bleu_n(["a", "b", "c", "d"], [["a", "b", "c", "d"]], 1)
        short = ev.bleu_n(["a", "b"], [["a", "b", "c", "d"]], 1)
        assert short < full

    def test_empty_candidate_rejected(self):
        with pytest.raises(DomainError):
            ev.bleu_n([], [["a"]], 1)


class TestEmbeddingMetrics:
    def test_identity(self, flat_vocab):
        assert ev.embedding_average(["a", "b"], ["a", "b"], flat_vocab) == pytest.approx(1.0)

    def test_orthogonal(self, flat_vocab):
        assert ev.embedding_average(["a"], ["b"], flat_vocab) == pytest.approx(0.0)

    def test_hand_fixture(self, flat_vocab):
        value = ev.embedding_average(["a"], ["a", "b"], flat_vocab)
        assert value == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_coherence_hand_fixture(self, flat_vocab):
        value = ev.coherence(["b"], ["a", "b"], flat_vocab)
        assert value == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_token_order_invariant(self, flat_vocab):
        assert ev.embedding_average(["a", "b"], ["b", "a"], flat_vocab) == \
            pytest.approx(1.0)

    def test_unusable_tokens_rejected(self, flat_vocab):
        with pytest.raises(DegenerateVector):
            ev.embedding_average(["zzz"], ["a"], flat_vocab)
        with pytest.raises(DegenerateVector):
            ev.coherence(["<unk>"], ["a"], flat_vocab)


class TestLengthAvg:
    def test_hand_count(self):
        assert ev.length_avg([["a", "b"], ["a", "b", "c", "d"]]) == 3.0

    def test_all_empty(self):
        assert ev.length_avg([[], []]) == 0.0

    def test_specials_excluded(self):
        assert ev.length_avg([["a", "<pad>", "<eos>", "b"]]) == 2.0

    def test_single_long_response(self):
        assert ev.length_avg([["t"] * 25]) == 25.0

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            ev.length_avg([])


def _one_row_reference(model, ctx_ids, branch, z):
    """Greedy decoding of one response, one single-row decode_step call per
    token, from the branch's semantics vector and the latent ``z``."""
    with no_grad():
        x = model.prominent_semantics(ctx_ids, noise=False)[branch]
        state = model.decoder_initial(Tensor(z[None]), x)
        token, out = BOS_ID, []
        for _ in range(model.config.max_len):
            logits, state = model.decode_step(state, np.array([token]))
            scores = logits.values[0]
            scores[ev.NEVER_EMITTED] = -np.inf
            token = int(np.argmax(scores))
            if token == EOS_ID:
                break
            out.append(token)
    return out


def _replayed_latents(model, vocab, context, n, seed):
    """The (n, latent) latents ``generate_n(..., n, Rng(seed))`` decodes
    from: row k is branch k % M's prior draw, replayed from the seed's one
    (n, latent) normal draw."""
    cfg = model.config
    ctx_ids = encode_context(tuple(context), vocab, cfg.max_len)[None]
    branches = np.arange(n) % cfg.num_triggers
    with no_grad():
        xs = ad.reshape(model.prominent_semantics(ctx_ids, noise=False), (cfg.num_triggers, -1))
        mu, logvar = model.prior(xs)
        return ad.reparameterize(ad.take(mu, branches), ad.take(logvar, branches),
                                 Rng(seed).normal((n, cfg.latent_dim))).values


CONTEXT = ("how", "are", "you")


@pytest.fixture
def setup():
    pairs = [DialoguePair(("how", "are", "you"), ("fine", "thanks")),
             DialoguePair(("see", "you"), ("bye",))]
    vocab = build_vocab(pairs, max_size=12, emb_dim=5)
    model = _model(vocab_size=vocab.size)
    return model, vocab


def _count_steps(model, monkeypatch):
    """Record the row count of every decode_step call."""
    calls = []
    inner = model.decode_step
    monkeypatch.setattr(model, "decode_step", lambda *a: calls.append(len(a[1])) or inner(*a))
    return calls


class TestGreedyDecode:
    """generate_n's n-row greedy loop."""

    @staticmethod
    def _rig(model, favorite):
        """Zero the decoder so every row's logits are the output bias, with
        ``favorite`` far ahead."""
        for name in ("dec.wx", "dec.wh", "dec.bx", "dec.bh", "out.w",
                     "init.w", "init.b"):
            model.params[name].values[:] = 0.0
        model.params["out.b"].values[:] = 0.0
        model.params["out.b"].values[favorite] = 10.0

    def test_immediate_end_marker_gives_empty_response(self, setup, monkeypatch):
        model, vocab = setup
        self._rig(model, EOS_ID)
        steps = _count_steps(model, monkeypatch)
        record = ev.generate_n(model, vocab, CONTEXT, 4, Rng(1))
        assert record.responses == [[]] * 4
        assert steps == [4]  # one 4-row step, then every row has ended

    def test_special_tokens_are_never_emitted(self, setup):
        """<unk>, <pad> and <bos> outscore every word, yet every response is
        made of the best real word."""
        model, vocab = setup
        self._rig(model, 5)
        bias = model.params["out.b"].values
        bias[UNK_ID], bias[PAD_ID], bias[BOS_ID] = 30.0, 20.0, 20.0
        record = ev.generate_n(model, vocab, CONTEXT, 4, Rng(1))
        assert record.responses == [vocab.tokens_of([5] * model.config.max_len)] * 4

    def test_never_ending_decoder_hits_length_cap(self, setup, monkeypatch):
        model, vocab = setup
        self._rig(model, 5)
        steps = _count_steps(model, monkeypatch)
        record = ev.generate_n(model, vocab, CONTEXT, 3, Rng(1))
        assert [len(r) for r in record.responses] == [model.config.max_len] * 3
        assert steps == [3] * model.config.max_len

    def test_deterministic(self, setup):
        """A response depends only on its own branch and latent: the first
        of eight equals the only one of one drawn from the same seed."""
        model, vocab = setup
        alone = ev.generate_n(model, vocab, CONTEXT, 1, Rng(5))
        batch = ev.generate_n(model, vocab, CONTEXT, 8, Rng(5))
        z = _replayed_latents(model, vocab, CONTEXT, 1, 5)
        assert np.array_equal(z[0], _replayed_latents(model, vocab, CONTEXT, 8, 5)[0])
        ctx_ids = encode_context(CONTEXT, vocab, model.config.max_len)[None]
        want = vocab.tokens_of(_one_row_reference(model, ctx_ids, 0, z[0]))
        assert alone.responses[0] == batch.responses[0] == want


class TestGenerateN:
    def test_branches_cycle(self, setup):
        model, vocab = setup
        record = ev.generate_n(model, vocab, CONTEXT, 8, Rng(1))
        assert record.branch_indices == [0, 1] * 4
        assert len(record.responses) == 8

    def test_single_response_uses_branch_zero(self, setup):
        model, vocab = setup
        record = ev.generate_n(model, vocab, ("see", "you"), 1, Rng(1))
        assert record.branch_indices == [0]

    def test_reproducible_given_rng(self, setup):
        model, vocab = setup
        a = ev.generate_n(model, vocab, ("see", "you"), 4, Rng(9))
        b = ev.generate_n(model, vocab, ("see", "you"), 4, Rng(9))
        assert a.responses == b.responses
        ctx_ids = encode_context(("see", "you"), vocab, model.config.max_len)[None]
        zs = _replayed_latents(model, vocab, ("see", "you"), 4, 9)
        assert a.responses == [vocab.tokens_of(_one_row_reference(model, ctx_ids, branch, z))
                               for branch, z in zip(a.branch_indices, zs)]

    def test_zero_responses_rejected(self, setup):
        model, vocab = setup
        with pytest.raises(DomainError):
            ev.generate_n(model, vocab, ("see", "you"), 0, Rng(1))

    def test_empty_context_rejected(self, setup):
        """An empty context encodes to padding only: an error, not n empty
        responses."""
        model, vocab = setup
        with pytest.raises(DomainError, match="all-padding"):
            ev.generate_n(model, vocab, (), 3, Rng(1))

    def test_semantics_computed_once_per_context(self, setup, monkeypatch):
        model, vocab = setup
        calls = []
        inner = model.prominent_semantics
        monkeypatch.setattr(model, "prominent_semantics",
                            lambda *a, **k: calls.append(1) or inner(*a, **k))
        ev.generate_n(model, vocab, CONTEXT, 8, Rng(1))
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_one_row_reference(self, setup, seed):
        """The n-row batch gives each response the tokens that decoding it
        alone gives, while its rows end at different steps."""
        model, vocab = setup
        model.params["init.w"].values[:] *= 3.0  # spread the latents' effect
        model.params["out.b"].values[EOS_ID] = 0.75
        record = ev.generate_n(model, vocab, CONTEXT, 8, Rng(seed))
        lengths = [len(r) for r in record.responses]
        assert min(lengths) == 0 and max(lengths) == model.config.max_len, lengths
        ctx_ids = encode_context(CONTEXT, vocab, model.config.max_len)[None]
        zs = _replayed_latents(model, vocab, CONTEXT, 8, seed)
        for branch, z, tokens in zip(record.branch_indices, zs, record.responses):
            assert vocab.tokens_of(_one_row_reference(model, ctx_ids, branch, z)) == tokens


class TestAggregation:
    def test_report_and_roundtrip(self, tmp_path, flat_vocab):
        records = [
            ev.GenerationRecord(("a",), [["a", "b"], ["b"]]),
            ev.GenerationRecord(("b",), [["a"]]),
        ]
        pairs = [DialoguePair(("a",), ("a", "b")), DialoguePair(("b",), ("a",))]
        metrics = ev.evaluate_records(records, pairs, flat_vocab)
        # the single-token candidate scores p1 = 1 under brevity exp(1 - 2/1)
        assert metrics["bleu-1"] == pytest.approx((1.0 + np.exp(-1.0) + 1.0) / 3)
        assert metrics["length"] == pytest.approx((2 + 1 + 1) / 3)
        text = ev.report_text(metrics, corpus_size=len(records))
        assert text.startswith("pairs: 2\n")
        assert "bleu-1: " in text

        path = tmp_path / "gen.tsv"
        ev.write_generation(path, records)
        loaded = ev.read_generation(path)
        assert loaded[0].context == ("a",)
        assert loaded[0].responses == [["a", "b"], ["b"]]

    def test_references_are_each_contexts_responses_in_the_pairs(self, flat_vocab):
        """A context's references are all the responses the pairs give it,
        so BLEU clips over both; a context the pairs lack is scored for
        coherence only.  The records are left as they were."""
        records = [ev.GenerationRecord(("a",), [["a", "b"]]),
                   ev.GenerationRecord(("b",), [["b"]])]
        pairs = [DialoguePair(("a",), ("a",)), DialoguePair(("c",), ("a", "b")),
                 DialoguePair(("a",), ("b", "b"))]
        metrics = ev.evaluate_records(records, pairs, flat_vocab)
        assert metrics["bleu-1"] == ev.bleu_n(["a", "b"], [("a",), ("b", "b")], 1) == 1.0
        assert metrics["emb_average"] == pytest.approx(1 / np.sqrt(2))
        assert metrics["coherence"] == pytest.approx((1 / np.sqrt(2) + 1.0) / 2)
        assert records == [ev.GenerationRecord(("a",), [["a", "b"]]),
                           ev.GenerationRecord(("b",), [["b"]])]
