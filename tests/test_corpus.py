"""Unit tests for corpus ingestion, vocabulary and mapping mining."""

import numpy as np
import pytest

from segcvae import corpus
from segcvae.autodiff import Rng
from segcvae.corpus import (BOS_ID, EOS_ID, PAD_ID, UNK_ID, DialoguePair,
                            build_cdm_dataset, build_vocab, encode_pairs, mine_cdm,
                            pairs_from_corpus, tokenize)
from segcvae.errors import DomainError, EmptyCorpus, ShapeError


def _pair(ctx: str, resp: str) -> DialoguePair:
    return DialoguePair(tuple(ctx.split()), tuple(resp.split()))


class TestTokenize:
    def test_punctuation_detached(self):
        assert tokenize("Move! What?") == ["move", "!", "what", "?"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_contraction_keeps_suffix(self):
        assert tokenize("I'm sorry") == ["i", "'m", "sorry"]

    def test_deterministic(self):
        text = "Well -- it's no use!"
        assert tokenize(text) == tokenize(text)


class TestSingleTurnPairs:
    def _dialogue(self, n):
        return [(f"u{i}",) for i in range(n)]

    def test_three_turns_two_pairs(self):
        d = self._dialogue(3)
        pairs = pairs_from_corpus([d])
        assert [(p.context, p.response) for p in pairs] == [
            (("u0",), ("u1",)), (("u1",), ("u2",))]

    def test_minimal_dialogue(self):
        assert len(pairs_from_corpus([self._dialogue(2)])) == 1

    def test_degenerate_dialogue(self):
        assert pairs_from_corpus([self._dialogue(1)]) == []

    def test_length_is_turns_minus_one(self):
        for n in range(2, 9):
            assert len(pairs_from_corpus([self._dialogue(n)])) == n - 1


class TestReadCorpus:
    def test_blocks_and_turn_indices(self):
        """Each dialogue is its utterances' token tuples; turn i is position i."""
        text = "Hello there.\nHi!\n\nHow are you?\nFine.\nGood.\n"
        dialogues = corpus.read_corpus(text.splitlines())
        assert dialogues == [[("hello", "there", "."), ("hi", "!")],
                             [("how", "are", "you", "?"), ("fine", "."), ("good", ".")]]

    def test_pair_file_roundtrip(self, tmp_path):
        pairs = [_pair("a b", "c"), _pair("d", "e f g")]
        path = tmp_path / "pairs.tsv"
        corpus.write_pairs(path, pairs)
        loaded = corpus.read_pairs(path)
        assert [(p.context, p.response) for p in loaded] == \
               [(p.context, p.response) for p in pairs]


    @pytest.mark.parametrize("bad_line, problem", [
        ("\tsure\n", "empty context"),
        ("   \tsure\n", "empty context"),
        ("how are you\n", "no TAB"),
        ("how are you\t \n", "empty response"),
    ])
    def test_pair_file_rejects_empty_fields_with_file_and_line(self, tmp_path, bad_line, problem):
        path = tmp_path / "pairs.tsv"
        path.write_text("a b\tc\n\n" + bad_line + "d\te\n", encoding="utf-8")
        with pytest.raises(DomainError, match=f"pairs.tsv:3: {problem}"):
            corpus.read_pairs(path)


class TestBuildVocab:
    def test_counts_specials_plus_content(self):
        pairs = [_pair("a b c", "d e"), _pair("a b", "c")]
        vocab = build_vocab(pairs, max_size=9, emb_dim=4)
        assert vocab.size == 9
        assert vocab.id_to_token[:4] == list(corpus.SPECIALS)

    def test_cap_at_specials(self):
        vocab = build_vocab([_pair("a", "b")], max_size=4, emb_dim=4)
        assert vocab.size == 4

    def test_lexicographic_tie_break(self):
        pairs = [_pair("a", "b"), _pair("b", "a")]  # both occur twice
        vocab = build_vocab(pairs, max_size=5, emb_dim=4)
        assert "a" in vocab and "b" not in vocab

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([], max_size=10, emb_dim=4)

    def test_max_size_below_specials(self):
        with pytest.raises(DomainError):
            build_vocab([_pair("a", "b")], max_size=3, emb_dim=4)

    @pytest.mark.parametrize("emb_dim, seed", [(0, 1), (-1, 1), (4, -1)])
    def test_a_table_that_cannot_be_drawn_is_refused_at_the_call(self, emb_dim, seed):
        """The table is drawn when first read, so a width or seed it could
        not be drawn with is refused when the vocabulary is built."""
        with pytest.raises(DomainError, match="emb_dim" if seed >= 0 else "seed"):
            build_vocab([_pair("a", "b")], max_size=10, emb_dim=emb_dim, seed=seed)

    @pytest.mark.parametrize("table, draw", [(None, None), (np.zeros((5, 2)), (2, 1))])
    def test_a_vocabulary_takes_a_table_or_its_draw(self, table, draw):
        with pytest.raises(DomainError, match="either a table"):
            corpus.Vocabulary([*corpus.SPECIALS, "a"], table, draw)

    def test_the_table_is_drawn_once_when_first_read(self):
        """Until ``embedding`` is read, ``table()`` gives a fresh draw each
        call and keeps none; the first read keeps one, which ``table()``
        then gives back."""
        vocab = build_vocab([_pair("a b c", "d")], max_size=9, emb_dim=3, seed=2)
        first, second = vocab.table(), vocab.table()
        assert first is not second and first.tobytes() == second.tobytes()
        assert vocab._embedding is None
        table = vocab.embedding
        assert table.tobytes() == first.tobytes()
        assert vocab.embedding is table and vocab.table() is table

    @pytest.mark.parametrize("read_first", [False, True])
    def test_the_table_is_written_into_a_given_array(self, read_first):
        """``table(out)`` draws the table straight into ``out``, or copies in
        the table the vocabulary holds, and keeps nothing new; an ``out`` of
        another shape is refused."""
        vocab = build_vocab([_pair("a b c", "d")], max_size=9, emb_dim=3, seed=2)
        want = vocab.table()
        if read_first:
            vocab.embedding
        out = np.full((vocab.size, 3), np.nan)
        assert vocab.table(out) is out and out.tobytes() == want.tobytes()
        assert (vocab._embedding is None) != read_first
        with pytest.raises(ShapeError, match="does not match"):
            vocab.table(np.empty((vocab.size, 4)))

    def test_seeded_rows_are_one_draw_per_row_in_row_order(self):
        """The padding row is zero and every other row, in id order, is the
        next uniform [-0.1, 0.1] draw of ``Rng(seed)``."""
        pairs = [_pair("a b c", "d e"), _pair("a b", "c")]
        vocab = build_vocab(pairs, max_size=9, emb_dim=5, seed=7)
        rng, want = Rng(7), np.zeros((9, 5))
        for i in range(PAD_ID + 1, vocab.size):
            want[i] = rng.uniform(-0.1, 0.1, 5)
        np.testing.assert_array_equal(vocab.embedding, want)
        np.testing.assert_array_equal(vocab.embedding[PAD_ID], np.zeros(5))
        rows = np.delete(vocab.embedding, PAD_ID, axis=0)
        assert np.all(np.abs(rows) <= 0.1) and np.all(np.any(rows != 0, axis=1))

    def test_hand_table_keeps_its_rows(self):
        """A ``Vocabulary`` built from a token list and a table derives the
        token ids from the list and uses the table's rows as given."""
        table = np.arange(12.0).reshape(6, 2)
        vocab = corpus.Vocabulary([*corpus.SPECIALS, "a", "b"], table)
        assert [vocab.id_of(tok) for tok in vocab.id_to_token] == [UNK_ID] * 4 + [4, 5]
        assert vocab.size == 6 and vocab.id_of("b") == 5 and vocab.id_of("zzz") == UNK_ID
        assert vocab.embedding is table
        np.testing.assert_array_equal(vocab.embedding[vocab.id_of("a")], [8.0, 9.0])

    @pytest.mark.parametrize("special", corpus.SPECIALS)
    def test_a_literal_special_token_is_not_a_word(self, special):
        """``id_of`` encodes a special-token string in the data as UNK, so
        the vocabulary does not count it as one of its words."""
        vocab = build_vocab([_pair(f"a c {special}", "c")], max_size=100, emb_dim=4)
        assert special not in vocab and "a" in vocab
        assert vocab.id_of(special) == vocab.id_of("zzz") == UNK_ID

    def test_seeded_rows_reproducible(self):
        pairs = [_pair("a b", "c d")]
        v1 = build_vocab(pairs, max_size=10, emb_dim=6, seed=5)
        v2 = build_vocab(pairs, max_size=10, emb_dim=6, seed=5)
        np.testing.assert_array_equal(v1.embedding, v2.embedding)

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab([_pair("a b", "c")], max_size=8, emb_dim=4)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        table = vocab.embedding
        loaded = corpus.Vocabulary.load(path, table)
        assert loaded.id_to_token == vocab.id_to_token
        assert all(loaded.id_of(t) == vocab.id_of(t) for t in vocab.id_to_token)
        assert loaded.embedding is table  # a given table is kept as it is


def _cdm_fixture():
    """10 pairs: one context with 3 distinct responses, one response under
    2 distinct contexts, 5 fillers with unique contexts and responses."""
    pairs = [
        _pair("hi", "r one"), _pair("hi", "r two"), _pair("hi", "r three"),
        _pair("c one", "ok"), _pair("c two", "ok"),
    ]
    pairs += [_pair(f"f{i} q", f"f{i} a") for i in range(5)]
    return pairs


class TestMineCdm:
    def test_fixture_fractions(self):
        report = mine_cdm(_cdm_fixture())
        assert report.o2m_pair_fraction == pytest.approx(0.3)
        assert report.m2o_pair_fraction == pytest.approx(0.2)
        assert report.cdm_fraction == pytest.approx(0.5)
        assert len(report.o2m_groups) == 1 and len(report.m2o_groups) == 1

    def test_unique_corpus_has_no_groups(self):
        report = mine_cdm([_pair(f"c{i}", f"r{i}") for i in range(6)])
        assert report.o2m_pair_fraction == 0.0
        assert report.m2o_pair_fraction == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyCorpus):
            mine_cdm([])

    def test_groups_partition_pairs(self):
        report = mine_cdm(_cdm_fixture())
        contexts = [key for key, _ in report.o2m_groups]
        responses = [key for key, _ in report.m2o_groups]
        assert len(contexts) == len(set(contexts))
        assert len(responses) == len(set(responses))
        assert 0.0 <= report.o2m_pair_fraction <= 1.0
        assert 0.0 <= report.m2o_pair_fraction <= 1.0

    def test_report_text_format(self):
        text = mine_cdm(_cdm_fixture()).text()
        assert "o2m_pair_fraction: 0.3" in text
        assert all(": " in line for line in text.strip().splitlines())


class TestBuildCdmDataset:
    def test_o2m_keeps_group_pairs(self):
        splits, manifest = build_cdm_dataset(_cdm_fixture(), "o2m")
        total = sum(len(s) for s in splits.values())
        assert total == 3
        assert manifest["groups"] == 1

    def test_m2o_without_repeats_errors(self):
        with pytest.raises(EmptyCorpus):
            build_cdm_dataset([_pair(f"c{i}", f"r{i}") for i in range(4)], "m2o")

    def test_avg_responses_per_context_at_least_two(self):
        splits, _ = build_cdm_dataset(_cdm_fixture(), "o2m")
        pairs = [p for s in splits.values() for p in s]
        contexts = {p.context for p in pairs}
        assert len(pairs) / len(contexts) >= 2.0

    def test_group_stays_in_one_split(self):
        pairs = _cdm_fixture() + [_pair("hi", "r four"), _pair("more", "ok")]
        splits, _ = build_cdm_dataset(pairs, "o2m")
        homes = {name for name, split in splits.items()
                 if any(p.context == ("hi",) for p in split)}
        assert len(homes) == 1

    def test_deterministic(self):
        a = build_cdm_dataset(_cdm_fixture(), "o2m")
        b = build_cdm_dataset(_cdm_fixture(), "o2m")
        assert a == b

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            build_cdm_dataset(_cdm_fixture(), "both")


class TestEncodePair:
    @pytest.fixture
    def vocab(self):
        return build_vocab([_pair("a b c d e", "f g h")], max_size=20, emb_dim=4)

    def test_short_context_padded(self, vocab):
        (ctx,), (_,) = encode_pairs([_pair("a b c", "f")], vocab, max_clen=25)
        assert ctx.shape == (25,)
        assert np.all(ctx[3:] == PAD_ID) and np.all(ctx[:3] != PAD_ID)

    def test_oov_becomes_unk(self, vocab):
        (ctx,), (_,) = encode_pairs([_pair("a zzz", "f")], vocab, max_clen=5)
        assert ctx[1] == UNK_ID

    def test_literal_specials_become_unk(self):
        """A special-token string in the data is a word like any other: it
        neither joins the vocabulary twice nor encodes to a structure id."""
        data = [_pair("<eos> <pad> a", "<bos> f <eos>"), _pair("<eos>", "<unk>")]
        vocab = build_vocab(data, max_size=20, emb_dim=4)
        assert vocab.id_to_token == list(corpus.SPECIALS) + ["a", "f"]
        (ctx,), (resp,) = encode_pairs([data[0]], vocab, max_clen=6)
        np.testing.assert_array_equal(ctx, [UNK_ID, UNK_ID, vocab.id_of("a"), PAD_ID, PAD_ID,
                                            PAD_ID])
        np.testing.assert_array_equal(resp, [BOS_ID, UNK_ID, vocab.id_of("f"), UNK_ID, EOS_ID,
                                             PAD_ID])

    def test_long_context_truncated(self, vocab):
        long_ctx = " ".join(["a"] * 30)
        (ctx,), (_,) = encode_pairs([_pair(long_ctx, "f")], vocab, max_clen=25)
        assert ctx.shape == (25,) and np.all(ctx != PAD_ID)

    def test_response_framing(self, vocab):
        (_,), (resp,) = encode_pairs([_pair("a", "f g")], vocab, max_clen=6)
        assert resp[0] == BOS_ID and resp[3] == EOS_ID
        assert np.all(resp[4:] == PAD_ID)
        assert resp.shape == (6,)

    def test_long_response_keeps_eos(self, vocab):
        (_,), (resp,) = encode_pairs([_pair("a", " ".join(["f"] * 30))], vocab, max_clen=10)
        assert resp.shape == (10,)
        assert resp[0] == BOS_ID and resp[-1] == EOS_ID

    def test_output_length_invariant(self, vocab):
        for clen in (2, 3, 7, 25):
            (ctx,), (resp,) = encode_pairs([_pair("a b c", "f g h")], vocab, clen)
            assert ctx.shape == (clen,) and resp.shape == (clen,)
