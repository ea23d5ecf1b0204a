"""The traced benchmark run still sees the package.

``perfbench/spans.py`` subclasses ``SegCVAE`` and ``Adam`` and forwards to
their methods positionally, so a signature change in the package would
silently drop a layer from the benchmark's per-layer split, and the train
workload rejects any statistic that is not a finite scalar.  One traced
train step at a tiny shape must record every span the split reads, compute
what the untraced step computes and pass the workload's check.  The eval
workload's set-up (``end_early``) and its two operations, ``generate_n``
and ``perplexity``, must run on the package and pass their checks too, so
that a change to what ``prominent_semantics`` or ``prior`` return fails
here rather than in the benchmark.  The eval set-up itself, the one caller
of the ``save_state``/``load_state`` round trip, must pass its digest check
at a tiny shape, and the train set-up must build what the package's own
``init_state`` builds.  ``instrument`` builds its traced model through the public
constructor and ``load_state``, so the model it builds must hold the source
state's parameters exactly.  The workloads' corpora come from
``synth.make_pairs``, which builds each ``DialoguePair`` from its context
and response positionally; a tiny one must train and score.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

from segcvae import training as tr
from segcvae.autodiff import Rng
from segcvae.corpus import EOS_ID, DialoguePair, build_vocab, encode_pairs, mine_cdm
from segcvae.evaluation import generate_n

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402


def _tiny_state():
    pairs = [DialoguePair((f"q{i}", "and", "you"), (f"a{i}", "sure", f"b{i % 3}"))
             for i in range(9)]
    cfg = tr.TrainingConfig(batch_size=9, lambda_constant=1.0, vocab_cap=40, max_len=8,
                            emb_dim=8, hidden_dim=8, latent_dim=4, kernel_width=3,
                            conv_channels=2, num_triggers=4, tau=0.1)
    vocab = build_vocab(pairs, cfg.vocab_cap, emb_dim=cfg.emb_dim, seed=cfg.seed)
    return cfg, vocab, encode_pairs(pairs, vocab, cfg.max_len)


def _context():
    return ("q1", "and", "you")


def test_traced_step_records_every_layer_and_computes_the_same():
    """Two traced steps compute what two plain steps do: the same statistics,
    wins, and parameters and Adam moments byte for byte."""
    cfg, vocab, batch = _tiny_state()
    plain_state = tr.init_state(cfg, vocab)
    plain = [tr.train_step(batch, plain_state, cfg)]

    recorder = spans.Recorder()
    traced_state = spans.instrument(tr.init_state(cfg, vocab), cfg.learning_rate, recorder)
    recorder.enabled = True
    with recorder.probing():
        traced = [tr.train_step(batch, traced_state, cfg)]
    recorder.enabled = False

    names = {s.name for s in recorder.spans}
    for wanted in ("model.forward_losses", "model.elbo", "model.prominent_semantics",
                   "model.encode_ids", "training.adam"):
        assert wanted in names, wanted
    assert all(s.seconds > 0 for s in recorder.spans if s.name == "model.elbo")
    np.testing.assert_array_equal(traced_state.branch_wins, plain_state.branch_wins)
    assert workloads._loss_check(traced[0]) is None  # every statistic a finite scalar
    for key in ("autodiff.graph_nodes", "autodiff.grad_bytes",
                "autodiff.backward_peak_alloc_bytes"):
        assert recorder.probe[key] > 0, key

    plain.append(tr.train_step(batch, plain_state, cfg))
    recorder.enabled = True
    traced.append(tr.train_step(batch, traced_state, cfg))
    recorder.enabled = False
    assert [s["loss"] for s in traced] == [s["loss"] for s in plain]
    for name, p in plain_state.model.params.items():
        for got, want in ((traced_state.model.params[name].values, p.values),
                          (traced_state.optimizer.m[name], plain_state.optimizer.m[name]),
                          (traced_state.optimizer.v[name], plain_state.optimizer.v[name])):
            assert got.tobytes() == want.tobytes(), name


def test_end_early_then_traced_generate_and_perplexity_pass_their_checks():
    cfg, vocab, data = _tiny_state()
    state = tr.init_state(cfg, vocab)
    bias = state.model.params["out.b"].values[EOS_ID]
    workloads.end_early(state.model, vocab, _context())
    assert state.model.params["out.b"].values[EOS_ID] > bias
    plain_ppl = tr.perplexity(state.model, data)

    recorder = spans.Recorder()
    traced = spans.instrument(state, cfg.learning_rate, recorder)
    recorder.enabled = True
    with recorder.span("generate_n", op=True):
        record = generate_n(traced.model, vocab, _context(), workloads.GEN_N, Rng(1))
    with recorder.span("perplexity", op=True):
        ppl = tr.perplexity(traced.model, data)
    recorder.enabled = False

    assert workloads._record_check(cfg, vocab)(record) is None
    assert workloads._ppl_check(ppl) is None
    assert ppl == plain_ppl
    generated = recorder.counts(recorder.ops("generate_n"))
    assert generated["model.prominent_semantics"] == 1  # once per context
    assert generated["model.prior"] >= 1
    # one n-row step per token of the longest response, plus its end marker
    longest = max(len(r) for r in record.responses)
    assert generated["model.decode_step"] == min(cfg.max_len, longest + 1)
    assert recorder.counts(recorder.ops("perplexity"))["model.prominent_semantics"] >= 1


def test_instrument_builds_the_source_parameters():
    """A Glorot ``TracedSegCVAE`` loaded with the source state, as every
    traced set-up builds it, holds the source's parameter names, in order,
    and bytes, with and without the trigger families."""
    cfg, vocab, _ = _tiny_state()
    for overrides in ({}, {"no_is": True}, {"no_is": True, "no_eg": True}):
        state = tr.init_state(dataclasses.replace(cfg, **overrides), vocab)
        traced = spans.instrument(state, cfg.learning_rate, spans.Recorder()).model
        assert isinstance(traced, spans.TracedSegCVAE)
        assert list(traced.params) == list(state.model.params), overrides
        for name, p in traced.params.items():
            assert p.values is not state.model.params[name].values, name
            assert p.values.tobytes() == state.model.params[name].values.tobytes(), name


def test_synthetic_corpus_builds_trains_and_scores():
    spec = synth.CorpusSpec(pairs=24, universe=40, max_len=8)
    pairs = synth.make_pairs(spec, seed=3)
    assert pairs == synth.make_pairs(spec, seed=3)
    assert len(pairs) == spec.pairs and all(isinstance(p, DialoguePair) for p in pairs)
    report = mine_cdm(pairs)
    assert report.o2m_groups and report.m2o_groups  # the planted complex mappings
    cfg = _tiny_state()[0]
    vocab = build_vocab(pairs, cfg.vocab_cap, emb_dim=cfg.emb_dim, seed=cfg.seed)
    data = encode_pairs(pairs, vocab, cfg.max_len)
    state = tr.init_state(cfg, vocab)
    assert workloads._loss_check(tr.train_step(data, state, cfg)) is None
    assert workloads._ppl_check(tr.perplexity(state.model, data)) is None


def test_train_set_up_builds_what_init_state_builds(tmp_path):
    """The train workload's set-up at the tiny shape passes its check and
    holds what a plain ``build_vocab``, ``encode_pairs`` and ``init_state``
    give, byte for byte, with the table only in the model."""
    w = workloads.WORKLOADS["train-tiny"]
    cfg = tr.TrainingConfig(**w.config)
    recorder, tally = spans.Recorder(), workloads.Tally()
    recorder.enabled = True
    bundle, seconds = workloads.set_up(w, cfg, 41, recorder, tmp_path, tally)
    recorder.enabled = False
    assert (tally.attempted, tally.failed, tally.problems) == (1, 0, [])
    assert bundle is not None and seconds > 0
    assert {"corpus.encode_pairs", "training.init_state"} <= {s.name for s in recorder.spans}
    assert bundle.vocab._embedding is None
    vocab = build_vocab(synth.make_pairs(w.corpus, 41), cfg.vocab_cap, emb_dim=cfg.emb_dim,
                        seed=cfg.seed)
    for got, want in zip(bundle.data, encode_pairs(bundle.pairs, vocab, cfg.max_len)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    plain = tr.init_state(cfg, vocab).model.params
    assert list(bundle.state.model.params) == list(plain)
    for name, p in bundle.state.model.params.items():
        assert p.values.tobytes() == plain[name].values.tobytes(), name


def test_eval_set_up_round_trips_the_state_and_passes_its_check(tmp_path):
    """eval-paper's set-up at the tiny shape: its ``save_state`` and
    ``load_state`` spans are recorded, the loaded state keeps the digest
    taken before the save, and the scratch checkpoint is gone."""
    w = dataclasses.replace(workloads.WORKLOADS["eval-paper"], config=workloads.TINY,
                            corpus=workloads.WORKLOADS["train-tiny"].corpus)
    cfg = tr.TrainingConfig(**w.config)
    recorder, tally = spans.Recorder(), workloads.Tally()
    recorder.enabled = True
    bundle, seconds = workloads.set_up(w, cfg, 41, recorder, tmp_path, tally)
    recorder.enabled = False
    assert (tally.attempted, tally.failed, tally.problems) == (1, 0, [])
    assert bundle is not None and seconds > 0 and bundle.checkpoint_bytes > 0
    assert bundle.digest == workloads._digest(bundle.state.model)
    assert set(bundle.state.optimizer.m) == set(bundle.state.model.params)
    names = {s.name for s in recorder.spans}
    assert {"training.save_state", "training.load_state"} <= names
    assert list(tmp_path.iterdir()) == []
