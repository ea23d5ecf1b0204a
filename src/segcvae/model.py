"""The segmentation-guided conditional VAE.

A context is segmented into several "prominent semantics" vectors: trigger
networks (one convolution plus one dense projection, sharpened by a
temperature softmax) select word subsets from inside the context and from
the whole vocabulary; a shared recurrent encoder turns each selection into
one semantics vector.  Each vector conditions its own recognition/prior
latent heads and the decoder; the branch with the largest evidence lower
bound is the only one optimized (selection is not differentiated through).
Three self-supervised norms keep the vectors mutually distinct, centered on
the context, and aligned with how ground-truth responses relate to each
other inside a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .config import ModelConfig
from .corpus import PAD_ID, SPECIALS
from .errors import DomainError, ShapeError

LOGVAR_CLIP = 10.0
TF_BLOCK_BYTES = 4 << 20  # teacher forcing: bytes per (rows, vocab) float64 array of a block


@dataclass
class TriggerNetwork:
    """One word-selection unit: convolution kernel and dense projection.
    ``dense`` is (max_len-kernel_width+1, max_len) for in-context selection
    or (..., vocab_size) for vocabulary selection."""

    kernel: Tensor
    dense: Tensor


@dataclass
class ProminentSemantics:
    """The branch selected for each example of a batch."""

    positive_index: np.ndarray  # (B,) ints


class FixedNoise:
    """Pre-drawn standard-normal noise in place of an ``Rng``: ``normal``
    returns the stored array, which must have exactly the asked shape."""

    def __init__(self, eps: np.ndarray):
        self.eps = eps

    def normal(self, shape=()) -> np.ndarray:
        if tuple(shape) != self.eps.shape:
            raise ShapeError(f"fixed noise has shape {self.eps.shape}, asked for {tuple(shape)}")
        return self.eps


class SegCVAE:
    """Holds all parameters and the forward computations."""

    def __init__(self, config: ModelConfig, embedding: np.ndarray, rng: Rng):
        """A fresh network: Glorot weights drawn from ``rng``, zero biases and
        a copy of ``embedding``."""
        config.validate()
        if embedding.shape != (config.vocab_size, config.emb_dim):
            raise ShapeError(f"embedding shape {embedding.shape} does not match "
                             f"({config.vocab_size}, {config.emb_dim})")

        def fresh(name: str, shape: tuple[int, ...], init: str) -> np.ndarray:
            if init == "emb":
                return np.array(embedding, dtype=np.float64)
            if init == "zeros":
                return np.zeros(shape)
            return ad.glorot(shape, rng).values

        self._build(config, fresh)

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "SegCVAE":
        """The network whose parameters are ``arrays``, keyed by parameter
        name (a checkpoint's): no random draws, and float64 arrays are used
        without a copy, so they become the live parameters and an optimizer
        step updates them in place."""
        config.validate()

        def stored(name: str, shape: tuple[int, ...], init: str) -> np.ndarray:
            _check_stored(arrays, name, shape)
            return np.asarray(arrays[name], dtype=np.float64)

        model = cls.__new__(cls)
        model._build(config, stored)
        return model

    def _build(self, config: ModelConfig, make):
        """Create every parameter, in a fixed order, from ``make(name, shape,
        init)``; ``init`` is "glorot", "zeros" or "emb"."""
        self.config = c = config
        self.params: dict[str, Tensor] = {}

        def param(name: str, shape: tuple[int, ...], init: str = "glorot") -> Tensor:
            return self._add(name, Tensor(make(name, shape, init), requires_grad=True))

        def gru(prefix: str) -> ad.GruParams:
            gates = 3 * c.hidden_dim
            return ad.GruParams(wx=param(f"{prefix}.wx", (c.emb_dim, gates)),
                                wh=param(f"{prefix}.wh", (c.hidden_dim, gates)),
                                bx=param(f"{prefix}.bx", (gates,), "zeros"),
                                bh=param(f"{prefix}.bh", (gates,), "zeros"))

        self.emb = param("emb", (c.vocab_size, c.emb_dim), "emb")
        self.enc = gru("enc")

        conv_len = c.max_len - c.kernel_width + 1
        kernel_shape = (c.kernel_width, c.emb_dim, 1, c.conv_channels)
        self.is_triggers: list[TriggerNetwork] = []
        self.eg_triggers: list[TriggerNetwork] = []
        if not c.no_is:
            for i in range(c.num_triggers):
                self.is_triggers.append(TriggerNetwork(
                    param(f"is{i}.kernel", kernel_shape),
                    param(f"is{i}.dense", (conv_len, c.max_len))))
        if not c.no_eg:
            for i in range(c.num_triggers):
                self.eg_triggers.append(TriggerNetwork(
                    param(f"eg{i}.kernel", kernel_shape),
                    param(f"eg{i}.dense", (conv_len, c.vocab_size))))

        self.rec_w = param("rec.w", (2 * c.hidden_dim, 2 * c.latent_dim))
        self.rec_b = param("rec.b", (2 * c.latent_dim,), "zeros")
        self.pri_w = param("pri.w", (c.hidden_dim, 2 * c.latent_dim))
        self.pri_b = param("pri.b", (2 * c.latent_dim,), "zeros")
        self.init_w = param("init.w", (c.latent_dim + c.hidden_dim, c.hidden_dim))
        self.init_b = param("init.b", (c.hidden_dim,), "zeros")

        self.dec = gru("dec")
        self.out_w = param("out.w", (c.hidden_dim, c.vocab_size))
        self.out_b = param("out.b", (c.vocab_size,), "zeros")

    def _add(self, name: str, tensor: Tensor) -> Tensor:
        self.params[name] = tensor
        return tensor

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def branch_param_names(self, index: int) -> list[str]:
        """Parameters used by no other branch than ``index``."""
        return [name for name in self.params
                if name.startswith((f"is{index}.", f"eg{index}."))]

    # -- encoding ------------------------------------------------------
    def embed_matrix(self, ids: np.ndarray) -> Tensor:
        """(B, T) ids to one (B, T, emb) tensor."""
        return ad.take(self.emb, ids)

    def encode_ids(self, ids: np.ndarray) -> Tensor:
        """Run the shared encoder over token ids; padding keeps the state."""
        ids = np.atleast_2d(ids)
        lengths = (ids != PAD_ID).sum(axis=1)
        if np.any(lengths == 0):
            raise DomainError("cannot encode an all-padding sequence")
        ids = ids[:, :int(lengths.max())]
        return ad.gru_encode(self.enc, self.embed_matrix(ids), mask=(ids != PAD_ID))

    def encode_embedded(self, seq: Tensor, mask: np.ndarray = None) -> Tensor:
        """Encode a (B, T, emb) tensor of already-embedded rows."""
        return ad.gru_encode(self.enc, seq, mask=mask)

    # -- word selection --------------------------------------------------
    def _selection(self, trigger: TriggerNetwork, c_emb: Tensor,
                   mask_row: np.ndarray, rng: Rng, noise: bool) -> Tensor:
        """Soft selection weights (B, channels, width) of one trigger."""
        f_c = ad.conv_seq(c_emb, trigger.kernel)
        logits = ad.matmul(f_c, trigger.dense)
        logits = ad.add(logits, Tensor(mask_row))
        return ad.gumbel_softmax(logits, self.config.tau, rng=rng, noise=noise)

    def internal_separation(self, c_emb: Tensor, pad_mask: np.ndarray,
                            rng: Rng = None, noise: bool = False) -> list[Tensor]:
        """Per trigger, mix context rows by the selection weights; padding
        positions are excluded via additive -inf logits."""
        if c_emb.ndim != 3 or c_emb.shape[1] != self.config.max_len:
            raise ShapeError(f"context must be (B, {self.config.max_len}, emb), got {c_emb.shape}")
        mask_row = np.where(pad_mask, -np.inf, 0.0)[:, None, :]  # (B, 1, max_len)
        return [ad.matmul(self._selection(t, c_emb, mask_row, rng, noise), c_emb)
                for t in self.is_triggers]

    def external_guidance(self, c_emb: Tensor, rng: Rng = None,
                          noise: bool = False) -> list[Tensor]:
        """Per trigger, mix vocabulary embedding rows by the selection
        weights; the four special-token columns are excluded.  The stacked
        selections of as many triggers as fit in TF_BLOCK_BYTES (at least
        one) are multiplied with the embedding matrix as one GEMM."""
        cfg = self.config
        if cfg.vocab_size <= len(SPECIALS):
            raise DomainError("vocabulary holds only special tokens; nothing to select")
        mask_row = np.zeros((1, 1, cfg.vocab_size))
        mask_row[..., :len(SPECIALS)] = -np.inf
        batch = c_emb.shape[0]
        per_group = max(1, TF_BLOCK_BYTES // (8 * batch * cfg.conv_channels * cfg.vocab_size))
        mixed = []
        for g0 in range(0, len(self.eg_triggers), per_group):
            group = [self._selection(t, c_emb, mask_row, rng, noise)
                     for t in self.eg_triggers[g0:g0 + per_group]]
            stacked = ad.matmul(ad.concat(group), self.emb)
            mixed += [stacked[i * batch:(i + 1) * batch] for i in range(len(group))]
        return mixed

    def prominent_semantics(self, ctx_ids: np.ndarray, rng: Rng = None,
                            noise: bool = False) -> list[Tensor]:
        """One (B, hidden) vector per trigger: its selected rows (in-context
        part first, then the vocabulary part along the sequence axis), all
        triggers encoded at once as one branch-major (M*B, steps, emb)
        batch.  With both selection paths ablated every branch is the raw
        context encoding."""
        ctx_ids = np.atleast_2d(ctx_ids)
        cfg = self.config
        if cfg.no_is and cfg.no_eg:
            return [self.encode_ids(ctx_ids)] * cfg.num_triggers
        c_emb = self.embed_matrix(ctx_ids)
        paths = []  # per path, every trigger's (B, channels, emb) selection, branch-major
        if not cfg.no_is:
            paths.append(ad.concat(self.internal_separation(c_emb, ctx_ids == PAD_ID, rng, noise)))
        if not cfg.no_eg:
            paths.append(ad.concat(self.external_guidance(c_emb, rng, noise)))
        encoded = self.encode_embedded(paths[0] if len(paths) == 1 else ad.concat(paths, axis=1))
        batch = ctx_ids.shape[0]
        return [encoded[i * batch:(i + 1) * batch] for i in range(cfg.num_triggers)]

    # -- latent heads and decoding ---------------------------------------
    def recognition(self, r_e: Tensor, x: Tensor) -> tuple[Tensor, Tensor]:
        h = ad.add(ad.matmul(ad.concat([r_e, x], axis=1), self.rec_w), self.rec_b)
        d = self.config.latent_dim
        return h[:, :d], ad.clamp(h[:, d:], -LOGVAR_CLIP, LOGVAR_CLIP)

    def prior(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = ad.add(ad.matmul(x, self.pri_w), self.pri_b)
        d = self.config.latent_dim
        return h[:, :d], ad.clamp(h[:, d:], -LOGVAR_CLIP, LOGVAR_CLIP)

    def decoder_initial(self, z: Tensor, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(ad.concat([z, x], axis=1), self.init_w), self.init_b)

    def decode_step(self, state: Tensor, token_ids: np.ndarray) -> tuple[Tensor, Tensor]:
        x = ad.take(self.emb, token_ids)
        return ad.gru_decode_step(self.dec, self.out_w, self.out_b, state, x)

    def _teacher_forced(self, resp_ids: np.ndarray, state: Tensor,
                        want_generated: bool) -> tuple[Tensor, Tensor | None]:
        """Sum log-likelihood of each response (non-padding targets only);
        optionally also encode the probability-weighted embedding sequence
        the decoder implies, for the distillation norm.  ``state`` may hold
        k branch-major copies of the B responses' initial states (k*B rows);
        the decoder's input projection is then shared by all copies.

        The inputs are known up front, so the recurrence runs first.  The
        vocabulary-sized work (out-projection, log-softmax, target gather,
        expected embedding) runs afterwards on the live positions only, those
        whose target is not padding, packed into one list and cut into blocks
        whose (positions, vocab) arrays stay within TF_BLOCK_BYTES (or one
        position's).  The per-position results are scattered back to (rows,
        steps), padding reading an appended zero.  With no graph recorded and
        no distillation input wanted (scoring and perplexity), only the
        target entries are computed.
        """
        inputs, targets = resp_ids[:, :-1], resp_ids[:, 1:]
        t_eff = int((targets != PAD_ID).any(axis=0).sum())
        if want_generated and t_eff == 0:
            raise DomainError("cannot encode an empty sequence")
        states = ad.gru_scan(self.dec, self.embed_matrix(inputs[:, :t_eff]), state)
        targets = np.tile(targets[:, :t_eff], (state.shape[0] // resp_ids.shape[0], 1))
        live = targets != PAD_ID
        where = np.nonzero(live)
        packed_targets = targets[where]
        index = np.full(live.shape, len(packed_targets))  # padding reads the appended zero
        index[where] = np.arange(len(packed_targets))
        graph = want_generated or states.requires_grad
        packed = ad.take(states, where) if graph else states.values[where]
        span = max(1, TF_BLOCK_BYTES // (8 * self.config.vocab_size))
        picked, expected = [], []
        for p0 in range(0, len(packed_targets), span):
            block, block_targets = packed[p0:p0 + span], packed_targets[p0:p0 + span]
            if graph:
                logp = ad.log_softmax(ad.add(ad.matmul(block, self.out_w), self.out_b))
                picked.append(ad.gather_last(logp, block_targets))
                if want_generated:
                    expected.append(ad.matmul(ad.exp(logp), self.emb))
            else:  # scoring only: nothing reads the distribution
                picked.append(Tensor(self._target_log_probs(block, block_targets)))
        recon = ad.tsum(ad.take(ad.concat(picked + [Tensor(np.zeros(1))]), index), axis=1)
        generated = None
        if want_generated:
            pad = Tensor(np.zeros((1, self.config.emb_dim)))
            generated = ad.gru_encode(self.enc, ad.take(ad.concat(expected + [pad]), index),
                                      mask=live)
        return recon, generated

    def _target_log_probs(self, states: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The log-softmax of ``states @ out.w + out.b`` at ``targets`` only,
        for (n, hidden) states and (n,) targets, by an in-place log-sum-exp
        over one (n, vocab) buffer: the graph path's operations on the same
        blocks, so the same bits."""
        z = states @ self.out_w.values
        z += self.out_b.values
        z -= z.max(axis=-1, keepdims=True)
        picked = z[np.arange(len(targets)), targets]
        return picked - np.log(np.exp(z, out=z).sum(axis=-1))

    def elbo(self, resp_ids: np.ndarray, x: Tensor, r_e: Tensor,
             kl_weight: float, rng: Rng, want_generated: bool = False) -> dict:
        """Evidence lower bound of one branch, per example, or of k branches
        at once: ``x`` and ``r_e`` may hold k branch-major copies of the B
        responses' rows (k*B rows), all scored against the same ``resp_ids``.

        Returns tensors keyed ``elbo``/``recon``/``kl`` of shape (k*B,) plus
        ``generated`` (k*B, hidden) when requested.  The latent noise comes
        from ``rng.normal``: an ``Rng`` or a ``FixedNoise``.
        """
        if not 0.0 <= kl_weight <= 1.0:
            raise DomainError(f"kl_weight must lie in [0, 1], got {kl_weight}")
        mu_q, logvar_q = self.recognition(r_e, x)
        mu_p, logvar_p = self.prior(x)
        z = ad.reparameterize(mu_q, logvar_q, rng)
        state = self.decoder_initial(z, x)
        recon, generated = self._teacher_forced(resp_ids, state, want_generated)
        kl = ad.gaussian_kl(mu_q, logvar_q, mu_p, logvar_p)
        elbo = ad.sub(recon, ad.mul(kl, kl_weight))
        return {"elbo": elbo, "recon": recon, "kl": kl, "generated": generated}

    def forward_losses(self, ctx_ids: np.ndarray, resp_ids: np.ndarray,
                       kl_weight: float, rng: Rng, gs_noise: bool = True,
                       r_gt: np.ndarray = None) -> dict:
        """All training quantities for one batch.

        Every branch's bound is first scored without a graph, all branches
        as one (M*B)-row pass; the positive branch is picked per example, and
        only the winners' bounds are computed again with a graph, as one
        B-row pass.  A losing branch reaches the loss only through the norms,
        so its exclusive parameters get exactly zero gradient from the bound.
        The latent noise is drawn once for all branches, and the winner pass
        reuses each row's draw.  The distillation target is the detached
        response encoding unless a frozen ``r_gt`` array is given, which a
        finite-difference check needs so that the target stays put while the
        parameters move.
        """
        cfg = self.config
        ctx_ids, resp_ids = np.atleast_2d(ctx_ids), np.atleast_2d(resp_ids)
        m, batch = cfg.num_triggers, ctx_ids.shape[0]
        rows = np.arange(batch)
        r_e = self.encode_ids(resp_ids)
        xs = self.prominent_semantics(ctx_ids, rng, noise=gs_noise)
        stacked = ad.stack_rows(xs)  # (B, num_triggers, hidden)
        eps = rng.normal((m, batch, cfg.latent_dim))

        with ad.no_grad():
            scored = self.elbo(resp_ids, ad.concat(xs),
                               Tensor(np.tile(r_e.values, (m, 1))), kl_weight,
                               FixedNoise(eps.reshape(m * batch, cfg.latent_dim)), False)
        branch_elbos = scored["elbo"].values.reshape(m, batch)
        positive = select_positive(branch_elbos)

        want_generated = not cfg.no_sdn and batch >= 2
        winner = self.elbo(resp_ids, ad.take(stacked, (rows, positive)), r_e, kl_weight,
                           FixedNoise(eps[positive, rows]), want_generated)

        zero = Tensor(np.zeros(()))
        san_v = scn_v = sdn_v = zero
        if not cfg.no_san:
            san_v = san(stacked)
        if not cfg.no_scn:
            scn_v = scn(self.encode_ids(ctx_ids), xs)
        if want_generated:
            sdn_v = sdn(r_e.detach() if r_gt is None else Tensor(r_gt), winner["generated"])

        return {
            "elbo_plus": ad.tmean(winner["elbo"]), "san": san_v, "scn": scn_v, "sdn": sdn_v,
            "semantics": ProminentSemantics(positive),
            "branch_elbos": branch_elbos,
            "recon_mean": float(winner["recon"].values.mean()),
            "kl_mean": float(winner["kl"].values.mean()),
        }

    # -- persistence -----------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live parameter arrays by name: Adam updates them in place, so
        a snapshot must copy them."""
        return {name: p.values for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]):
        for name, p in self.params.items():
            _check_stored(arrays, name, p.values.shape)
            p.values = np.array(arrays[name], dtype=np.float64)


def _check_stored(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]):
    if name not in arrays:
        raise DomainError(f"checkpoint is missing parameter '{name}'")
    if arrays[name].shape != shape:
        raise ShapeError(f"parameter '{name}' has shape {arrays[name].shape}, want {shape}")


# ---------------------------------------------------------------------------
# branch selection and the semantic norms
# ---------------------------------------------------------------------------

def select_positive(elbos: np.ndarray) -> np.ndarray:
    """Index of the largest bound along axis 0, the branch axis; ties
    resolve to the lowest index.  (M, B) bounds give a (B,) index array, M
    scalar bounds one index.  The selection carries no gradient."""
    elbos = np.asarray(elbos, dtype=np.float64)
    if elbos.ndim == 0 or elbos.shape[0] == 0:
        raise DomainError("cannot select from an empty branch list")
    return np.argmax(elbos, axis=0)


def san(x_stacked: Tensor) -> Tensor:
    """Mean absolute gap between the identity and the row-softmaxed Gram
    matrix of the semantics vectors: zero when each vector correlates only
    with itself.  Accepts (M, H) or a batch (B, M, H)."""
    if x_stacked.ndim == 2:
        gram = ad.matmul(x_stacked, ad.transpose(x_stacked))
    elif x_stacked.ndim == 3:
        gram = ad.matmul(x_stacked, ad.transpose(x_stacked, (0, 2, 1)))
    else:
        raise ShapeError(f"expected (M, H) or (B, M, H), got {x_stacked.shape}")
    m = x_stacked.shape[-2]
    eye = Tensor(np.eye(m))
    return ad.tmean(ad.absolute(ad.sub(eye, ad.softmax_rows(gram))))


def scn(enc_c: Tensor, x: Sequence[Tensor]) -> Tensor:
    """One minus the cosine between the context encoding and the sum of the
    semantics vectors, averaged over the batch; lies in [0, 2]."""
    if len(x) == 0:
        raise DomainError("need at least one semantics vector")
    total = x[0]
    for xi in x[1:]:
        total = ad.add(total, xi)
    return ad.sub(1.0, ad.tmean(ad.cosine(enc_c, total)))


def sdn(r_gt: Tensor, r_gen_plus: Tensor) -> Tensor:
    """Row-wise KL from the ground-truth response Gram distribution to the
    generated one, averaged over rows.  The ground-truth side is a constant
    of the graph; gradient flows only into ``r_gen_plus``."""
    if r_gt.ndim != 2 or r_gt.shape[0] < 2:
        raise DomainError("distillation needs a batch of at least 2 responses")
    if r_gt.shape != r_gen_plus.shape:
        raise ShapeError(f"batch mismatch: {r_gt.shape} vs {r_gen_plus.shape}")
    gram_gt = r_gt.values @ r_gt.values.T
    shifted = gram_gt - gram_gt.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=-1, keepdims=True)
    entropy_rows = (p * np.log(p)).sum(axis=-1)  # constant part of the KL
    q_log = ad.log_softmax(ad.matmul(r_gen_plus, ad.transpose(r_gen_plus)))
    cross = ad.tsum(ad.mul(Tensor(p), q_log), axis=-1)
    return ad.tmean(ad.sub(Tensor(entropy_rows), cross))


def total_loss(elbo_plus: Tensor, san_v, scn_v, sdn_v, lambda_w: float) -> Tensor:
    """The quantity to maximize: the positive bound minus the weighted sum
    of the norms (``forward_losses`` gives a disabled norm as an exact zero)."""
    if not 0.0 <= lambda_w <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lambda_w}")
    norms = ad.add(ad.add(san_v, scn_v), sdn_v)
    return ad.sub(elbo_plus, ad.mul(norms, lambda_w))
