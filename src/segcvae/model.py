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

import numpy as np

from . import autodiff as ad
from .autodiff import Rng, Tensor
from .config import ModelConfig
from .corpus import PAD_ID, SPECIALS
from .errors import DomainError, ShapeError

LOGVAR_CLIP = 10.0
TF_BLOCK_BYTES = 4 << 20  # bytes per (positions, vocab) float64 array of a teacher-forcing block


def parameter_shapes(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in creation order: the embedding,
    the shared encoder, the trigger families (a family's M kernels side by
    side along the channel axis, its M projections stacked; an ablated
    family is absent), the latent heads, the decoder and the out-projection.
    A config that fails ``validate`` raises."""
    c.validate()
    gates, m = 3 * c.hidden_dim, c.num_triggers
    conv_len = c.max_len - c.kernel_width + 1

    def gru(prefix: str) -> dict:
        return {f"{prefix}.wx": (c.emb_dim, gates), f"{prefix}.wh": (c.hidden_dim, gates),
                f"{prefix}.bx": (gates,), f"{prefix}.bh": (gates,)}

    def family(path: str, width: int, ablated: bool) -> dict:
        return {} if ablated else {
            f"{path}.kernel": (c.kernel_width, c.emb_dim, 1, m * c.conv_channels),
            f"{path}.dense": (m, conv_len, width)}

    return {"emb": (c.vocab_size, c.emb_dim), **gru("enc"),
            **family("is", c.max_len, c.no_is), **family("eg", c.vocab_size, c.no_eg),
            "rec.w": (2 * c.hidden_dim, 2 * c.latent_dim), "rec.b": (2 * c.latent_dim,),
            "pri.w": (c.hidden_dim, 2 * c.latent_dim), "pri.b": (2 * c.latent_dim,),
            "init.w": (c.latent_dim + c.hidden_dim, c.hidden_dim), "init.b": (c.hidden_dim,),
            **gru("dec"), "out.w": (c.hidden_dim, c.vocab_size), "out.b": (c.vocab_size,)}


def initial_arrays(config: ModelConfig, embedding: np.ndarray, rng: Rng
                   ) -> dict[str, np.ndarray]:
    """A fresh network's parameters in ``parameter_shapes`` order, each
    array allocated once: ``embedding`` itself as ``emb``, zero biases, and
    Glorot weights drawn from ``rng`` straight into their arrays, a trigger
    family one trigger at a time (kernel, then projection, which goes into
    its slot of the family's stacked array)."""
    shapes, m = parameter_shapes(config), config.num_triggers
    arrays = {}
    for name, shape in shapes.items():
        if name == "emb":
            arrays[name] = embedding
        elif len(shape) == 1:
            arrays[name] = np.zeros(shape)
        elif name.endswith(".kernel"):
            one = shape[:-1] + (shape[-1] // m,)  # one trigger's kernel
            kernel = np.empty(one[:-1] + (m, one[-1]))  # trigger k's at [..., k, :]
            dense = name.removesuffix("kernel") + "dense"
            arrays[name], arrays[dense] = kernel.reshape(shape), np.empty(shapes[dense])
            for k in range(m):
                kernel[..., k, :] = ad.glorot_into(np.empty(one), rng)
                ad.glorot_into(arrays[dense][k], rng)
        elif name not in arrays:
            arrays[name] = ad.glorot_into(np.empty(shape), rng)
    return arrays


class SegCVAE:
    """Holds all parameters and the forward computations."""

    def __init__(self, config: ModelConfig, embedding: np.ndarray, rng: Rng):
        """A fresh network (``initial_arrays``) whose ``emb`` is a float64
        copy of ``embedding``, so the caller's table is never written.
        ``training.init_state`` builds its model from ``initial_arrays`` and
        ``from_arrays`` instead, with the table drawn into ``emb`` itself."""
        shapes = parameter_shapes(config)
        if embedding.shape != shapes["emb"]:
            raise ShapeError(f"embedding shape {embedding.shape} does not match {shapes['emb']}")
        self._adopt(config, initial_arrays(config, np.array(embedding, dtype=np.float64), rng))

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "SegCVAE":
        """The network whose parameters are ``arrays``, keyed by parameter
        name, each checked against ``parameter_shapes`` by ``stored_array``:
        no random draws, and float64 arrays are used without a copy, so they
        become the live parameters that an optimizer updates in place."""
        model = cls.__new__(cls)
        model._adopt(config, {name: stored_array(arrays, name, shape)
                              for name, shape in parameter_shapes(config).items()})
        return model

    def _adopt(self, config: ModelConfig, arrays: dict[str, np.ndarray]):
        """Make ``arrays``, in ``parameter_shapes`` order, the parameters, and
        alias each by attribute: ``rec.w`` as ``rec_w``, a GRU's four (listed in
        field order) as one ``GruParams``; an ablated family's aliases stay None."""
        self.config = config
        self.params = {name: Tensor(values, requires_grad=True) for name, values in arrays.items()}
        self.is_kernel = self.is_dense = self.eg_kernel = self.eg_dense = None
        for name, tensor in self.params.items():
            if not name.startswith(("enc.", "dec.")):
                setattr(self, name.replace(".", "_"), tensor)
        self.enc, self.dec = (ad.GruParams(*(p for n, p in self.params.items() if n.startswith(gru)))
                              for gru in ("enc.", "dec."))

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    # -- encoding ------------------------------------------------------
    def embed_matrix(self, ids: np.ndarray) -> Tensor:
        """(B, T) ids to one (B, T, emb) tensor."""
        return ad.take(self.emb, ids)

    def encode_ids(self, ids: np.ndarray) -> Tensor:
        """Run the shared encoder over token ids, each row to its length:
        padding is a suffix, and an all-padding row or a pad before a token
        is a DomainError."""
        ids = np.atleast_2d(ids)
        live = ids != PAD_ID
        lengths = live.sum(axis=1)
        if np.any(lengths == 0):
            raise DomainError("cannot encode an all-padding sequence")
        if np.any(live[:, 1:] > live[:, :-1]):  # a token after a pad
            raise DomainError("padding must be a suffix of each sequence")
        ids = ids[:, :int(lengths.max())]
        return ad.gru_encode(self.enc, self.embed_matrix(ids), lengths)

    # -- word selection --------------------------------------------------
    def _selection(self, c_emb: Tensor, kernel: Tensor, dense: Tensor, mask: np.ndarray,
                   rng: Rng, noise: bool) -> Tensor:
        """Soft selection weights (k, B*channels, width) of k triggers from
        their kernels (side by side along the channel axis) and (k, conv_len,
        width) projections; ``mask`` holds -inf at the excluded columns."""
        f_c = ad.conv_seq(c_emb, kernel)  # (B, k*channels, conv_len)
        (batch, _, conv_len), k = f_c.shape, dense.shape[0]
        f_c = ad.transpose(ad.reshape(f_c, (batch, k, -1, conv_len)), (1, 0, 2, 3))
        logits = ad.matmul(ad.reshape(f_c, (k, -1, conv_len)), dense)
        # the softmax overwrites the projection, which the GEMM's backward never reads
        return ad._gumbel_softmax(logits, self.config.tau, rng, noise, mask, in_place=True)

    def internal_separation(self, c_emb: Tensor, pad_mask: np.ndarray,
                            rng: Rng = None, noise: bool = False) -> Tensor:
        """Per trigger, mix context rows by the selection weights; padding
        positions are excluded via additive -inf logits.  Returns the
        branch-major (M*B, channels, emb) batch."""
        cfg = self.config
        if c_emb.ndim != 3 or c_emb.shape[1] != cfg.max_len:
            raise ShapeError(f"context must be (B, {cfg.max_len}, emb), got {c_emb.shape}")
        mask = np.repeat(np.where(pad_mask, -np.inf, 0.0), cfg.conv_channels, axis=0)
        weights = self._selection(c_emb, self.is_kernel, self.is_dense, mask, rng, noise)
        weights = ad.reshape(weights, (cfg.num_triggers, c_emb.shape[0], cfg.conv_channels, -1))
        return ad.reshape(ad.matmul(weights, c_emb), (-1, cfg.conv_channels, cfg.emb_dim))

    def external_guidance(self, c_emb: Tensor, rng: Rng = None,
                          noise: bool = False) -> Tensor:
        """Per trigger, mix vocabulary embedding rows by the selection
        weights; the four special-token columns are excluded.  Returns the
        branch-major (M*B, channels, emb) batch, all triggers as one chain
        and one product with ``emb``."""
        cfg = self.config
        if cfg.vocab_size <= len(SPECIALS):
            raise DomainError("vocabulary holds only special tokens; nothing to select")
        mask = np.where(np.arange(cfg.vocab_size) < len(SPECIALS), -np.inf, 0.0)
        weights = self._selection(c_emb, self.eg_kernel, self.eg_dense, mask, rng, noise)
        return ad.reshape(ad.matmul(weights, self.emb), (-1, cfg.conv_channels, cfg.emb_dim))

    def prominent_semantics(self, ctx_ids: np.ndarray, rng: Rng = None,
                            noise: bool = False) -> Tensor:
        """One (B, hidden) vector per trigger, as one (M, B, hidden) tensor:
        each trigger's selected rows (in-context part first, then the
        vocabulary part along the sequence axis), all triggers encoded at
        once as one branch-major (M*B, steps, emb) batch.  With both
        selection paths ablated every branch is the raw context encoding.
        An all-padding context row is a DomainError."""
        ctx_ids = np.atleast_2d(ctx_ids)
        padding = ctx_ids == PAD_ID
        if np.any(padding.all(axis=1)):
            raise DomainError("cannot select from an all-padding context")
        cfg = self.config
        m, batch = cfg.num_triggers, ctx_ids.shape[0]
        if cfg.no_is and cfg.no_eg:
            encoded = ad.take(self.encode_ids(ctx_ids), np.tile(np.arange(batch), m))
        else:
            c_emb = self.embed_matrix(ctx_ids)
            paths = []
            if not cfg.no_is:
                paths.append(self.internal_separation(c_emb, padding, rng, noise))
            if not cfg.no_eg:
                paths.append(self.external_guidance(c_emb, rng, noise))
            encoded = ad.gru_encode(self.enc, ad.concat(paths, axis=1) if len(paths) > 1 else paths[0])
        return ad.reshape(encoded, (m, batch, cfg.hidden_dim))

    # -- latent heads and decoding ---------------------------------------
    def _gaussian(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """A latent head's (rows, 2*latent) output as (mean, clamped log-variance)."""
        d = self.config.latent_dim
        return h[:, :d], ad.clamp(h[:, d:], -LOGVAR_CLIP, LOGVAR_CLIP)

    def recognition(self, r_e: Tensor, x: Tensor) -> tuple[Tensor, Tensor]:
        return self._gaussian(ad.linear(ad.concat([r_e, x], axis=1), self.rec_w, self.rec_b))

    def prior(self, x: Tensor) -> tuple[Tensor, Tensor]:
        return self._gaussian(ad.linear(x, self.pri_w, self.pri_b))

    def decoder_initial(self, z: Tensor, x: Tensor) -> Tensor:
        return ad.linear(ad.concat([z, x], axis=1), self.init_w, self.init_b)

    def decode_step(self, state: Tensor, token_ids: np.ndarray) -> tuple[Tensor, Tensor]:
        """A length-1 decoder scan on ``token_ids``: (logits, next state)."""
        hd = self.config.hidden_dim
        if state.ndim != 2 or state.shape[1] != hd:
            raise ShapeError(f"state must be (batch, {hd}), got {state.shape}")
        x = self.embed_matrix(np.reshape(token_ids, (-1, 1)))  # (B, 1, emb)
        next_state = ad.gru_scan(self.dec, x, state)[:, -1]
        return ad.linear(next_state, self.out_w, self.out_b), next_state

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
        target entries are computed.  The distillation input is wanted only
        of responses that each have a target, padded only at their end.
        """
        inputs, targets = resp_ids[:, :-1], resp_ids[:, 1:]
        has_target = targets != PAD_ID
        t_eff = int(has_target.any(axis=0).sum())
        if want_generated and not has_target.any(axis=1).all():
            raise DomainError("cannot encode an empty sequence: a response has no target")
        states = ad.gru_scan(self.dec, self.embed_matrix(inputs[:, :t_eff]), state)
        targets = np.tile(targets[:, :t_eff], (state.shape[0] // resp_ids.shape[0], 1))
        live = targets != PAD_ID
        packed_targets = targets[live]
        index = np.full(live.shape, len(packed_targets))  # padding reads the appended zero
        index[live] = np.arange(len(packed_targets))
        graph = want_generated or states.requires_grad
        packed = ad.take(states, live) if graph else states.values[live]
        span = max(1, TF_BLOCK_BYTES // (8 * self.config.vocab_size))
        picked, expected = [], []
        for p0 in range(0, len(packed_targets), span):
            block, block_targets = packed[p0:p0 + span], packed_targets[p0:p0 + span]
            if graph:
                # one (positions, vocab) buffer: the projection, overwritten by
                # its log-softmax; the expected embedding recomputes exp(logp)
                logp = ad._log_softmax(ad.linear(block, self.out_w, self.out_b), in_place=True)
                picked.append(ad.take(logp, (np.arange(len(block_targets)), block_targets)))
                if want_generated:
                    expected.append(ad._exp_matmul(logp, self.emb))
            else:  # scoring only: nothing reads the distribution
                picked.append(Tensor(self._target_log_probs(block, block_targets)))
        recon = ad.tsum(ad.take(ad.concat(picked + [Tensor(np.zeros(1))]), index), axis=1)
        generated = None
        if want_generated:
            pad = Tensor(np.zeros((1, self.config.emb_dim)))
            generated = ad.gru_encode(self.enc, ad.take(ad.concat(expected + [pad]), index),
                                      live.sum(axis=1))
        return recon, generated

    def _target_log_probs(self, states: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The log-softmax of ``states @ out.w + out.b`` at ``targets`` only,
        for (n, hidden) states and (n,) targets, by an in-place log-sum-exp
        over one (n, vocab) buffer: the graph path's operations on the same
        blocks, so the same bits.  It stays beside the graph path's
        ``ad._log_softmax``, which also gives those bits, because that one
        exponentiates into a second (n, vocab) array and normalises every
        entry, not just the targets: scoring through it raises the peak
        memory of perplexity's passes."""
        z = states @ self.out_w.values
        z += self.out_b.values
        z -= z.max(axis=-1, keepdims=True)
        picked = z[np.arange(len(targets)), targets]
        return picked - np.log(np.exp(z, out=z).sum(axis=-1))

    def elbo(self, resp_ids: np.ndarray, x: Tensor, r_e: Tensor,
             kl_weight: float, eps: np.ndarray, want_generated: bool = False) -> dict:
        """Evidence lower bound of one branch, per example, or of k branches
        at once: ``x`` and ``r_e`` may hold k branch-major copies of the B
        responses' rows (k*B rows), all scored against the same ``resp_ids``.

        Returns tensors keyed ``elbo``/``recon``/``kl`` of shape (k*B,) plus
        ``generated`` (k*B, hidden) when requested.  The latent noise is
        ``eps``, (k*B, latent) standard-normal draws.
        """
        if not 0.0 <= kl_weight <= 1.0:
            raise DomainError(f"kl_weight must lie in [0, 1], got {kl_weight}")
        mu_q, logvar_q = self.recognition(r_e, x)
        mu_p, logvar_p = self.prior(x)
        z = ad.reparameterize(mu_q, logvar_q, eps)
        state = self.decoder_initial(z, x)
        recon, generated = self._teacher_forced(resp_ids, state, want_generated)
        kl = ad.gaussian_kl(mu_q, logvar_q, mu_p, logvar_p)
        elbo = ad.sub(recon, ad.mul(kl, kl_weight))
        return {"elbo": elbo, "recon": recon, "kl": kl, "generated": generated}

    def prior_recon(self, ctx_ids: np.ndarray, resp_ids: np.ndarray) -> np.ndarray:
        """Every branch's teacher-forced log-likelihood of each response, with
        the latent at the prior mean, as an (M, B) array: all branches decoded
        as one branch-major (M*B)-row pass that records no graph, sharing the
        decoder's input projection.  Branch conditioning never reads the
        response encoding; the response is only the scored target sequence."""
        with ad.no_grad():
            xs = ad.reshape(self.prominent_semantics(ctx_ids), (-1, self.config.hidden_dim))
            mu_p, _ = self.prior(xs)
            state = self.decoder_initial(mu_p, xs)
            recon, _ = self._teacher_forced(np.atleast_2d(resp_ids), state, False)
        return recon.values.reshape(self.config.num_triggers, -1)

    def forward_losses(self, ctx_ids: np.ndarray, resp_ids: np.ndarray,
                       kl_weight: float, rng: Rng, gs_noise: bool = True,
                       r_gt: np.ndarray = None) -> dict:
        """All training quantities for one batch.

        Every branch's bound is first scored without a graph, all branches
        as one (M*B)-row pass; the positive branch is picked per example
        (returned as ``positive``, a (B,) index array), and only the
        winners' bounds are computed again with a graph, as one B-row pass.
        A losing branch reaches the loss only through the norms, so its
        exclusive parameters get exactly zero gradient from the bound.  The
        latent noise is drawn once for all branches, and the winner pass
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
        xs = self.prominent_semantics(ctx_ids, rng, noise=gs_noise)  # (M, B, hidden)
        eps = rng.normal((m, batch, cfg.latent_dim))

        with ad.no_grad():
            scored = self.elbo(resp_ids, ad.reshape(xs, (m * batch, cfg.hidden_dim)),
                               Tensor(np.tile(r_e.values, (m, 1))), kl_weight,
                               eps.reshape(m * batch, cfg.latent_dim), False)
        branch_elbos = scored["elbo"].values.reshape(m, batch)
        positive = select_positive(branch_elbos)

        want_generated = not cfg.no_sdn and batch >= 2
        winner = self.elbo(resp_ids, ad.take(xs, (positive, rows)), r_e, kl_weight,
                           eps[positive, rows], want_generated)

        san_v = scn_v = sdn_v = Tensor(np.zeros(()))
        if not cfg.no_san:
            san_v = san(ad.transpose(xs, (1, 0, 2)))
        if not cfg.no_scn:
            scn_v = scn(self.encode_ids(ctx_ids), xs)
        if want_generated:
            sdn_v = sdn(r_e.detach() if r_gt is None else Tensor(r_gt), winner["generated"])

        return {
            "elbo_plus": ad.tmean(winner["elbo"]), "san": san_v, "scn": scn_v, "sdn": sdn_v,
            "positive": positive,
            "branch_elbos": branch_elbos,
            "recon_mean": float(winner["recon"].values.mean()),
            "kl_mean": float(winner["kl"].values.mean()),
        }

    # -- persistence -----------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live parameter arrays by name: Adam updates them in place, so
        a snapshot must copy."""
        return {name: p.values for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Copy the parameters of ``arrays``, keyed by parameter name, into
        the live parameter buffers, but only once ``from_arrays`` has checked
        every one, so a rejected ``arrays`` changes nothing.  Each parameter
        keeps its array, so an optimizer's view of it stays valid; the
        model's own ``state_arrays()`` leave it unchanged."""
        checked = SegCVAE.from_arrays(self.config, arrays).params
        for name, p in self.params.items():
            np.copyto(p.values, checked[name].values)


def stored_array(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``arrays[name]`` as a C-contiguous float64 array, one that already is
    as it is; a missing name is a DomainError and another shape a ShapeError."""
    if name not in arrays:
        raise DomainError(f"checkpoint is missing parameter '{name}'")
    if arrays[name].shape != shape:
        raise ShapeError(f"parameter '{name}' has shape {arrays[name].shape}, want {shape}")
    return np.ascontiguousarray(arrays[name], dtype=np.float64)


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
    matrix of each example's semantics vectors, a batch (B, M, H): zero when
    each vector correlates only with itself."""
    if x_stacked.ndim != 3:
        raise ShapeError(f"expected (B, M, H), got {x_stacked.shape}")
    gram = ad.matmul(x_stacked, ad.transpose(x_stacked, (0, 2, 1)))
    eye = Tensor(np.eye(x_stacked.shape[1]))
    return ad.tmean(ad.absolute(ad.sub(eye, ad.softmax_rows(gram))))


def scn(enc_c: Tensor, x: Tensor) -> Tensor:
    """One minus the cosine between the context encoding and the sum of the
    semantics vectors, stacked along axis 0 of ``x`` (M, ..., H), averaged
    over the batch; lies in [0, 2]."""
    if x.ndim < 2 or x.shape[0] == 0:
        raise DomainError(f"need a stack of at least one semantics vector, got {x.shape}")
    return ad.sub(1.0, ad.tmean(ad.cosine(enc_c, ad.tsum(x, axis=0))))


def sdn(r_gt: Tensor, r_gen_plus: Tensor) -> Tensor:
    """Row-wise KL from the ground-truth response Gram distribution to the
    generated one, averaged over rows.  The ground-truth side is a constant
    of the graph; gradient flows only into ``r_gen_plus``."""
    if r_gt.ndim != 2 or r_gt.shape[0] < 2:
        raise DomainError("distillation needs a batch of at least 2 responses")
    if r_gt.shape != r_gen_plus.shape:
        raise ShapeError(f"batch mismatch: {r_gt.shape} vs {r_gen_plus.shape}")
    p = ad.softmax_rows(r_gt.values @ r_gt.values.T).values
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
