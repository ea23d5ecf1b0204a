"""Show how the temperature turns soft word-selection weights into a
near-argmax pick, which is what lets the triggers choose discrete words
while staying differentiable.

Run with:  python3 demos/02_selection_sharpening.py
"""

import numpy as np

from segcvae import Rng, Tensor
from segcvae.autodiff import gumbel_softmax
from segcvae.corpus import DialoguePair, build_vocab, encode_pairs
from segcvae.model import ModelConfig, SegCVAE

logits = Tensor(np.array([2.0, 1.0, 0.5, -0.4]))
print("logits:", logits.values)
for tau in (5.0, 1.0, 0.3, 0.1, 0.01):
    weights = gumbel_softmax(logits, tau=tau, noise=False)
    print(f"  tau={tau:<5} -> {np.round(weights.values, 4)}")

print("\nwith Gumbel noise the pick varies draw to draw (tau=0.5):")
for seed in (1, 2, 3):
    weights = gumbel_softmax(logits, tau=0.5, rng=Rng(seed), noise=True)
    print(f"  seed={seed} argmax={int(np.argmax(weights.values))} "
          f"weights={np.round(weights.values, 3)}")

# the same mechanism inside a model: each trigger mixes context rows by its
# selection weights, so at low temperature the mix is one embedding row
pairs = [DialoguePair(("come", "back", "here", "now"), ("no", "way"))]
vocab = build_vocab(pairs, max_size=16, emb_dim=8, seed=1)
config = ModelConfig(vocab_size=vocab.size, max_len=6, emb_dim=8, hidden_dim=8,
                     latent_dim=4, kernel_width=2, conv_channels=2,
                     num_triggers=2, tau=0.05)
model = SegCVAE(config, vocab.embedding, Rng(3))
ctx, _ = encode_pairs(pairs, vocab, config.max_len)

c_emb = model.embed_matrix(ctx)
# one context, so entry i of the branch-major batch is trigger i's selection
for i, selected in enumerate(model.internal_separation(c_emb, ctx == 0).values):
    for ch in range(config.conv_channels):
        row = selected[ch]
        nearest = min(range(4, vocab.size),
                      key=lambda t: np.linalg.norm(vocab.embedding[t] - row))
        print(f"trigger {i} channel {ch} picked ~'{vocab.id_to_token[nearest]}'")
