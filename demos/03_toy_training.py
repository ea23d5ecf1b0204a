"""Overfit a 16-pair toy corpus, watch the objective improve, then sample
several responses per context by cycling the semantics branches.

Run with:  python3 demos/03_toy_training.py   (a few seconds)
"""

from segcvae import Rng, TrainingConfig, generate_n, perplexity, train_step
from segcvae.corpus import DialoguePair, build_vocab, encode_pairs
from segcvae.training import format_stats, init_state

pairs = [DialoguePair((f"q{i}", "do", "you", "know"),
                      ("well", f"a{i}", "yes", f"b{i}")) for i in range(16)]

cfg = TrainingConfig(
    learning_rate=0.01, batch_size=16, epochs=1, snorm_step=2000,
    kl_anneal_steps=2000, seed=123456, vocab_cap=64, max_len=10,
    emb_dim=16, hidden_dim=16, latent_dim=16, kernel_width=3,
    conv_channels=2, num_triggers=2, tau=0.1)

vocab = build_vocab(pairs, max_size=cfg.vocab_cap, emb_dim=cfg.emb_dim,
                    seed=cfg.seed)
data = encode_pairs(pairs, vocab, cfg.max_len)
state = init_state(cfg, vocab)

for step in range(400):
    order = state.data_rng.permutation(len(pairs))
    stats = train_step((data[0][order], data[1][order]), state, cfg)
    if step % 50 == 0:
        print(format_stats(stats))

print(f"\ntraining-set perplexity: {perplexity(state.model, data):.3f}")

print("\nbranch-cycled responses for one context:")
record = generate_n(state.model, vocab, pairs[3].context, 4, Rng(7))
print("  context:", " ".join(pairs[3].context))
for branch, resp in zip(record.branch_indices, record.responses):
    print(f"  branch {branch}: {' '.join(resp)}")
