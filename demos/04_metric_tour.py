"""A tour of the automatic metrics with small hand-checkable inputs.

Run with:  python3 demos/04_metric_tour.py
"""

import numpy as np

from segcvae import bleu_n, coherence, distinct_n, embedding_average, length_avg
from segcvae.corpus import SPECIALS, Vocabulary

# diversity: unique n-grams over all generated n-grams
responses = [["a", "b"], ["a", "b"], ["b", "c", "d"]]
print("responses:", responses)
print("distinct-1:", distinct_n(responses, 1))  # 4 unique of 7 tokens
print("distinct-2:", distinct_n(responses, 2))

# word overlap with brevity penalty and +1 smoothing above unigrams
cand, ref = ["a", "b", "c", "d"], ["a", "b", "c", "e"]
print("\ncandidate:", cand, "reference:", ref)
for n in (1, 2, 3):
    print(f"bleu-{n}: {bleu_n(cand, [ref], n):.4f}")
print("identical sentences score 1.0:", bleu_n(ref, [ref], 3))

# embedding metrics on a two-dimensional hand vocabulary: the specials,
# then 'a' and 'b', one table row per token
vocab = Vocabulary([*SPECIALS, "a", "b"],
                   np.array([[0.0, 0.0]] * len(SPECIALS) + [[1.0, 0.0], [0.0, 1.0]]))
print("\nmean-embedding cosine of 'a' vs 'a b':",
      round(embedding_average(["a"], ["a", "b"], vocab), 4))
print("coherence of context 'b' with response 'a b':",
      round(coherence(["b"], ["a", "b"], vocab), 4))

print("\nmean response length:", length_avg(responses))
