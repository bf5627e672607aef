"""
Batched Fisher scoring
======================

Per-sample Fisher scoring needs one backward pass per data point; batched
Fisher scoring replaces the per-sample gradients with per-batch gradients
of the mean loss, cutting the backward-pass count from N to ceil(N/batch)
while keeping the same shape of relevance estimate. Here: identical
network and data, three batch sizes, and the rank agreement between the
resulting prune masks.
"""

import numpy as np
import ticketlab as tl

ARCH = (12, 20, 4)
N = 400

train_data = tl.gen_synthetic(classes=4, dim=12, per_class=100, seed=9, noise=0.25)
net = tl.init_network(ARCH, seed=2)
mask = tl.full_mask(ARCH)
trained, _ = tl.train(net, mask, train_data, tl.TrainConfig(epochs=10, seed=1))

masks = {}
print(f"{'batch':>6s}  {'passes':>6s}  kept-set overlap vs per-sample")
for batch_size in (1, 40, 400):
    scores, passes = tl.score_fisher(
        trained, mask, train_data, tl.FisherConfig(sample_count=N, fisher_batch_size=batch_size)
    )
    masks[batch_size] = tl.global_prune(mask, scores, fraction=0.7)
    if batch_size == 1:
        print(f"{batch_size:6d}  {passes:6d}  (reference)")
    else:
        same = sum(
            int(np.sum(a & b)) for a, b in zip(masks[1].layers, masks[batch_size].layers)
        )
        kept = masks[1].kept_count()
        print(f"{batch_size:6d}  {passes:6d}  {same}/{kept} = {same / kept:.2%}")

print("\nLarger batches spend far fewer backward passes; the kept sets stay")
print("strongly overlapping because both estimates rank by squared-gradient mass.")
