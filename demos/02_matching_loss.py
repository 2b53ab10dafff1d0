"""The order-agnostic loss: similarity, assignment, cross-entropy, gradient.

N prediction slots compete for M gold masks.  A smooth IoU on raw
probabilities scores every slot-gold pair, an optimal assignment picks the
winners, and class-weighted cross-entropy pushes matched slots toward
their gold mask while unmatched slots learn to stay quiet (all-Background).
Reordering the gold list or relabeling the slots never changes the loss.

Run from the repository root:  python3 demos/02_matching_loss.py
"""

import numpy as np

from slotie import (
    LabelGrid,
    grid_from_tuples,
    hungarian_max,
    loss_assignment_gradient,
    similarity_matrix,
    tokenize,
)

rng = np.random.default_rng(0)
seq = tokenize("Ada wrote the first program", append_placeholders=True)
grid = grid_from_tuples(seq, [((0,), (1,), (2, 3, 4))])
n_tokens, n_slots = len(seq), 4

logits = rng.normal(size=(n_tokens, n_slots, 4))
probs = np.exp(logits)
probs /= probs.sum(axis=2, keepdims=True)

print("=== slot-gold similarity (smooth IoU) ===")
sim = similarity_matrix(probs, grid)
print(np.round(sim, 3))

assignment = hungarian_max(sim)
print("optimal assignment:", assignment.pairs, f"total={assignment.total:.3f}")

print()
print("=== loss is order-agnostic ===")
loss, _, _ = loss_assignment_gradient(probs, grid)
print(f"loss at random probabilities: {loss:.4f}")
two = grid_from_tuples(seq, [((0,), (1,), (2, 3, 4)), ((0,), (1,), (4,))])
loss_a, _, _ = loss_assignment_gradient(probs, two)
loss_b, _, _ = loss_assignment_gradient(probs, LabelGrid(two.labels[::-1]))
print(f"two gold masks, listed either way: {loss_a:.10f} == {loss_b:.10f}")

print()
print("=== the gradient points toward the gold grid ===")
grad = loss_assignment_gradient(probs, grid)[2]
step = probs - 0.5 * grad
step = np.clip(step, 1e-9, None)
step /= step.sum(axis=2, keepdims=True)
after, _, _ = loss_assignment_gradient(step, grid)
print(f"one crude descent step: {loss:.4f} -> {after:.4f}")

print()
print("=== finite differences agree with the analytic gradient ===")
h = 1e-5
flat = probs.reshape(-1)
checks = []
for i in rng.choice(flat.size, size=8, replace=False):
    orig = flat[i]
    flat[i] = orig + h
    up, _, _ = loss_assignment_gradient(probs, grid)
    flat[i] = orig - h
    down, _, _ = loss_assignment_gradient(probs, grid)
    flat[i] = orig
    checks.append((grad.reshape(-1)[i], (up - down) / (2 * h)))
for analytic, numeric in checks:
    print(f"   analytic {analytic:+.6f}   numeric {numeric:+.6f}")
