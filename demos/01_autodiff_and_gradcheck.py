#!/usr/bin/env python3
# The autodiff engine on its own: record a computation, run backward,
# verify against central finite differences, and watch the oracle catch
# a deliberately corrupted gradient.

import numpy as np

from taggnn import autodiff as ad
from taggnn.autodiff import Adam, Tensor

# --- a tiny recorded computation ------------------------------------------
x = Tensor(3.0, requires_grad=True)
y = Tensor(-4.0, requires_grad=True)
out = ad.mul(ad.add(x, y), ad.add(x, 1.0))   # (x + y) * (x + 1)
ad.backward(out)
print("f(x, y) = (x + y)(x + 1) at (3, -4)")
print(f"  value   = {float(out.data)}")
print(f"  df/dx   = {x.grad}   (expected (x+y) + (x+1) = 3)")
print(f"  df/dy   = {y.grad}   (expected x + 1 = 4)")

# --- the attention-style softmax, normalized per neighborhood --------------
scores = Tensor([1.0, 2.0, 0.5, 0.5], requires_grad=True)
# rows are the centers 0 and 1, columns their neighbors 2 and 3
neighborhoods = ad.SparsePattern([0, 0, 1, 1], [2, 3, 2, 3], (4, 4))
soft = ad.segment_softmax(scores, neighborhoods)
print("\nsegment_softmax over two neighborhoods:", np.round(soft.data, 4))
print("  per-segment sums:", soft.data[:2].sum(), soft.data[2:].sum())

# --- Adam on a quadratic bowl ----------------------------------------------
p = Tensor([4.0, -2.0], requires_grad=True)
opt = Adam([p], lr=0.1)
for step in range(200):
    ad.zero_grads([p])
    loss = ad.matmul(ad.mul(p, p), np.full((2, 1), 0.5))   # the mean of p^2
    ad.backward(loss)
    opt.step()
print(f"\nAdam on mean(p^2): after 200 steps p = {np.round(p.data, 5)}")

# --- the gradient oracle ----------------------------------------------------
w = Tensor(np.random.default_rng(0).normal(size=(3, 3)), requires_grad=True)
v = Tensor(np.random.default_rng(1).normal(size=(1, 3)))
positives = ad.SparsePattern([0, 2], [0, 0], (3, 1))   # rows 0 and 2 of W v are labelled 1


def loss_fn():
    return ad.mul(ad.bce_with_logits(w, v, positives), 30.0)


err = ad.finite_difference_check(loss_fn, [w])
print(f"\nfinite-difference check on 30 x BCE(W v): max rel error {err:.2e}")

loss = loss_fn()
ad.zero_grads([w])
ad.backward(loss)
bad = [w.grad * 2.0]  # corrupt the analytic gradient on purpose
err_bad = ad.finite_difference_check(loss_fn, [w], analytic=bad)
print(f"same check with gradients doubled:        max rel error {err_bad:.2f} "
      "(the oracle flags it)")
