"""A walk through the tensor library: forward math, the tape, and gradients.

Run:  python demos/demo_01_autodiff.py
"""

import numpy as np

from vqalab import tensor as T
from vqalab.tensor import Tensor

# Tensors wrap numpy arrays. Inside a recording, every operation touching a
# tensor marked requires_grad goes onto the recording's tape; outside one,
# nothing is recorded.
x = Tensor([0.5, -1.2, 2.0], requires_grad=True)
w = Tensor([[0.1, 0.3], [-0.2, 0.4], [0.7, -0.5]], requires_grad=True)

with T.recording():
    hidden = T.tanh(T.matmul(T.reshape(x, (1, 3)), w))   # (1, 2)
    score = T.mul(T.softmax(T.reshape(hidden, (2,))), Tensor([1.0, -1.0])).sum()
    print("forward value:", score.item())

    # backward replays the tape once in reverse, fills leaf gradients and
    # consumes the tape
    T.backward(score)
print("dscore/dx:", x.grad)
print("dscore/dw:\n", w.grad)

# the finite-difference oracle agrees with the analytic gradients
x.zero_grad()
w.zero_grad()


def loss(t):
    h = T.tanh(T.matmul(T.reshape(t, (1, 3)), w))
    return T.mul(T.softmax(T.reshape(h, (2,))), Tensor([1.0, -1.0])).sum()


err = T.grad_check(loss, x)
print(f"max relative error vs central differences: {err:.2e}")

# softmax is shift invariant and saturates safely
big = T.softmax(Tensor([1000.0, 999.0, 998.0]))
print("softmax of huge logits:", big.data, "sum:", big.data.sum())

# max-pooling routes gradient to the (first) maximizer only
pool_in = Tensor([3.0, 3.0, 1.0], requires_grad=True)
with T.recording():
    T.backward(T.reduce_max(pool_in))
print("max-pool gradient with a tie:", pool_in.grad)
