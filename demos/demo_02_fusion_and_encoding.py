"""Block-term bilinear fusion and the language-only question encoder.

Run:  python demos/demo_02_fusion_and_encoding.py
"""

import numpy as np

from vqalab import tensor as T
from vqalab.encoder import (embedding_table_init, encode_questions_baseline,
                            gru_params_init)
from vqalab.fusion import block_fuse, block_params_init, near_equal_partition
from vqalab.tensor import Tensor

# The projection space is split into near-equal chunks, each fused by a
# sum of low-rank bilinear maps. The full-scale configuration (15 chunks of
# rank 15 over a 1000-wide projection) partitions like this:
print("chunk sizes for 1000 / 15:", near_equal_partition(1000, 15))

# Desk-scale parameters: fuse 12-dim "visual" rows with 8-dim "text" rows
# into 10 outputs through a 16-wide projection, 4 chunks of rank 3. Every
# model function takes row-batches; here a batch of two.
params = block_params_init(d_x=12, d_y=8, proj_dim=16, out_proj_dim=16,
                           out_dim=10, chunks=4, rank=3, seed=0,
                           use_bias=False)
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(2, 12)))
y = Tensor(rng.normal(size=(2, 8)))
z = block_fuse(x, y, params)
print("fused rows:\n", np.round(z.data, 3))

# With biases off the map is exactly bilinear: scaling one input scales the
# output, and either argument distributes over addition.
z2 = block_fuse(T.scale(x, 2.0), y, params)
print("homogeneity drift:", np.max(np.abs(z2.data - 2 * z.data)))

# The baseline question encoder: frozen embeddings into a bidirectional GRU.
table = embedding_table_init(vocab_size=20, dim=8, seed=1)
fwd = gru_params_init(8, 6, seed=2)
bwd = gru_params_init(8, 6, seed=3)
questions = np.array([[4, 11, 7, 2]])       # (batch, length) token ids
encoding = encode_questions_baseline(questions, table, fwd, bwd)
print("question encoding shape (batch, 2 x hidden):", encoding.shape)

# It is a function of the tokens alone: re-encoding gives the identical
# vector, no matter what image it will later be fused with.
again = encode_questions_baseline(questions, table, fwd, bwd)
print("bit-identical re-encoding:", np.array_equal(encoding.data, again.data))
