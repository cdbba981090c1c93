"""The grounded question encoder: per-word attention over objects.

Each question word scores every object by how well its label embedding
matches the word, pools the visual features under those weights, and fuses
the result back into the word before the recurrence. The same question then
encodes differently over different scenes.

Run:  python demos/demo_03_grounded_encoding.py
"""

import numpy as np

from vqalab.data import DataConfig, generate_dataset
from vqalab.encoder import EmbeddingTable, gru_params_init
from vqalab.grounding import encode_question_vgqe, trace_records, vgw_params_init
from vqalab.tensor import Tensor

# A tiny dataset supplies scenes whose label features encode the shape of
# each object, plus the shared word/label embedding table.
ds = generate_dataset(DataConfig(n_train=40, n_test=10, seed=7))
table = EmbeddingTable(Tensor(ds.vocab.embedding))

# One grounded-word module, read by a forward and a backward recurrence.
parts = (vgw_params_init(d_v=ds.config.d_v, d_w=ds.config.d_w, refined_dim=16,
                         grounded_dim=32, fusion_proj=32, fusion_out_proj=32,
                         chunks=4, rank=3, seed=0),
         gru_params_init(32, 32, seed=1),
         gru_params_init(32, 32, seed=2))

# The split is columnar: row i of each array is example i.
train = ds.train
i = int(np.flatnonzero(train.qtypes < ds.config.shapes)[0])
tokens = train.tokens[i, :train.lengths[i]]
words = [ds.vocab.tokens[t] for t in tokens]
print("question:", " ".join(words))
print("scene shapes:", [ds.vocab.shapes[s] for s in train.shapes[i]])

# encode_question_vgqe runs one question over one scene, (objects, dims)
# arrays, through the batched encoder and keeps its (words, objects)
# attention weights; both reading directions share this one grounding.
encoding, trace = encode_question_vgqe(train.visual[i], train.labels[i], tokens,
                                       table, *parts)
print("encoding dim:", encoding.shape)

# The attention trace is one weight row per question word. At random
# initialization the weights are still diffuse; training sharpens them toward
# label-matching objects because words and labels share one embedding space
# (the traces.json written by the report command shows trained traces).
np.set_printoptions(precision=2, suppress=True)
for word, weights in zip(words, trace):
    print(f"  {word:>8s} attends {weights}")

# The same question over a different scene yields a different encoding;
# the language-only encoder cannot do that.
same_question = (train.tokens == train.tokens[i]).all(axis=1)
other_scene = (train.shapes != train.shapes[i]).any(axis=1)
j = int(np.flatnonzero(same_question & other_scene)[0])
other_encoding, _ = encode_question_vgqe(train.visual[j], train.labels[j], tokens,
                                         table, *parts)
gap = np.max(np.abs(encoding - other_encoding))
print(f"L-infinity gap between encodings of the same question: {gap:.4f}")

# A trace serializes to one JSON record per question, the format the report
# command emits.
print("trace record keys:", sorted(trace_records(train.ids[i], trace)))
