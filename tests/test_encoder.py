import numpy as np
import pytest

from vqalab import model as M, tensor as T
from vqalab.data import DataConfig, generate_dataset
from vqalab.encoder import (embed, embedding_table_init, encode_questions_baseline,
                            gru_cell, gru_params_init)
from vqalab.layers import seeded_rng
from vqalab.model import FusionConfig, ModelConfig, forward_batch, init_model
from vqalab.tensor import Tensor
from vqalab.train import cross_entropy_rows, length_bucketed_batches, stack_batch


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_oracle(x, h, p):
    """Straightforward numpy re-implementation of the gate equations."""
    z = sigmoid(x @ p.w_update.data + h @ p.u_update.data + p.b_update.data)
    r = sigmoid(x @ p.w_reset.data + h @ p.u_reset.data + p.b_reset.data)
    cand = np.tanh(x @ p.w_cand.data + (r * h) @ p.u_cand.data + p.b_cand.data)
    return (1.0 - z) * h + z * cand


class TestEmbedding:
    def test_lookup(self):
        table = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = embed([0], table)
        assert out.data.tolist() == [[1.0, 2.0]]

    def test_repeated_token_identical_rows(self):
        table = embedding_table_init(5, 3, seed=0)
        out = embed([2, 2, 2], table).data
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_permutation_permutes_rows(self):
        table = embedding_table_init(5, 3, seed=0)
        fwd = embed([1, 4], table).data
        rev = embed([4, 1], table).data
        assert np.array_equal(fwd[::-1], rev)

    def test_out_of_range_names_id(self):
        table = embedding_table_init(5, 3, seed=0)
        with pytest.raises(IndexError, match="7"):
            embed([0, 7], table)
        with pytest.raises(IndexError, match="-1"):
            embed(np.array([[0, 1], [-1, 2]]), table)

    def test_frozen_table_contributes_no_parameters(self):
        table = embedding_table_init(5, 3, seed=0)
        assert not table.requires_grad
        assert not embed(np.array([[1, 2]]), table).requires_grad

    def test_question_tokens_validates_length(self):
        table = embedding_table_init(5, 3, seed=0)
        with pytest.raises(ValueError):
            embed(np.zeros(0, dtype=int), table)


class TestGruCell:
    def test_zero_fixed_point(self):
        p = gru_params_init(3, 2, seed=0)
        for _, t in p.named_arrays():
            t.data[:] = 0.0
        h = gru_cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2))), p)
        assert np.allclose(h.data, 0.0)

    def test_leak_with_zero_weights(self):
        # all weights zero: z = 0.5, candidate = 0, so h = 0.5 * h_prev
        p = gru_params_init(2, 1, seed=0)
        for _, t in p.named_arrays():
            t.data[:] = 0.0
        h = gru_cell(Tensor([[1.0, -1.0], [0.0, 2.0]]), Tensor([[0.8], [-0.2]]), p)
        assert np.allclose(h.data, [[0.4], [-0.1]])

    def test_matches_duplicate_dense_oracle(self):
        p = gru_params_init(4, 3, seed=5)
        rng = np.random.default_rng(1)
        x, h = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        got = gru_cell(Tensor(x), Tensor(h), p).data
        assert np.max(np.abs(got - gru_oracle(x, h, p))) < 1e-12

    def test_dimension_mismatch(self):
        p = gru_params_init(4, 3, seed=0)
        with pytest.raises(T.ShapeError):
            gru_cell(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 3))), p)
        with pytest.raises(T.ShapeError):
            gru_cell(Tensor(np.zeros(4)), Tensor(np.zeros(3)), p)

    def test_gradients_match_finite_differences(self):
        p = gru_params_init(3, 2, seed=9)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 2)))

        def loss():
            return T.mul(gru_cell(x, h, p), probe).sum()

        errs = [T.grad_check(lambda t: loss(), x), T.grad_check(lambda t: loss(), h)]
        errs += [T.grad_check(lambda t: loss(), t) for _, t in p.named_arrays()]
        assert max(errs) < 1e-4


class TestBaselineEncoder:
    def setup_method(self):
        self.table = embedding_table_init(10, 4, seed=3)
        self.fwd = gru_params_init(4, 3, seed=4)
        self.bwd = gru_params_init(4, 3, seed=5)

    def encode(self, ids, fwd=None, bwd=None):
        return encode_questions_baseline(np.asarray(ids), self.table,
                                         fwd or self.fwd, bwd or self.bwd)

    def test_single_step_unrolling(self):
        out = self.encode([[7]]).data
        x = Tensor(self.table.data[[7]])
        h0 = Tensor(np.zeros((1, 3)))
        f = gru_cell(x, h0, self.fwd).data
        b = gru_cell(x, h0, self.bwd).data
        assert np.allclose(out, np.concatenate([f, b], axis=1))

    def test_reversal_swaps_direction_roles(self):
        # shared parameters: encoding of reversed tokens swaps the two halves
        out = self.encode([[1, 2, 3], [4, 0, 9]], self.fwd, self.fwd).data
        rev = self.encode([[3, 2, 1], [9, 0, 4]], self.fwd, self.fwd).data
        h = 3
        assert np.allclose(out[:, :h], rev[:, h:], atol=1e-12)
        assert np.allclose(out[:, h:], rev[:, :h], atol=1e-12)

    def test_matches_manual_unroll_oracle(self):
        ids = np.array([[2, 9, 4], [0, 3, 3]])
        got = self.encode(ids).data
        xs = self.table.data[ids]                  # (B, T, d_w)
        hf = np.zeros((2, 3))
        for t in range(3):
            hf = gru_oracle(xs[:, t], hf, self.fwd)
        hb = np.zeros((2, 3))
        for t in (2, 1, 0):
            hb = gru_oracle(xs[:, t], hb, self.bwd)
        assert np.max(np.abs(got - np.concatenate([hf, hb], axis=1))) < 1e-12

    def test_output_dimension_is_twice_hidden(self):
        out = self.encode([[0, 1], [2, 3], [4, 5]])
        assert out.shape == (3, 6)

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            self.encode(np.zeros((1, 0), dtype=int))

    def test_image_independence_bit_identical(self):
        a = self.encode([[1, 2]]).data
        b = self.encode([[1, 2]]).data
        assert np.array_equal(a, b)

    def test_batched_matches_single(self):
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        batched = self.encode(ids).data
        for i in range(2):
            single = self.encode(ids[i:i + 1]).data
            assert np.max(np.abs(batched[i] - single[0])) < 1e-12


# ---------------------------------------------------------------------------
# each distinct question encoded once, against the encoder that reads every row


def per_row_encoder(token_matrix, table, forward, backward):
    """The baseline encoder with both GRUs over all B rows, repeats included."""
    steps = embed(np.asarray(token_matrix).T, table)
    return T.concat([T.gru_sequence(steps, *forward.arrays()),
                     T.gru_sequence(steps, *backward.arrays(), reverse=True)], axis=1)


# gradients add the repeated rows in another order, so they agree to rounding;
# float32's unit roundoff is 6e-8, and its sums over 128 rows drift further
GRAD_TOL = {np.float64: 1e-12, np.float32: 1e-5}

STEP_SIZES = {
    # (ModelConfig fields, batch, steps, distinct rows, objects)
    "default": ({}, 128, 4, 6, 8),
    "tiny": (dict(d_v=6, d_w=5, hidden=4, refined_dim=4, grounded_dim=6, pooled_dim=6,
                  answer_count=8, vocab_size=9, vgw_fusion=FusionConfig(6, 6, 2, 2),
                  obj_fusion=FusionConfig(6, 6, 2, 2)), 12, 3, 4, 3),
}


def training_step(size, dtype):
    """Logits, loss and every parameter gradient of one dropout training step
    on a batch whose token rows repeat a few distinct questions."""
    fields, batch, steps, distinct, k = STEP_SIZES[size]
    with T.using_dtype(dtype):
        cfg = ModelConfig(seed=2, dropout=0.2, **fields)
        params = init_model(cfg)
        rng = np.random.default_rng(11)
        visual = rng.normal(size=(batch, k, cfg.d_v))
        labels = rng.normal(size=(batch, k, cfg.d_w))
        questions = rng.integers(0, cfg.vocab_size, size=(distinct, steps))
        tokens = questions[rng.integers(0, distinct, size=batch)]
        answers = rng.integers(0, cfg.answer_count, size=batch)
        with T.recording():
            logits = forward_batch(params, visual, labels, tokens, training=True,
                                   drop_rng=np.random.default_rng(12))
            loss = T.reduce_mean(cross_entropy_rows(logits, answers))
            T.backward(loss)
    return logits.data, loss.data, {name: t.grad.copy() for name, t in params.named_parameters()}


@pytest.mark.parametrize("size", sorted(STEP_SIZES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_training_step_matches_per_row_encoder(monkeypatch, size, dtype):
    logits, loss, grads = training_step(size, dtype)
    monkeypatch.setattr(M, "encode_questions_baseline", per_row_encoder)
    want_logits, want_loss, want_grads = training_step(size, dtype)
    assert logits.dtype == dtype
    assert np.array_equal(logits, want_logits)
    assert np.array_equal(loss, want_loss)
    for name, want in want_grads.items():
        assert np.max(np.abs(grads[name] - want)) <= GRAD_TOL[dtype] * np.max(np.abs(want)), name


@pytest.mark.parametrize("tokens", [
    [[1, 2, 3], [4, 0, 9], [3, 2, 1], [1, 2, 4]],      # all distinct
    [[7, 7]],                                           # a batch of one
    [[5, 1], [2, 8], [5, 1], [5, 1], [2, 8], [0, 0]],   # repeats, unordered
], ids=["all_distinct", "one_row", "repeats"])
def test_encoder_matches_per_row_encoder(tokens):
    table = embedding_table_init(10, 4, seed=3)
    fwd, bwd = gru_params_init(4, 3, seed=4), gru_params_init(4, 3, seed=5)
    leaves = [t for _, t in (*fwd.named_arrays(), *bwd.named_arrays())]
    probe = Tensor(np.random.default_rng(13).normal(size=(len(tokens), 6)))

    def run(encoder):
        with T.recording():
            out = encoder(np.array(tokens), table, fwd, bwd)
            T.backward(T.mul(out, probe).sum())
        grads = [t.grad.copy() for t in leaves]
        T.zero_grads(leaves)
        return out.data, grads

    got, got_grads = run(encode_questions_baseline)
    want, want_grads = run(per_row_encoder)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_out_of_range_token_named_as_the_per_row_encoder_names_it():
    # step by step over every row, 20 (row 0) is the first bad id; in sorted
    # row order [10, 0] would come first
    table = embedding_table_init(9, 4, seed=3)
    fwd, bwd = gru_params_init(4, 3, seed=4), gru_params_init(4, 3, seed=5)
    tokens = np.array([[20, 0], [10, 0], [20, 0], [3, 11]])
    for encoder in (encode_questions_baseline, per_row_encoder):
        with pytest.raises(IndexError, match=r"^token id 20 out of range for vocabulary "
                                             r"of size 9$"):
            encoder(tokens, table, fwd, bwd)


def test_gru_sees_only_the_distinct_questions_of_a_batch(monkeypatch):
    ds = generate_dataset(DataConfig(n_train=400, n_test=10, seed=0))
    batch = length_bucketed_batches(ds.train, 128, seeded_rng(0, 0x5EED, 1))[0]
    tokens = stack_batch(ds.train, batch)[2]
    params = init_model(ModelConfig(seed=0))
    seen = []
    gru_sequence = T.gru_sequence

    def spy(xs, *weights, **kw):
        seen.append(xs.shape)
        return gru_sequence(xs, *weights, **kw)

    monkeypatch.setattr(T, "gru_sequence", spy)
    out = encode_questions_baseline(tokens, params.embedding, params.gru_fwd, params.gru_bwd)
    assert tokens.shape == (128, 4) and len(np.unique(tokens, axis=0)) == 6
    assert seen == [(4, 6, 16)] * 2
    assert out.shape == (128, 64)
