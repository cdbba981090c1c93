import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.encoder import (EmbeddingTable, embed, embedding_table_init,
                            encode_questions_baseline, gru_cell,
                            gru_params_init)
from vqalab.tensor import Tensor


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
        table = EmbeddingTable(Tensor([[1.0, 2.0], [3.0, 4.0]]))
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
        assert not table.vectors.requires_grad
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
        x = Tensor(self.table.vectors.data[[7]])
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
        xs = self.table.vectors.data[ids]          # (B, T, d_w)
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
