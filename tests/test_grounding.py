import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.encoder import embedding_table_init, gru_cell, gru_params_init
from vqalab.fusion import block_fuse, block_params_init
from vqalab.grounding import (VgwParams, encode_question_vgqe, encode_questions_vgqe,
                              grounded_words, trace_records, vgw_attention,
                              vgw_params_init)
from vqalab.tensor import Tensor

D_V, D_W, D_REF, D_G, HIDDEN = 4, 4, 3, 4, 3


def make_vgw(seed=0):
    return vgw_params_init(d_v=D_V, d_w=D_W, refined_dim=D_REF, grounded_dim=D_G,
                           fusion_proj=4, fusion_out_proj=4, chunks=2, rank=2,
                           seed=seed)


def make_vgqe(seed=0):
    """The grounded encoder's parts: (vgw, forward GRU, backward GRU)."""
    return (make_vgw(seed), gru_params_init(D_G, HIDDEN, seed=seed + 100),
            gru_params_init(D_G, HIDDEN, seed=seed + 200))


def make_scenes(rng, batch=2, k=3):
    """Visual (B, k, d_v) and label (B, k, d_w) arrays."""
    return rng.normal(size=(batch, k, D_V)), rng.normal(size=(batch, k, D_W))


def attend_rows(visual, labels, words, p: VgwParams):
    return vgw_attention(labels, words, p.score_column(), visual)


def ground(visual, labels, words, p: VgwParams):
    """Grounded words (B, D_G) for one (B, d_w) word per row."""
    g, _ = grounded_words(visual, labels, Tensor(words), p)
    return g.data


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def attention_oracle(labels, visual, word, vec, mat):
    """Independent dense evaluation of the scoring rule for one scene."""
    scores = np.array([vec @ (mat @ (labels[i] * word)) for i in range(len(labels))])
    alpha = softmax_np(scores)
    return alpha, alpha @ visual


def fuse_oracle(attended, word, p: VgwParams):
    """Independent dense evaluation of refine + block fusion, row-wise."""
    refined = np.maximum(word @ p.refine_hidden.weight.data + p.refine_hidden.bias.data, 0)
    refined = refined @ p.refine_out.weight.data + p.refine_out.bias.data
    f = p.fusion
    px = attended @ f.proj_x.weight.data + f.proj_x.bias.data
    py = refined @ f.proj_y.weight.data + f.proj_y.bias.data
    parts = []
    lo = 0
    for fx, fy in zip(f.factors_x, f.factors_y):
        hi, width = lo + fx.d_in, fx.d_out // f.rank
        acc = 0.0
        for r in range(f.rank):
            cols = slice(r * width, (r + 1) * width)
            acc = acc + (px[..., lo:hi] @ fx.weight.data[:, cols] + fx.bias.data[cols]) \
                      * (py[..., lo:hi] @ fy.weight.data[:, cols] + fy.bias.data[cols])
        parts.append(acc)
        lo = hi
    return np.concatenate(parts, axis=-1) @ f.proj_out.weight.data + f.proj_out.bias.data


def gru_oracle(x, h, p):
    s = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = s(x @ p.w_update.data + h @ p.u_update.data + p.b_update.data)
    r = s(x @ p.w_reset.data + h @ p.u_reset.data + p.b_reset.data)
    cand = np.tanh(x @ p.w_cand.data + (r * h) @ p.u_cand.data + p.b_cand.data)
    return (1.0 - z) * h + z * cand


def encoding_oracle(visual, labels, words, vgw, forward, backward):
    """Dense evaluation of the grounded encoder: words is (B, T, d_w)."""
    batch, length = words.shape[:2]
    halves = []
    for rnn, steps in ((forward, range(length)), (backward, range(length - 1, -1, -1))):
        h = np.zeros((batch, HIDDEN))
        for t in steps:
            attended = np.stack([
                attention_oracle(labels[b], visual[b], words[b, t],
                                 vgw.attn_vector.data, vgw.attn_matrix.data)[1]
                for b in range(batch)])
            h = gru_oracle(fuse_oracle(attended, words[:, t], vgw), h, rnn)
        halves.append(h)
    return np.concatenate(halves, axis=1)


class TestAttention:
    def test_single_object_gets_all_weight(self):
        rng = np.random.default_rng(0)
        visual, labels = make_scenes(rng, k=1)
        alpha, attended = attend_rows(visual, labels, rng.normal(size=(2, D_W)), make_vgw())
        assert np.allclose(alpha.data, 1.0)
        assert np.allclose(attended.data, visual[:, 0])

    def test_identical_labels_give_uniform_weights(self):
        rng = np.random.default_rng(1)
        label = rng.normal(size=D_W)
        visual = rng.normal(size=(2, 4, D_V))
        labels = np.tile(label, (2, 4, 1))
        alpha, attended = attend_rows(visual, labels, rng.normal(size=(2, D_W)), make_vgw())
        assert np.allclose(alpha.data, 0.25)
        assert np.allclose(attended.data, visual.mean(axis=1))

    def test_hand_evaluated_two_object_case(self):
        visual = np.array([[[1.0, 0.0], [0.0, 2.0]]])
        labels = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        word = np.array([[1.0, 1.0]])
        # a = (1, 0) and M = I score with the column (a^T M)^T = (1, 0)^T
        alpha, attended = vgw_attention(labels, word, Tensor([[1.0], [0.0]]), visual)
        e = np.e
        want_alpha = np.array([e / (e + 1), 1 / (e + 1)])
        assert np.max(np.abs(alpha.data[0] - want_alpha)) < 1e-5
        want_f = want_alpha[0] * visual[0, 0] + want_alpha[1] * visual[0, 1]
        assert np.max(np.abs(attended.data[0] - want_f)) < 1e-5

    def test_matches_independent_dense_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            visual, labels = make_scenes(rng, batch=3)
            words = rng.normal(size=(3, D_W))
            p = make_vgw(seed)
            alpha, attended = attend_rows(visual, labels, words, p)
            for b in range(3):
                want_a, want_f = attention_oracle(labels[b], visual[b], words[b],
                                                  p.attn_vector.data, p.attn_matrix.data)
                assert np.max(np.abs(alpha.data[b] - want_a)) < 1e-12
                assert np.max(np.abs(attended.data[b] - want_f)) < 1e-12

    def test_weights_positive_and_normalized(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            visual, labels = make_scenes(rng, k=5)
            alpha, _ = attend_rows(visual, labels, rng.normal(size=(2, D_W)), make_vgw(seed))
            assert np.all(alpha.data > 0)
            assert np.max(np.abs(alpha.data.sum(axis=1) - 1.0)) < 1e-6

    def test_convex_combination_bounds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            visual, labels = make_scenes(rng, k=4)
            _, attended = attend_rows(visual, labels, rng.normal(size=(2, D_W)),
                                      make_vgw(seed))
            lo = visual.min(axis=1) - 1e-12
            hi = visual.max(axis=1) + 1e-12
            assert np.all(attended.data >= lo) and np.all(attended.data <= hi)

    def test_empty_scene_rejected(self):
        table = embedding_table_init(12, D_W, seed=1)
        with pytest.raises(T.ShapeError, match="at least one object"):
            encode_questions_vgqe(np.zeros((2, 0, D_V)), np.zeros((2, 0, D_W)),
                                  np.array([[1], [2]]), table, *make_vgqe())

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        visual, labels = make_scenes(rng)
        with pytest.raises(T.ShapeError):
            attend_rows(visual, labels, rng.normal(size=(2, D_W + 1)), make_vgw())
        with pytest.raises(T.ShapeError):
            attend_rows(visual[0], labels[0], rng.normal(size=D_W), make_vgw())
        with pytest.raises(T.ShapeError, match="score column"):
            vgw_attention(labels, rng.normal(size=(2, D_W)), Tensor(np.ones((D_W + 1, 1))),
                          visual)

    def test_step_major_rows_match_one_call_per_step(self):
        rng = np.random.default_rng(24)
        visual, labels = make_scenes(rng, batch=3, k=4)
        words = rng.normal(size=(5 * 3, D_W))
        p = make_vgw(9)
        alpha, attended = attend_rows(visual, labels, words, p)
        assert alpha.shape == (15, 4) and not alpha.requires_grad
        for t in range(5):
            a_t, f_t = attend_rows(visual, labels, words[3 * t:3 * (t + 1)], p)
            assert np.max(np.abs(alpha.data[3 * t:3 * (t + 1)] - a_t.data)) < 1e-12
            assert np.max(np.abs(attended.data[3 * t:3 * (t + 1)] - f_t.data)) < 1e-12

    def test_one_word_over_one_scene(self):
        # the trace helper's shape: a (1, k, *) scene and one word row
        rng = np.random.default_rng(25)
        visual, labels = make_scenes(rng, batch=1, k=5)
        word = rng.normal(size=(1, D_W))
        p = make_vgw(10)
        alpha, attended = attend_rows(visual, labels, word, p)
        want_a, want_f = attention_oracle(labels[0], visual[0], word[0],
                                          p.attn_vector.data, p.attn_matrix.data)
        assert alpha.shape == (1, 5) and attended.shape == (1, D_V)
        assert np.max(np.abs(alpha.data[0] - want_a)) < 1e-12
        assert np.max(np.abs(attended.data[0] - want_f)) < 1e-12

    def test_labels_with_gradient_rejected(self):
        rng = np.random.default_rng(26)
        visual, labels = make_scenes(rng)
        with pytest.raises(T.ShapeError, match="labels are scene data"):
            attend_rows(visual, Tensor(labels, requires_grad=True),
                        rng.normal(size=(2, D_W)), make_vgw())

    def test_rows_not_a_multiple_of_scenes_rejected(self):
        rng = np.random.default_rng(27)
        visual, labels = make_scenes(rng, batch=2)
        with pytest.raises(T.ShapeError, match="not step-major rows of 2 scenes"):
            attend_rows(visual, labels, rng.normal(size=(3, D_W)), make_vgw())


class TestVgwFuse:
    """The fusion half of the grounded-word module, seen through singleton
    scenes, where attention puts all weight on the one object."""

    def test_zero_visual_with_flags_off_gives_zero(self):
        p = make_vgw()
        p.fusion = block_params_init(D_V, D_REF, 4, 4, D_G, 2, 2, seed=0)
        for name, t in p.fusion.named_arrays():
            if name.endswith(".bias"):
                t.data[...] = 0.0
        rng = np.random.default_rng(3)
        out = ground(np.zeros((2, 1, D_V)), rng.normal(size=(2, 1, D_W)),
                     rng.normal(size=(2, D_W)), p)
        assert np.allclose(out, 0.0)

    def test_distinct_visuals_give_distinct_groundings(self):
        # desk-scale dims; tiny output dims make cosines unstable
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = vgw_params_init(d_v=32, d_w=16, refined_dim=16, grounded_dim=32,
                                fusion_proj=32, fusion_out_proj=32, chunks=4,
                                rank=3, seed=seed)
            word = rng.normal(size=(1, 16))
            labels = rng.normal(size=(1, 1, 16))
            a = ground(rng.normal(size=(1, 1, 32)), labels, word, p)[0]
            b = ground(rng.normal(size=(1, 1, 32)), labels, word, p)[0]
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)
            assert cos < 0.999

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        p = make_vgw()
        visual, labels = make_scenes(rng, k=1)
        words = rng.normal(size=(2, D_W))
        assert np.array_equal(ground(visual, labels, words, p),
                              ground(visual, labels, words, p))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        p = make_vgw(7)
        visual, labels = make_scenes(rng, batch=3, k=1)
        words = rng.normal(size=(3, D_W))
        got = ground(visual, labels, words, p)
        assert np.max(np.abs(got - fuse_oracle(visual[:, 0], words, p))) < 1e-12


class TestOnePassGrounding:
    """`grounded_words` grounds all T*B step-major word rows in one pass; it
    matches grounding each timestep's (B, d_w) words on their own, forward
    and backward."""

    @staticmethod
    def gradients(ground_fn, vgw, probe):
        """Grounded rows, attention rows and loss gradients of a grounding that
        returns (grounded, attention, word leaves) lists, one entry per pass."""
        leaves = [t for _, t in vgw.named_arrays()]
        for t in leaves:
            t.grad = None
        with T.recording():
            grounded, alphas, words = ground_fn()
            rows = np.cumsum([0] + [g.shape[0] for g in grounded])
            loss = None
            for g, lo, hi in zip(grounded, rows[:-1], rows[1:]):
                term = T.mul(g, Tensor(probe[lo:hi])).sum()
                loss = term if loss is None else T.add(loss, term)
            T.backward(loss)
        return (np.concatenate([g.data for g in grounded]),
                np.concatenate([a.data for a in alphas]),
                [np.concatenate([w.grad for w in words])] + [t.grad for t in leaves])

    @pytest.mark.parametrize("steps", [1, 3])
    def test_matches_per_word_grounding(self, steps):
        rng = np.random.default_rng(20 + steps)
        vgw = make_vgw(seed=steps)
        visual, labels = make_scenes(rng, batch=2, k=3)
        words = rng.normal(size=(steps * 2, D_W))
        probe = rng.normal(size=(steps * 2, D_G))

        def one_pass():
            leaf = Tensor(words, requires_grad=True)
            g, alpha = grounded_words(visual, labels, leaf, vgw)
            return [g], [alpha], [leaf]

        def per_word():
            column = vgw.score_column()
            leaves = [Tensor(words[t * 2:(t + 1) * 2], requires_grad=True)
                      for t in range(steps)]
            grounded, alphas = [], []
            for word in leaves:
                alpha, attended = vgw_attention(labels, word, column, visual)
                refined = vgw.refine_out(T.relu(vgw.refine_hidden(word)))
                grounded.append(block_fuse(attended, refined, vgw.fusion))
                alphas.append(alpha)
            return grounded, alphas, leaves

        out_1, alpha_1, grads_1 = self.gradients(one_pass, vgw, probe)
        out_n, alpha_n, grads_n = self.gradients(per_word, vgw, probe)
        assert np.max(np.abs(out_1 - out_n)) < 1e-12
        assert np.max(np.abs(alpha_1 - alpha_n)) < 1e-12
        for g_1, g_n in zip(grads_1, grads_n, strict=True):
            assert np.max(np.abs(g_1 - g_n)) < 1e-12

    def test_rows_not_step_major_rejected(self):
        rng = np.random.default_rng(23)
        visual, labels = make_scenes(rng, batch=2)
        with pytest.raises(T.ShapeError, match="step-major"):
            grounded_words(visual, labels, Tensor(rng.normal(size=(3, D_W))), make_vgw())


class TestCellStep:
    """One grounded recurrence step: a one-token question."""

    def setup_method(self):
        self.table = embedding_table_init(12, D_W, seed=1)

    def test_zero_gru_weights_ignore_everything(self):
        p = make_vgqe()
        for _, t in p[1].named_arrays():
            t.data[:] = 0.0
        rng = np.random.default_rng(6)
        visual, labels = make_scenes(rng)
        enc, _ = encode_questions_vgqe(visual, labels, np.array([[3], [5]]), self.table, *p)
        assert np.allclose(enc.data[:, :HIDDEN], 0.0)

    def test_singleton_scene_equals_direct_visual(self):
        rng = np.random.default_rng(7)
        vgw, forward, backward = make_vgqe(seed=2)
        visual, labels = make_scenes(rng, k=1)
        tokens = np.array([[4], [9]])
        enc, attention = encode_questions_vgqe(visual, labels, tokens, self.table,
                                               vgw, forward, backward)
        words = self.table.data[tokens[:, 0]]
        direct = fuse_oracle(visual[:, 0], words, vgw)
        want = gru_oracle(direct, np.zeros((2, HIDDEN)), forward)
        assert attention.shape == (1, 2, 1) and np.allclose(attention, 1.0)
        assert np.max(np.abs(enc.data[:, :HIDDEN] - want)) < 1e-12

    def test_matches_composition_of_suboracles(self):
        # two steps, so the second one starts from a nonzero state
        rng = np.random.default_rng(8)
        p = make_vgqe(seed=3)
        visual, labels = make_scenes(rng, k=3)
        tokens = np.array([[4, 1], [0, 7]])
        got, _ = encode_questions_vgqe(visual, labels, tokens, self.table, *p)
        want = encoding_oracle(visual, labels, self.table.data[tokens], *p)
        assert np.max(np.abs(got.data - want)) < 1e-12

    def test_backward_direction_uses_backward_rnn(self):
        rng = np.random.default_rng(9)
        p = make_vgqe(seed=4)
        visual, labels = make_scenes(rng)
        enc, _ = encode_questions_vgqe(visual, labels, np.array([[2], [6]]), self.table, *p)
        assert not np.allclose(enc.data[:, :HIDDEN], enc.data[:, HIDDEN:])


class TestEncoder:
    def setup_method(self):
        self.table = embedding_table_init(12, D_W, seed=1)
        self.params = make_vgqe(seed=5)

    def encode(self, visual, labels, tokens):
        """(encoding (B, 2H), attention (T, B, k))."""
        return encode_questions_vgqe(visual, labels, np.asarray(tokens), self.table,
                                     *self.params)

    def test_scene_sensitivity(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            tokens = np.tile(rng.integers(0, 12, size=4), (2, 1))
            enc = self.encode(*make_scenes(rng), tokens)[0].data
            if np.max(np.abs(enc[0] - enc[1])) > 1e-6:
                hits += 1
        assert hits == 20

    def test_object_permutation_invariance(self):
        rng = np.random.default_rng(10)
        visual, labels = make_scenes(rng, k=4)
        tokens = [[1, 5, 3], [2, 2, 0]]
        enc, attention = self.encode(visual, labels, tokens)
        perm = rng.permutation(4)
        enc_p, attention_p = self.encode(visual[:, perm], labels[:, perm], tokens)
        assert np.max(np.abs(enc.data - enc_p.data)) <= 1e-9
        assert np.max(np.abs(attention[..., perm] - attention_p)) <= 1e-9

    def test_single_token_reduces_to_cell_step(self):
        rng = np.random.default_rng(11)
        visual, labels = make_scenes(rng)
        enc = self.encode(visual, labels, [[4], [4]])[0].data
        vgw, forward, backward = self.params
        word = Tensor(self.table.data[[4, 4]])
        g, _ = grounded_words(visual, labels, word, vgw)
        zero = Tensor(np.zeros((2, HIDDEN)))
        f = gru_cell(g, zero, forward).data
        b = gru_cell(g, zero, backward).data
        assert np.max(np.abs(enc - np.concatenate([f, b], axis=1))) < 1e-12

    def test_trace_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        visual, labels = make_scenes(rng, batch=1, k=5)
        _, trace = encode_question_vgqe(visual[0], labels[0], [0, 1, 2],
                                        self.table, *self.params)
        assert trace.shape == (3, 5)
        assert np.max(np.abs(trace.sum(axis=1) - 1.0)) < 1e-6

    def test_trace_helper_matches_batched_row(self):
        # one grounding per word, read by both directions: one (T, k) trace
        rng = np.random.default_rng(18)
        visual, labels = make_scenes(rng, k=4)
        tokens = [[3, 1, 4], [1, 5, 9]]
        enc, attention = self.encode(visual, labels, tokens)
        one, trace = encode_question_vgqe(visual[1], labels[1], tokens[1],
                                          self.table, *self.params)
        assert np.max(np.abs(one - enc.data[1])) < 1e-12
        assert trace.shape == (3, 4)
        assert np.max(np.abs(trace - attention[:, 1])) < 1e-12

    def test_empty_question_rejected(self):
        rng = np.random.default_rng(14)
        visual, labels = make_scenes(rng)
        with pytest.raises(ValueError):
            self.encode(visual, labels, np.zeros((2, 0), dtype=int))
        with pytest.raises(ValueError):
            encode_question_vgqe(visual[0], labels[0], [], self.table, *self.params)

    def test_malformed_scene_rejected(self):
        rng = np.random.default_rng(19)
        visual, labels = make_scenes(rng, k=3)
        with pytest.raises(T.ShapeError, match="disagree"):
            self.encode(visual, labels[:, :2], [[1], [2]])
        with pytest.raises(T.ShapeError, match="disagree"):
            self.encode(visual[0], labels[0], [[1]])
        visual[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            self.encode(visual, labels, [[1], [2]])

    @pytest.mark.parametrize("scenes,rows", [(1, 2), (2, 1)])
    def test_token_rows_must_match_scenes(self, scenes, rows):
        visual, labels = make_scenes(np.random.default_rng(20), batch=scenes)
        with pytest.raises(T.ShapeError) as err:
            self.encode(visual, labels, np.ones((rows, 2), dtype=np.int64))
        assert str(err.value) == f"{rows} token rows for {scenes} scenes"

    def test_trace_records_schema(self):
        rng = np.random.default_rng(15)
        visual, labels = make_scenes(rng, batch=1)
        _, trace = encode_question_vgqe(visual[0], labels[0], [0, 1, 2],
                                        self.table, *self.params)
        rec = trace_records("q-7", trace)
        assert sorted(rec) == ["question_id", "weights"]
        assert rec["question_id"] == "q-7"
        assert rec["weights"] == trace.tolist()
        assert len(rec["weights"]) == 3 and len(rec["weights"][0]) == 3


class TestGradients:
    def check_all_parameters(self, p, tokens, seed):
        rng = np.random.default_rng(seed)
        visual, labels = make_scenes(rng, k=3)
        table = embedding_table_init(9, D_W, seed=2)
        probe = Tensor(rng.normal(size=(2, 2 * HIDDEN)))

        def loss():
            enc, _ = encode_questions_vgqe(visual, labels, tokens, table, *p)
            return T.mul(enc, probe).sum()

        return max(T.grad_check(lambda t: loss(), t)
                   for part in p for _, t in part.named_arrays())

    def test_full_cell_over_all_parameters(self):
        assert self.check_all_parameters(make_vgqe(seed=6), np.array([[1], [5]]), 16) < 1e-4

    def test_end_to_end_encoding_over_all_parameters(self):
        p = make_vgqe(seed=8)
        assert self.check_all_parameters(p, np.array([[1, 7, 3], [0, 2, 8]]), 17) < 1e-4
