import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfind import dataset as ds
from rodfind import encoders as enc
from rodfind import training as tr
from rodfind.errors import TrainingError

import gradcheck as gc
from test_encoders import perturbed_params, tiny_params


def brute_force_mine(dists, ids, margin):
    """Independent enumeration over every (anchor, negative) pair."""
    out = []
    for direction in ("t2s", "s2t"):
        d = dists if direction == "t2s" else dists.T
        for i in range(d.shape[0]):
            d_ap = d[i, i]
            best = None
            # prefer the smallest semi-hard d_an; otherwise smallest overall
            for j in range(d.shape[0]):
                if ids[j] == ids[i]:
                    continue
                is_semi = d_ap < d[i, j] < d_ap + margin
                key = (0 if is_semi else 1, d[i, j], j)
                if best is None or key < best[0]:
                    best = (key, j)
            j = best[1]
            out.append((i, j, direction, tr.classify_triplet(d_ap, d[i, j], margin)))
    return out


def reference_loss_and_gradients(tokens, lengths, grids, ids, tp, sp, config):
    """The trainer's former per-triplet hinge and gradient loops, on the
    brute-force mining: loss and flat gradients of both encoders."""
    temb, tcache = enc.text_apply(tp, tokens, lengths, with_cache=True)
    semb, scache = enc.shape_apply(sp, grids, with_cache=True)
    dists = tr.pairwise_distances(temb, semb)
    n = temb.shape[0]
    sums = {"t2s": 0.0, "s2t": 0.0}
    d_t = np.zeros_like(temb, dtype=np.float64)
    d_s = np.zeros_like(semb, dtype=np.float64)
    t64 = temb.astype(np.float64)
    s64 = semb.astype(np.float64)
    for i, j, direction, _ in brute_force_mine(dists, ids, config.margin):
        if direction == "t2s":
            d_ap, d_an = dists[i, i], dists[i, j]
            weight = 1.0 / n
            anchor, pos, neg = t64[i], s64[i], s64[j]
            g_anchor, g_pos, g_neg = d_t, d_s, d_s
        else:
            d_ap, d_an = dists[i, i], dists[j, i]
            weight = config.mu / n
            anchor, pos, neg = s64[i], t64[i], t64[j]
            g_anchor, g_pos, g_neg = d_s, d_t, d_t
        sums[direction] += tr.triplet_loss(d_ap, d_an, config.margin)
        if d_ap - d_an + config.margin <= 0.0:
            continue  # inactive hinge: exact zero gradient
        if d_ap > 0.0:
            u = (anchor - pos) / d_ap
            g_anchor[i] += weight * u
            g_pos[i] -= weight * u
        if d_an > 0.0:
            v = (anchor - neg) / d_an
            g_anchor[i] -= weight * v
            g_neg[j] += weight * v
    loss = sums["t2s"] / n + config.mu * (sums["s2t"] / n)
    return (loss, enc.text_backward(tp, tcache, d_t.astype(tp.flat.dtype)),
            enc.shape_backward(sp, scache, d_s.astype(sp.flat.dtype)))


class TestPairwiseDistances:
    def test_identical_orthogonal_antipodal(self):
        e = np.eye(3)[:2]
        assert tr.pairwise_distances(e, e)[0, 0] == 0.0
        assert tr.pairwise_distances(e[:1], e[1:])[0, 0] == pytest.approx(np.sqrt(2))
        assert tr.pairwise_distances(e[:1], -e[:1])[0, 0] == pytest.approx(2.0)

    def test_unit_vectors_stay_within_two(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(20, 16))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        s = rng.normal(size=(20, 16))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        d = tr.pairwise_distances(t, s)
        assert (d >= 0).all() and (d <= 2 + 1e-12).all()

    def test_dimension_mismatch(self):
        with pytest.raises(TrainingError, match="disagree"):
            tr.pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))


class TestTripletLoss:
    def test_arithmetic(self):
        assert tr.triplet_loss(0.5, 1.0, 0.2) == 0.0
        assert tr.triplet_loss(1.0, 0.5, 0.2) == pytest.approx(0.7)
        assert tr.triplet_loss(0.7, 0.7, 0.15) == pytest.approx(0.15)

    def test_bounded_by_margin_plus_two(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d_ap, d_an = rng.uniform(0, 2, 2)
            m = rng.uniform(0.01, 1)
            assert 0 <= tr.triplet_loss(d_ap, d_an, m) <= m + 2


class TestClassify:
    def test_spec_examples(self):
        assert tr.classify_triplet(0.1, 0.9, 0.2) == tr.EASY
        assert tr.classify_triplet(0.1, 0.9, 1.0) == tr.SEMI_HARD
        assert tr.classify_triplet(0.9, 0.1, 0.2) == tr.HARD

    def test_boundaries(self):
        assert tr.classify_triplet(0.5, 0.5, 0.2) == tr.HARD
        assert tr.classify_triplet(0.5, 0.7, 0.2) == tr.EASY

    def test_partition_and_loss_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(5000):
            d_ap, d_an = rng.uniform(0, 2, 2)
            margin = rng.uniform(0.01, 1.0)
            kind = tr.classify_triplet(d_ap, d_an, margin)
            if d_an < d_ap:
                assert kind == tr.HARD
            elif d_ap + margin < d_an:
                assert kind == tr.EASY
            elif d_ap < d_an < d_ap + margin:
                assert kind == tr.SEMI_HARD
            loss = tr.triplet_loss(d_ap, d_an, margin)
            assert (loss == 0) == (kind == tr.EASY)


class TestMining:
    def test_two_by_two_example(self):
        d = np.array([[0.1, 0.9], [0.8, 0.2]])
        triplets = tr.mine_semihard(d, ["a", "b"], margin=1.0)
        t2s = [t for t in triplets if t.direction == "t2s"]
        assert [(t.anchor, t.negative, t.kind) for t in t2s] == [
            (0, 1, tr.SEMI_HARD), (1, 0, tr.SEMI_HARD)]

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            d = rng.uniform(0, 2, size=(n, n))
            margin = float(rng.uniform(0.05, 0.8))
            ids = [f"s{i}" for i in range(n)]
            mined = tr.mine_semihard(d, ids, margin)
            expected = brute_force_mine(d, ids, margin)
            assert [(t.anchor, t.negative, t.direction, t.kind) for t in mined] == expected

    def test_fallback_when_everything_is_easy(self):
        # positives at distance 0.1, negatives far beyond the margin band
        d = np.array([[0.1, 1.5, 1.8],
                      [1.9, 0.1, 1.6],
                      [1.7, 1.5, 0.1]])
        triplets = tr.mine_semihard(d, list("abc"), margin=0.2)
        for t in triplets:
            row = d if t.direction == "t2s" else d.T
            negatives = [row[t.anchor, j] for j in range(3) if j != t.anchor]
            assert row[t.anchor, t.negative] == min(negatives)
            assert t.kind == tr.EASY

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_brute_force_under_ties_and_band_edges(self, data):
        # distances and margin on multiples of 0.25: candidates tie, and land
        # exactly on d_ap and on d_ap + margin
        n = data.draw(st.integers(2, 8))
        d = 0.25 * np.array(data.draw(st.lists(st.integers(0, 8), min_size=n * n,
                                               max_size=n * n))).reshape(n, n)
        margin = 0.25 * data.draw(st.integers(1, 4))
        ids = data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n)
                        .filter(lambda ids: len(set(ids)) > 1))
        mined = tr.mine_semihard(d, ids, margin)
        assert [(t.anchor, t.negative, t.direction, t.kind) for t in mined] == \
            brute_force_mine(d, ids, margin)

    def test_batch_of_one_rejected(self):
        with pytest.raises(TrainingError):
            tr.mine_semihard(np.zeros((1, 1)), ["a"], 0.2)

    def test_duplicate_ids_are_not_negatives(self):
        d = np.array([[0.3, 0.4, 1.0],
                      [0.4, 0.3, 1.1],
                      [1.0, 1.1, 0.2]])
        triplets = tr.mine_semihard(d, ["x", "x", "y"], margin=0.5)
        for t in triplets:
            assert t.negative != t.anchor
            assert ["x", "x", "y"][t.negative] != ["x", "x", "y"][t.anchor]


class TestCombinedLoss:
    def test_mu_weighting(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0, 2, size=(4, 4))
        ids = list("abcd")
        total1, t2s, s2t, _ = tr.combined_loss_from_distances(d, ids, 0.2, 1.0)
        assert total1 == pytest.approx(t2s + s2t)
        total0, t2s0, _, _ = tr.combined_loss_from_distances(d, ids, 0.2, 0.0)
        assert total0 == pytest.approx(t2s0) == pytest.approx(t2s)
        total3, _, s2t3, _ = tr.combined_loss_from_distances(d, ids, 0.2, 3.0)
        assert total3 == pytest.approx(t2s + 3.0 * s2t3)
        assert s2t3 == pytest.approx(s2t)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0, 2, size=(6, 6))
        ids = [f"s{i}" for i in range(6)]
        base = tr.combined_loss_from_distances(d, ids, 0.3, 1.0)[0]
        perm = rng.permutation(6)
        shuffled = tr.combined_loss_from_distances(d[np.ix_(perm, perm)],
                                                   [ids[p] for p in perm], 0.3, 1.0)[0]
        assert shuffled == pytest.approx(base)

    def test_transpose_symmetry_at_mu_one(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(0, 2, size=(5, 5))
        ids = [f"s{i}" for i in range(5)]
        a = tr.combined_loss_from_distances(d, ids, 0.25, 1.0)[0]
        b = tr.combined_loss_from_distances(d.T, ids, 0.25, 1.0)[0]
        assert a == pytest.approx(b)

    def test_all_easy_batch_is_zero(self):
        d = np.array([[0.05, 1.5], [1.6, 0.05]])
        total, *_ = tr.combined_loss_from_distances(d, ["a", "b"], 0.2, 1.0)
        assert total == 0.0


class TestGradients:
    def batch(self):
        rng = np.random.default_rng(5)
        tokens = rng.integers(2, 8, size=(2, 8))
        lengths = np.array([5, 7])
        grids = (rng.random((2, 16, 16, 16)) < 0.4).astype(np.float64)
        return tokens, lengths, grids, ["a", "b"]

    def test_loss_matches_forward_only_evaluation(self):
        tp, sp = tiny_params(jitter=7)
        tokens, lengths, grids, ids = self.batch()
        cfg = tr.TrainerConfig(batch_size=2)
        loss, _, _, _ = tr.loss_and_gradients(tokens, lengths, grids, ids, tp, sp, cfg)
        assert loss == pytest.approx(
            tr.combined_loss(tokens, lengths, grids, ids, tp, sp, cfg))

    def test_gradients_match_finite_differences(self):
        # perturbation seed: the first from 21 upward whose batch embeddings
        # are spread and whose +-h stencils cross no kink at any coordinate
        tp, sp = perturbed_params(21)
        tokens, lengths, grids, ids = self.batch()
        cfg = tr.TrainerConfig(batch_size=2)
        gc.assert_spread(enc.text_forward(tp, tokens, lengths), "text")
        gc.assert_spread(enc.shape_forward(sp, grids), "shape")
        loss, tg, sg, _ = tr.loss_and_gradients(tokens, lengths, grids, ids, tp, sp, cfg)
        assert loss > 0  # some hinge is active, so the gradient is not trivially 0

        def total():
            return gc.trainer_loss(tokens, lengths, grids, ids, tp, sp, cfg)

        assert total()[0] == tr.combined_loss(tokens, lengths, grids, ids, tp, sp, cfg)
        worst, _ = gc.check_gradients(
            [(tp.arrays, tp.views(tg)), (sp.arrays, sp.views(sg))], total, h=1e-5, picks=5)
        assert worst < gc.RTOL

    def test_all_easy_batch_has_exactly_zero_gradients(self):
        # drive a strongly perturbed instance to the all-easy state at a 1e-3
        # margin with plain gradient steps, then check that state
        tp, sp = perturbed_params(21)
        rng = np.random.default_rng(1021)
        tokens = rng.integers(2, 8, size=(2, 8))
        lengths = np.array([5, 7])
        grids = (rng.random((2, 16, 16, 16)) < 0.4).astype(np.float64)
        cfg = tr.TrainerConfig(batch_size=2, margin=1e-3)
        for _ in range(200):
            _, tg, sg, stats = tr.loss_and_gradients(tokens, lengths, grids,
                                                     ["a", "b"], tp, sp, cfg)
            if all(t.kind == tr.EASY for t in stats["triplets"]):
                break
            tp.flat -= 0.1 * tg
            sp.flat -= 0.1 * sg
        loss, tg, sg, stats = tr.loss_and_gradients(tokens, lengths, grids,
                                                    ["a", "b"], tp, sp, cfg)
        assert all(t.kind == tr.EASY for t in stats["triplets"]), "precondition"
        assert loss == 0.0
        for grad in (tg, sg):
            assert (grad == 0).all()

    def test_mu_scales_s2t_gradient_contribution(self):
        tp, sp = tiny_params(jitter=7)
        tokens, lengths, grids, ids = self.batch()
        base = tr.TrainerConfig(batch_size=2, mu=0.0)
        doubled = tr.TrainerConfig(batch_size=2, mu=2.0)
        _, tg0, _, _ = tr.loss_and_gradients(tokens, lengths, grids, ids, tp, sp, base)
        _, tg2, _, _ = tr.loss_and_gradients(tokens, lengths, grids, ids, tp, sp, doubled)
        _, tg1, _, _ = tr.loss_and_gradients(tokens, lengths, grids, ids, tp, sp,
                                             tr.TrainerConfig(batch_size=2, mu=1.0))
        s2t_part = tg1 - tg0
        assert np.allclose(tg2, tg0 + 2.0 * s2t_part, atol=1e-12)

    def test_matches_the_per_triplet_reference_at_batch_shapes(self):
        rng = np.random.default_rng(31)
        for trial in range(150):
            n = int(rng.integers(2, 9))
            # 2 to n distinct ids, so some anchors share their id with others
            ids = [f"s{c}" for c in rng.permutation(np.arange(n) % rng.integers(2, n + 1))]
            tokens = rng.integers(2, 8, size=(n, 8))
            lengths = rng.integers(1, 9, size=n)
            grids = (rng.random((n, 16, 16, 16)) < 0.4).astype(np.float64)
            tp, sp = perturbed_params(100 + trial)
            cfg = tr.TrainerConfig(batch_size=n, margin=float(rng.uniform(0.05, 1.5)),
                                   mu=float(rng.uniform(0.0, 2.0)))
            loss, tg, sg, _ = tr.loss_and_gradients(tokens, lengths, grids, ids, tp, sp, cfg)
            ref_loss, ref_tg, ref_sg = reference_loss_and_gradients(
                tokens, lengths, grids, ids, tp, sp, cfg)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
            # relative to the joint gradient; where the loss is locally constant
            # (a batch whose text embeddings coincide) the reference cancels to
            # exactly 0 and the matrix form to ~1e-18, so the scale there is
            # the embedding gradients' own, the largest hinge weight
            got, want = np.concatenate([tg, sg]), np.concatenate([ref_tg, ref_sg])
            scale = np.abs(want).max() or max(1.0, cfg.mu) / n
            assert np.abs(got - want).max() <= 1e-12 * scale


class TestOptimizer:
    STEPS = 5
    SIZE = 133  # a conv-like weight, a bias and a dense weight, as one buffer

    def test_adam_matches_a_float64_reference(self):
        cfg = tr.TrainerConfig(learning_rate=1e-2, optimizer="adam")
        rng = np.random.default_rng(12)
        flat = rng.standard_normal(self.SIZE).astype(np.float32)
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        ref = flat.astype(np.float64)
        m64, v64 = np.zeros_like(ref), np.zeros_like(ref)
        eps32 = np.finfo(np.float32).eps
        for t in range(1, self.STEPS + 1):
            grad = rng.standard_normal(self.SIZE).astype(np.float32)
            tr._update(flat, grad, m, v, t, cfg)
            g = grad.astype(np.float64)
            m64 = cfg.beta1 * m64 + (1 - cfg.beta1) * g
            v64 = cfg.beta2 * v64 + (1 - cfg.beta2) * g * g
            m_hat = m64 / (1 - cfg.beta1 ** t)
            v_hat = v64 / (1 - cfg.beta2 ** t)
            # Kingma & Ba's efficient form folds both corrections into the
            # step size, which puts eps on sqrt(v) instead of sqrt(v_hat)
            eps_hat = cfg.eps / np.sqrt(1 - cfg.beta2 ** t)
            ref -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps_hat)
            assert flat.dtype == np.float32
            # float32 rounding of the parameter and of the step, per step
            tol = 2 * t * eps32 * (np.abs(ref) + cfg.learning_rate)
            assert (np.abs(flat - ref) <= tol).all()

    def test_sgd_step_is_lr_times_gradient(self):
        cfg = tr.TrainerConfig(learning_rate=0.3, optimizer="sgd")
        rng = np.random.default_rng(13)
        flat = rng.standard_normal(self.SIZE).astype(np.float32)
        before = flat.copy()
        grad = rng.standard_normal(self.SIZE).astype(np.float32)
        tr._update(flat, grad, np.zeros_like(flat), np.zeros_like(flat), 1, cfg)
        assert flat.dtype == np.float32
        assert np.array_equal(flat, before - cfg.learning_rate * grad)

    @staticmethod
    def unblocked_update(flat, grad, m, v, step, config):
        """The update as one pass over whole buffers."""
        if config.optimizer == "sgd":
            flat -= config.learning_rate * grad
            return
        b1, b2 = config.beta1, config.beta2
        lr = float(config.learning_rate) * math.sqrt(1.0 - b2 ** step) / (1.0 - b1 ** step)
        m *= b1
        m += np.multiply(grad, 1.0 - b1)
        v *= b2
        v += np.multiply(grad, 1.0 - b2) * grad
        flat -= lr * (m / (np.sqrt(v) + config.eps))

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_blocked_update_is_bitwise_one_unblocked_pass(self, optimizer):
        cfg = tr.TrainerConfig(learning_rate=1e-2, optimizer=optimizer)
        rng = np.random.default_rng(14)
        size = 2 * tr.UPDATE_BLOCK + 12_345  # two whole blocks and a part
        blocked = [rng.standard_normal(size).astype(np.float32), np.zeros(size, np.float32),
                   np.zeros(size, np.float32)]
        whole = [a.copy() for a in blocked]
        for t in range(1, self.STEPS + 1):
            grad = rng.standard_normal(size).astype(np.float32)
            tr._update(blocked[0], grad, *blocked[1:], t, cfg)
            self.unblocked_update(whole[0], grad, *whole[1:], t, cfg)
            for a, b in zip(blocked, whole):
                assert a.dtype == np.float32 and np.array_equal(a, b)


class TestFit:
    def corpus(self):
        return ds.generate_variants(bases=1, per_base=6, seed=5)

    def test_zero_learning_rate_leaves_params_bitwise_unchanged(self):
        samples = self.corpus()
        cfg = tr.TrainerConfig(batch_size=3, learning_rate=0.0, epochs=2, seed=1)
        result = tr.fit(samples, [], cfg)
        fresh_t, fresh_s = enc.init_params(result.vocab.size, cfg.seed,
                                           enc.TextEncoderConfig(result.vocab.size))
        assert np.array_equal(result.text_params.flat, fresh_t.flat)
        assert np.array_equal(result.shape_params.flat, fresh_s.flat)

    def test_logged_losses_nonnegative_and_complete(self):
        samples = self.corpus()
        cfg = tr.TrainerConfig(batch_size=3, learning_rate=1e-4, epochs=3, seed=2)
        result = tr.fit(samples, samples[:2], cfg)
        assert [row.epoch for row in result.log] == [1, 2, 3]
        assert all(row.train_loss >= 0 for row in result.log)
        assert all(0 <= row.val_recall1 <= 1 for row in result.log)

    def test_same_seed_reproduces_parameters(self):
        samples = self.corpus()
        cfg = tr.TrainerConfig(batch_size=3, learning_rate=1e-4, epochs=2, seed=3)
        a = tr.fit(samples, [], cfg)
        b = tr.fit(samples, [], cfg)
        assert np.array_equal(a.text_params.flat, b.text_params.flat)

    def test_empty_train_set_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            tr.fit([], [], tr.TrainerConfig())

    def test_single_sample_rejected(self):
        with pytest.raises(TrainingError, match="at least 2 samples"):
            tr.fit(self.corpus()[:1], [], tr.TrainerConfig())


class TestRecall:
    def test_perfect_alignment_gives_recall_one(self):
        rng = np.random.default_rng(7)
        embs = rng.normal(size=(10, 8))
        embs /= np.linalg.norm(embs, axis=1, keepdims=True)
        ids = [f"s{i:02d}" for i in range(10)]
        assert tr.recall_from_embeddings(embs, embs, ids, 1) == 1.0

    def test_random_embeddings_hit_one_over_gallery(self):
        rng = np.random.default_rng(8)
        gallery = 10
        trials = 400
        hits = 0.0
        for _ in range(trials):
            t = rng.normal(size=(gallery, 16))
            t /= np.linalg.norm(t, axis=1, keepdims=True)
            s = rng.normal(size=(gallery, 16))
            s /= np.linalg.norm(s, axis=1, keepdims=True)
            ids = [f"s{i:02d}" for i in range(gallery)]
            hits += tr.recall_from_embeddings(t, s, ids, 1)
        mean = hits / trials
        p = 1.0 / gallery
        sigma = math.sqrt(p * (1 - p) / (trials * gallery))
        assert abs(mean - p) < 3 * sigma

    def test_monotone_in_k_and_total_at_gallery_size(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(8, 6))
        s = rng.normal(size=(8, 6))
        ids = [f"s{i}" for i in range(8)]
        values = [tr.recall_from_embeddings(t, s, ids, k) for k in range(1, 9)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_ties_break_by_ascending_id(self):
        texts = np.array([[1.0, 0.0], [0.0, 1.0]])
        shapes = np.array([[1.0, 0.0], [1.0, 0.0]])  # both texts see a tie or not
        # text 0 is at distance 0 from both shapes; the tie resolves to id "a"
        # (gallery index 1), so text 0 misses and text 1 hits
        assert tr.recall_from_embeddings(texts, shapes, ["b", "a"], 1) == 0.5

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 12), levels=st.integers(1, 3), k=st.integers(1, 12),
           seed=st.integers(0, 2 ** 16))
    def test_matches_a_full_sort_per_row_under_ties(self, n, levels, k, seed):
        # embeddings on a coarse lattice repeat, so many distances tie
        rng = np.random.default_rng(seed)
        t = rng.integers(0, levels + 1, size=(n, 2)).astype(np.float64)
        s = rng.integers(0, levels + 1, size=(n, 2)).astype(np.float64)
        ids = [f"s{i:02d}" for i in rng.permutation(n)]
        dists = tr.pairwise_distances(t, s)
        hits = 0
        for i in range(n):
            order = sorted(range(n), key=lambda j: (dists[i, j], ids[j]))
            hits += i in order[:k]
        assert tr.recall_from_embeddings(t, s, ids, k) == hits / n

    def test_empty_eval_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            tr.recall_from_embeddings(np.zeros((0, 4)), np.zeros((0, 4)), [], 1)
