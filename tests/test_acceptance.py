"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance, printing one PASS line per criterion (visible with pytest -s).

The desk-scale training criterion (9) trains a real model for up to 100
epochs and dominates the suite's runtime (about ten minutes on one CPU
core); every other criterion finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from rodfind import dataset as ds
from rodfind import doe
from rodfind import encoders as enc
from rodfind import geometry as geo
from rodfind import retrieval as rt
from rodfind import training as tr
from rodfind import parse_text

import gradcheck as gc
from test_doe import (TABLE2_RESPONSES, TABLE3_RESPONSES, TABLE4_RESPONSES,
                      table2_design, table3_design, table4_design)
from test_training import brute_force_mine
from conftest import random_mesh


def report(number, message):
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_table2_range_analysis_oracle():
    started = time.perf_counter()
    ra = doe.range_analysis(table2_design(), TABLE2_RESPONSES)
    expected_sums = [(114.99, 155.00, 177.34), (82.21, 191.48, 173.64),
                     (144.24, 150.51, 152.58), (117.20, 182.59, 147.54)]
    for sums, expected in zip(ra.level_sums, expected_sums):
        assert sums == pytest.approx(expected, abs=0.01)
    assert ra.ranges == pytest.approx((62.35, 109.27, 8.34, 65.39), abs=0.01)
    assert ra.order_string == "B > D > A > C"
    assert ra.grand_total == pytest.approx(447.33, abs=0.01)
    assert ra.best_combination == "A3B2C3D2"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"first-experiment T/R/order/best reproduced in {elapsed * 1e3:.0f} ms")


def test_criterion_02_table4_table5_oracle():
    ra = doe.range_analysis(table4_design(), TABLE4_RESPONSES)
    assert ra.level_sums[0] == pytest.approx((327.41, 376.27), abs=0.01)
    assert ra.level_sums[1] == pytest.approx((363.90, 339.78), abs=0.01)
    assert ra.level_sums[2] == pytest.approx((381.53, 322.15), abs=0.01)
    assert ra.ranges == pytest.approx((48.86, 24.12, 59.38), abs=0.01)
    assert ra.level_means[0] == pytest.approx((81.85, 94.07), abs=0.01)
    assert ra.level_means[1] == pytest.approx((90.97, 84.94), abs=0.01)
    assert ra.level_means[2] == pytest.approx((95.38, 80.54), abs=0.01)
    assert ra.deltas == pytest.approx((12.22, 6.03, 14.84), abs=0.01)
    assert ra.order_string == "C > A > B"
    assert ra.best_combination == "A2B1C1"
    report(2, "third-experiment T, R, level means, delta, order, best level")


def test_criterion_03_anova_oracle():
    started = time.perf_counter()
    table = doe.anova(table4_design(), TABLE4_RESPONSES)
    assert [r.ss for r in table.factor_rows] == pytest.approx(
        (298.41, 72.72, 440.75), abs=0.01)
    assert table.error_row.ss == pytest.approx(434.70, abs=0.01)
    assert table.error_row.df == 4
    assert table.total_row.ss == pytest.approx(1246.58, abs=0.01)
    assert table.error_row.ms == pytest.approx(108.68, abs=0.01)
    assert [r.f for r in table.factor_rows] == pytest.approx(
        (2.75, 0.67, 4.06), abs=0.01)
    assert [r.p for r in table.factor_rows] == pytest.approx(
        (0.173, 0.459, 0.114), abs=0.002)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, f"variance analysis SS/df/MS/F/p reproduced in {elapsed * 1e3:.0f} ms")


def test_criterion_04_table3_sum_consistent_assignment():
    ra = doe.range_analysis(table3_design(), TABLE3_RESPONSES)
    expected_sums = [(216.74, 203.21, 291.18, 324.13),
                     (303.33, 235.22, 266.24, 230.47),
                     (259.08, 237.28, 295.07, 243.83),
                     (257.95, 284.95, 243.19, 249.17)]
    for sums, expected in zip(ra.level_sums, expected_sums):
        assert sums == pytest.approx(expected, abs=0.01)
    assert ra.ranges == pytest.approx((120.92, 72.86, 57.79, 41.76), abs=0.01)
    assert ra.order_string == "A > B > C > D"
    report(4, "second-experiment T and R rows under the sum-consistent epochs")


def test_criterion_05_voxelizer_oracle():
    from test_geometry import oracle_centers, random_primitive

    started = time.perf_counter()
    # cube fills the grid completely
    cube = geo.voxelize_solid(geo.Cuboid((0, 0, 0), (64, 64, 64)), 16)
    assert cube.occupied_count == 4096

    # cylinder and sphere against independent center classification
    xs = oracle_centers(-32.0, 64.0, 16)
    cyl = geo.voxelize_solid(geo.Cylinder((0, 0, 0), 32.0, 64.0, axis=2), 16)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            inside = x * x + y * y <= 32.0 ** 2
            assert bool(cyl.occupancy[i, j, 0]) == inside
    expected_cyl = sum(x * x + y * y <= 32.0 ** 2 for x in xs for y in xs) * 16
    assert cyl.occupied_count == expected_cyl

    sphere = geo.voxelize_solid(geo.Sphere((0, 0, 0), 32.0), 16)
    expected_sphere = sum(x * x + y * y + z * z <= 32.0 ** 2
                          for x in xs for y in xs for z in xs)
    assert sphere.occupied_count == expected_sphere

    # boolean algebra on 100 random primitive pairs, exact
    rng = np.random.default_rng(55)
    for _ in range(100):
        a = random_primitive(rng)
        b = random_primitive(rng)
        box = geo.solid_aabb(geo.Union((a, b)))
        ga = geo.voxelize_solid(a, 16, aabb=box).occupancy
        gb = geo.voxelize_solid(b, 16, aabb=box).occupancy
        assert np.array_equal(
            geo.voxelize_solid(geo.Union((a, b)), 16, aabb=box).occupancy, ga | gb)
        assert np.array_equal(
            geo.voxelize_solid(geo.Difference((a, b)), 16, aabb=box).occupancy,
            ga & (1 - gb))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(5, f"cube 4096/4096, cylinder {cyl.occupied_count} and sphere "
              f"{sphere.occupied_count} voxels match brute force, OR/AND-NOT "
              f"exact on 100 pairs, in {elapsed:.1f} s")


def test_criterion_06_codec_round_trips():
    rng = np.random.default_rng(66)
    for _ in range(100):
        n = 16
        grid = geo.VoxelGrid(n, (rng.random((n, n, n)) < rng.uniform(0.2, 0.8))
                             .astype(np.uint8))
        data = ds.write_nrrd(grid)
        header = data.split(b"\n\n", 1)[0].split(b"\n")
        assert header == [b"NRRD0004", b"type: uint8", b"dimension: 3",
                          b"sizes: 16 16 16", b"encoding: raw"]
        back = ds.read_nrrd(data)
        assert back == grid
        assert ds.write_nrrd(back) == data  # bit-exact both ways

    for _ in range(100):
        mesh = random_mesh(rng, int(rng.integers(1, 30)))
        payload = geo.write_stl(mesh, "binary")
        again = geo.parse_stl(payload)
        assert again == mesh
        assert geo.write_stl(again, "binary")[84:] == payload[84:]

    import io
    rows = [ds.ManifestRow("AAA001", 'comma, "quote"; semicolon', "g/AAA001.nrrd", "train"),
            ds.ManifestRow("AAB002", "plain text", "g/AAB002.nrrd", "val")]
    buf = io.StringIO()
    ds.write_manifest(rows, buf)
    back_rows = ds.read_manifest(io.StringIO(buf.getvalue()), check_paths=False).rows
    assert [r.__dict__ for r in back_rows] == [r.__dict__ for r in rows]
    report(6, "NRRD and binary STL bit-stable on 100 grids/meshes, CSV exact")


def test_criterion_07_mining_equivalence():
    rng = np.random.default_rng(77)
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        dists = rng.uniform(0, 2, size=(n, n))
        # a third of the trials push everything easy to exercise the fallback
        margin = float(rng.uniform(0.05, 0.6))
        if trial % 3 == 0:
            np.fill_diagonal(dists, 0.01)
            margin = 0.02
        ids = [f"s{i}" for i in range(n)]
        mined = tr.mine_semihard(dists, ids, margin)
        assert [(t.anchor, t.negative, t.direction, t.kind) for t in mined] == \
            brute_force_mine(dists, ids, margin)

    for _ in range(10 ** 5):
        d_ap = rng.uniform(0, 2)
        d_an = rng.uniform(0, 2)
        margin = rng.uniform(0.01, 1.0)
        kind = tr.classify_triplet(d_ap, d_an, margin)
        if d_ap + margin < d_an:
            assert kind == tr.EASY
        elif d_an < d_ap:
            assert kind == tr.HARD
        elif d_ap < d_an < d_ap + margin:
            assert kind == tr.SEMI_HARD
    report(7, "mining == brute force on 1000 matrices; classification matches "
              "the closed-form inequalities on 1e5 samples")


# tiny-instance configuration for the gradient check. The jitter is the
# first of 0, 1, 2, ... whose batch embeddings are spread (gradcheck.
# MIN_SPREAD in each modality) and where no ReLU mask, pool winner, mined
# negative or active hinge changes inside the h=1e-3 stencil of any
# coordinate: 0, 4, 7, 9 and 22-26 flip a kink, the others up to 29 are
# collapsed. The test asserts both properties.
GRADCHECK_TEXT = dict(embed_dim=6, conv_channels=(5, 5, 5, 7), gru_hidden=6,
                      fc_hidden=6, out_dim=4, max_len=8)
GRADCHECK_SHAPE = dict(num_conv_layers=3, back_channels=(3, 4, 5), out_dim=4)
GRADCHECK_SEED = 0
GRADCHECK_JITTER = 30


def _gradcheck_instance():
    tcfg = enc.TextEncoderConfig(vocab_size=8, **GRADCHECK_TEXT)
    scfg = enc.ShapeEncoderConfig(**GRADCHECK_SHAPE)
    tp, sp = enc.init_params(8, GRADCHECK_SEED, tcfg, scfg, dtype=np.float64)
    jr = np.random.default_rng(GRADCHECK_JITTER)
    taps = f"conv{scfg.num_conv_layers}_w"
    for params in (tp, sp):
        for name, a in params.arrays.items():
            if params is sp and name == taps:
                # the jitter of the full 3x3x3 kernel, of which the layer
                # keeps the live taps, so that this is the instance chosen
                # when the layer stored all 27 and the draws after it match
                _, cin, cout = a.shape
                a += enc.live_taps(jr.uniform(-0.5, 0.5, size=(cout, cin, 3, 3, 3)))
            else:
                a += jr.uniform(-0.5, 0.5, size=a.shape)
    rng = np.random.default_rng(GRADCHECK_SEED + 1000)
    tokens = rng.integers(2, 8, size=(2, 8))
    lengths = np.array([5, 7])
    grids = (rng.random((2, 16, 16, 16)) < 0.4).astype(np.float64)
    return tp, sp, tokens, lengths, grids, ["a", "b"]


def test_criterion_08_gradient_check():
    started = time.perf_counter()
    tp, sp, tokens, lengths, grids, ids = _gradcheck_instance()
    config = tr.TrainerConfig(batch_size=2, margin=0.2)
    gc.assert_spread(enc.text_forward(tp, tokens, lengths), "text")
    gc.assert_spread(enc.shape_forward(sp, grids), "shape")
    loss, tgrads, sgrads, _ = tr.loss_and_gradients(
        tokens, lengths, grids, ids, tp, sp, config)
    assert loss > 0

    def total():
        return gc.trainer_loss(tokens, lengths, grids, ids, tp, sp, config)

    assert total()[0] == tr.combined_loss(tokens, lengths, grids, ids, tp, sp, config)
    worst, checked = gc.check_gradients(
        [(tp.arrays, tp.views(tgrads)), (sp.arrays, sp.views(sgrads))], total, h=1e-3)
    assert worst <= gc.RTOL, f"worst relative error {worst:.2e} over {checked} coords"

    # an all-easy batch has an inactive hinge everywhere: gradients exactly 0
    from test_training import TestGradients

    TestGradients().test_all_easy_batch_has_exactly_zero_gradients()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(8, f"{checked} coordinates within {worst:.1e} of central differences "
              f"(h=1e-3), no kink inside any stencil; all-easy batch gives exact "
              f"zeros; {elapsed:.0f} s")


DESK_MARGIN = 0.5  # not pinned by the criterion; an exposed tuner factor


@pytest.mark.slow
def test_criterion_09_desk_scale_training():
    started = time.perf_counter()
    samples = ds.generate_variants(bases=3, per_base=40, seed=7)
    assert len(samples) == 120
    train, val = ds.split_samples(samples, 0.1, seed=7)
    assert (len(train), len(val)) == (108, 12)

    config = tr.TrainerConfig(batch_size=4, learning_rate=1e-5, epochs=100,
                              margin=DESK_MARGIN, mu=1.0, seed=0)
    result = tr.fit(train, val, config,
                    shape_config=enc.ShapeEncoderConfig(num_conv_layers=7))
    initial, final = result.log[0].train_loss, result.log[-1].train_loss
    recall1 = tr.evaluate_recall(result.text_params, result.shape_params,
                                 val, 1, result.vocab)
    recall8 = tr.evaluate_recall(result.text_params, result.shape_params,
                                 val, 8, result.vocab)
    elapsed = time.perf_counter() - started
    assert final < 0.2 * initial, f"loss {initial:.4f} -> {final:.4f}"
    assert recall1 >= 0.8, f"held-out recall@1 {recall1:.3f}"
    assert recall8 >= 0.95, f"held-out recall@8 {recall8:.3f}"
    report(9, f"loss {initial:.3f} -> {final:.3f}, recall@1 {recall1:.2f}, "
              f"recall@8 {recall8:.2f} in {elapsed / 60:.1f} min "
              f"(chance recall@1 = {1 / len(val):.2f})")


TOY_LR = 3e-4
TOY_STEPS = 400


def _memorized_toy():
    samples = ds.generate_variants(bases=1, per_base=2, seed=3)
    config = tr.TrainerConfig(batch_size=2, learning_rate=TOY_LR,
                              epochs=TOY_STEPS, margin=0.5, seed=0)
    result = tr.fit(samples, [], config)
    return samples, result


def test_criterion_10_retrieval_contract(tmp_path):
    # exact-k, nondecreasing distances on a >= 8 gallery
    gallery = ds.generate_variants(bases=2, per_base=5, seed=21)
    vocab = ds.build_vocabulary(s.text for s in gallery)
    tp, sp = enc.init_params(vocab.size, seed=4)
    checkpoint = enc.parse_checkpoint(
        enc.checkpoint_bytes(tp, sp, vocab.word_to_id, {}))
    index = rt.build_index(gallery, checkpoint)
    result = rt.query(gallery[0].text, index, checkpoint, k=8)
    assert len(result.matches) == 8
    assert [d for _, d in result.matches] == sorted(d for _, d in result.matches)

    # index persistence is lossless
    path = tmp_path / "gallery.idx"
    rt.save_index(index, path)
    assert rt.load_index(path) == index

    # rank-1 self-retrieval for every training text of the memorized toy
    samples, trained = _memorized_toy()
    assert trained.log[-1].train_loss < 0.01
    toy_ckpt = enc.parse_checkpoint(enc.checkpoint_bytes(
        trained.text_params, trained.shape_params, trained.vocab.word_to_id, {}))
    toy_index = rt.build_index(samples, toy_ckpt)
    for sample in samples:
        hits = rt.query(sample.text, toy_index, toy_ckpt, k=1).matches
        assert hits[0][0] == sample.id
    report(10, "k=8 nondecreasing matches, lossless index round trip, "
               "rank-1 self-retrieval on the memorized toy model")


def test_criterion_11_dataset_contract():
    with pytest.warns(ds.DatasetWarning):
        samples = ds.generate_variants(bases=15, total=1000, seed=11,
                                       with_grids=False)
    assert len(samples) == 1000
    texts = [s.text for s in samples]
    assert len(set(texts)) == 1000
    for sample in samples:
        assert parse_text(sample.text) == sample.spec
    vocab = ds.build_vocabulary(texts)
    for sample in samples:
        seq = ds.tokenize(sample.text, vocab)
        assert (seq.tokens[:seq.true_length] != ds.UNK_ID).all()
    report(11, "1000 samples from 15 bases; unique texts; all parse back; "
               "zero UNK against the corpus vocabulary")
