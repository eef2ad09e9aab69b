import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from rodfind import doe
from rodfind.errors import DesignError

TABLE2_RESPONSES = [3.77, 64.77, 46.45, 30.00, 55.62, 69.38, 48.44, 71.09, 57.81]
TABLE3_RESPONSES = [64.44, 48.86, 61.25, 42.19, 53.89, 42.61, 48.12, 58.59,
                    90.00, 58.52, 82.50, 60.16, 95.00, 85.23, 74.37, 69.53]
TABLE4_RESPONSES = [91.67, 77.78, 98.30, 59.66, 96.67, 97.78, 94.89, 86.93]


def table2_design():
    return doe.make_design("L9_3level", [
        doe.Factor("batch size", (16, 32, 64)),
        doe.Factor("learning rate", (0.001, 0.0001, 0.00001)),
        doe.Factor("epoch", (50, 100, 200)),
        doe.Factor("convolution layer number", (3, 4, 5))])


def table3_design():
    return doe.make_design("L16_4level", [
        doe.Factor("learning rate", (0.001, 0.0001, 0.00001, 0.000001)),
        doe.Factor("batch size", (4, 16, 32, 64)),
        doe.Factor("convolution layer number", (4, 5, 6, 7)),
        doe.Factor("epoch", (50, 100, 200, 500))])


def table4_design():
    return doe.make_design("full_factorial", [
        doe.Factor("learning rate", (0.00001, 0.000001)),
        doe.Factor("batch size", (4, 16)),
        doe.Factor("convolution layer number", (6, 7))])


class TestDesigns:
    def test_l9_is_orthogonal(self):
        design = table2_design()
        assert len(design.rows) == 9
        for j in range(4):
            assert Counter(row[j] for row in design.rows) == {0: 3, 1: 3, 2: 3}
        for a in range(4):
            for b in range(a + 1, 4):
                pairs = {(row[a], row[b]) for row in design.rows}
                assert len(pairs) == 9  # every ordered pair exactly once

    def test_l16_is_orthogonal(self):
        design = table3_design()
        assert len(design.rows) == 16
        for j in range(4):
            assert Counter(row[j] for row in design.rows) == {0: 4, 1: 4, 2: 4, 3: 4}
        for a in range(4):
            for b in range(a + 1, 4):
                assert len({(r[a], r[b]) for r in design.rows}) == 16

    def test_full_factorial_row_order_matches_table4(self):
        design = table4_design()
        assert len(design.rows) == 8
        assignments = [design.assignment(r) for r in range(8)]
        assert [a["batch size"] for a in assignments] == [4, 4, 16, 16, 4, 4, 16, 16]
        assert [a["convolution layer number"] for a in assignments] == [6, 7] * 4

    def test_single_level_factor_rejected(self):
        with pytest.raises(DesignError, match="at least 2 levels"):
            doe.Factor("lonely", (1,))

    def test_wrong_shape_for_array(self):
        with pytest.raises(DesignError, match="exactly 3 levels"):
            doe.make_design("L9_3level", [doe.Factor("f", (1, 2))])
        with pytest.raises(DesignError, match="at most 4 factors"):
            doe.make_design("L9_3level", [doe.Factor(f"f{i}", (1, 2, 3))
                                          for i in range(5)])


class TestRangeAnalysis:
    def test_table2_block(self):
        ra = doe.range_analysis(table2_design(), TABLE2_RESPONSES)
        expected_sums = [(114.99, 155.00, 177.34),
                         (82.21, 191.48, 173.64),
                         (144.24, 150.51, 152.58),
                         (117.20, 182.59, 147.54)]
        for sums, expected in zip(ra.level_sums, expected_sums):
            assert sums == pytest.approx(expected, abs=0.01)
        assert ra.ranges == pytest.approx((62.35, 109.27, 8.34, 65.39), abs=0.01)
        assert ra.order_string == "B > D > A > C"
        assert ra.grand_total == pytest.approx(447.33, abs=0.01)
        assert ra.best_combination == "A3B2C3D2"

    def test_table3_block_with_sum_consistent_epochs(self):
        ra = doe.range_analysis(table3_design(), TABLE3_RESPONSES)
        expected_sums = [(216.74, 203.21, 291.18, 324.13),
                         (303.33, 235.22, 266.24, 230.47),
                         (259.08, 237.28, 295.07, 243.83),
                         (257.95, 284.95, 243.19, 249.17)]
        for sums, expected in zip(ra.level_sums, expected_sums):
            assert sums == pytest.approx(expected, abs=0.01)
        assert ra.ranges == pytest.approx((120.92, 72.86, 57.79, 41.76), abs=0.01)
        assert ra.order_string == "A > B > C > D"
        assert ra.best_combination == "A4B1C3D2"
        assert ra.grand_total == pytest.approx(1035.26, abs=0.01)

    def test_table4_and_table5_blocks(self):
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

    def test_constant_responses_zero_ranges(self):
        design = table4_design()
        ra = doe.range_analysis(design, [5.0] * 8)
        assert all(r == pytest.approx(0.0) for r in ra.ranges)
        for j in range(3):
            assert ra.level_sums[j] == pytest.approx([20.0, 20.0])

    def test_level_sums_total_to_grand_total(self):
        rng = np.random.default_rng(8)
        design = table2_design()
        for _ in range(20):
            responses = rng.normal(size=9)
            ra = doe.range_analysis(design, responses)
            for sums in ra.level_sums:
                assert sum(sums) == pytest.approx(ra.grand_total)

    def test_best_level_matches_anova_means(self):
        rng = np.random.default_rng(2)
        design = table3_design()
        responses = rng.uniform(10, 90, size=16)
        ra = doe.range_analysis(design, responses)
        for j, means in enumerate(ra.level_means):
            assert ra.best_levels[j] == int(np.argmax(means))

    def test_length_mismatch(self):
        with pytest.raises(DesignError, match="responses"):
            doe.range_analysis(table2_design(), [1.0] * 8)


class TestAnova:
    def test_table6(self):
        table = doe.anova(table4_design(), TABLE4_RESPONSES)
        ss = [row.ss for row in table.factor_rows]
        assert ss == pytest.approx((298.41, 72.72, 440.75), abs=0.01)
        assert [row.df for row in table.factor_rows] == [1, 1, 1]
        assert table.error_row.df == 4
        assert table.error_row.ss == pytest.approx(434.70, abs=0.01)
        assert table.error_row.ms == pytest.approx(108.68, abs=0.01)
        assert table.total_row.df == 7
        assert table.total_row.ss == pytest.approx(1246.58, abs=0.01)
        assert [row.f for row in table.factor_rows] == pytest.approx(
            (2.75, 0.67, 4.06), abs=0.01)
        assert [row.p for row in table.factor_rows] == pytest.approx(
            (0.173, 0.459, 0.114), abs=0.002)

    def test_constant_responses_all_zero_ss(self):
        table = doe.anova(table4_design(), [3.0] * 8)
        assert all(row.ss == pytest.approx(0.0, abs=1e-9) for row in table.factor_rows)
        assert all(row.flag == "infinite (zero residual)" for row in table.factor_rows)

    def test_zero_residual_flag(self):
        design = doe.make_design("full_factorial", [doe.Factor("f", (0, 1)),
                                                    doe.Factor("g", (0, 1))])
        # response depends only on f: SS_f = 4, SS_error = 0
        responses = [0.0, 0.0, 2.0, 2.0]
        table = doe.anova(design, responses)
        assert table.factor_rows[0].ss == pytest.approx(4.0)
        assert table.factor_rows[1].ss == pytest.approx(0.0)
        assert table.error_row.ss == pytest.approx(0.0)
        assert table.factor_rows[0].flag == "infinite (zero residual)"
        assert math.isinf(table.factor_rows[0].f)

    # recall@1-like responses on 12 samples, whose SS are exactly 0 in exact
    # arithmetic and slightly negative in floats
    def test_equal_level_sums_give_zero_factor_ss(self):
        design = doe.make_design("L9_3level", [doe.Factor("a", (0, 1, 2))])
        ks = (12, 1, 0, 5, 7, 1, 0, 5, 8)
        table = doe.anova(design, [100 * k / 12 for k in ks])
        row = table.factor_rows[0]
        assert (row.ss, row.f, row.p) == (0.0, 0.0, 1.0)

    def test_exact_additive_fit_gives_zero_residual(self):
        design = doe.make_design("L9_3level", [doe.Factor(name, (0, 1, 2))
                                               for name in "abc"])
        ks = (4, 6, 7, 6, 9, 11, 0, 4, 4)
        table = doe.anova(design, [100 * k / 12 for k in ks])
        assert table.error_row.ss == 0.0
        assert all(row.flag == "infinite (zero residual)" for row in table.factor_rows)

    def test_saturated_design_flag(self):
        design = doe.make_design("full_factorial", [doe.Factor("f", (0, 1))])
        table = doe.anova(design, [1.0, 4.0])
        assert table.error_row.df == 0
        assert table.factor_rows[0].flag == "undefined (saturated design)"
        assert table.factor_rows[0].f is None and table.factor_rows[0].p is None

    def test_ss_decomposition_on_random_designs(self):
        rng = np.random.default_rng(4)
        for design in (table2_design(), table3_design(), table4_design()):
            responses = rng.uniform(0, 100, size=len(design.rows))
            table = doe.anova(design, responses)
            lhs = table.total_row.ss
            rhs = sum(r.ss for r in table.factor_rows) + table.error_row.ss
            assert rhs == pytest.approx(lhs, rel=1e-9)
            assert all(r.ss >= -1e-9 * lhs for r in table.factor_rows)

    def test_translation_and_scaling_invariance(self):
        rng = np.random.default_rng(6)
        design = table4_design()
        responses = rng.uniform(0, 100, size=8)
        base = doe.anova(design, responses)
        shifted = doe.anova(design, responses + 123.0)
        scaled = doe.anova(design, responses * 3.0)
        for a, b, c in zip(base.factor_rows, shifted.factor_rows, scaled.factor_rows):
            assert b.ss == pytest.approx(a.ss, rel=1e-6, abs=1e-6)
            assert c.ss == pytest.approx(9.0 * a.ss, rel=1e-9)
            assert b.f == pytest.approx(a.f, rel=1e-6)
            assert c.f == pytest.approx(a.f, rel=1e-9)
            assert c.p == pytest.approx(a.p, rel=1e-9)


class TestFUpperP:
    def test_paper_value(self):
        assert doe.f_upper_p(2.75, 1, 4) == pytest.approx(0.173, abs=0.001)

    def test_zero_is_one(self):
        assert doe.f_upper_p(0.0, 1, 4) == 1.0

    def test_median_of_f11(self):
        assert doe.f_upper_p(1.0, 1, 1) == pytest.approx(0.5, abs=1e-9)

    def test_matches_scipy_to_high_accuracy(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            f = float(rng.uniform(0, 20))
            df1 = int(rng.integers(1, 30))
            df2 = int(rng.integers(1, 30))
            ref = scipy.stats.f.sf(f, df1, df2)
            assert doe.f_upper_p(f, df1, df2) == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_monotone_decreasing_in_f(self):
        values = [doe.f_upper_p(f, 3, 7) for f in (0.0, 0.5, 1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values, reverse=True)


class TestRunTuning:
    def test_mock_objective_finds_known_optimum(self):
        design = doe.make_design("full_factorial", [
            doe.Factor("x", (0, 1)), doe.Factor("y", (0, 1)), doe.Factor("z", (0, 1))])
        best = {"x": 1, "y": 0, "z": 1}

        def objective(config):
            return -sum(abs(config[k] - best[k]) for k in best)

        report = doe.run_tuning(design, objective)
        assert report.recommended == best
        assert report.recommended_was_run

    def test_table2_responses_reproduce_analysis_block(self, tmp_path):
        design = table2_design()
        responses = iter(TABLE2_RESPONSES)

        def objective(config):
            return next(responses)

        report = doe.run_tuning(design, objective)
        assert report.ranges.order_string == "B > D > A > C"
        assert report.ranges.best_combination == "A3B2C3D2"
        assert not report.recommended_was_run  # A3B2C3D2 is an unrun cell
        text = report.to_csv()
        assert "B > D > A > C" in text and "A3B2C3D2" in text

    def test_failed_rows_abort_analysis(self):
        design = table4_design()
        calls = []

        def objective(config):
            calls.append(config)
            if config["batch size"] == 16:
                raise RuntimeError("boom")
            return 1.0

        with pytest.raises(DesignError, match="failed on row 3 ") as failure:
            doe.run_tuning(design, objective)
        # row 3 is the first with batch size 16; no later row runs
        assert calls == [design.assignment(r) for r in range(3)]
        assert str(design.assignment(2)) in str(failure.value)
        assert "boom" in str(failure.value)
        assert isinstance(failure.value.__cause__, RuntimeError)

    def test_non_finite_response_stops_the_run(self):
        calls = []

        def objective(config):
            calls.append(config)
            return math.nan

        with pytest.raises(DesignError, match="failed on row 1 .*response nan is not finite"):
            doe.run_tuning(table2_design(), objective)
        assert len(calls) == 1
