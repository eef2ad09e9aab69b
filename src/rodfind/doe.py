"""Orthogonal-experiment tuning: L9/L16/full-factorial designs, range
analysis, one-way balanced ANOVA with F-distribution p-values, and
`run_tuning`, which runs each design row once through an objective and
stops at the first row that fails, since every later row's response would
be discarded with the analysis; `map_rows` lets a caller check every row
the same way before any row runs."""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys
from dataclasses import dataclass

import scipy.special

from .errors import DesignError

# Column layouts matching the published experiment tables (level indices,
# 0-based). Both are orthogonal: every level appears equally often per
# column and every ordered level pair equally often per column pair.
L9_COLUMNS = (
    (0, 0, 0, 1, 1, 1, 2, 2, 2),
    (0, 1, 2, 0, 1, 2, 0, 1, 2),
    (0, 2, 1, 2, 1, 0, 1, 0, 2),
    (0, 1, 2, 2, 0, 1, 1, 2, 0),
)
L16_COLUMNS = (
    (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3),
    (0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3),
    (0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0),
    (0, 1, 2, 3, 2, 3, 0, 1, 3, 2, 1, 0, 1, 0, 3, 2),
)


def factor_letter(index: int) -> str:
    return chr(ord("A") + index)


@dataclass(frozen=True)
class Factor:
    name: str
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise DesignError(f"factor {self.name!r} needs at least 2 levels, "
                              f"got {len(self.levels)}")
        if len(set(map(repr, self.levels))) != len(self.levels):
            raise DesignError(f"factor {self.name!r} has duplicate levels")


@dataclass(frozen=True)
class DesignMatrix:
    factors: tuple[Factor, ...]
    rows: tuple[tuple[int, ...], ...]

    def assignment(self, row: int) -> dict:
        return {f.name: f.levels[i] for f, i in zip(self.factors, self.rows[row])}


def make_design(kind: str, factors) -> DesignMatrix:
    """Standard layouts: 'L9_3level' and 'L16_4level' Taguchi arrays (the
    shipped assignments reproduce the published tables), or 'full_factorial'
    enumeration with the last factor varying fastest."""
    factors = tuple(f if isinstance(f, Factor) else Factor(*f) for f in factors)
    if kind == "L9_3level":
        return _taguchi(factors, L9_COLUMNS, levels=3, kind=kind)
    if kind == "L16_4level":
        return _taguchi(factors, L16_COLUMNS, levels=4, kind=kind)
    if kind == "full_factorial":
        rows = tuple(itertools.product(*(range(len(f.levels)) for f in factors)))
        return DesignMatrix(factors, rows)
    raise DesignError(f"unknown design kind {kind!r}")


def _taguchi(factors, columns, levels, kind):
    if not 1 <= len(factors) <= len(columns):
        raise DesignError(
            f"{kind} holds at most {len(columns)} factors, got {len(factors)}")
    for f in factors:
        if len(f.levels) != levels:
            raise DesignError(
                f"{kind} requires exactly {levels} levels per factor; "
                f"factor {f.name!r} has {len(f.levels)}")
    rows = tuple(tuple(columns[j][r] for j in range(len(factors)))
                 for r in range(len(columns[0])))
    return DesignMatrix(factors, rows)


# ---------------------------------------------------------------------------
# Range analysis

@dataclass
class RangeAnalysis:
    factors: tuple[Factor, ...]
    level_sums: list[list[float]]    # T_ij per factor
    level_means: list[list[float]]
    ranges: list[float]              # R_j over level sums
    deltas: list[float]              # range over level means
    order: list[int]                 # factor indices, most influential first
    best_levels: list[int]           # level index per factor (argmax mean)
    grand_total: float

    @property
    def order_string(self) -> str:
        return " > ".join(factor_letter(j) for j in self.order)

    @property
    def best_combination(self) -> str:
        return "".join(f"{factor_letter(j)}{i + 1}"
                       for j, i in enumerate(self.best_levels))

    def best_config(self) -> dict:
        return {f.name: f.levels[i] for f, i in zip(self.factors, self.best_levels)}


def _check_responses(design: DesignMatrix, responses):
    responses = [float(r) for r in responses]
    if len(responses) != len(design.rows):
        raise DesignError(f"got {len(responses)} responses for "
                          f"{len(design.rows)} design rows")
    if not all(math.isfinite(r) for r in responses):
        raise DesignError("responses must be finite")
    return responses


def _level_sums(design: DesignMatrix, responses, j: int):
    """Response sum and row count per level of factor j."""
    sums = [0.0] * len(design.factors[j].levels)
    counts = [0] * len(sums)
    for row, y in zip(design.rows, responses):
        sums[row[j]] += y
        counts[row[j]] += 1
    return sums, counts


def range_analysis(design: DesignMatrix, responses) -> RangeAnalysis:
    responses = _check_responses(design, responses)
    level_sums, level_means = [], []
    for j, factor in enumerate(design.factors):
        sums, counts = _level_sums(design, responses, j)
        if 0 in counts:
            raise DesignError(f"factor {factor.name!r} has an unused level")
        level_sums.append(sums)
        level_means.append([s / c for s, c in zip(sums, counts)])
    ranges = [max(s) - min(s) for s in level_sums]
    deltas = [max(m) - min(m) for m in level_means]
    order = sorted(range(len(design.factors)), key=lambda j: (-ranges[j], j))
    best = [max(range(len(m)), key=lambda i: (m[i], -i)) for m in level_means]
    return RangeAnalysis(design.factors, level_sums, level_means, ranges, deltas,
                         order, best, sum(responses))


# ---------------------------------------------------------------------------
# ANOVA

@dataclass
class AnovaRow:
    name: str
    df: int
    ss: float
    ms: float | None
    f: float | None
    p: float | None
    flag: str | None = None


@dataclass
class AnovaTable:
    factor_rows: list[AnovaRow]
    error_row: AnovaRow
    total_row: AnovaRow


def anova(design: DesignMatrix, responses) -> AnovaTable:
    """Balanced one-way decomposition: SS_factor from level sums against the
    correction factor, residual as the leftover of the total. An SS within
    round-off of zero is read as 0: subtracting the correction factor leaves
    a few eps * sum(y^2), which could otherwise make an exact zero negative."""
    responses = _check_responses(design, responses)
    n = len(responses)
    total = sum(responses)
    cf = total * total / n
    squares = sum(y * y for y in responses)
    roundoff = 64 * sys.float_info.epsilon * squares

    def exact(ss):
        return 0.0 if abs(ss) <= roundoff else ss

    ss_total = exact(squares - cf)
    df_total = n - 1

    factor_rows = []
    for j, factor in enumerate(design.factors):
        sums, counts = _level_sums(design, responses, j)
        if len(set(counts)) != 1:
            raise DesignError(
                f"factor {factor.name!r} is unbalanced ({counts}); "
                "Taguchi analysis needs balanced designs")
        ss = exact(sum(s * s / c for s, c in zip(sums, counts)) - cf)
        df = len(factor.levels) - 1
        factor_rows.append(AnovaRow(factor.name, df, ss, ss / df, None, None))

    ss_error = exact(ss_total - sum(r.ss for r in factor_rows))
    df_error = df_total - sum(r.df for r in factor_rows)
    if df_error < 0:
        raise DesignError("more factor degrees of freedom than data rows")

    if df_error == 0:
        error_row = AnovaRow("error", 0, ss_error, None, None, None,
                             flag="undefined (saturated design)")
        for r in factor_rows:
            r.flag = "undefined (saturated design)"
    else:
        ms_error = ss_error / df_error
        error_row = AnovaRow("error", df_error, ss_error, ms_error, None, None)
        for r in factor_rows:
            if ms_error == 0.0:
                r.f = math.inf
                r.p = 0.0
                r.flag = "infinite (zero residual)"
            else:
                r.f = r.ms / ms_error
                r.p = f_upper_p(r.f, r.df, df_error)
    total_row = AnovaRow("total", df_total, ss_total, None, None, None)
    return AnovaTable(factor_rows, error_row, total_row)


# ---------------------------------------------------------------------------
# F-distribution upper tail

def f_upper_p(f_value: float, df1: int, df2: int) -> float:
    """P(F(df1, df2) > f_value)."""
    if f_value < 0:
        raise DesignError(f"F must be nonnegative, got {f_value}")
    if df1 < 1 or df2 < 1:
        raise DesignError("degrees of freedom must be >= 1")
    if math.isinf(f_value):
        return 0.0
    return float(scipy.special.fdtrc(df1, df2, f_value))


# ---------------------------------------------------------------------------
# Tuning orchestration

@dataclass
class TuningRun:
    run_id: int
    assignment: dict
    response: float


@dataclass
class TuningReport:
    design: DesignMatrix
    runs: list[TuningRun]
    ranges: RangeAnalysis
    anova: AnovaTable
    recommended: dict
    recommended_was_run: bool

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["run_id"] + [f.name for f in self.design.factors] + ["response"]
        writer.writerow(header)
        for run in self.runs:
            writer.writerow([run.run_id]
                            + [f"{k}={v}" for k, v in run.assignment.items()]
                            + [run.response])
        writer.writerow([])
        writer.writerow(["# range analysis"])
        for j, factor in enumerate(self.design.factors):
            writer.writerow([f"T({factor.name})"]
                            + [f"{s:.6g}" for s in self.ranges.level_sums[j]]
                            + [f"R={self.ranges.ranges[j]:.6g}"])
        writer.writerow(["# order", self.ranges.order_string])
        writer.writerow(["# best combination", self.ranges.best_combination,
                         "was run" if self.recommended_was_run else "not run"])
        writer.writerow(["# grand total", f"{self.ranges.grand_total:.6g}"])
        writer.writerow([])
        writer.writerow(["# anova", "df", "adj SS", "adj MS", "F", "p"])
        for row in [*self.anova.factor_rows, self.anova.error_row, self.anova.total_row]:
            writer.writerow([
                row.name, row.df, f"{row.ss:.6g}",
                "" if row.ms is None else f"{row.ms:.6g}",
                (row.flag or "") if row.f is None else f"{row.f:.6g}",
                "" if row.p is None else f"{row.p:.6g}"])
        return buf.getvalue()


def map_rows(design: DesignMatrix, fn) -> list:
    """`fn(assignment)` for every row, in row order. The first row whose
    call raises stops the run: no later row is called, and a DesignError
    naming the row and its assignment is raised from the failure."""
    results = []
    for r in range(len(design.rows)):
        assignment = design.assignment(r)
        try:
            results.append(fn(assignment))
        except Exception as exc:
            raise DesignError(f"objective failed on row {r + 1} ({assignment}): "
                              f"{exc}") from exc
    return results


def run_tuning(design: DesignMatrix, objective) -> TuningReport:
    """Execute every design row once through `objective(config) -> response`
    (`map_rows`, so the first row whose objective raises or returns a
    non-finite response stops the run), then analyze. The recommended
    best-level combination may be a cell the design never ran (flagged
    accordingly)."""
    def response(assignment):
        value = float(objective(assignment))
        if not math.isfinite(value):
            raise ValueError(f"response {value} is not finite")
        return value

    runs = [TuningRun(r + 1, design.assignment(r), value)
            for r, value in enumerate(map_rows(design, response))]

    responses = [run.response for run in runs]
    ranges = range_analysis(design, responses)
    table = anova(design, responses)
    best_rows = tuple(ranges.best_levels)
    return TuningReport(design, runs, ranges, table, ranges.best_config(),
                        best_rows in design.rows)
