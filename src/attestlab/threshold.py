"""Adaptive decision-threshold calibration from validation reconstruction errors.

The spread of the upper tail (gap ratio between the 99th and 95th
percentiles) picks a true-negative-rate target; a bounded binary search then
finds the threshold whose validation TNR matches that target. TNR at a
threshold T counts errors strictly below T. Percentiles use linear
interpolation (the 95th percentile of 1..100 is 95.05).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TNR_TOLERANCE = 0.005
MAX_ITERATIONS = 64


class DegenerateDistribution(ValueError):
    """Validation errors are unusable for calibration (e.g. p95 == 0)."""


def _check_errors(errors, minimum: int) -> np.ndarray:
    arr = np.asarray(errors, dtype=np.float64)
    if arr.ndim != 1 or len(arr) < minimum:
        raise ValueError("need at least %d validation errors" % minimum)
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise ValueError("errors must be finite and non-negative")
    return arr


def gap_ratio(errors) -> float:
    """(p99 - p95) / p95 of the validation errors."""
    arr = _check_errors(errors, 20)
    p95, p99 = np.percentile(arr, [95.0, 99.0])
    if p95 <= 0.0:
        raise DegenerateDistribution(
            "95th percentile of validation errors is zero")
    return float((p99 - p95) / p95)


def select_tnr_target(gamma: float) -> float:
    """Wide upper tails get a looser TNR target.

    < 0.2 -> 0.99; [0.2, 0.5) -> 0.97; >= 0.5 -> 0.95.
    """
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError("gap ratio must be finite and non-negative")
    if gamma < 0.2:
        return 0.99
    if gamma < 0.5:
        return 0.97
    return 0.95


def _tnr(errors: np.ndarray, t: float) -> float:
    return float(np.mean(errors < t))


def binary_search_threshold(val_errors, tnr_target: float,
                            tol: float = TNR_TOLERANCE):
    """Find T with validation TNR within tol of the target.

    Bisects [0, 2 * max(errors)] keeping TNR(lo) < target <= TNR(hi) and
    answers from the hi side, so within the tolerance band the achieved
    TNR errs on coverage (>= target) rather than under it. When no
    threshold hits the tolerance (small or tied validation sets), falls
    back to the achievable TNR nearest the target from below, excluding
    the degenerate reject-all value 0; if none lies below, the smallest
    achievable above it.

    Returns (t_opt, achieved_tnr, exact, iterations).
    """
    errors = _check_errors(val_errors, 1)
    if not 0.0 < tnr_target < 1.0:
        raise ValueError("tnr_target must be in (0, 1)")

    hi = 2.0 * float(errors.max())
    if hi <= 0.0:
        hi = 1e-12
    lo = 0.0
    hi_tnr = _tnr(errors, hi)
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        if 0.0 <= hi_tnr - tnr_target < tol:
            return float(hi), hi_tnr, True, iterations
        iterations += 1
        mid = 0.5 * (lo + hi)
        tnr = _tnr(errors, mid)
        if tnr >= tnr_target:
            hi, hi_tnr = mid, tnr
        else:
            lo = mid
    if 0.0 <= hi_tnr - tnr_target < tol:
        return float(hi), hi_tnr, True, iterations

    # discrete fallback over achievable TNR values
    n = len(errors)
    distinct = np.unique(errors)
    candidates = [(float(np.sum(errors < d)) / n, float(d)) for d in distinct]
    top = 1.5 * float(distinct[-1]) if distinct[-1] > 0 else 1e-12
    candidates.append((1.0, top))
    below = [c for c in candidates if 0.0 < c[0] <= tnr_target]
    if below:
        tnr, t = max(below)
    else:
        tnr, t = min(c for c in candidates if c[0] > tnr_target)
    return t, tnr, abs(tnr - tnr_target) < tol, iterations


@dataclass(frozen=True)
class CalibrationResult:
    gamma: float
    p95: float
    p99: float
    tnr_target: float
    t_opt: float
    achieved_tnr: float
    exact: bool
    n_val: int
    iterations: int


def calibrate(val_errors) -> CalibrationResult:
    """Gap ratio -> TNR target -> threshold search, as one record."""
    errors = _check_errors(val_errors, 20)
    gamma = gap_ratio(errors)
    p95, p99 = np.percentile(errors, [95.0, 99.0])
    target = select_tnr_target(gamma)
    t_opt, achieved, exact, iters = binary_search_threshold(errors, target)
    return CalibrationResult(gamma=float(gamma), p95=float(p95),
                             p99=float(p99), tnr_target=target,
                             t_opt=float(t_opt), achieved_tnr=float(achieved),
                             exact=bool(exact), n_val=len(errors),
                             iterations=iters)
