"""Power-law exponent estimation: log-log least squares and the discrete
maximum-likelihood estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import ordered_sum

METHOD_LS = "loglog_ls"
METHOD_MLE = "discrete_mle"
MLE_MIN_SAMPLES = 50  # fewest samples >= x_min that the MLE fit accepts


@dataclass
class PowerLawFit:
    alpha: float
    method: str
    n_samples: int
    intercept: float | None = None   # ln(prefactor), LS only
    r_squared: float | None = None   # on log scale, LS only
    x_min: int | None = None         # MLE only


def fit_power_law_ls(x, y) -> PowerLawFit:
    """Least-squares line on (ln x, ln y); the slope is the exponent.

    Requires strictly positive data and at least 3 points. R-squared is
    reported on the log scale; a constant y (zero log-variance) fits
    exactly with alpha 0, reported as R-squared 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 3:
        raise ValueError("power-law LS fit requires at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law LS fit requires strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return PowerLawFit(alpha=float(slope), method=METHOD_LS, n_samples=len(x),
                       intercept=float(intercept), r_squared=r2)


def fit_power_law_mle(samples, x_min: int = 1) -> PowerLawFit:
    """Discrete power-law exponent via the continuous approximation to the
    discrete MLE:

        alpha = 1 + n / sum(ln(x_i / (x_min - 0.5)))

    Only samples >= x_min enter the fit, added in the order given; counts
    below x_min, zeros included, are left out. At least ``MLE_MIN_SAMPLES``
    samples must enter. A single-valued sample cannot identify the exponent
    and raises a divergence error.
    """
    if x_min < 1:
        raise ValueError("x_min must be at least 1")
    xs = [int(s) for s in samples if s >= x_min]
    if len(xs) < MLE_MIN_SAMPLES:
        raise ValueError(f"need at least {MLE_MIN_SAMPLES} samples >= x_min, got {len(xs)}")
    if len(set(xs)) < 2:
        raise ValueError("divergence: all samples equal, exponent unidentifiable")
    denom = ordered_sum(math.log(s / (x_min - 0.5)) for s in xs)
    alpha = 1.0 + len(xs) / denom
    return PowerLawFit(alpha=alpha, method=METHOD_MLE, n_samples=len(xs), x_min=x_min)
