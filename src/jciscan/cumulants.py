"""Sample cumulant statistics for a single predictor pair.

Conventions
-----------
All sample moments use the 1/n divisor, so ``sample_k2`` is the
population-style variance estimate ``css / n`` and ``sample_k3`` is the
plug-in three-way joint cumulant

    tau_hat = (1/n) * sum_i (x1_i - m1) * (x2_i - m2) * (y_i - my).

The pair screening score normalizes the three-way cumulant by the three
standard deviations:

    r_hat = sqrt(n) * |sum_i prod_i| / sqrt(css1 * css2 * cssY)
          = |tau_hat| / (sigma1 * sigma2 * sigmaY)        (algebraically)

The two forms differ only in floating-point rounding; the library computes
the first and tests pin the second as an independent route.  r_hat is zero
when the response is independent of the pair, invariant under affine maps
of any argument, and unbounded above (it is not a correlation).

Reproducibility
---------------
``sample_k3`` and the numerator of ``pair_score`` accumulate strictly in
sample order with the fixed multiplication order ``y * (x1 * x2)``.  The
fixed order makes the value independent of how work is threaded, and the
inner product ``x1 * x2`` makes an argument swap bit-neutral.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    DimensionMismatch,
    InvalidPair,
    InvalidValue,
    ZeroVarianceColumn,
)

#: Default relative variance floor ``eps`` of :func:`near_constant`; columns
#: at or below it are treated as constant and must be removed upstream.
DEFAULT_VARIANCE_FLOOR = 1e-12

#: Column id used for the response in errors and diagnostics.
RESPONSE_INDEX = -1

_FLOAT_MIN = sys.float_info.min


@dataclass(frozen=True, eq=False)
class CenteredColumn:
    """One column with its centering precomputed.

    Attributes:
        index: Column id (``RESPONSE_INDEX`` for the response).
        mean: Sample mean of the raw values.
        centered: ``values - mean`` as a read-only float64 vector.
        css: Centered sum of squares, ``sum(centered**2)`` (>= 0).
    """

    index: int
    mean: float
    centered: np.ndarray
    css: float

    @property
    def n(self) -> int:
        return self.centered.shape[0]


@dataclass(frozen=True)
class PairStatistic:
    """Score of one predictor pair, ``j1 < j2``.

    ``tau_hat`` keeps its sign; ``r_hat`` carries the absolute value in
    its numerator and is therefore non-negative.
    """

    j1: int
    j2: int
    tau_hat: float
    r_hat: float

    def __post_init__(self) -> None:
        if self.j1 >= self.j2:
            raise InvalidPair(f"pair must satisfy j1 < j2, got ({self.j1}, {self.j2})")


def center(values, index: int = 0) -> CenteredColumn:
    """Center a column: pass one computes the mean, pass two subtracts it.

    Raises:
        DegenerateSample: fewer than two values.
        InvalidValue: non-finite entries or a non-vector input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidValue(f"expected a 1-D vector, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise DegenerateSample(f"need at least 2 samples to center, got {n}")
    if not np.all(np.isfinite(arr)):
        raise InvalidValue(f"column {index} contains non-finite values")
    mean = float(arr.sum() / n)
    centered = arr - mean
    centered.setflags(write=False)
    css = float(np.dot(centered, centered))
    return CenteredColumn(index=index, mean=mean, centered=centered, css=css)


def sample_k2(col: CenteredColumn) -> float:
    """Sample variance with the 1/n divisor (two-way cumulant of a column
    with itself)."""
    return col.css / col.n


def near_constant(mean, spread, css, n: int, eps: float = DEFAULT_VARIANCE_FLOOR):
    """The variance-floor rule: ``css <= (eps * n * m)**2`` with
    ``m = |mean| + spread``, ``spread = max|x - mean|`` over the n values:
    m is within a factor 2 of ``max|x|``.

    The floor scales with the column, so multiplying a column by any
    nonzero factor never changes the verdict; a column whose spread is
    lost in the rounding of its own magnitude (a constant such as a
    repeated 0.1) is caught.  The caller reduces the spread, so this
    takes one column's scalars or per-column arrays alike.
    """
    return css <= (eps * n * (np.abs(mean) + spread)) ** 2


def validate_c1(col: CenteredColumn, eps: float = DEFAULT_VARIANCE_FLOOR) -> None:
    """Require a sample variance above the relative floor of
    :func:`near_constant`.

    Constant (or numerically constant) columns make the normalized score
    undefined and must be removed before scanning.

    Raises:
        InvalidValue: ``eps`` is not positive, or is NaN.
        ZeroVarianceColumn: the column is at or below the floor.
    """
    if not eps > 0:  # NaN too
        raise InvalidValue(f"variance floor must be positive, got {eps}")
    spread = max(col.centered.max(), -col.centered.min())
    if near_constant(col.mean, spread, col.css, col.n, eps):
        raise ZeroVarianceColumn(col.index)


def _require_same_length(c1: CenteredColumn, c2: CenteredColumn, cy: CenteredColumn) -> int:
    n = c1.n
    if c2.n != n or cy.n != n:
        raise DimensionMismatch(
            f"column lengths differ: {c1.n}, {c2.n}, response {cy.n}"
        )
    return n


def _ordered_product_sum(c1: CenteredColumn, c2: CenteredColumn, cy: CenteredColumn) -> float:
    # Strict sample-order accumulation; multiplication order y * (x1 * x2)
    # is required for bit-neutral argument swaps.  Plain doubles suffice at
    # the target n (tens of thousands); a compensated variant could be
    # swapped in here without touching any tolerance.
    total = 0.0
    for a, b, w in zip(c1.centered.tolist(), c2.centered.tolist(), cy.centered.tolist()):
        total += w * (a * b)
    return total


def sample_k3(c1: CenteredColumn, c2: CenteredColumn, cy: CenteredColumn) -> float:
    """Plug-in three-way joint cumulant of (x1, x2, y), 1/n divisor.

    Symmetric in ``c1``/``c2`` bit-for-bit; zero when the response column
    is constant.
    """
    n = _require_same_length(c1, c2, cy)
    return _ordered_product_sum(c1, c2, cy) / n


def _score_denominator(css1: float, css2: float, cssy: float) -> float:
    """``sqrt(css1 * css2 * cssY)``, taken per factor when the product leaves the normal range.

    Three positive sums of squares can multiply to a subnormal, to 0 or to
    inf; the per-factor square roots (the scanner's ``scale`` route) stay
    finite and nonzero there.  Both forms are symmetric in the two columns.
    """
    product = css1 * css2 * cssy
    if _FLOAT_MIN <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(css1) * math.sqrt(css2) * math.sqrt(cssy)


def pair_score(c1: CenteredColumn, c2: CenteredColumn, cy: CenteredColumn) -> PairStatistic:
    """Normalized interaction score of one pair against the response.

    Computes ``sqrt(n) * |sum_i prod_i| / sqrt(css1 * css2 * cssY)`` in a
    single ordered pass, together with the signed ``tau_hat``.  The pair id
    is normalized so ``j1 < j2``; the value is unchanged by the swap.

    Raises:
        ZeroVarianceColumn: any of the three centered sums of squares is 0.
        InvalidPair: both columns carry the same index.
        DimensionMismatch: lengths differ.
    """
    n = _require_same_length(c1, c2, cy)
    for col in (c1, c2, cy):
        if col.css <= 0.0:
            raise ZeroVarianceColumn(col.index)
    if c1.index == c2.index:
        raise InvalidPair(f"a pair needs two distinct columns, got index {c1.index} twice")
    total = _ordered_product_sum(c1, c2, cy)
    r = math.sqrt(n) * abs(total) / _score_denominator(c1.css, c2.css, cy.css)
    j1, j2 = (c1.index, c2.index) if c1.index < c2.index else (c2.index, c1.index)
    return PairStatistic(j1=j1, j2=j2, tau_hat=total / n, r_hat=r)
