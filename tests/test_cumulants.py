"""Single-pair statistics: worked constants, independent oracles, invariants.

Oracles here never share code with the library: centering/css go through
math.fsum, and the three-way cumulant is recomputed from raw sample
moments (the five-term expansion), which equals the centered form
algebraically but follows a different floating-point route.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jciscan import PairStatistic, center, pair_score, sample_k2, sample_k3, validate_c1
from jciscan.errors import (
    DegenerateSample,
    DimensionMismatch,
    InvalidPair,
    InvalidValue,
    ZeroVarianceColumn,
)

# --------------------------------------------------------------------------
# Reference routes
# --------------------------------------------------------------------------


def fsum_mean(values):
    return math.fsum(values) / len(values)


def fsum_css(values):
    m = fsum_mean(values)
    return math.fsum((v - m) ** 2 for v in values)


def moment_k3(x1, x2, y):
    """Three-way cumulant via raw moments: m111 - m110*m001 - m101*m010
    - m011*m100 + 2*m100*m010*m001 (plug-in expansion)."""
    n = len(x1)

    def m(f):
        return math.fsum(f(a, b, c) for a, b, c in zip(x1, x2, y)) / n

    m111 = m(lambda a, b, c: a * b * c)
    m110 = m(lambda a, b, c: a * b)
    m101 = m(lambda a, b, c: a * c)
    m011 = m(lambda a, b, c: b * c)
    m100 = m(lambda a, b, c: a)
    m010 = m(lambda a, b, c: b)
    m001 = m(lambda a, b, c: c)
    return m111 - m110 * m001 - m101 * m010 - m011 * m100 + 2 * m100 * m010 * m001


def ratio_form(c1, c2, cy):
    """Score as |tau| over the three standard deviations."""
    tau = sample_k3(c1, c2, cy)
    return abs(tau) / math.sqrt(sample_k2(c1) * sample_k2(c2) * sample_k2(cy))


EX1 = [1.0, 0.0, 1.0, 0.0]
EX2 = [1.0, 1.0, 0.0, 0.0]
EXY = [1.0, 0.0, 0.0, 0.0]


# --------------------------------------------------------------------------
# center
# --------------------------------------------------------------------------


def test_center_worked_example():
    col = center([1.0, 2.0, 3.0], index=4)
    assert col.index == 4
    assert col.mean == 2.0
    assert col.centered.tolist() == [-1.0, 0.0, 1.0]
    assert col.css == 2.0
    assert col.css == pytest.approx(fsum_css([1.0, 2.0, 3.0]), rel=1e-15)


def test_center_constant_column():
    col = center([5.0, 5.0, 5.0, 5.0])
    assert col.mean == 5.0
    assert col.centered.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert col.css == 0.0


def test_center_shift_invariance_exact_on_integers():
    base = center([1.0, 2.0, 3.0, 10.0])
    shifted = center([8.0, 9.0, 10.0, 17.0])
    assert shifted.centered.tolist() == base.centered.tolist()
    assert shifted.css == base.css


def test_center_shift_invariance_random():
    rng = np.random.default_rng(11)
    values = rng.normal(size=40)
    base = center(values)
    shifted = center(values + 7.0)
    assert shifted.centered == pytest.approx(base.centered, rel=1e-12, abs=1e-12)
    assert shifted.css == pytest.approx(base.css, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_center_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    values = rng.normal(scale=rng.uniform(0.1, 50.0), size=n)
    col = center(values)
    scale = n * np.abs(values).max()
    assert abs(col.centered.sum()) <= 1e-9 * scale
    assert col.css >= 0.0
    assert col.css == pytest.approx(fsum_css(values.tolist()), rel=1e-12)


def test_center_rejects_degenerate_and_nonfinite():
    with pytest.raises(DegenerateSample):
        center([1.0])
    with pytest.raises(InvalidValue):
        center([1.0, float("nan"), 2.0])
    with pytest.raises(InvalidValue):
        center([1.0, float("inf")])
    with pytest.raises(InvalidValue):
        center(np.ones((3, 3)))


# --------------------------------------------------------------------------
# sample_k2 / validate_c1
# --------------------------------------------------------------------------


def test_sample_k2_worked_example():
    assert sample_k2(center([1.0, 2.0, 3.0])) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_sample_k2_constant_is_zero():
    assert sample_k2(center([3.0, 3.0, 3.0])) == 0.0


def test_sample_k2_quadratic_scaling():
    rng = np.random.default_rng(3)
    values = rng.normal(size=30)
    base = sample_k2(center(values))
    for a in (2.0, -0.5, 13.25):
        assert sample_k2(center(a * values)) == pytest.approx(a * a * base, rel=1e-12)


def test_validate_c1():
    validate_c1(center([1.0, 2.0, 3.0]))
    with pytest.raises(ZeroVarianceColumn) as exc:
        validate_c1(center([4.0, 4.0, 4.0, 4.0], index=7))
    assert exc.value.index == 7
    # degenerate response: every subject in the same class
    with pytest.raises(ZeroVarianceColumn) as exc:
        validate_c1(center([2.0, 2.0, 2.0, 2.0], index=-1))
    assert exc.value.index == -1
    for eps in (0.0, float("nan")):  # NaN fails the positivity test too
        with pytest.raises(InvalidValue):
            validate_c1(center([1.0, 2.0]), eps=eps)


def test_validate_c1_eps_boundary():
    # a column exactly at the relative floor (eps * n * m)**2 is rejected
    # (strict inequality required): n = 4, m = |mean| + max|x - mean| = 2e-6
    # and css = 4e-12, so the boundary is eps = 0.25, all exact in binary
    col = center([0.0, 2e-6, 0.0, 2e-6])
    at = 0.25
    assert col.css == (at * col.n * 2e-6) ** 2
    with pytest.raises(ZeroVarianceColumn):
        validate_c1(col, eps=at)
    validate_c1(col, eps=at * 0.999)


# --------------------------------------------------------------------------
# sample_k3
# --------------------------------------------------------------------------


def test_sample_k3_worked_example():
    c1, c2, cy = center(EX1, 0), center(EX2, 1), center(EXY, -1)
    assert sample_k3(c1, c2, cy) == 0.0625
    assert sample_k3(c1, c2, cy) == pytest.approx(moment_k3(EX1, EX2, EXY), rel=1e-12)


def test_sample_k3_constant_response_is_zero():
    c1, c2 = center(EX1, 0), center(EX2, 1)
    cy = center([4.0, 4.0, 4.0, 4.0], -1)
    assert sample_k3(c1, c2, cy) == 0.0


def test_sample_k3_argument_swap_is_bit_neutral():
    rng = np.random.default_rng(17)
    c1 = center(rng.normal(size=64), 0)
    c2 = center(rng.normal(size=64), 1)
    cy = center(rng.normal(size=64), -1)
    assert sample_k3(c1, c2, cy) == sample_k3(c2, c1, cy)


def test_sample_k3_matches_moment_expansion_randomly():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(3, 120))
        x1 = rng.normal(size=n).tolist()
        x2 = rng.normal(size=n).tolist()
        y = rng.normal(size=n).tolist()
        got = sample_k3(center(x1, 0), center(x2, 1), center(y, -1))
        assert got == pytest.approx(moment_k3(x1, x2, y), rel=1e-10, abs=1e-12)


def test_sample_k3_length_mismatch():
    with pytest.raises(DimensionMismatch):
        sample_k3(center([1.0, 2.0], 0), center([1.0, 2.0, 3.0], 1), center([1.0, 2.0], -1))


# --------------------------------------------------------------------------
# pair_score
# --------------------------------------------------------------------------


def test_pair_score_worked_example():
    c1, c2, cy = center(EX1, 0), center(EX2, 1), center(EXY, -1)
    stat = pair_score(c1, c2, cy)
    # numerator sqrt(4)*0.25 = 0.5, denominator sqrt(1*1*0.75)
    assert stat.r_hat == pytest.approx(0.5 / math.sqrt(0.75), rel=1e-15)
    assert stat.r_hat == pytest.approx(0.57735, abs=5e-6)
    assert stat.tau_hat == 0.0625
    assert (stat.j1, stat.j2) == (0, 1)
    assert stat.r_hat == pytest.approx(ratio_form(c1, c2, cy), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_pair_score_two_route_identity(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 300))
    c1 = center(rng.normal(size=n), 0)
    c2 = center(rng.uniform(size=n), 1)
    cy = center(rng.normal(size=n), -1)
    stat = pair_score(c1, c2, cy)
    assert stat.r_hat >= 0.0
    assert math.isfinite(stat.r_hat)
    assert stat.r_hat == pytest.approx(ratio_form(c1, c2, cy), rel=1e-12)


def test_pair_score_symmetry_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c1 = center(rng.normal(size=37), 0)
        c2 = center(rng.normal(size=37), 5)
        cy = center(rng.normal(size=37), -1)
        a = pair_score(c1, c2, cy)
        b = pair_score(c2, c1, cy)
        assert a.r_hat == b.r_hat
        assert a.tau_hat == b.tau_hat
        assert (a.j1, a.j2) == (b.j1, b.j2) == (0, 5)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pair_score_swap_is_bit_identical_property(data):
    n = data.draw(st.integers(3, 30), label="n")
    values = st.lists(st.floats(-1e30, 1e30, allow_nan=False), min_size=n, max_size=n)
    c1, c2, cy = (center(data.draw(values, label=f"col{j}"), j) for j in (0, 1, -1))
    assume(min(c1.css, c2.css, cy.css) > 0.0)
    a = pair_score(c1, c2, cy)
    b = pair_score(c2, c1, cy)
    assert (a.j1, a.j2, a.tau_hat.hex(), a.r_hat.hex()) == (b.j1, b.j2, b.tau_hat.hex(), b.r_hat.hex())


def test_pair_score_css_product_out_of_normal_range():
    # css1 * css2 * cssY underflows to 0 here although each css is positive.
    c1 = center([0.0, 0.0, 1.0], 0)
    c2 = center([0.0, 0.0, 0.00390625], 1)
    cy = center([0.0, 0.0, 3.7042185931496715e-160], -1)
    assert c1.css * c2.css * cy.css == 0.0
    a = pair_score(c1, c2, cy)
    b = pair_score(c2, c1, cy)
    assert (a.r_hat.hex(), a.tau_hat.hex()) == (b.r_hat.hex(), b.tau_hat.hex())
    # Two of three samples share a value in every column: r_hat = 1/sqrt(2),
    # up to the few digits the subnormal cssY itself keeps.
    assert a.r_hat == pytest.approx(1 / math.sqrt(2), rel=1e-4)
    # ... and overflows to inf here.
    big = [center([0.0, 0.0, 1e70], j) for j in (0, 1, -1)]
    assert math.isinf(big[0].css * big[1].css * big[2].css)
    assert pair_score(*big).r_hat == pytest.approx(1 / math.sqrt(2), rel=1e-9)


def test_pair_score_affine_invariance():
    rng = np.random.default_rng(23)
    x1 = rng.normal(size=80)
    x2 = rng.normal(size=80)
    y = x1 * x2 + rng.normal(size=80)
    base = pair_score(center(x1, 0), center(x2, 1), center(y, -1)).r_hat
    for a, b in [(2.0, 3.0), (-1.5, 0.0), (0.01, -7.0)]:
        assert pair_score(center(a * x1 + b, 0), center(x2, 1), center(y, -1)).r_hat == pytest.approx(base, rel=1e-12)
        assert pair_score(center(x1, 0), center(a * x2 + b, 1), center(y, -1)).r_hat == pytest.approx(base, rel=1e-12)
        assert pair_score(center(x1, 0), center(x2, 1), center(a * y + b, -1)).r_hat == pytest.approx(base, rel=1e-12)


def test_pair_score_sample_permutation_invariance():
    rng = np.random.default_rng(31)
    x1 = rng.normal(size=60)
    x2 = rng.normal(size=60)
    y = rng.normal(size=60)
    base = pair_score(center(x1, 0), center(x2, 1), center(y, -1))
    perm = rng.permutation(60)
    shuffled = pair_score(center(x1[perm], 0), center(x2[perm], 1), center(y[perm], -1))
    assert shuffled.r_hat == pytest.approx(base.r_hat, rel=1e-12)
    assert shuffled.tau_hat == pytest.approx(base.tau_hat, rel=1e-12)


def test_pair_score_rejects_zero_variance_and_self_pair():
    good = center([1.0, 2.0, 3.0, 4.0], 0)
    other = center([4.0, 1.0, 2.0, 2.0], 1)
    flat = center([2.0, 2.0, 2.0, 2.0], 2)
    with pytest.raises(ZeroVarianceColumn) as exc:
        pair_score(good, flat, other)
    assert exc.value.index == 2
    with pytest.raises(ZeroVarianceColumn) as exc:
        pair_score(good, other, center([1.0, 1.0, 1.0, 1.0], -1))
    assert exc.value.index == -1
    with pytest.raises(InvalidPair):
        pair_score(good, center([9.0, 1.0, 5.0, 2.0], 0), other)


@pytest.mark.parametrize("j1, j2", [(2, 2), (3, 1)])
def test_pair_statistic_rejects_a_pair_out_of_order(j1, j2):
    with pytest.raises(InvalidPair, match=rf"j1 < j2, got \({j1}, {j2}\)"):
        PairStatistic(j1, j2, 0.5, 0.5)


# --------------------------------------------------------------------------
# Statistical tendencies
# --------------------------------------------------------------------------


def bernoulli_product_k3(q: float) -> float:
    """Population three-way cumulant of (X1, X2, Y=X1*X2) for independent
    Bernoulli(q) factors: q^2 * (1-q)^2 (exact, from the moment expansion
    with E[X^k] = q and E[Y X1] = E[Y X2] = E[Y X1 X2] = q^2)."""
    return q * q * (1.0 - q) * (1.0 - q)


def test_bernoulli_product_k3_against_enumeration():
    # exact enumeration over the four atoms of (X1, X2)
    for q in (0.2, 0.5, 0.73):
        atoms = [
            (a, b, a * b, (q if a else 1 - q) * (q if b else 1 - q))
            for a in (0, 1)
            for b in (0, 1)
        ]
        m = lambda f: sum(w * f(a, b, y) for a, b, y, w in atoms)
        k3 = (
            m(lambda a, b, y: a * b * y)
            - m(lambda a, b, y: a * b) * m(lambda a, b, y: y)
            - m(lambda a, b, y: a * y) * m(lambda a, b, y: b)
            - m(lambda a, b, y: b * y) * m(lambda a, b, y: a)
            + 2 * m(lambda a, b, y: a) * m(lambda a, b, y: b) * m(lambda a, b, y: y)
        )
        assert k3 == pytest.approx(bernoulli_product_k3(q), rel=1e-12)


def test_k3_estimator_error_shrinks_with_n():
    # reduced version of the consistency tendency (the acceptance suite
    # runs the full n = 100/1000/10000 ladder)
    rng = np.random.default_rng(2024)
    truth = bernoulli_product_k3(0.5)
    med_err = []
    for n in (100, 1000):
        errs = []
        for _ in range(100):
            x1 = (rng.random(n) < 0.5).astype(float)
            x2 = (rng.random(n) < 0.5).astype(float)
            y = x1 * x2
            tau = sample_k3(center(x1, 0), center(x2, 1), center(y, -1))
            errs.append(abs(tau - truth))
        med_err.append(float(np.median(errs)))
    assert med_err[1] < med_err[0]


def test_null_score_quantile_shrinks_with_n():
    # Y independent of the pair: the 95th percentile of the score at
    # n=1000 sits below the 95th percentile at n=100
    rng = np.random.default_rng(404)
    q95 = {}
    for n in (100, 1000):
        vals = []
        for _ in range(500):
            x1 = rng.normal(size=n)
            x2 = rng.normal(size=n)
            y = rng.normal(size=n)
            vals.append(pair_score(center(x1, 0), center(x2, 1), center(y, -1)).r_hat)
        q95[n] = float(np.percentile(vals, 95))
    assert q95[1000] < q95[100]
