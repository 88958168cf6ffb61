"""Scanner tests: pair enumeration, hoisting, sweep vs naive oracle,
determinism, sharding, selection."""

import functools
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jciscan
from jciscan import (
    GenotypeMatrix,
    ScanConfig,
    all_scores,
    merge_top_pairs,
    pair_count,
    pair_from_index,
    pair_index,
    precompute,
    ranks_of_pairs,
    scan,
    select_by_threshold,
    study_spec,
)
from jciscan.cumulants import PairStatistic, center, validate_c1
from jciscan.errors import (
    DegenerateSample,
    DimensionMismatch,
    EmptyRange,
    InvalidPair,
    InvalidValue,
    JciscanError,
    TooFewColumns,
    ZeroVarianceColumn,
)
from jciscan.scan import (
    CodeWorkspace,
    PairTable,
    Workspace,
    _row_start,
    default_worker_count,
    iter_score_rows,
)
from jciscan.simulate import SimStudySpec

# By module path: the package's `scan` function shadows the submodule.
scan_module = importlib.import_module("jciscan.scan")

# --------------------------------------------------------------------------
# Naive reference: pure-Python double loop straight from the definitions.
# --------------------------------------------------------------------------


def naive_pair_scores(X, y):
    n, p = X.shape
    cols = []
    for j in range(p):
        v = [float(t) for t in X[:, j]]
        m = sum(v) / n
        cols.append([t - m for t in v])
    ym = sum(float(t) for t in y) / n
    cy = [float(t) - ym for t in y]
    ss = [sum(t * t for t in c) for c in cols]
    ssy = sum(t * t for t in cy)
    out = {}
    for j1 in range(p):
        for j2 in range(j1 + 1, p):
            s = 0.0
            for i in range(n):
                s += cols[j1][i] * cols[j2][i] * cy[i]
            out[(j1, j2)] = math.sqrt(n) * abs(s) / math.sqrt(ss[j1] * ss[j2] * ssy)
    return out


def naive_order(scores):
    return sorted(scores, key=lambda pr: (-scores[pr], pr[0], pr[1]))


def random_instance(seed, max_n=100, max_p=50, binary=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, max_n + 1))
    p = int(rng.integers(5, max_p + 1))
    if binary:
        X = (rng.random((n, p)) < 0.5).astype(np.float64)
        # guard against constant columns at small n
        X[0, :] = 1.0
        X[1, :] = 0.0
        y = X[:, 0] * X[:, 1] + (rng.random(n) < 0.3)
    else:
        X = rng.normal(size=(n, p))
        y = X[:, 0] * X[:, 1] + rng.normal(size=n)
    return X, y


# --------------------------------------------------------------------------
# Pair enumeration
# --------------------------------------------------------------------------


def test_pair_count():
    assert pair_count(2) == 1
    assert pair_count(3) == 3
    assert pair_count(1000) == 499_500
    assert pair_count(234_754) == 27_554_602_881
    with pytest.raises(TooFewColumns):
        pair_count(1)


def test_pair_index_examples():
    assert pair_index(0, 1, 4) == 0
    assert pair_index(2, 3, 4) == 5
    for bad in [(1, 1, 4), (2, 1, 4), (0, 4, 4), (-1, 2, 4)]:
        with pytest.raises(InvalidPair):
            pair_index(*bad)
    with pytest.raises(InvalidPair):
        pair_from_index(6, 4)
    with pytest.raises(InvalidPair):
        pair_from_index(-1, 4)


def test_pair_index_roundtrip_exhaustive():
    p = 100
    idx = 0
    for j1 in range(p):
        for j2 in range(j1 + 1, p):
            assert pair_index(j1, j2, p) == idx
            assert pair_from_index(idx, p) == (j1, j2)
            idx += 1
    assert idx == pair_count(p)


def test_pair_index_roundtrip_at_genome_scale():
    p = 234_754
    total = pair_count(p)
    for idx in [0, 1, p - 2, p - 1, total // 3, total // 2, total - 2, total - 1]:
        j1, j2 = pair_from_index(idx, p)
        assert 0 <= j1 < j2 < p
        assert pair_index(j1, j2, p) == idx


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from([2, 3, 59, 2**20 - 1, 2**20, 2**20 + 1, 234_754, 2**26 + 3, 10**9]),
        st.integers(2, 10**9),
    ),
    data=st.data(),
)
def test_pair_index_bijection_property(p, data):
    idx = data.draw(st.integers(0, pair_count(p) - 1))
    j1, j2 = pair_from_index(idx, p)
    assert 0 <= j1 < j2 < p
    assert pair_index(j1, j2, p) == idx


# --------------------------------------------------------------------------
# precompute
# --------------------------------------------------------------------------


def test_precompute_centers_each_column_once():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    ws = precompute(X, y)
    assert ws.p == 3 and ws.n == 10


def test_precompute_names_offending_column():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 10))
    X[:, 7] = 2.5
    with pytest.raises(ZeroVarianceColumn) as exc:
        precompute(X, rng.normal(size=12))
    assert exc.value.index == 7
    with pytest.raises(ZeroVarianceColumn) as exc:
        precompute(rng.normal(size=(12, 4)), np.full(12, 2.0))
    assert exc.value.index == -1


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    target=st.sampled_from([0, 1, 2, "y"]),
    log_scale=st.floats(-300, 300),
    sign=st.sampled_from([1.0, -1.0]),
    shift=st.floats(-1e3, 1e3),
)
def test_scores_are_affine_invariant_at_any_scale(seed, target, log_scale, sign, shift):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 3))
    # Every pair interacts, so no score sits near 0 where rtol is too tight.
    y = X[:, 0] * X[:, 1] + X[:, 1] * X[:, 2] + X[:, 0] * X[:, 2] + 0.5 * rng.normal(size=40)
    base = all_scores(precompute(X, y))
    col = y if target == "y" else X[:, target]
    # Shifted before scaling: the std of a column near 1e300 overflows.
    mapped = sign * 10.0**log_scale * (col + shift * col.std())
    if target == "y":
        moved = all_scores(precompute(X, mapped))
    else:
        X2 = X.copy()
        X2[:, target] = mapped
        moved = all_scores(precompute(X2, y))
    np.testing.assert_allclose(moved, base, rtol=1e-9, atol=0)


@pytest.mark.parametrize("factor", [1e160, 1e-160, 1e300, 1e-300])
@pytest.mark.parametrize("target", ["pair", "y"])
def test_scores_hold_at_column_scales_past_the_square_range(factor, target):
    # Past 1e154 a square overflows and past 1e-162 it underflows; the
    # power-of-two prescale keeps every score to within rounding.
    rng = np.random.default_rng(41)
    X = rng.normal(size=(60, 6))
    y = X[:, 0] * X[:, 1] + rng.normal(size=60)
    base = all_scores(precompute(X, y))
    if target == "y":
        moved = all_scores(precompute(X, y * factor))
    else:
        X2 = X.copy()
        X2[:, :2] *= factor
        moved = all_scores(precompute(X2, y))
    np.testing.assert_allclose(moved, base, rtol=1e-13, atol=0)


def test_integer_response_spanning_the_float_range_takes_the_float_route():
    # Its range max(y) - min(y) overflows, so it can never take the exact
    # route; scaled down first, it scores what the 0/1 response scores.
    rng = np.random.default_rng(43)
    codes = rng.integers(0, 3, size=(80, 7)).astype(np.uint8)
    case = (codes[:, 1] * codes[:, 4] + rng.integers(0, 3, size=80)) > 2
    ws = precompute(codes, np.where(case, 1.7e308, -1.7e308))
    assert isinstance(ws, Workspace)
    np.testing.assert_allclose(all_scores(ws), all_scores(precompute(codes, case * 1.0)), rtol=1e-12, atol=1e-15)


def test_tau_hat_past_the_float_range_is_infinite_and_r_hat_exact():
    # Columns 0 and 1 at 2^532 (about 1.4e160): tau_hat of their pair is
    # 2^1064 times the unscaled one, past the float range, while tau_hat of
    # a pair with one of them is exactly 2^532 times, and r_hat keeps its bits.
    rng = np.random.default_rng(42)
    X = rng.normal(size=(60, 6))
    y = X[:, 0] * X[:, 1] + rng.normal(size=60)
    config = ScanConfig(top_k=pair_count(6))
    base = scan(precompute(X, y), config).top_pairs
    X[:, :2] *= 2.0**532
    big = scan(precompute(X, y), config).top_pairs
    assert big.r_hat.tobytes() == base.r_hat.tobytes()
    assert np.array_equal(big.j1, base.j1) and np.array_equal(big.j2, base.j2)
    both = (base.j1 == 0) & (base.j2 == 1)
    one = (base.j1 < 2) ^ both
    assert big.tau_hat[both] == np.copysign(np.inf, base.tau_hat[both])
    assert big.tau_hat[one].tobytes() == np.ldexp(base.tau_hat[one], 532).tobytes()
    assert big.tau_hat[~(both | one)].tobytes() == base.tau_hat[~(both | one)].tobytes()


def test_constant_columns_are_rejected_at_any_scale():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    for value in (0.0, 0.1, 2.5, 1e-8 * 0.1, 1e8 * 0.1, -7e5):
        bad = X.copy()
        bad[:, 2] = value
        with pytest.raises(ZeroVarianceColumn) as exc:
            precompute(bad, y)
        assert exc.value.index == 2
        with pytest.raises(ZeroVarianceColumn) as exc:
            precompute(X, np.full(50, value))
        assert exc.value.index == -1


def test_precompute_shape_guards():
    rng = np.random.default_rng(2)
    with pytest.raises(DegenerateSample):
        precompute(rng.normal(size=(2, 5)), rng.normal(size=2))
    with pytest.raises(TooFewColumns):
        precompute(rng.normal(size=(10, 1)), rng.normal(size=10))
    with pytest.raises(InvalidValue, match="n x p matrix"):
        precompute(rng.normal(size=10), rng.normal(size=10))
    with pytest.raises(InvalidValue, match="n x p matrix"):
        precompute(rng.normal(size=(10, 2, 2)), rng.normal(size=10))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 400),
    p=st.integers(2, 30),
    log_scale=st.integers(-400, 400),
)
def test_precompute_scale_is_the_center_reference_bitwise(seed, n, p, log_scale):
    # The stacked sums of squares keep center()'s np.dot bits; scale is
    # their square root (a square does not round-trip a root, so the roots
    # are compared), held in units of 2^shift, which scale back exactly.
    rng = np.random.default_rng(seed)
    X = (rng.normal(size=(n, p)) + 100 * rng.normal(size=p)) * 2.0**log_scale
    ws = precompute(X, rng.normal(size=n))
    css = np.array([center(X[:, j], index=j).css for j in range(p)])
    assert np.ldexp(ws.scale, ws.shift).tobytes() == np.sqrt(css).tobytes()


def test_precompute_matches_center_reference_bitwise():
    rng = np.random.default_rng(3)
    y = rng.normal(size=40)
    floats = rng.normal(size=(40, 9)) * rng.uniform(0.1, 1e4, size=9) + rng.uniform(-1e6, 1e6, size=9)
    codes = rng.integers(1, 4, size=(40, 9)).astype(np.uint8)
    genotypes = GenotypeMatrix(codes=codes, snp_ids=tuple("abcdefghi"), chromosomes=(1,) * 9)
    for X, raw in [
        (np.ascontiguousarray(floats), floats),
        (np.asfortranarray(floats), floats),
        (genotypes, codes.astype(np.float64)),
    ]:
        ws = precompute(X, y)
        cols = [center(raw[:, j], index=j) for j in range(raw.shape[1])]
        assert np.array_equal(np.ldexp(ws.matrix, ws.shift), np.column_stack([c.centered for c in cols]))
        assert np.array_equal(np.ldexp(ws.scale, ws.shift), np.sqrt(np.array([c.css for c in cols])))
        assert math.ldexp(ws.response_scale, ws.response_shift) == float(np.sqrt(center(y).css))

    # Errors name the response first, then the lowest offending column,
    # without numpy warnings from the non-finite entries.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = floats.copy()
        X[3, 5] = np.nan
        X[:, 7] = 1.5
        with pytest.raises(InvalidValue, match="column 5 "):
            precompute(X, y)
        X[:, 2] = 1.5
        X[0, 4] = np.inf
        with pytest.raises(ZeroVarianceColumn) as exc:
            precompute(X, y)
        assert exc.value.index == 2
        X = floats.copy()
        X[:, 7] = 1.5
        with pytest.raises(ZeroVarianceColumn) as exc:
            precompute(X, np.full(40, 2.0))
        assert exc.value.index == -1
        # Integer columns with a NaN or an infinity fail the exact route's
        # check without a cast warning, and the float route names them.
        X = codes.astype(np.float64)
        for bad in (np.nan, np.inf):
            X[3, 5] = bad
            with pytest.raises(InvalidValue, match="column 5 "):
                precompute(X, (y > 0).astype(np.float64))


def test_two_workspaces_of_one_input_give_identical_scores():
    X, y = random_instance(seed=33)
    ws = precompute(X, y)
    assert np.array_equal(all_scores(ws), all_scores(precompute(X, y)))


# --------------------------------------------------------------------------
# Sweep vs naive oracle
# --------------------------------------------------------------------------


def test_scan_matches_naive_reference_top10():
    X, y = random_instance(seed=7, max_n=50, max_p=30)
    ref = naive_pair_scores(X, y)
    order = naive_order(ref)
    res = scan(precompute(X, y), ScanConfig(top_k=10))
    assert [(s.j1, s.j2) for s in res.top_pairs] == order[:10]
    for s in res.top_pairs:
        assert s.r_hat == pytest.approx(ref[(s.j1, s.j2)], rel=1e-12)
    assert res.pairs_scanned == pair_count(X.shape[1])


def test_all_scores_matches_naive_reference():
    X, y = random_instance(seed=13, max_n=40, max_p=16)
    p = X.shape[1]
    ref = naive_pair_scores(X, y)
    flat = all_scores(precompute(X, y))
    for (j1, j2), v in ref.items():
        assert flat[pair_index(j1, j2, p)] == pytest.approx(v, rel=1e-12)


def test_iter_score_rows_matches_all_scores():
    X, y = random_instance(seed=14, max_n=40, max_p=16)
    ws = precompute(X, y)
    flat = all_scores(ws)
    rebuilt = np.concatenate([row for _, row in iter_score_rows(ws)])
    assert np.array_equal(flat, rebuilt)


def test_sweep_tile_is_the_only_reader_of_rows(monkeypatch):
    # Every consumer of pair values (top-k, threshold, the flat array and
    # the dump stream) reaches a workspace's rows through _sweep_tile.
    callers = []
    for cls in (Workspace, CodeWorkspace):
        def recorded(self, anchors, span, _rows=cls.rows):
            callers.append(sys._getframe(1).f_code.co_name)
            return _rows(self, anchors, span)

        monkeypatch.setattr(cls, "rows", recorded)

    rng = np.random.default_rng(21)
    codes = rng.integers(1, 4, size=(40, 90)).astype(np.uint8)
    genotype = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(90)), chromosomes=(1,) * 90)
    case_control = np.tile([1.0, 2.0], 20)
    inputs = [
        (rng.normal(size=(30, 12)), rng.normal(size=30), Workspace),
        (genotype, case_control, CodeWorkspace),
    ]
    for matrix, y, route in inputs:
        ws = precompute(matrix, y)
        assert isinstance(ws, route)
        scan(ws, ScanConfig(top_k=5, threshold=0.1))
        ranks_of_pairs(ws, ws.p, [(0, 1), (2, 5)])
        all_scores(ws)
        rows = list(iter_score_rows(ws))
        assert len(rows) == ws.p - 1
    assert callers and set(callers) == {"_sweep_tile"}


def test_first_top_k_screen_stays_within_its_tile_buffers():
    # The cell lower bounds are bounded a few rows at a time, each group
    # lifting the floor for the next, so even while the floor is still -inf
    # the first screen of a top-k scan allocates about the two reused
    # 64 x 2048 float64 tile buffers, not a copy of every lower bound in
    # its first tile, for a k above the tile's 64 anchors too.
    rng = np.random.default_rng(17)
    ws = precompute(rng.normal(size=(20, 3000)), rng.normal(size=20))
    buffers = 2 * scan_module._ANCHOR_BLOCK * scan_module._PARTNER_CHUNK * 8
    for k in (5, 64, 100, 1000):
        top = scan_module._TopK(k)
        tracemalloc.start()
        try:
            scan_module._screened(ws, range(256), (0, pair_count(3000)), top, np.empty(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffers + 2**19, (k, peak)
        assert top.floor > -np.inf


@pytest.mark.parametrize("k", [1, 5, 64, 100, 1000])
def test_top_k_screen_leaves_the_kth_largest_cell_lower_bound_as_floor(k):
    # The screen keeps every cell lower bound above the running floor, so
    # once every work tile is screened, before any row is read, the floor
    # is the k-th largest finite lower bound over the span.
    rng = np.random.default_rng(19)
    ws = precompute(rng.normal(size=(20, 2100)), rng.normal(size=20))
    total = pair_count(2100)
    for span in ((0, total), (total // 3 + 17, 2 * total // 3 + 5)):
        anchors = scan_module._anchors_for_span(ws.p, span)
        top, lower = scan_module._TopK(k), []
        for a0 in range(0, len(anchors), 256):
            tile = anchors[a0 : a0 + 256]
            scan_module._screened(ws, tile, span, top, np.empty(0))
            for _, _, estimate, radius in ws.bounds(tile, span):
                cells = estimate - radius[:, None]
                lower.append(cells[np.isfinite(cells)])
        lower = np.concatenate(lower)
        assert lower.size > k
        assert top.floor == np.partition(lower, lower.size - k)[lower.size - k], (k, span)


def test_float_precompute_holds_the_matrix_once_plus_one_block():
    # Column blocks go straight into the one n x p float64 matrix: beside
    # it precompute holds one block and per-column vectors, never a copy.
    rng = np.random.default_rng(18)
    y = rng.normal(size=1000)
    for X in (rng.normal(size=(1000, 2000)), rng.integers(1, 4, size=(1000, 2000)).astype(np.uint8)):
        tracemalloc.start()
        try:
            ws = precompute(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(ws, Workspace)
        assert peak <= ws.matrix.nbytes + 8 * 2**20, peak


def test_precompute_column_blocks_keep_center_bits_and_absolute_column_ids():
    # At n = 1000 a block is 131 columns, so p = 300 is three blocks, the
    # last one partial.
    rng = np.random.default_rng(23)
    n, p = 1000, 300
    X = (rng.normal(size=(n, p)) + 10 * rng.normal(size=p)) * 2.0 ** rng.integers(-400, 400, size=p)
    y = rng.normal(size=n)
    ws = precompute(X, y)
    assert ws.matrix.flags.c_contiguous and not ws.matrix.flags.writeable
    assert ws.shift.dtype == np.intc
    for j in range(p):
        col = center(np.ldexp(X[:, j], -int(ws.shift[j])), index=j)
        assert ws.matrix[:, j].tobytes() == col.centered.tobytes()
        assert ws.scale[j] == math.sqrt(col.css)
    for j in (5, 140, 299):
        for bad in (np.nan, -np.inf, None):
            Z = X.copy()
            if bad is None:
                Z[:, j] = 0.1
                with pytest.raises(ZeroVarianceColumn) as exc:
                    precompute(Z, y)
                assert exc.value.index == j
            else:
                Z[7, j] = bad
                with pytest.raises(InvalidValue, match=f"^column {j} contains non-finite values$"):
                    precompute(Z, y)


def test_precompute_takes_real_dtypes_only():
    rng = np.random.default_rng(24)
    X = rng.integers(0, 2, size=(30, 4))
    y = rng.normal(size=30)
    for bad in (X + 1j, X.astype(str), X.astype(object)):
        with pytest.raises(InvalidValue, match="real matrix"):
            precompute(bad, y)
    # bool, int16, uint8 and float32 codes take the exact route against an
    # integer response and the float route against a real one.
    for dtype in (bool, np.int16, np.uint8, np.float32):
        assert isinstance(precompute(X.astype(dtype), (y > 0).astype(float)), CodeWorkspace)
        assert isinstance(precompute(X.astype(dtype), y), Workspace)


def test_precompute_takes_a_real_response_only():
    rng = np.random.default_rng(25)
    X = rng.integers(0, 3, size=(30, 4))
    y = rng.normal(size=30)
    for bad in (y + 1j, y.astype(str), y.astype(object)):
        with pytest.raises(InvalidValue, match="real response"):
            precompute(X, bad)
    # A bool, integer or float response keeps its route and its bits: the
    # same workspace as the float64 cast of the same values.
    yb = y > 0
    for response, route in ((yb, CodeWorkspace), (yb.astype(np.int16), CodeWorkspace),
                            (yb.astype(np.float32), CodeWorkspace), (y, Workspace),
                            (y.astype(np.float32), Workspace)):
        ws, ref = precompute(X, response), precompute(X, response.astype(np.float64))
        assert type(ws) is type(ref) is route
        np.testing.assert_array_equal(all_scores(ws), all_scores(ref))


def _sparse_columns(rng, n, p, density):
    """0/0.3 columns, 0.3 at about ``density`` of the rows: non-integer, so
    they take the float route, and sparse, so ``||c||_1`` sits far below
    ``sqrt(n) ||c||_2``.  Row 0 is 0.3 and row 1 is 0 in every column, so
    none is constant."""
    X = np.where(rng.random((n, p)) < density, 0.3, 0.0)
    X[0], X[1] = 0.3, 0.0
    return X


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_bounds_certify_every_row_value(data):
    # Cell by cell: every in-span r_hat of Workspace.rows lies within
    # estimate -+ radius of Workspace.bounds, and every cell outside the
    # span has estimate -inf, on designs that stress the Cauchy-Schwarz
    # radius (sparse columns), the centering (offsets, heavy tails) and
    # the prescale (columns at 2^+-500).
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(3, 300), label="n")
    p = data.draw(st.integers(2, 80), label="p")
    kind = data.draw(st.sampled_from(["normal", "offset", "sparse", "cauchy", "scaled"]), label="kind")
    if kind == "sparse":
        X = _sparse_columns(rng, n, p, rng.uniform(0.01, 0.05))
    elif kind == "cauchy":
        X = rng.standard_cauchy(size=(n, p))
    else:
        X = rng.normal(size=(n, p))
        if kind == "offset":
            X += 1e6
        elif kind == "scaled":
            X *= 2.0 ** rng.choice([-500, 500], size=p)
    y = rng.normal(size=n) + data.draw(st.sampled_from([0.0, 1e6]), label="y_offset")
    ws = precompute(X, y)
    assert isinstance(ws, Workspace)
    total = pair_count(p)
    a = data.draw(st.integers(0, total - 1), label="span_start")
    b = data.draw(st.integers(a + 1, total), label="span_end")
    anchors = scan_module._anchors_for_span(p, (a, b))
    value = np.full((len(anchors), p), np.nan)
    for j1, lo, r_hat, _ in ws.rows(anchors, (a, b)):
        value[j1 - anchors.start, lo : lo + r_hat.shape[1]] = r_hat
    estimate = np.full_like(value, -np.inf)
    radius = np.full(len(anchors), np.nan)
    for a0, lo, tile, tile_radius in ws.bounds(anchors, (a, b)):
        rows = slice(a0 - anchors.start, a0 - anchors.start + tile.shape[0])
        estimate[rows, lo : lo + tile.shape[1]] = tile
        radius[rows] = tile_radius
    j1, j2 = np.meshgrid(np.array(anchors), np.arange(p), indexing="ij")
    index = np.array([pair_index(i, j, p) if i < j else -1 for i, j in zip(j1.ravel(), j2.ravel())])
    in_span = ((index >= a) & (index < b)).reshape(j1.shape)
    assert np.array_equal(np.isfinite(value), in_span)
    assert np.all(estimate[~in_span] == -np.inf)
    low, high = estimate - radius[:, None], estimate + radius[:, None]
    assert np.all(low[in_span] <= value[in_span]) and np.all(value[in_span] <= high[in_span])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 200),
    a=st.sampled_from([0.1, -0.1, 7e5, -7e5, 2.5]),
    log_delta=st.floats(-15.5, -9.5),
    log_scale=st.sampled_from([-100, 0, 100]),
)
def test_precompute_variance_floor_agrees_with_validate_c1(seed, n, a, log_delta, log_scale):
    # Columns a + a delta z straddle the relative floor; precompute reads
    # the spread from its prescale's extremes, validate_c1 from the
    # centered column, and the verdicts agree at every column scale.
    rng = np.random.default_rng(seed)
    col = (a + a * 10.0**log_delta * rng.normal(size=n)) * 2.0**log_scale
    X = np.column_stack([rng.normal(size=n), col])
    try:
        validate_c1(center(col, index=1))
        expect = None
    except ZeroVarianceColumn as exc:
        expect = exc.index
    try:
        precompute(X, rng.normal(size=n))
        found = None
    except ZeroVarianceColumn as exc:
        found = exc.index
    assert found == expect


def test_top_k_scan_of_a_sparse_design_reads_about_k_rows():
    # Sparse columns keep ||c||_1 far below sqrt(n) ||c||_2, where the
    # Cauchy-Schwarz radius is loosest; a top-10 scan still reads about 10
    # anchor rows.
    for seed, density in ((0, 0.01), (1, 0.03), (2, 0.05)):
        rng = np.random.default_rng(seed)
        X = _sparse_columns(rng, 400, 300, density)
        ws = precompute(X, X[:, 0] * X[:, -1] + rng.normal(size=400))
        assert isinstance(ws, Workspace)
        assert scan(ws, ScanConfig(top_k=10)).stats.rows_read <= 20


def test_drained_float_score_rows_sweep_one_gemm_tile_of_anchors_at_a_time(monkeypatch):
    # 199 anchors in blocks of _ANCHOR_BLOCK (64): four sweeps, not one per anchor.
    calls = []
    raw = scan_module._sweep_tile

    def counted(*args):
        calls.append(args[1])
        return raw(*args)

    monkeypatch.setattr(scan_module, "_sweep_tile", counted)
    rng = np.random.default_rng(3)
    ws = precompute(rng.normal(size=(30, 200)), rng.normal(size=30))
    rows = list(iter_score_rows(ws))
    assert [j1 for j1, _ in rows] == list(range(199))
    assert len(calls) <= 4
    assert np.concatenate([row for _, row in rows]).tobytes() == all_scores(ws).tobytes()


def _screen_design(data):
    """A workspace drawn for the screen-versus-oracle tests: 0/1 columns
    with duplicated and complemented columns (exact ties), normal columns,
    normal columns scaled by 2^-500, 1 or 2^500, sparse 0/0.3 columns, or
    genotype codes with duplicated and recoded columns against a
    case/control response (the exact route)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(3, 60), label="n")
    p = data.draw(st.integers(2, 40), label="p")
    kind = data.draw(st.sampled_from(["binary", "normal", "scaled", "sparse", "genotype"]), label="kind")
    if kind == "genotype":
        codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
        codes[:2] = [[1] * p, [3] * p]
        for _ in range(p // 2):
            a, b = rng.integers(p, size=2)
            codes[:, a] = codes[:, b] if rng.random() < 0.5 else 4 - codes[:, b]
        y = rng.integers(0, 2, size=n).astype(np.float64)
        y[:2] = [0.0, 1.0]
        matrix = GenotypeMatrix(codes=codes, snp_ids=tuple(map(str, range(p))), chromosomes=(1,) * p)
        return precompute(matrix, y)
    if kind == "binary":
        X = (rng.random((n, p)) < 0.5).astype(np.float64)
        X[0], X[1] = 1.0, 0.0
        for _ in range(p // 2):
            a, b = rng.integers(p, size=2)
            X[:, a] = X[:, b] if rng.random() < 0.5 else 1.0 - X[:, b]
        y = X[:, 0] * X[:, -1] + (rng.random(n) < 0.5)
        y[0], y[1] = 0.0, 1.0
    elif kind == "sparse":
        X = _sparse_columns(rng, n, p, rng.uniform(0.01, 0.3))
        y = X[:, 0] * X[:, -1] + rng.normal(size=n)
    else:
        X = rng.normal(size=(n, p))
        y = X[:, 0] * X[:, -1] + rng.normal(size=n)
        if kind == "scaled":
            X *= 2.0 ** rng.choice([-500, 0, 500], size=p)
    return precompute(X, y)


def _oracle_table(ws, flat, picked) -> PairTable:
    """The pairs at canonical indices ``picked``, in that order, with r_hat
    from the flat array and tau_hat read from the anchor's row."""
    pairs = [pair_from_index(i, ws.p) for i in picked]
    taus = []
    for j1, j2 in pairs:
        row = (_row_start(j1, ws.p), _row_start(j1 + 1, ws.p))
        taus += [t[0, j2 - lo] for _, lo, _, t in ws.rows(range(j1, j1 + 1), row) if lo <= j2 < lo + t.shape[1]]
    return PairTable(
        np.array([j1 for j1, _ in pairs], dtype=np.intp),
        np.array([j2 for _, j2 in pairs], dtype=np.intp),
        np.array(taus, dtype=np.float64),
        flat[np.array(picked, dtype=np.intp)],
    )


def _assert_screen_matches_oracle(ws, top_k, threshold, block, workers, pair_range, ranked):
    """``scan`` against the order of ``all_scores`` (r_hat descending, then
    canonical index): each of top-k, threshold and the ranks of the
    ``ranked`` pairs inside the span is checked when asked for, the ranks
    against ``ranks_of_pairs`` on the flat array with every pair outside
    the span at -inf.  ``ranks_of_pairs`` on the workspace is checked
    against the same ranks from the full flat array."""
    flat = all_scores(ws)
    order = np.lexsort((np.arange(flat.size), -flat))
    a, b = pair_range if pair_range is not None else (0, flat.size)
    in_range = order[(order >= a) & (order < b)]
    inside = [pair for pair in ranked if a <= pair_index(*pair, ws.p) < b]
    config = ScanConfig(top_k=top_k, threshold=threshold, block_size=block,
                        worker_count=workers, pair_range=pair_range, rank_pairs=inside)
    res = scan(ws, config)
    assert res.pairs_scanned == b - a
    assert res.top_pairs == (_oracle_table(ws, flat, in_range[:top_k]) if top_k is not None else ())
    above = in_range[flat[in_range] > threshold] if threshold is not None else []
    assert res.selected == (_oracle_table(ws, flat, above) if threshold is not None else ())
    window = np.full_like(flat, -np.inf)
    window[a:b] = flat[a:b]
    expect = ranks_of_pairs(window, ws.p, inside)
    assert res.ranks == tuple((pair, expect[pair]) for pair in inside)
    assert ranks_of_pairs(ws, ws.p, ranked) == ranks_of_pairs(flat, ws.p, ranked)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_screen_equals_the_all_scores_oracle(data):
    # Top-k, threshold and ranks in every combination, from one pass.
    ws = _screen_design(data)
    total = pair_count(ws.p)
    flat = all_scores(ws)
    top_k = data.draw(st.none() | st.integers(1, total), label="top_k")
    threshold = data.draw(st.none() | st.sampled_from(flat.tolist()), label="threshold")
    block = data.draw(st.sampled_from([1, 7, 64, 256]), label="block")
    workers = data.draw(st.integers(1, 4), label="workers")
    a, b = 0, total
    if data.draw(st.booleans(), label="sharded"):
        a = data.draw(st.integers(0, total - 1), label="range_start")
        b = data.draw(st.integers(a + 1, total), label="range_end")
    pair_range = (a, b) if (a, b) != (0, total) else None
    picked = []
    if data.draw(st.booleans(), label="ranks") or (top_k is None and threshold is None):
        picked = data.draw(st.lists(st.integers(0, total - 1), max_size=3), label="ranked")
        picked.append(data.draw(st.integers(a, b - 1), label="ranked_in_span"))
    ranked = [pair_from_index(i, ws.p) for i in picked]
    _assert_screen_matches_oracle(ws, top_k, threshold, block, workers, pair_range, ranked)


def test_screen_equals_the_oracle_across_a_partner_chunk_edge():
    # p = 2100 puts partners 2048.. of the first anchors in a second chunk;
    # column 2050 repeats column 3, so exact ties straddle the edge.
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 2100))
    X[:, 2050] = X[:, 3]
    y = X[:, 3] * X[:, 2090] + X[:, 5] * X[:, 7] + rng.normal(size=40)
    ws = precompute(X, y)
    assert isinstance(ws, Workspace)
    flat = all_scores(ws)
    cut = float(np.sort(flat)[-400])
    ranked = [(3, 2090), (5, 7), (2050, 2090), (0, 2099), (2047, 2048), (1, 2045)]
    _assert_screen_matches_oracle(ws, 60, cut, 300, 2, None, ranked)
    edge = pair_index(1, 2040, 2100)
    _assert_screen_matches_oracle(ws, 25, cut, 64, 1, (edge, edge + 5000), ranked)


@pytest.mark.parametrize(
    "column_scale, response_scale",
    [(-530, 0), (-530, 500), (-500, 0), (-500, 500), (0, -500), (0, 0), (0, 500), (500, -500), (500, 0)],
)
def test_screen_equals_the_oracle_at_extreme_scales(column_scale, response_scale):
    # Half the columns (the true pair's among them) at 2^column_scale.  At
    # 2^-530 the unscaled factors of the bound would leave the normal range;
    # the prescale brings every column and y back, so the bounds stay tight
    # and a top-10 scan reads about 10 rows.
    def design(n, p):
        rng = np.random.default_rng(abs(7 * column_scale + response_scale))
        X = rng.normal(size=(n, p)) * 2.0 ** rng.choice([column_scale, 0], size=p)
        Z = rng.normal(size=(n, 2))
        X[:, :2] = Z * 2.0**column_scale
        return precompute(X, (Z[:, 0] * Z[:, 1] + rng.normal(size=n)) * 2.0**response_scale)

    ws = design(12, 9)
    flat = all_scores(ws)
    ranked = [pair_from_index(i, 9) for i in range(pair_count(9))]
    for top_k, cut, block, workers in ((3, None, 1, 1), (36, float(np.sort(flat)[-10]), 4, 3)):
        _assert_screen_matches_oracle(ws, top_k, cut, block, workers, None, ranked)
    assert scan(design(200, 300), ScanConfig(top_k=10)).stats.rows_read <= 20


@pytest.mark.parametrize("binary", [False, True])
def test_float_route_tau_hat_is_the_centered_product_sum_over_n(binary):
    # Bit for bit the anchor row's centered product-sum over n, for the
    # full span and for a shard alike.
    X, y = random_instance(seed=16, max_n=120, max_p=60, binary=binary)
    if binary:
        # Binary columns against a non-integer response stay on the float route.
        y = y + 0.25 * np.random.default_rng(16).random(y.size)
    n, p = X.shape
    ws = precompute(X, y)
    assert isinstance(ws, jciscan.Workspace)
    C = np.column_stack([center(X[:, j], index=j).centered for j in range(p)])
    cy = center(y)
    for pair_range in (None, (17, pair_count(p) // 2)):
        res = scan(ws, ScanConfig(top_k=40, threshold=0.02, pair_range=pair_range))
        assert len(res.top_pairs) == 40 and len(res.selected) > 40
        for s in list(res.top_pairs) + list(res.selected):
            assert s.tau_hat == ((cy.centered * C[:, s.j1]) @ C)[s.j2] / n


# --------------------------------------------------------------------------
# Determinism and ordering
# --------------------------------------------------------------------------


def test_result_invariant_across_workers_and_blocks():
    X, y = random_instance(seed=21, max_n=60, max_p=40)
    base = scan(precompute(X, y), ScanConfig(top_k=15, threshold=0.05))
    for workers in (1, 4, 9):
        for block in (1, 7, 64):
            res = scan(
                precompute(X, y),
                ScanConfig(top_k=15, threshold=0.05, worker_count=workers, block_size=block),
            )
            assert res.top_pairs == base.top_pairs
            assert res.selected == base.selected
            assert res.pairs_scanned == base.pairs_scanned
            # ScanResult equality covers exactly the deterministic fields
            assert res == base


@pytest.mark.parametrize("route", ["float", "exact"])
def test_shared_top_k_floor_keeps_every_result(route):
    # One floor per scan, carried from tile to tile and shared by workers:
    # every worker count, block size and k from 1 to all pairs gives the
    # all_scores order.  Column 150 repeats column 3, so exact ties cross
    # work tiles.
    rng = np.random.default_rng(50)
    n, p = 40, 200
    if route == "exact":
        codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
        codes[:2] = [[1] * p, [3] * p]
        codes[:, 150] = codes[:, 3]
        matrix = GenotypeMatrix(codes=codes, snp_ids=tuple(map(str, range(p))), chromosomes=(1,) * p)
        y = np.tile([1.0, 2.0], n // 2)
    else:
        matrix = rng.normal(size=(n, p))
        matrix[:, 150] = matrix[:, 3]
        y = matrix[:, 3] * matrix[:, 7] + rng.normal(size=n)
    ws = precompute(matrix, y)
    assert isinstance(ws, Workspace if route == "float" else CodeWorkspace)
    flat = all_scores(ws)
    order = np.lexsort((np.arange(flat.size), -flat))
    j1, j2 = np.triu_indices(p, 1)
    # The true pair, its twin through the repeated column in another work
    # tile (an exact tie on the exact route), and pairs far down.
    ranked = ((3, 7), (7, 150), (3, 150), (0, 199), (150, 151))
    expect = ranks_of_pairs(flat, p, ranked)
    for top_k in (1, 2, 10, 99, flat.size // 2, flat.size):
        base = scan(ws, ScanConfig(top_k=top_k, rank_pairs=ranked))
        best = order[:top_k]
        assert np.array_equal(base.top_pairs.j1, j1[best]) and np.array_equal(base.top_pairs.j2, j2[best])
        assert base.top_pairs.r_hat.tobytes() == flat[best].tobytes()
        assert dict(base.ranks) == expect
        for workers in (1, 2, 3, 4):
            for block in (1, 7, 64, 256):
                config = ScanConfig(top_k=top_k, worker_count=workers, block_size=block, rank_pairs=ranked)
                assert scan(ws, config) == base


def test_top_k_floor_keeps_pairs_equal_to_it():
    # The floor is the k-th largest lower bound (or value) seen; a pair at
    # exactly the floor may still place by the (j1, j2) rule, so it is kept.
    top = scan_module._TopK(2)
    top.bound(np.array([0.5, 0.7, 0.2]))
    assert top.floor == 0.5
    r_hat = np.array([[0.5, 0.4, np.nan, 0.9]])
    top.offer((np.array([3]), 4, r_hat, -r_hat))
    held = scan_module.PairTable.concat(top.held)
    assert held.j1.tolist() == [3, 3] and held.j2.tolist() == [4, 7]
    assert held.tau_hat.tolist() == [-0.5, -0.9]


def test_float_top_k_scan_reads_about_one_work_tiles_rows(monkeypatch):
    # Every work tile is screened before any row is read, and the floor
    # lives for the whole scan, so eight work tiles read about the rows one
    # work tile over all anchors reads: near k, not near k per work tile.
    rng = np.random.default_rng(51)
    X = rng.normal(size=(1000, 2000))
    ws = precompute(X, X[:, 0] * X[:, 1] + rng.normal(size=1000))
    reads = []
    rows = Workspace.rows

    def counted(self, anchors, span):
        reads.append(len(anchors))
        return rows(self, anchors, span)

    monkeypatch.setattr(Workspace, "rows", counted)
    one_tile = scan(ws, ScanConfig(top_k=100, block_size=2000))
    single = sum(reads)
    reads.clear()
    assert scan(ws, ScanConfig(top_k=100)) == one_tile
    assert single <= 120
    assert sum(reads) <= 1.1 * single


def _switching_workspaces():
    """A float-route and an exact-route workspace of 40 x 300, for the
    thread-switching tests: five work tiles of 64 anchors each."""
    rng = np.random.default_rng(22)
    X = rng.normal(size=(40, 300))
    y = X[:, 3] * X[:, 7] + rng.normal(size=40)
    codes = rng.integers(1, 4, size=(40, 300)).astype(np.uint8)
    codes[:2] = [[1] * 300, [3] * 300]
    genotype = GenotypeMatrix(codes=codes, snp_ids=tuple(map(str, range(300))), chromosomes=(1,) * 300)
    return precompute(X, y), precompute(genotype, np.tile([0.0, 1.0], 20))


def _switching_every_microsecond(check):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            check()
    finally:
        sys.setswitchinterval(interval)


def test_collected_scores_survive_thread_switching():
    # Five work tiles screen and rescore in five threads over one shared
    # workspace and one shared top-k floor, on either route; switching
    # threads every microsecond must not lose or misplace a candidate, and
    # the flat array stays the same.
    for ws in _switching_workspaces():
        expect = all_scores(ws)
        base = scan(ws, ScanConfig(top_k=3, threshold=0.1))

        def check():
            res = scan(ws, ScanConfig(top_k=3, threshold=0.1, worker_count=8, block_size=1))
            assert res == base
            assert all_scores(ws).tobytes() == expect.tobytes()

        _switching_every_microsecond(check)


def test_rank_counts_survive_thread_switching():
    # Each work tile returns its own rank counts, summed after the pool, so
    # eight workers switching every microsecond give the serial ranks.
    ranked = ((3, 7), (0, 299), (5, 6), (150, 200))
    for ws in _switching_workspaces():
        expect = ranks_of_pairs(all_scores(ws), ws.p, ranked)
        base = scan(ws, ScanConfig(top_k=3, rank_pairs=ranked))
        assert dict(base.ranks) == expect

        def check():
            res = scan(ws, ScanConfig(top_k=3, rank_pairs=ranked, worker_count=8, block_size=1))
            assert res.ranks == base.ranks and res == base

        _switching_every_microsecond(check)


_BLAS_THREAD_PROBE = """
import hashlib
import numpy as np
from jciscan import ScanConfig, all_scores, precompute, ranks_of_pairs, scan
rng = np.random.default_rng(11)
x = rng.normal(size=(1000, 400))
y = x[:, 0] * x[:, 1] + rng.normal(size=1000)
ws = precompute(x, y)
flat = all_scores(ws)
result = scan(ws, ScanConfig(top_k=20))
top = repr([(s.j1, s.j2, s.r_hat.hex()) for s in result.top_pairs])
screened = scan(ws, ScanConfig(top_k=20, threshold=float(np.sort(flat)[-300]), block_size=100))
picked = repr([(s.j1, s.j2, s.tau_hat.hex(), s.r_hat.hex()) for s in screened.selected])
pairs = [(0, 1), (2, 3), (5, 300), (398, 399)]
ranks = repr(ranks_of_pairs(ws, 400, pairs))
fused = repr(scan(ws, ScanConfig(top_k=20, threshold=0.1, rank_pairs=pairs, block_size=100)).ranks)
digests = (flat.tobytes(), top.encode(), picked.encode(), ranks.encode(), fused.encode())
print(*(hashlib.sha256(v).hexdigest() for v in digests))
"""


def test_scores_do_not_depend_on_blas_thread_count():
    # At 1000 x 400 the sweep's products are above OpenBLAS's threading
    # cutoff, and a plain W.T @ C GEMM of this shape gives different bits
    # under 1 and 2 threads (OpenBLAS 0.3.31, x86-64), so a sweep that lets
    # the thread count leak into its values fails here.  The screened
    # top-k, threshold and ranks, alone or fused in one scan, read those
    # GEMM tiles, and must not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(jciscan.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        hashes.append(done.stdout.split())
    assert len(hashes[0]) == 5
    assert hashes[0] == hashes[1]


def test_ordering_breaks_ties_lexicographically():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 6))
    X[:, 4] = X[:, 2]  # duplicate column: pairs (j, 2) and (j, 4) tie exactly
    y = rng.normal(size=30)
    res = scan(precompute(X, y), ScanConfig(top_k=pair_count(6)))
    by_pair = {(s.j1, s.j2): s.r_hat for s in res.top_pairs}
    assert by_pair[(0, 2)] == by_pair[(0, 4)]
    order = [(s.j1, s.j2) for s in res.top_pairs]
    assert order.index((0, 2)) < order.index((0, 4))
    # full ordering is (-r, j1, j2)
    keys = [(-s.r_hat, s.j1, s.j2) for s in res.top_pairs]
    assert keys == sorted(keys)


def test_top_k_monotonicity():
    X, y = random_instance(seed=40)
    ws = precompute(X, y)
    small = scan(ws, ScanConfig(top_k=10)).top_pairs
    large = scan(ws, ScanConfig(top_k=25)).top_pairs
    assert large[:10] == small


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_columnar_merge_matches_sorted_oracle(data):
    # 0/1 data with duplicated columns: exact score ties straddle the k-th
    # place, the threshold and the shard cuts.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(6, 24), label="n")
    p = data.draw(st.integers(3, 24), label="p")
    X = (rng.random((n, p)) < 0.5).astype(np.float64)
    X[0], X[1] = 1.0, 0.0
    for _ in range(p // 2):
        X[:, rng.integers(p)] = X[:, rng.integers(p)]
    y = X[:, 0] * X[:, 1] + (rng.random(n) < 0.5)
    y[0], y[1] = 0.0, 1.0
    ws = precompute(X, y)
    total = pair_count(p)
    flat = all_scores(ws)
    order = sorted(range(total), key=lambda i: (-flat[i], i))  # canonical index = (j1, j2) order

    top_k = data.draw(st.integers(1, total + 2), label="top_k")
    threshold = data.draw(st.none() | st.sampled_from(flat.tolist()), label="threshold")
    workers = data.draw(st.sampled_from([1, 3]), label="workers")
    block = data.draw(st.sampled_from([1, 5]), label="block")
    res = scan(ws, ScanConfig(top_k=top_k, threshold=threshold, worker_count=workers, block_size=block))
    assert [pair_index(s.j1, s.j2, p) for s in res.top_pairs] == order[:top_k]
    assert [s.r_hat for s in res.top_pairs] == [flat[i] for i in order[:top_k]]
    if threshold is not None:
        assert [pair_index(s.j1, s.j2, p) for s in res.selected] == [
            i for i in order if flat[i] > threshold
        ]

    cuts = data.draw(st.lists(st.integers(1, total - 1), unique=True, max_size=4), label="cuts")
    bounds = [0, *sorted(cuts), total]
    shards = [
        scan(ws, ScanConfig(top_k=top_k, worker_count=workers, block_size=block, pair_range=span)).top_pairs
        for span in zip(bounds, bounds[1:])
    ]
    assert tuple(merge_top_pairs(shards, top_k)) == res.top_pairs

    a = data.draw(st.integers(0, total - 1), label="range_start")
    b = data.draw(st.integers(a + 1, total), label="range_end")
    ranged = scan(ws, ScanConfig(top_k=top_k, worker_count=3, block_size=block, pair_range=(a, b)))
    in_range = [i for i in order if a <= i < b]
    assert [pair_index(s.j1, s.j2, p) for s in ranged.top_pairs] == in_range[:top_k]
    assert all_scores(ws, pair_range=(a, b)).tobytes() == flat[a:b].tobytes()


def test_ranks_consistent_with_top_pairs_positions():
    X, y = random_instance(seed=55)
    p = X.shape[1]
    ws = precompute(X, y)
    res = scan(ws, ScanConfig(top_k=10))
    top = [(s.j1, s.j2) for s in res.top_pairs]
    got = ranks_of_pairs(all_scores(ws), p, top)
    assert ranks_of_pairs(ws, p, top) == got
    for i, s in enumerate(res.top_pairs):
        assert got[(s.j1, s.j2)] == i + 1


# --------------------------------------------------------------------------
# Threshold selection
# --------------------------------------------------------------------------


def test_select_by_threshold_zero_keeps_all_positive():
    X, y = random_instance(seed=60, max_n=40, max_p=12)
    res = scan(precompute(X, y), ScanConfig(threshold=0.0))
    assert res.pairs_scanned == pair_count(X.shape[1])
    # continuous data: every score is positive almost surely
    assert len(res.selected) == res.pairs_scanned
    assert all(s.r_hat > 0.0 for s in res.selected)


def test_select_by_threshold_above_max_is_empty():
    X, y = random_instance(seed=61, max_n=40, max_p=12)
    ws = precompute(X, y)
    top = scan(ws, ScanConfig(top_k=1)).top_pairs[0].r_hat
    assert scan(ws, ScanConfig(threshold=top * 1.01)).selected == ()


def test_threshold_matches_filter_oracle():
    X, y = random_instance(seed=62, max_n=50, max_p=20)
    ref = naive_pair_scores(X, y)
    cut = float(np.median(list(ref.values())))
    expect = [pr for pr in naive_order(ref) if ref[pr] > cut]
    res = scan(precompute(X, y), ScanConfig(threshold=cut))
    assert [(s.j1, s.j2) for s in res.selected] == expect
    assert all(s.r_hat > cut for s in res.selected)


def test_select_by_threshold_stream_op():
    stats = [
        PairStatistic(0, 1, 0.1, 0.5),
        PairStatistic(0, 2, 0.1, 0.9),
        PairStatistic(1, 2, 0.1, 0.5),
        PairStatistic(0, 3, 0.1, 0.2),
    ]
    kept = select_by_threshold(stats, 0.4)
    assert [(s.j1, s.j2) for s in kept] == [(0, 2), (0, 1), (1, 2)]
    assert select_by_threshold(stats, 2.0) == []
    with pytest.raises(InvalidValue):
        select_by_threshold(stats, -0.1)


# --------------------------------------------------------------------------
# Sharding
# --------------------------------------------------------------------------


def test_shard_merge_reproduces_unsharded_top_k():
    X, y = random_instance(seed=70, max_n=60, max_p=30)
    p = X.shape[1]
    ws = precompute(X, y)
    total = pair_count(p)
    full = scan(ws, ScanConfig(top_k=12)).top_pairs
    cuts = [0, total // 4, total // 2, (3 * total) // 4, total]
    shards = []
    for a, b in zip(cuts, cuts[1:]):
        res = scan(ws, ScanConfig(top_k=12, pair_range=(a, b)))
        assert res.pairs_scanned == b - a
        shards.append(res.top_pairs)
    assert tuple(merge_top_pairs(shards, 12)) == full


def test_merge_top_pairs_rejects_top_k_below_one():
    stats = [PairStatistic(0, j, 0.1, 1.0 / j) for j in range(1, 5)]
    for bad in (0, -1):
        with pytest.raises(InvalidValue, match="top_k must be >= 1"):
            merge_top_pairs([stats], bad)
    for bad in (2.5, "3", None, True):
        with pytest.raises(InvalidValue, match="top_k must be an integer"):
            merge_top_pairs([stats], bad)
    assert [s.j2 for s in merge_top_pairs([stats[:2], stats[2:]], 3)] == [1, 2, 3]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_public_merge_and_threshold_match_unsharded_scan_property(data):
    # Genotype codes at small n give exact score ties across shard cuts.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(6, 20), label="n")
    p = data.draw(st.integers(3, 16), label="p")
    X = rng.integers(1, 4, size=(n, p)).astype(np.float64)
    X[:2] = [[1.0] * p, [3.0] * p]
    y = rng.integers(0, 2, size=n).astype(np.float64)
    y[:2] = [0.0, 1.0]
    ws = precompute(X, y)
    total = pair_count(p)

    top_k = data.draw(st.integers(1, total), label="top_k")
    cuts = data.draw(st.lists(st.integers(1, total - 1), unique=True, max_size=4), label="cuts")
    bounds = [0, *sorted(cuts), total]
    shards = [
        scan(ws, ScanConfig(top_k=top_k, pair_range=span)).top_pairs
        for span in zip(bounds, bounds[1:])
    ]
    full = scan(ws, ScanConfig(top_k=top_k)).top_pairs
    assert merge_top_pairs(shards, top_k) == full
    assert merge_top_pairs([list(shard) for shard in shards], top_k) == full

    every = scan(ws, ScanConfig(top_k=total)).top_pairs
    shuffled = every[rng.permutation(total)]
    cut = data.draw(st.sampled_from(every.r_hat.tolist()), label="cut")
    selected = scan(ws, ScanConfig(threshold=cut)).selected
    assert select_by_threshold(shuffled, cut) == selected
    assert select_by_threshold(list(shuffled), cut) == selected


def test_pair_table_hashes_like_its_pairs_and_leaves_callers_arrays_writable():
    j1, j2 = np.array([0, 0]), np.array([1, 2])
    table = PairTable(j1, j2, np.array([0.5, -0.25]), np.array([2.0, 1.0]))
    assert j1.flags.writeable and not table.j1.flags.writeable
    assert table == tuple(table) and hash(table) == hash(tuple(table))
    assert table != 5 and not table == 5  # no sequence: unequal, not an error
    with pytest.raises(DimensionMismatch):
        PairTable(j1, j2[:1], np.zeros(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        PairTable(*(np.zeros((2, 1)),) * 4)
    X, y = random_instance(seed=5, max_n=20, max_p=8)
    config = ScanConfig(top_k=3, threshold=0.0, rank_pairs=[(0, 1), (2, 4)])
    result = scan(precompute(X, y), config)
    again = scan(precompute(X, y), config)
    assert result == again and hash(result) == hash(again)


def test_pair_range_scores_alignment():
    X, y = random_instance(seed=71, max_n=40, max_p=14)
    p = X.shape[1]
    ws = precompute(X, y)
    flat = all_scores(ws)
    a, b = 3, pair_count(p) - 5
    window = all_scores(ws, pair_range=(a, b))
    assert np.array_equal(window, flat[a:b])


def test_empty_and_invalid_ranges():
    X, y = random_instance(seed=72, max_n=30, max_p=10)
    ws = precompute(X, y)
    with pytest.raises(EmptyRange):
        scan(ws, ScanConfig(top_k=3, pair_range=(5, 5)))
    with pytest.raises(EmptyRange):
        all_scores(ws, pair_range=(5, 5))
    with pytest.raises(InvalidPair):
        scan(ws, ScanConfig(top_k=3, pair_range=(0, pair_count(ws.p) + 1)))
    with pytest.raises(InvalidPair):
        all_scores(ws, pair_range=(0, pair_count(ws.p) + 1))
    with pytest.raises(InvalidValue):
        ScanConfig(top_k=3, pair_range=(-1, 4))


# --------------------------------------------------------------------------
# Config validation and env default
# --------------------------------------------------------------------------


def test_scan_config_validation():
    with pytest.raises(InvalidValue):
        ScanConfig()
    with pytest.raises(InvalidValue):
        ScanConfig(top_k=0)
    with pytest.raises(InvalidValue):
        ScanConfig(threshold=-1.0)
    with pytest.raises(InvalidValue):
        ScanConfig(top_k=5, threshold=float("nan"))
    # select_by_threshold takes ScanConfig's threshold rule.
    stats = [PairStatistic(0, 1, 0.5, 2.0)]
    for bad in (float("nan"), True, "0.1", None):
        with pytest.raises(InvalidValue):
            select_by_threshold(stats, bad)
    with pytest.raises(InvalidValue):
        ScanConfig(top_k=5, block_size=0)
    with pytest.raises(InvalidValue):
        ScanConfig(top_k=5, worker_count=0)
    # A count that is not an integer, a pair range that is not two integers
    # and a threshold that is not a real number are invalid values too.
    for bad in (
        dict(top_k=2.5), dict(top_k="3"), dict(top_k=np.float64(3.0)),
        dict(top_k=5, block_size=2.5), dict(top_k=5, block_size=None),
        dict(top_k=5, worker_count=2.5), dict(top_k=5, worker_count="2"),
        dict(top_k=5, pair_range=(0.5, 3)), dict(top_k=5, pair_range=(0, 1, 2)),
        dict(top_k=5, pair_range=(0,)), dict(top_k=5, pair_range=5), dict(top_k=5, pair_range="03"),
        dict(threshold="0.5"), dict(threshold=0.5j), dict(top_k=5, block_size=[64]),
        # A bool is a numbers.Integral and a numbers.Real, but not a count,
        # a coordinate or a threshold.
        dict(top_k=True), dict(top_k=5, block_size=True), dict(top_k=5, worker_count=True),
        dict(top_k=5, pair_range=(False, True)), dict(threshold=True), dict(threshold=False),
    ):
        with pytest.raises(InvalidValue):
            ScanConfig(**bad)
    assert ScanConfig(top_k=np.int64(5), block_size=np.int32(7), worker_count=np.uint8(2), pair_range=(np.int64(0), 9),
                      threshold=np.float32(0.5)).top_k == 5
    # all_scores takes ScanConfig's pair_range rule, and every entry point
    # that takes p the count rule.
    ws = precompute(*random_instance(seed=76, max_n=20, max_p=6))
    for bad in ((0.0, 3.0), (False, True), ("0", "3"), (0.5, 3), (0, 1, 2), 5):
        with pytest.raises(InvalidValue):
            all_scores(ws, bad)
    scores = all_scores(ws)
    for call in (lambda: pair_count(3.5), lambda: ranks_of_pairs(scores, float(ws.p), [(0, 1)]),
                 lambda: ranks_of_pairs(ws, float(ws.p), [(0, 1)])):
        with pytest.raises(InvalidValue, match="p must be an integer"):
            call()
    cfg = ScanConfig(top_k=5, threshold=0.5)
    assert cfg.top_k == 5 and cfg.threshold == 0.5


def test_rank_pairs_alone_are_a_scan_output():
    cfg = ScanConfig(rank_pairs=[(np.int64(0), 1), [2, 5]])
    assert cfg.rank_pairs == ((0, 1), (2, 5)) and hash(cfg) == hash(ScanConfig(rank_pairs=((0, 1), (2, 5))))
    with pytest.raises(InvalidValue, match="top_k, threshold or rank_pairs"):
        ScanConfig()
    with pytest.raises(InvalidValue, match="top_k, threshold or rank_pairs"):
        ScanConfig(rank_pairs=())
    with pytest.raises(InvalidPair):
        ScanConfig(rank_pairs=((0, 1, 2),))
    X, y = random_instance(seed=73, max_n=30, max_p=10)
    ws = precompute(X, y)
    result = scan(ws, cfg)
    assert len(result.top_pairs) == 0 and len(result.selected) == 0
    assert dict(result.ranks) == ranks_of_pairs(all_scores(ws), ws.p, [(0, 1), (2, 5)])
    # Rank pairs that share an anchor, on both routes: each pair's value is
    # read on its own, one row each.
    rng = np.random.default_rng(73)
    codes = rng.integers(1, 4, size=(40, 12)).astype(np.uint8)
    genotype = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(12)), chromosomes=(1,) * 12)
    shared = ((0, 1), (0, 9), (2, 5), (0, 5))
    for matrix, y, route in [
        (rng.normal(size=(30, 12)), rng.normal(size=30), Workspace),
        (genotype, np.tile([0.0, 1.0], 20), CodeWorkspace),
    ]:
        ws = precompute(matrix, y)
        assert isinstance(ws, route)
        result = scan(ws, ScanConfig(rank_pairs=shared))
        assert dict(result.ranks) == ranks_of_pairs(all_scores(ws), ws.p, shared)
        if route is CodeWorkspace:  # no screen: every anchor's row is read
            assert result.stats.rows_read == len(shared) + ws.p - 1


def test_rank_pairs_coordinates_must_be_integers():
    # A float or a string coordinate is rejected, not truncated or parsed,
    # by ScanConfig and by every entry point that takes a pair: pair_index
    # and each of ranks_of_pairs's three sources.  numpy integers are integers.
    X, y = random_instance(seed=75, max_n=30, max_p=10)
    ws = precompute(X, y)
    sources = (ws, all_scores(ws), scan(ws, ScanConfig(top_k=1, rank_pairs=[(0, 1)])))
    for bad in ((0, 1.5), (0.0, 2), ("0", "2"), (0, np.float64(1.0)), (False, True), (0, True), (0.5, 1),
                (0.0, 1.0), ("0", "1")):
        with pytest.raises(InvalidPair, match="integer pairs"):
            ScanConfig(rank_pairs=[bad])
        with pytest.raises(InvalidPair, match="integer pairs"):
            pair_index(*bad, ws.p)
        for source in sources:
            with pytest.raises(InvalidPair, match="integer pairs"):
                ranks_of_pairs(source, ws.p, [bad])
    for bad in (1.0, np.float64(1.0), True, "1"):
        with pytest.raises(InvalidPair):
            pair_from_index(bad, 5)
    cfg = ScanConfig(rank_pairs=[(np.int32(0), np.uint8(1)), (np.int64(2), 5)])
    assert cfg.rank_pairs == ((0, 1), (2, 5)) and all(type(j) is int for pair in cfg.rank_pairs for j in pair)
    assert pair_index(np.int64(0), np.uint8(2), np.int32(5)) == 1 and pair_from_index(np.int64(1), 5) == (0, 2)


#: One strategy per kind of value that is no count, pair coordinate or
#: threshold.  An integral np.float64 is a float, not an integer.
_BAD_KINDS = {
    "bool": st.booleans(),
    "float": st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer()),
    "np.float64": st.integers(-3, 12).map(np.float64),
    "str": st.text(max_size=3),
    "None": st.none(),
    "complex": st.complex_numbers(max_magnitude=1e6),
    "nan": st.sampled_from([float("nan"), np.float64("nan")]),
}
_ANY = frozenset(_BAD_KINDS)
#: A non-integral float is a threshold; None leaves an optional argument unset.
_THRESHOLD = frozenset({"bool", "str", "complex", "nan"})
_SPEC = dict(study_id=1, n=50, p=10, true_pairs=((0, 1),), seed=0)

#: Each public entry point and argument: ``call(value, ws, source)``, where
#: ``source`` is one of ranks_of_pairs's three sources, and the kinds drawn.
_ARGUMENTS = {
    "ScanConfig top_k": (lambda v, ws, source: ScanConfig(top_k=v, threshold=0.5), _ANY - {"None"}),
    "ScanConfig block_size": (lambda v, ws, source: ScanConfig(top_k=1, block_size=v), _ANY),
    "ScanConfig worker_count": (lambda v, ws, source: ScanConfig(top_k=1, worker_count=v), _ANY),
    "ScanConfig threshold": (lambda v, ws, source: ScanConfig(top_k=1, threshold=v), _THRESHOLD),
    "ScanConfig pair_range": (lambda v, ws, source: ScanConfig(top_k=1, pair_range=(0, v)), _ANY),
    "ScanConfig rank_pairs": (lambda v, ws, source: ScanConfig(rank_pairs=[(v, 1)]), _ANY),
    "merge_top_pairs top_k": (lambda v, ws, source: merge_top_pairs([], v), _ANY),
    "select_by_threshold c": (lambda v, ws, source: select_by_threshold([], v), _THRESHOLD | {"None"}),
    "pair_count p": (lambda v, ws, source: pair_count(v), _ANY),
    "pair_index j1": (lambda v, ws, source: pair_index(v, 1, 3), _ANY),
    "pair_index j2": (lambda v, ws, source: pair_index(0, v, 3), _ANY),
    "pair_index p": (lambda v, ws, source: pair_index(0, 1, v), _ANY),
    "pair_from_index idx": (lambda v, ws, source: pair_from_index(v, 5), _ANY),
    "pair_from_index p": (lambda v, ws, source: pair_from_index(0, v), _ANY),
    "all_scores pair_range": (lambda v, ws, source: all_scores(ws, (v, 3)), _ANY),
    "ranks_of_pairs p": (lambda v, ws, source: ranks_of_pairs(source, v, [(0, 1)]), _ANY),
    "ranks_of_pairs j1": (lambda v, ws, source: ranks_of_pairs(source, ws.p, [(v, 1)]), _ANY),
    "ranks_of_pairs j2": (lambda v, ws, source: ranks_of_pairs(source, ws.p, [(0, v)]), _ANY),
    **{f"SimStudySpec {name}": (lambda v, ws, source, name=name: SimStudySpec(**{**_SPEC, name: v}), _ANY)
       for name in ("study_id", "n", "p", "seed", "replications")},
    "SimStudySpec true_pairs": (lambda v, ws, source: SimStudySpec(**{**_SPEC, "true_pairs": ((0, v),)}), _ANY),
    "study_spec study_id": (lambda v, ws, source: study_spec(v), _ANY),
    **{f"study_spec {name}": (lambda v, ws, source, name=name: study_spec(1, **{name: v}), _ANY - {"None"})
       for name in ("n", "p")},
    **{f"study_spec {name}": (lambda v, ws, source, name=name: study_spec(1, **{name: v}), _ANY)
       for name in ("seed", "replications")},
}


@functools.cache
def _rank_sources():
    X, y = random_instance(seed=78, max_n=20, max_p=6)
    ws = precompute(X, y)
    return ws, all_scores(ws), scan(ws, ScanConfig(top_k=1, rank_pairs=[(0, 1)]))


@pytest.mark.parametrize("argument", sorted(_ARGUMENTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_argument_kinds_raise_jciscan_errors_property(argument, data):
    # Every public entry point checks each argument by its kind's one rule,
    # so a bad value of any kind raises a JciscanError subclass at the call,
    # never a TypeError, IndexError or ValueError, nor no error at all.
    call, kinds = _ARGUMENTS[argument]
    kind = data.draw(st.sampled_from(sorted(kinds)), label="kind")
    value = data.draw(_BAD_KINDS[kind], label="value")
    source = data.draw(st.sampled_from(_rank_sources()), label="source")
    with pytest.raises(JciscanError):
        call(value, _rank_sources()[0], source)


def test_invalid_rank_pairs_raise_invalid_pair():
    rng = np.random.default_rng(74)
    X = rng.normal(size=(30, 10))
    ws = precompute(X, X[:, 0] * X[:, 1] + rng.normal(size=30))
    p = 10
    for bad in ((2, 2), (3, 1), (-1, 4), (4, p), (p, p + 1)):
        with pytest.raises(InvalidPair):
            scan(ws, ScanConfig(top_k=3, rank_pairs=(bad,)))
        with pytest.raises(InvalidPair):
            ranks_of_pairs(ws, p, [bad])
    start = pair_index(1, 2, p)
    with pytest.raises(InvalidPair, match="outside pair_range"):
        scan(ws, ScanConfig(top_k=3, pair_range=(start, start + 5), rank_pairs=((0, 1),)))
    with pytest.raises(InvalidPair, match="outside pair_range"):
        scan(ws, ScanConfig(top_k=3, pair_range=(start, start + 5), rank_pairs=((1, 2 + 5),)))
    inside = scan(ws, ScanConfig(top_k=3, pair_range=(start, start + 5), rank_pairs=((1, 2 + 4),)))
    assert len(inside.ranks) == 1 and 1 <= inside.ranks[0][1] <= 5
    # A score array or workspace of another p is no source of ranks.
    with pytest.raises(DimensionMismatch, match="full score array"):
        ranks_of_pairs(all_scores(ws)[:-1], p, [(0, 1)])
    with pytest.raises(DimensionMismatch, match="p=10, expected 11"):
        ranks_of_pairs(ws, p + 1, [(0, 1)])


def test_ranks_of_pairs_reads_a_scan_result():
    X, y = random_instance(seed=75, max_n=40, max_p=12)
    ws = precompute(X, y)
    result = scan(ws, ScanConfig(top_k=5, rank_pairs=((0, 1), (3, 4))))
    assert ranks_of_pairs(result, ws.p, [(3, 4)]) == {(3, 4): ranks_of_pairs(ws, ws.p, [(3, 4)])[(3, 4)]}
    assert ranks_of_pairs(result, ws.p, [(0, 1), (3, 4)]) == dict(result.ranks)
    with pytest.raises(InvalidValue, match=r"\(2, 5\)"):
        ranks_of_pairs(result, ws.p, [(0, 1), (2, 5)])
    with pytest.raises(InvalidValue):
        ranks_of_pairs(scan(ws, ScanConfig(top_k=5)), ws.p, [(0, 1)])


def test_default_worker_count_env(monkeypatch):
    monkeypatch.delenv("JCI_WORKERS", raising=False)
    assert default_worker_count() == 1
    monkeypatch.setenv("JCI_WORKERS", "6")
    assert default_worker_count() == 6
    monkeypatch.setenv("JCI_WORKERS", "zero")
    with pytest.raises(InvalidValue):
        default_worker_count()
    monkeypatch.setenv("JCI_WORKERS", "0")
    with pytest.raises(InvalidValue):
        default_worker_count()
