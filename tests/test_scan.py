"""Scanner tests: pair enumeration, hoisting, sweep vs naive oracle,
determinism, sharding, selection."""

import math
import os
import subprocess
import sys
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
)
from jciscan.cumulants import PairStatistic, center
from jciscan.errors import (
    DegenerateSample,
    DimensionMismatch,
    EmptyRange,
    InvalidPair,
    InvalidValue,
    TooFewColumns,
    ZeroVarianceColumn,
)
from jciscan.scan import PairTable, default_worker_count, iter_score_rows

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
    log_scale=st.floats(-8, 8),
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
    scaled = sign * 10.0**log_scale * col
    mapped = scaled + shift * scaled.std()
    if target == "y":
        moved = all_scores(precompute(X, mapped))
    else:
        X2 = X.copy()
        X2[:, target] = mapped
        moved = all_scores(precompute(X2, y))
    np.testing.assert_allclose(moved, base, rtol=1e-9, atol=0)


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
        assert np.array_equal(ws.matrix, np.column_stack([c.centered for c in cols]))
        assert np.array_equal(ws.scale, np.sqrt(np.array([c.css for c in cols])))
        assert ws.response_scale == float(np.sqrt(center(y).css))

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


def test_scan_with_and_without_prebuilt_workspace_is_identical():
    X, y = random_instance(seed=33)
    cfg = ScanConfig(top_k=10)
    ws = precompute(X, y)
    via_ws = scan(ws, cfg)
    direct = scan(X, cfg, response=y)
    assert via_ws.top_pairs == direct.top_pairs  # bitwise: 0 ulps apart
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


@pytest.mark.parametrize("binary", [False, True])
def test_float_route_tau_hat_is_the_centered_product_sum_over_n(binary):
    # Bit for bit the anchor row's centered product-sum over n, for the
    # full span and for a shard alike.
    X, y = random_instance(seed=16, max_n=120, max_p=60, binary=binary)
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


def test_collected_scores_survive_thread_switching():
    # Tiles write disjoint slices of one shared score array; switching
    # threads every microsecond must not lose or misplace a write.
    X, y = random_instance(seed=22, max_n=40, max_p=60)
    ws = precompute(X, y)
    expect = all_scores(ws)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            res = scan(ws, ScanConfig(top_k=3, threshold=0.1, worker_count=8, block_size=1),
                       collect_scores=True)
            assert res.scores.tobytes() == expect.tobytes()
    finally:
        sys.setswitchinterval(interval)


_BLAS_THREAD_PROBE = """
import hashlib
import numpy as np
from jciscan import ScanConfig, precompute, scan
rng = np.random.default_rng(11)
x = rng.normal(size=(1000, 400))
y = x[:, 0] * x[:, 1] + rng.normal(size=1000)
result = scan(precompute(x, y), ScanConfig(top_k=20), collect_scores=True)
top = repr([(s.j1, s.j2, s.r_hat.hex()) for s in result.top_pairs])
print(hashlib.sha256(result.scores.tobytes()).hexdigest(), hashlib.sha256(top.encode()).hexdigest())
"""


def test_scores_do_not_depend_on_blas_thread_count():
    # At 1000 x 400 the sweep's products are above OpenBLAS's threading
    # cutoff, and a plain W.T @ C GEMM of this shape gives different bits
    # under 1 and 2 threads (OpenBLAS 0.3.31, x86-64), so a sweep that lets
    # the thread count leak into its values fails here.
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
    assert len(hashes[0]) == 2
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
    ranged = scan(ws, ScanConfig(top_k=top_k, worker_count=3, block_size=block, pair_range=(a, b)),
                  collect_scores=True)
    assert ranged.scores.tobytes() == all_scores(ws, pair_range=(a, b)).tobytes()


def test_ranks_consistent_with_top_pairs_positions():
    X, y = random_instance(seed=55)
    p = X.shape[1]
    ws = precompute(X, y)
    res = scan(ws, ScanConfig(top_k=10), collect_scores=True)
    got = ranks_of_pairs(res.scores, p, [(s.j1, s.j2) for s in res.top_pairs])
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
    with pytest.raises(DimensionMismatch):
        PairTable(j1, j2[:1], np.zeros(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        PairTable(*(np.zeros((2, 1)),) * 4)
    X, y = random_instance(seed=5, max_n=20, max_p=8)
    result = scan(precompute(X, y), ScanConfig(top_k=3, threshold=0.0))
    assert hash(result) == hash(scan(precompute(X, y), ScanConfig(top_k=3, threshold=0.0)))


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
    with pytest.raises(InvalidValue):
        select_by_threshold([], float("nan"))
    with pytest.raises(InvalidValue):
        ScanConfig(top_k=5, block_size=0)
    with pytest.raises(InvalidValue):
        ScanConfig(top_k=5, worker_count=0)
    cfg = ScanConfig(top_k=5, threshold=0.5)
    assert cfg.top_k == 5 and cfg.threshold == 0.5


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
