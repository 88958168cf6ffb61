"""Exact route: genotype codes against an integer-valued response.

The exact route's values are pinned against the score's integer closed form
computed with Python ints, its invariances against every tiling and thread
count, and its fallback against the float route's per-anchor GEMV.
"""

import importlib
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jciscan
from jciscan import (
    CodeWorkspace,
    GenotypeMatrix,
    PairTable,
    ScanConfig,
    Workspace,
    all_scores,
    merge_top_pairs,
    pair_count,
    precompute,
    scan,
    select_by_threshold,
)
from jciscan.cumulants import center
from jciscan.scan import iter_score_rows

scan_module = importlib.import_module("jciscan.scan")  # `jciscan.scan` names the function

RESPONSE_SHAPES = {"case_control": (1, 2), "signed": (-1, 1), "counts": (0, 5)}


def genotypes(codes):
    p = codes.shape[1]
    return GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(p)), chromosomes=(1,) * p)


def draw_instance(rng, n, p, shape):
    """Codes and an integer response whose columns are never constant."""
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    codes[:2] = [[1] * p, [3] * p]
    low, high = RESPONSE_SHAPES[shape]
    y = rng.integers(low, high + 1, size=n).astype(np.float64)
    y[:2] = [low, high]
    return codes, y


def exact_pair_values(codes, y):
    """``{(j1, j2): (N, D1 * D2 * Dy)}`` from Python ints:
    ``n N = sum_i (n x1 - S_1)(n x2 - S_2)(n y - S_y)`` and
    ``n D = sum_i (n x - S)^2``, the definitions scaled to integers."""
    n, p = codes.shape
    x = codes.astype(object)
    u = n * x - x.sum(axis=0)
    yi = y.astype(np.int64).astype(object)
    w = n * yi - yi.sum()
    triple = (u * w[:, None]).T.dot(u)
    spread = (u * u).sum(axis=0)
    spread_y = (w * w).sum()
    out = {}
    for j1 in range(p):
        for j2 in range(j1 + 1, p):
            assert triple[j1, j2] % n == 0
            out[(j1, j2)] = (triple[j1, j2] // n, spread[j1] * spread[j2] * spread_y // n**3)
    return out


def correctly_rounded_score(numerator, product):
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(numerator * numerator) / Decimal(product)).sqrt())


def float_route_scores(X, y):
    """Every pair's r_hat by the float route's per-anchor GEMV, written out
    here operation for operation."""
    n, p = X.shape
    cols = [center(X[:, j], index=j) for j in range(p)]
    cmat = np.column_stack([c.centered for c in cols])
    scale = np.sqrt(np.array([c.css for c in cols]))
    cy = center(y)
    rows = []
    for j1 in range(p - 1):
        sums = ((cy.centered * cmat[:, j1]) @ cmat)[j1 + 1 :]
        denom = (scale[j1] * math.sqrt(cy.css)) * scale[j1 + 1 :]
        rows.append(math.sqrt(n) * np.abs(sums) / denom)
    return np.concatenate(rows)


# --------------------------------------------------------------------------
# Exactness
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    p=st.integers(2, 40),
    shape=st.sampled_from(sorted(RESPONSE_SHAPES)),
)
def test_exact_route_matches_integer_closed_form_property(seed, n, p, shape):
    codes, y = draw_instance(np.random.default_rng(seed), n, p, shape)
    ws = precompute(genotypes(codes), y)
    assert isinstance(ws, CodeWorkspace)
    every = scan(ws, ScanConfig(top_k=pair_count(p))).top_pairs
    exact = exact_pair_values(codes, y)
    for pair in every:
        numerator, product = exact[(pair.j1, pair.j2)]
        assert pair.tau_hat == float(Fraction(numerator, n**3))
        want = correctly_rounded_score(numerator, product)
        assert abs(pair.r_hat - want) <= 4 * math.ulp(want)


def test_exact_route_ties_are_exact_and_ordered_by_pair():
    # Column 2 recodes column 1 as 4 - x, an affine map: (0, 1) and (0, 2)
    # have the same |N| and D, so they tie exactly, tau_hat flips sign
    # exactly, and the (j1, j2) rule puts (0, 1) first.
    codes, y = draw_instance(np.random.default_rng(3), 50, 6, "case_control")
    codes[:, 2] = 4 - codes[:, 1]
    top = scan(precompute(genotypes(codes), y), ScanConfig(top_k=pair_count(6))).top_pairs
    by_pair = {(s.j1, s.j2): s for s in top}
    assert by_pair[(0, 1)].r_hat == by_pair[(0, 2)].r_hat > 0
    assert by_pair[(0, 1)].tau_hat == -by_pair[(0, 2)].tau_hat
    order = [(s.j1, s.j2) for s in top]
    assert order.index((0, 1)) < order.index((0, 2))


# --------------------------------------------------------------------------
# Invariance
# --------------------------------------------------------------------------


def test_exact_route_result_is_identical_across_workers_blocks_and_shards():
    codes, y = draw_instance(np.random.default_rng(21), 120, 150, "case_control")
    ws = precompute(genotypes(codes), y)
    assert isinstance(ws, CodeWorkspace)
    total = pair_count(150)
    cfg = dict(top_k=25, threshold=0.2)
    base = scan(ws, ScanConfig(**cfg))
    assert len(base.selected) > 0
    for workers in (1, 3):
        for block in (1, 7, 64):
            res = scan(ws, ScanConfig(**cfg, worker_count=workers, block_size=block))
            assert res == base

    cuts = [0, 1, total // 3, total // 3 + 149, total - 2, total]
    shards = [scan(ws, ScanConfig(**cfg, pair_range=span)) for span in zip(cuts, cuts[1:])]
    assert merge_top_pairs([s.top_pairs for s in shards], 25) == base.top_pairs
    assert select_by_threshold(PairTable.concat(s.selected for s in shards), 0.2) == base.selected


def test_exact_route_work_tiles_never_go_below_one_gemm_tile(monkeypatch):
    # block_size=1 still hands the exact route whole GEMM tiles of anchors,
    # so each partner chunk is widened once per tile, not once per anchor.
    codes, y = draw_instance(np.random.default_rng(25), 120, 150, "case_control")
    ws = precompute(genotypes(codes), y)
    assert isinstance(ws, CodeWorkspace)
    expected = scan(ws, ScanConfig(top_k=5, block_size=256))
    calls = []
    rows = CodeWorkspace.rows

    def recording_rows(self, anchors, span):
        calls.append(anchors)
        return rows(self, anchors, span)

    monkeypatch.setattr(CodeWorkspace, "rows", recording_rows)
    result = scan(ws, ScanConfig(top_k=5, block_size=1, worker_count=3))
    assert result == expected
    calls.sort(key=lambda anchors: anchors.start)
    assert [a.start for a in calls] == list(range(0, 149, ws.tile))
    assert calls[-1].stop == 149
    assert all(len(anchors) >= ws.tile for anchors in calls[:-1])


def test_exact_route_score_streams_agree_bytewise():
    codes, y = draw_instance(np.random.default_rng(22), 90, 70, "counts")
    ws = precompute(genotypes(codes), y)
    flat = all_scores(ws)
    collected = scan(ws, ScanConfig(top_k=3, block_size=7, worker_count=3), collect_scores=True).scores
    rows = list(iter_score_rows(ws))
    assert [j1 for j1, _ in rows] == list(range(69))
    assert all(row.size == 69 - j1 for j1, row in rows)
    assert collected.tobytes() == flat.tobytes()
    assert np.concatenate([row for _, row in rows]).tobytes() == flat.tobytes()


def test_exact_route_values_do_not_depend_on_tile_shape(monkeypatch):
    # Tiles of 3 anchors by 5 partners split every row into pieces; the
    # integer sums, and so every byte of every stream, stay the same.
    codes, y = draw_instance(np.random.default_rng(23), 40, 23, "signed")
    ws = precompute(genotypes(codes), y)
    flat = all_scores(ws).tobytes()
    top = scan(ws, ScanConfig(top_k=30, threshold=0.1))
    monkeypatch.setattr(scan_module, "_ANCHOR_BLOCK", 3)
    monkeypatch.setattr(scan_module, "_PARTNER_CHUNK", 5)
    small = precompute(genotypes(codes), y)
    assert all_scores(small).tobytes() == flat
    assert np.concatenate([row for _, row in iter_score_rows(small)]).tobytes() == flat
    assert scan(small, ScanConfig(top_k=30, threshold=0.1, block_size=4)) == top
    shards = [scan(small, ScanConfig(top_k=30, pair_range=(a, b))).top_pairs
              for a, b in [(0, 17), (17, 200), (200, pair_count(23))]]
    assert merge_top_pairs(shards, 30) == top.top_pairs


_BLAS_THREAD_PROBE = """
import hashlib
import numpy as np
from jciscan import CodeWorkspace, GenotypeMatrix, ScanConfig, precompute, scan
rng = np.random.default_rng(12)
codes = rng.integers(1, 4, size=(1000, 400)).astype(np.uint8)
y = ((rng.random(1000) < 0.3) | ((codes[:, 0] == 3) & (codes[:, 1] == 1))).astype(float)
gm = GenotypeMatrix(codes=codes, snp_ids=tuple(map(str, range(400))), chromosomes=(1,) * 400)
ws = precompute(gm, y)
assert isinstance(ws, CodeWorkspace)
result = scan(ws, ScanConfig(top_k=20), collect_scores=True)
top = repr([(s.j1, s.j2, s.tau_hat.hex(), s.r_hat.hex()) for s in result.top_pairs])
print(hashlib.sha256(result.scores.tobytes()).hexdigest(), hashlib.sha256(top.encode()).hexdigest())
"""


def test_exact_route_scores_do_not_depend_on_blas_thread_count():
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


# --------------------------------------------------------------------------
# Fallback to the float route
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case",
    ["non_integer_response", "float32_bound", "float64_bound", "float_array", "integer_float_array"],
)
def test_inputs_outside_the_exact_route_keep_the_float_route_bytes(case):
    rng = np.random.default_rng(24)
    n, p = (80_000, 3) if case == "float64_bound" else (30, 8)
    codes, y = draw_instance(rng, n, p, "case_control")
    predictors = genotypes(codes)
    if case == "non_integer_response":
        y = y + 0.5 * rng.random(n)
    elif case == "float32_bound":
        # 9 n m = 9 * 30 * 70,000 > 2^24
        y[1] = y[0] + 70_000
    elif case == "float_array":
        predictors = codes.astype(np.float64) + 0.25 * rng.random((n, p))
    elif case == "integer_float_array":
        predictors = codes.astype(np.float64)
    # float64_bound: 18 n^3 m > 2^53 at n = 80,000 and m = 1
    ws = precompute(predictors, y)
    assert isinstance(ws, Workspace)
    X = np.asarray(getattr(predictors, "codes", predictors), dtype=np.float64)
    assert all_scores(ws).tobytes() == all_scores(precompute(X, y)).tobytes()
    assert all_scores(ws).tobytes() == float_route_scores(X, y).tobytes()
