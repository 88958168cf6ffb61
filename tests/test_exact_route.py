"""Exact route: genotype codes against an integer-valued response.

The exact route's values are pinned against the score's integer closed form
computed with Python ints, its invariances against every tiling and thread
count, and its fallback against the float route's per-anchor GEMV.
"""

import contextlib
import dataclasses
import importlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from jciscan import dataio
from jciscan.cumulants import center
from jciscan.dataio import open_packed, parse_packed, write_packed
from jciscan.errors import MissingGenotype, ZeroVarianceColumn
from jciscan.scan import iter_score_rows

scan_module = importlib.import_module("jciscan.scan")  # `jciscan.scan` names the function

RESPONSE_SHAPES = {"case_control": (1, 2), "signed": (-1, 1), "counts": (0, 5)}


def genotypes(codes):
    p = codes.shape[1]
    return GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(p)), chromosomes=(1,) * p)


@contextlib.contextmanager
def walk_width(width):
    """Every column walk takes blocks of ``width`` columns."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_walk_width", lambda n: width)
        yield


def workspace_fields(ws):
    """Every field of a workspace, arrays as their bytes."""
    return [(f.name, v.tobytes() if isinstance(v := getattr(ws, f.name), np.ndarray) else v)
            for f in dataclasses.fields(ws)]


class CountedBlocks:
    """A column source over an array that counts the blocks drawn from it."""

    def __init__(self, matrix):
        self.matrix, (self.n, self.p), self.drawn = matrix, matrix.shape, 0

    def column_blocks(self, width):
        for j0 in range(0, self.p, width):
            self.drawn += 1
            yield j0, self.matrix[:, j0 : j0 + width]


def tiles_yielded(ws):
    """How many tiles ``ws.rows`` yields for every pair."""
    return sum(1 for _ in ws.rows(range(ws.p - 1), (0, pair_count(ws.p))))


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
# One GEMM per response level
# --------------------------------------------------------------------------


def integer_scores(codes, y):
    """Every pair's r_hat and tau_hat in canonical order, from Python-int
    sums of the codes and the unshifted response:
    ``N = n^2 S_12y - n (S_1 S_2y + S_2 S_1y + S_y S_12) + 2 S_1 S_2 S_y``
    and ``D = n S_jj - S_j^2``, then one float64 rounding per operation,
    ``|N| / sqrt((D_1 D_y) D_2)`` and ``N / n^3``."""
    n, p = codes.shape
    x = codes.astype(object)
    yi = y.astype(np.int64).astype(object)
    s, s_y = x.sum(axis=0), yi.sum()
    s_jy, s_12, s_12y = yi.dot(x), x.T.dot(x), (x * yi[:, None]).T.dot(x)
    d = [float(n * sq - total * total) for sq, total in zip((x * x).sum(axis=0), s)]
    d_y = float(n * yi.dot(yi) - s_y * s_y)
    r_hat, tau_hat = [], []
    for j1 in range(p):
        for j2 in range(j1 + 1, p):
            num = (
                n * n * s_12y[j1, j2]
                - n * (s[j1] * s_jy[j2] + s[j2] * s_jy[j1] + s_y * s_12[j1, j2])
                + 2 * s[j1] * s[j2] * s_y
            )
            r_hat.append(abs(num) / math.sqrt(d[j1] * d_y * d[j2]))
            tau_hat.append(num / n**3)
    return np.array(r_hat), np.array(tau_hat)


#: Response levels: consecutive counts, a level holding a single row, and
#: a signed response with gaps between its levels.
LEVEL_DESIGNS = {
    "two": list(range(2)),
    "three": list(range(3)),
    "ten": list(range(10)),
    "forty": list(range(40)),
    "single_row_level": [0, 1],
    "shifted_signed": [-9, -8, -6, -1],
}


@pytest.mark.parametrize("design", sorted(LEVEL_DESIGNS))
def test_per_level_gemms_equal_the_integer_numerator_bytewise(design, monkeypatch):
    levels = LEVEL_DESIGNS[design]
    rng = np.random.default_rng(len(design))
    n, p = 90, 23
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    codes[:2] = [[1] * p, [3] * p]
    codes[:, 9] = 4 - codes[:, 2]  # exact ties
    y = rng.choice(levels, size=n).astype(np.float64)
    y[: len(levels)] = levels
    if design == "single_row_level":
        y[-1] = 6.0
    ws = precompute(genotypes(codes), y)
    assert isinstance(ws, CodeWorkspace)
    assert len(ws.levels) == len(np.unique(y))
    r_hat, tau_hat = integer_scores(codes, y)
    every = ScanConfig(top_k=pair_count(p))
    top = scan(ws, every).top_pairs
    assert all_scores(ws).tobytes() == r_hat.tobytes()
    index = [scan_module.pair_index(a, b, p) for a, b in zip(top.j1.tolist(), top.j2.tolist())]
    assert top.tau_hat.tobytes() == tau_hat[index].tobytes()
    default_tiles = tiles_yielded(ws)
    for anchors, partners, combine in [(3, 5, 2), (1, 1, 1), (64, 7, 5)]:
        monkeypatch.setattr(scan_module, "_CODE_ANCHORS", anchors)
        monkeypatch.setattr(scan_module, "_CODE_PARTNERS", partners)
        monkeypatch.setattr(scan_module, "_COMBINE_ROWS", combine)
        assert tiles_yielded(ws) > default_tiles
        assert all_scores(ws).tobytes() == r_hat.tobytes()
        assert scan(ws, every).top_pairs == top


# --------------------------------------------------------------------------
# The level-ordered code store
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@example(seed=0, sizes=[1, 6], gaps=[3], top=3, wide_at=0, p=65, cuts=[0.5])
@example(seed=1, sizes=[5, 1, 9, 2, 7], gaps=[1, 2, 1, 3], top=40, wide_at=66, p=70, cuts=[])
@example(seed=2, sizes=[1, 2, 3, 5, 6, 7, 9, 10, 11, 13], gaps=[1] * 9, top=3, wide_at=5, p=66, cuts=[0.3])
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 13), min_size=1, max_size=5),
    gaps=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    top=st.sampled_from([1, 3, 7, 40]),
    wide_at=st.integers(0, 69),
    p=st.integers(60, 70),
    cuts=st.lists(st.floats(0, 1), max_size=3),
)
def test_code_store_matches_the_integer_oracle_property(seed, sizes, gaps, top, wide_at, p, cuts):
    # Levels of any size (one row too, rarely a multiple of 4), each the
    # plain row range of its size, with gaps in y' (or ten consecutive
    # count levels), codes at 2 bits (every code <= 3) or 8 (one code above
    # 3, which widens the store in whichever block of a 64-column walk it
    # lands), p across a block edge and shards of the pair range: every
    # value, top-k, threshold cut, rank and score row is the oracle's, bit
    # for bit.
    rng = np.random.default_rng(seed)
    values = np.cumsum([0] + gaps[: len(sizes) - 1]) - 2
    y = rng.permutation(np.repeat(values, sizes)).astype(np.float64)
    n = len(y)
    assume(n >= 3)
    codes = rng.integers(0, min(top, 3) + 1, size=(n, p)).astype(np.uint8)
    codes[:2] = [[0] * p, [1] * p]  # no constant column
    codes[rng.integers(2, n), wide_at % p] = top  # below the two rows that keep columns apart
    # 64-column walks, so p = 60-70 crosses a block edge.
    if len(sizes) == 1:
        with pytest.raises(ZeroVarianceColumn), walk_width(64):
            precompute(codes, y)
        return
    with walk_width(64):
        ws = precompute(codes, y)
    assert isinstance(ws, CodeWorkspace) and ws.bits == (2 if top <= 3 else 8)
    assert [rows.stop - rows.start for _, rows in ws.levels] == sizes
    assert ws.stored_rows == -(-n // 4) * 4 and len(ws.store) == ws.stored_rows * ws.bits // 8
    r_hat, tau_hat = integer_scores(codes, y)
    assert all_scores(ws).tobytes() == r_hat.tobytes()
    assert np.concatenate([row for _, row in iter_score_rows(ws)]).tobytes() == r_hat.tobytes()
    j1, j2 = np.triu_indices(p, 1)
    total = pair_count(p)
    edges = sorted({0, total, *(int(c * total) for c in cuts)})
    for lo, hi in zip(edges, edges[1:]):
        shard = slice(lo, hi)
        threshold = float(np.median(r_hat[shard]))
        ranked = tuple({(int(j1[i]), int(j2[i])) for i in rng.integers(lo, hi, size=3)})
        result = scan(ws, ScanConfig(top_k=7, threshold=threshold, pair_range=(lo, hi), rank_pairs=ranked))
        order = lo + np.lexsort((j2[shard], j1[shard], -r_hat[shard]))
        above = order[r_hat[order] > threshold]
        for table, index in ((result.top_pairs, order[:7]), (result.selected, above)):
            assert table.j1.tolist() == j1[index].tolist() and table.j2.tolist() == j2[index].tolist()
            assert table.r_hat.tobytes() == r_hat[index].tobytes()
            assert table.tau_hat.tobytes() == tau_hat[index].tobytes()
        for pair, rank in result.ranks:
            assert rank == 1 + order.tolist().index(scan_module.pair_index(*pair, p))
        assert all_scores(ws, pair_range=(lo, hi)).tobytes() == r_hat[shard].tobytes()


# --------------------------------------------------------------------------
# Invariance
# --------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@example(seed=0, form="uint8", many_levels=False, wide="first", p=130)
@example(seed=1, form="int16", many_levels=True, wide="middle", p=131)
@example(seed=2, form="float64", many_levels=True, wide="last", p=250)
@example(seed=3, form="packed", many_levels=True, wide=None, p=193)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(["uint8", "int16", "float64", "bool", "packed"]),
    many_levels=st.booleans(),
    wide=st.sampled_from([None, "first", "middle", "last"]),
    p=st.integers(130, 250).filter(lambda p: p % 7 and p % 64),
)
def test_walk_width_never_reaches_the_workspace_property(seed, form, many_levels, wide, p):
    # Walks of 1, 7 and 64 columns and the rule's own width (one block at
    # n <= 40) build the same workspace, byte for byte.  p is no multiple
    # of 7 or 64, so each walk ends on a partial block, and a code above 3
    # in the first, a middle or the last block of a 64-column walk widens
    # the store from 2 to 8 bits there (bool and packed inputs hold none).
    # A packed file also gives the same parse_packed codes, and, with
    # missing codes, the same open_packed error and imputed values.
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(10, 13)) if many_levels else 2
    n = int(rng.integers(levels + 2, 41))
    y = rng.permutation(np.concatenate([np.arange(levels), rng.integers(0, levels, n - levels)])) - 3.0
    low, high = (0, 1) if form == "bool" else (1, 3)
    codes = rng.integers(low, high + 1, size=(n, p)).astype(np.uint8)
    codes[:2] = [[low] * p, [high] * p]  # no constant column
    widens = wide is not None and form not in ("bool", "packed")
    if widens:
        column = {"first": 0, "middle": p // 2, "last": p - 1}[wide]
        codes[rng.integers(2, n), column] = rng.integers(4, 61)

    if form == "packed":
        buffer = io.BytesIO()
        write_packed(genotypes(codes), buffer)
        packed, damaged = buffer.getvalue(), bytearray(buffer.getvalue())
        missing = sorted((int(rng.integers(0, p)), int(rng.integers(2, n))) for _ in range(3))
        for col, row in missing:  # rows 0 and 1 keep every column non-constant
            damaged[len(damaged) - (p - col) * ((n + 3) // 4) + row // 4] |= 0b11 << 2 * (row % 4)

    def source():
        return codes.astype(form) if form != "packed" else open_packed(io.BytesIO(packed))

    built = []
    for width in (1, 7, 64, None):
        with contextlib.nullcontext() if width is None else walk_width(width):
            ws = precompute(source(), y)
            outputs = [workspace_fields(ws)]
            if form == "packed":
                with pytest.raises(MissingGenotype) as exc:
                    open_packed(io.BytesIO(damaged))
                assert (exc.value.column, exc.value.row) == missing[0]
                imputed = precompute(open_packed(io.BytesIO(damaged), "impute"), y)
                outputs += [parse_packed(io.BytesIO(packed)).codes.tobytes(), workspace_fields(imputed),
                            parse_packed(io.BytesIO(damaged), "impute").codes.tobytes()]
        assert isinstance(ws, CodeWorkspace) and ws.bits == (8 if widens else 2)
        assert len(ws.levels) == levels
        built.append(outputs)
    assert built == [built[0]] * 4


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
    # so each partner column is decoded once per tile, not once per anchor.
    codes, y = draw_instance(np.random.default_rng(25), 120, 600, "case_control")
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
    assert [a.start for a in calls] == list(range(0, 599, ws.tile))
    assert calls[-1].stop == 599
    assert all(len(anchors) >= ws.tile for anchors in calls[:-1])


def test_exact_route_scan_working_set_does_not_grow_with_p():
    # Every GEMM tile is decoded from the code store into float32 buffers sized
    # by the tile, so a top-k scan allocates the same few MiB at p = 600 and
    # at p = 6000 (a widened n x 2048 partner chunk alone is 7.8 MiB here).
    rng = np.random.default_rng(26)
    for p in (600, 6000):
        codes = rng.integers(1, 4, size=(1000, p)).astype(np.uint8)
        ws = precompute(genotypes(codes), (rng.random(1000) < 0.4).astype(np.float64))
        assert isinstance(ws, CodeWorkspace)
        tracemalloc.start()
        try:
            result = scan(ws, ScanConfig(top_k=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.top_pairs) == 100
        assert peak < 7 * 2**20, (p, peak)


def test_exact_route_gemms_skip_the_diagonal_block(monkeypatch):
    # Partners inside a 256-anchor tile's own anchors are summed 64 anchors
    # at a time, so the GEMMs spend at most a 64-anchor triangle per slice
    # on pairs with j2 <= j1 (whole 256-anchor triangles cost 70k cells here).
    rng = np.random.default_rng(28)
    codes = rng.integers(1, 4, size=(30, 600)).astype(np.uint8)
    ws = precompute(genotypes(codes), (rng.random(30) < 0.4).astype(np.float64))
    cells = []
    raw = CodeWorkspace._level_sums

    def counted(self, x, mates, s12, s12y, product):
        cells.append(s12.size)
        return raw(self, x, mates, s12, s12y, product)

    monkeypatch.setattr(CodeWorkspace, "_level_sums", counted)
    scan(ws, ScanConfig(top_k=5))
    assert pair_count(600) <= sum(cells) < pair_count(600) + 64 * 600


def test_partner_chunks_of_a_run_have_nearly_equal_widths():
    # p = 600: the first run's 599 partners split into two chunks of at most
    # 512 columns, 299 and 300 wide, not 512 and a narrow 87.
    width = scan_module._CODE_PARTNERS
    grid = scan_module._tile_grid(range(599), 600, (0, pair_count(600)), scan_module._CODE_ANCHORS, width)
    runs = {}
    for run, _, _, lo, hi in grid:
        runs.setdefault(int(run[0]), []).append((lo, hi))
    assert [hi - lo for lo, hi in runs[0]] == [299, 300]
    for chunks in runs.values():
        assert all(hi - lo <= width for lo, hi in chunks)
        assert all(hi == lo2 for (_, hi), (lo2, _) in zip(chunks, chunks[1:]))


def test_exact_route_score_rows_drain_in_64_anchor_blocks():
    # A dump sweeps 64 anchors at a time, not one 256-anchor GEMM tile: at
    # most two 64 x (p - 1) float64 blocks (1.5 MiB each here) live at once,
    # beside the rows buffers (1.4 MiB); 256-anchor blocks would take 12 MiB.
    rng = np.random.default_rng(27)
    codes = rng.integers(1, 4, size=(200, 3000)).astype(np.uint8)
    ws = precompute(genotypes(codes), (rng.random(200) < 0.4).astype(np.float64))
    assert isinstance(ws, CodeWorkspace)
    tracemalloc.start()
    try:
        drained = sum(1 for _ in iter_score_rows(ws))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drained == 2999
    assert peak < 6 * 2**20, peak


def test_exact_route_score_streams_agree_bytewise():
    codes, y = draw_instance(np.random.default_rng(22), 90, 70, "counts")
    ws = precompute(genotypes(codes), y)
    flat = all_scores(ws)
    shards = [all_scores(ws, pair_range=span) for span in [(0, 7), (7, 1000), (1000, pair_count(70))]]
    rows = list(iter_score_rows(ws))
    assert [j1 for j1, _ in rows] == list(range(69))
    assert all(row.size == 69 - j1 for j1, row in rows)
    assert np.concatenate(shards).tobytes() == flat.tobytes()
    assert np.concatenate([row for _, row in rows]).tobytes() == flat.tobytes()


def test_exact_route_values_do_not_depend_on_tile_shape(monkeypatch):
    # GEMM tiles of 3 anchors by 5 partners, combined 2 anchors at a time,
    # split every row into pieces; the integer sums, and so every byte of
    # every stream, stay the same.
    codes, y = draw_instance(np.random.default_rng(23), 40, 23, "signed")
    ws = precompute(genotypes(codes), y)
    flat = all_scores(ws).tobytes()
    top = scan(ws, ScanConfig(top_k=30, threshold=0.1))
    default_tiles = tiles_yielded(ws)
    monkeypatch.setattr(scan_module, "_CODE_ANCHORS", 3)
    monkeypatch.setattr(scan_module, "_CODE_PARTNERS", 5)
    monkeypatch.setattr(scan_module, "_COMBINE_ROWS", 2)
    small = precompute(genotypes(codes), y)
    assert tiles_yielded(small) > default_tiles
    assert all_scores(small).tobytes() == flat
    assert np.concatenate([row for _, row in iter_score_rows(small)]).tobytes() == flat
    assert scan(small, ScanConfig(top_k=30, threshold=0.1, block_size=4)) == top
    shards = [scan(small, ScanConfig(top_k=30, pair_range=(a, b))).top_pairs
              for a, b in [(0, 17), (17, 200), (200, pair_count(23))]]
    assert merge_top_pairs(shards, 30) == top.top_pairs


_BLAS_THREAD_PROBE = """
import hashlib
import numpy as np
from jciscan import CodeWorkspace, GenotypeMatrix, ScanConfig, all_scores, precompute, scan
rng = np.random.default_rng(12)
codes = rng.integers(1, 4, size=(1000, 400)).astype(np.uint8)
y = ((rng.random(1000) < 0.3) | ((codes[:, 0] == 3) & (codes[:, 1] == 1))).astype(float)
gm = GenotypeMatrix(codes=codes, snp_ids=tuple(map(str, range(400))), chromosomes=(1,) * 400)
ws = precompute(gm, y)
assert isinstance(ws, CodeWorkspace)
result = scan(ws, ScanConfig(top_k=20))
top = repr([(s.j1, s.j2, s.tau_hat.hex(), s.r_hat.hex()) for s in result.top_pairs])
print(hashlib.sha256(all_scores(ws).tobytes()).hexdigest(), hashlib.sha256(top.encode()).hexdigest())
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


_KERNEL_PROBE = """
import hashlib
import numpy as np
from jciscan import CodeWorkspace, GenotypeMatrix, ScanConfig, all_scores, precompute, scan
rng = np.random.default_rng(31)
codes = rng.integers(1, 4, size=(600, 700)).astype(np.uint8)
gm = GenotypeMatrix(codes=codes, snp_ids=tuple(map(str, range(700))), chromosomes=(1,) * 700)
case_control = ((rng.random(600) < 0.3) | ((codes[:, 0] == 3) & (codes[:, 1] == 1))).astype(float)
counts = rng.poisson(1.5, size=600) + (codes[:, 2] == codes[:, 3])
for y in (case_control, counts.astype(float)):
    ws = precompute(gm, y)
    assert isinstance(ws, CodeWorkspace)
    flat = all_scores(ws)
    order = np.argsort(-flat, kind="stable")
    result = scan(ws, ScanConfig(top_k=50, threshold=float(flat[order[200]]), rank_pairs=((0, 1), (5, 9), (100, 600))))
    digests = [flat.tobytes()]
    for table in (result.top_pairs, result.selected):
        digests += [table.j1.tobytes(), table.j2.tobytes(), table.r_hat.tobytes(), table.tau_hat.tobytes()]
    digests.append(repr(result.ranks).encode())
    print(*(hashlib.sha256(d).hexdigest() for d in digests))
"""


def _openblas_configuration() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return str(blas.get("openblas configuration", ""))


@pytest.mark.skipif("DYNAMIC_ARCH" not in _openblas_configuration(),
                    reason="OPENBLAS_CORETYPE picks a kernel only in a DYNAMIC_ARCH OpenBLAS")
def test_exact_route_scores_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its GEMM kernel by CPU; OPENBLAS_CORETYPE forces an
    # older one in the child process alone.  Every exact-route sum is an
    # exact integer, so every kernel gives the same bytes.
    src = os.path.dirname(os.path.dirname(os.path.abspath(jciscan.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    hashes = []
    for kernel in (None, "Haswell", "SandyBridge", "Prescott"):
        env = dict(base, PYTHONPATH=path, **({"OPENBLAS_CORETYPE": kernel} if kernel else {}))
        done = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        hashes.append(done.stdout.split())
    assert len(hashes[0]) == 2 * 10
    assert all(h == hashes[0] for h in hashes[1:])


#: The kernel probe plus the packed-file path: the payload decoder, the
#: walk's pack and the tile decode are numpy table, shift and cast code.
_DISPATCH_PROBE = _KERNEL_PROBE + """
import sys
from jciscan.dataio import open_packed, write_packed
write_packed(gm, sys.argv[1])
ws = precompute(open_packed(sys.argv[1]), case_control)
print(hashlib.sha256(all_scores(ws).tobytes()).hexdigest())
"""


def _enabled_dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this CPU enables, lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return [t for t in getattr(umath, "__cpu_dispatch__", ()) if features.get(t)]


def test_exact_route_scores_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # numpy picks its elementwise and table kernels by CPU feature;
    # NPY_DISABLE_CPU_FEATURES turns dispatch targets off in the child
    # alone.  The default, then all but the lowest enabled target off, then
    # all off: every run gives the same bytes.
    targets = _enabled_dispatch_targets()
    if not targets:
        pytest.skip("numpy enables no SIMD dispatch target on this CPU")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jciscan.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    hashes = []
    for disabled in (None, targets[1:], targets):
        if disabled is not None and not disabled:
            continue
        env = dict(base, PYTHONPATH=path, **({"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)} if disabled else {}))
        done = subprocess.run(
            [sys.executable, "-c", _DISPATCH_PROBE, str(tmp_path / "g.jcg")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if disabled and done.returncode and "NPY_DISABLE_CPU_FEATURES" in done.stderr:
            continue  # numpy refuses to disable these targets here
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout.split())
    if len(hashes) == 1:
        pytest.skip("numpy refuses to disable its dispatch targets here")
    assert len(hashes[0]) == 2 * 10 + 1
    assert all(h == hashes[0] for h in hashes[1:])


# --------------------------------------------------------------------------
# Fallback to the float route
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case",
    ["non_integer_response", "float32_bound", "float64_bound", "float_array", "negative_integers",
     "integers_above_255", "one_late_non_integer"],
)
def test_inputs_outside_the_exact_route_keep_the_float_route_bytes(case):
    rng = np.random.default_rng(24)
    n, p = {"float64_bound": (80_000, 3), "one_late_non_integer": (30, 150)}.get(case, (30, 8))
    codes, y = draw_instance(rng, n, p, "case_control")
    predictors = genotypes(codes)
    if case == "non_integer_response":
        y = y + 0.5 * rng.random(n)
    elif case == "float32_bound":
        # 9 n m = 9 * 30 * 70,000 > 2^24
        y[1] = y[0] + 70_000
    elif case == "float_array":
        predictors = codes.astype(np.float64) + 0.25 * rng.random((n, p))
    elif case == "negative_integers":
        predictors = codes.astype(np.float64) - 2.0
    elif case == "integers_above_255":
        predictors = codes.astype(np.float64) * 100.0
    elif case == "one_late_non_integer":
        # Only the third block of a 64-column route check fails.
        predictors = codes.astype(np.float64)
        predictors[7, 140] += 0.5
    # float64_bound: 18 n^3 m > 2^53 at n = 80,000 and m = 1
    with walk_width(64):
        ws = precompute(predictors, y)
    assert isinstance(ws, Workspace)
    X = np.asarray(getattr(predictors, "codes", predictors), dtype=np.float64)
    assert all_scores(ws).tobytes() == all_scores(precompute(X, y)).tobytes()
    assert all_scores(ws).tobytes() == float_route_scores(X, y).tobytes()


def test_a_bound_breaking_input_leaves_the_exact_walk_after_one_block():
    # n m = 2,000,000 passes the pre-check at c = 1, but the codes 1-3 put
    # c = 3 in the first block, where 9 n m = 18,000,000 breaks 2^24: the
    # walk stops there, and the float route scores the codes.
    rng = np.random.default_rng(32)
    n, p = 400, 700
    codes, _ = draw_instance(rng, n, p, "case_control")
    y = rng.integers(0, 5001, size=n).astype(np.float64)
    y[:2] = [0, 5000]
    source = CountedBlocks(codes)
    assert scan_module._exact_workspace(source, y) is None
    assert source.drawn == 1
    ws = precompute(CountedBlocks(codes), y)
    assert isinstance(ws, Workspace)
    assert all_scores(ws).tobytes() == all_scores(precompute(codes.astype(np.float64), y)).tobytes()


# --------------------------------------------------------------------------
# The route follows the values, not the container
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@example(seed=24, n=30, p=8, domain=(1, 3), shape="case_control")
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    p=st.integers(2, 150),
    domain=st.sampled_from([(0, 1), (0, 2), (1, 3), (0, 255)]),
    shape=st.sampled_from(sorted(RESPONSE_SHAPES)),
)
def test_route_follows_the_values_whatever_the_dtype_property(seed, n, p, domain, shape):
    # Integer float arrays among them: a float copy of genotype codes
    # scores as the codes do, bit for bit.
    rng = np.random.default_rng(seed)
    low, high = domain
    codes = rng.integers(low, high + 1, size=(n, p)).astype(np.uint8)
    codes[:2] = [[low] * p, [high] * p]
    y_low, y_high = RESPONSE_SHAPES[shape]
    y = rng.integers(y_low, y_high + 1, size=n).astype(np.float64)
    y[:2] = [y_low, y_high]
    forms = [codes, codes.astype(np.float64), np.asfortranarray(codes.astype(np.int64))]
    if domain == (0, 1):
        forms.append(codes.astype(bool))
    if domain == (1, 3):
        forms.append(genotypes(codes))
    spaces = [precompute(form, y) for form in forms]
    assert all(isinstance(ws, CodeWorkspace) for ws in spaces)
    flat = [all_scores(ws).tobytes() for ws in spaces]
    assert flat == [flat[0]] * len(flat)


def _precompute_peak(matrix, y):
    tracemalloc.start()
    try:
        ws = precompute(matrix, y)
        return ws, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_route_check_makes_no_full_size_temporary():
    # 1000 x 2000: 0/1/2 dosages as float64 cost their uint8 copy and small
    # per-block temporaries; a continuous matrix fails the check in its
    # first block and peaks at the float route's two n x p float64 copies.
    rng = np.random.default_rng(31)
    n, p = 1000, 2000
    y = (rng.random(n) < 0.4).astype(np.float64)
    dosages = rng.integers(0, 3, size=(n, p)).astype(np.float64)
    ws, peak = _precompute_peak(dosages, y)
    assert isinstance(ws, CodeWorkspace)
    assert peak < n * p + 2**20
    del ws, dosages
    normal = rng.normal(size=(n, p))
    ws, peak = _precompute_peak(normal, y)
    assert isinstance(ws, Workspace)
    assert peak < 2 * normal.nbytes + 2**20


@pytest.mark.parametrize("p", [1, 63, 65, 130])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float64, bool])
def test_one_walk_sums_are_exact_at_the_float32_edge(dtype, p, monkeypatch):
    # Codes in {0, 255} against binary y: c^2 n m is 16,776,450 < 2^24 at
    # n = 258 and 16,841,475 at n = 259.  Column 0 is 255 on every row but
    # the first, so its S_jj = 255^2 * 257 sits just below the bound; p = 63,
    # 65 and 130 leave partial blocks of a 64-column walk.  bool holds
    # {0, 1}, far inside the bound at either n.
    monkeypatch.setattr(dataio, "_walk_width", lambda n: 64)
    high = 1 if dtype is bool else 255
    for n in (258, 259):
        rng = np.random.default_rng(n * p)
        codes = np.where(rng.random((n, p)) < 0.5, high, 0)
        codes[:, 0] = high
        codes[:2] = [[0], [high]]
        y = (rng.random(n) < 0.9).astype(np.float64)
        y[:2] = [0, 1]
        matrix = codes.astype(dtype)
        ws = scan_module._exact_workspace(matrix, y)
        if p > 1:  # precompute needs two columns; the route is the walk's
            assert isinstance(precompute(matrix, y), Workspace if ws is None else CodeWorkspace)
        if n == 259 and dtype is not bool:
            assert ws is None
            continue
        assert isinstance(ws, CodeWorkspace)
        x, shifted = codes.astype(np.int64), y.astype(np.int64)
        s, sy, ss = x.sum(axis=0), shifted @ x, (x * x).sum(axis=0)
        assert ws.sums.tobytes() == s.astype(np.float64).tobytes()
        assert ws.cross.tobytes() == (n * sy - s * int(shifted.sum())).astype(np.float64).tobytes()
        assert ws.spread.tobytes() == (n * ss - s * s).astype(np.float64).tobytes()
