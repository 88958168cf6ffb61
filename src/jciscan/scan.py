"""All-pairs interaction sweep: precompute once, score every pair, keep the best.

Two routes compute a pair's value; :func:`precompute` picks one per dataset
and returns its workspace: :class:`Workspace` for the float route,
:class:`CodeWorkspace` for the exact route.

The float route serves every input the exact route does not.  It hoists
everything that does not depend on the partner column: means, centered
columns, centered sums of squares, their square roots and sqrt(n) are
computed once per dataset.  After that, scoring one anchor column j1
against every partner j2 is a single fused product ``(y_c * x_c[j1]) @ C``
followed by elementwise normalization, where C is the n x p centered
matrix.

The exact route serves genotype codes against an integer-valued response
(case/control, counts) while every sum fits the float formats exactly.
With y shifted by its minimum, every raw sum is a small integer: per
column ``S_j``, ``D_j = n S_jj - S_j^2`` and ``S_jy``, per pair ``S_12``
and ``S_12y``.  The pair sums come from float32 GEMM tiles
``X[:, A].T @ X[:, B]`` and ``(y * X[:, A]).T @ X[:, B]``, which are exact
while ``c^2 n m < 2^24`` (c the largest code, m = max(y) - min(y)).  A
float64 combine then forms the integer numerator

    N = n^2 S_12y - n (S_1 S_2y + S_2 S_1y + S_y S_12) + 2 S_1 S_2 S_y,

exact while ``2 c^2 n^3 m < 2^53``, and ``r_hat = |N| / sqrt(D_1 D_2 D_y)``,
``tau_hat = N / n^3``.  These values are exact up to the final rounding of
the square root and the divisions, so tiling, summation order and BLAS
threads cannot change them.

Each workspace's ``rows(anchors, span)`` is the only place its route
computes a pair value.  Both yield ``(j1, lo, r_hat, tau_hat)`` row pieces,
so the top-k/threshold selection, the flat score array and the dump stream
consume either route alike, and a scan that also collects every score
sweeps once.  A workspace's ``tile`` is the smallest anchor count its route
scores efficiently: 1 on the float route, one GEMM tile of anchors on the
exact route.  :func:`scan` cuts work tiles of ``max(block_size, tile)``
anchors and :func:`iter_score_rows` joins one ``tile`` of anchors at a time.

Determinism contract
--------------------
Results are bit-identical for every ``block_size``, ``worker_count`` and
``pair_range`` shard, and for every BLAS thread count.  On the float route
this holds by construction: each pair's value comes from the per-anchor
row product above, whose operand shapes are fixed by (n, p) alone.  On the
exact route it holds because every sum is an exact integer.  Tiling and
threading only decide *which* pairs a worker evaluates; they never change
how a value is computed.  Every pair set, from a tile's candidate buffer
to ``ScanResult`` and the shard merge, is one :class:`PairTable` of
parallel arrays; tile buffers, the final tile merge, shard merges and
threshold selection are all ordered by its one stable lexicographic sort
on the full key, so the order never depends on which tile or worker found
a pair.

Ordering contract
-----------------
Pairs are ordered by r_hat descending, ties broken by (j1, j2) ascending.
Ranks are 1-based positions in that total order.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cumulants import (
    RESPONSE_INDEX,
    CenteredColumn,
    PairStatistic,
    center,
    near_constant,
    validate_c1,
)
from .errors import (
    DegenerateSample,
    DimensionMismatch,
    EmptyRange,
    InvalidPair,
    InvalidValue,
    TooFewColumns,
    ZeroVarianceColumn,
)

DEFAULT_BLOCK_SIZE = 256

#: An exact-route tile is this many anchors against at most this many
#: partners: two float32 products and a few float64 combine arrays of
#: that shape, whatever p is.
_ANCHOR_BLOCK = 64
_PARTNER_CHUNK = 2048

#: Smallest sample size for which a pair scan is considered meaningful.
MIN_SCAN_SAMPLES = 3


# --------------------------------------------------------------------------
# Pair enumeration
# --------------------------------------------------------------------------


def pair_count(p: int) -> int:
    """Number of unordered pairs, p*(p-1)/2.  Python ints, so the 27.5e9
    pairs of a genome-scale run do not overflow."""
    if p < 2:
        raise TooFewColumns(f"need at least 2 columns to form pairs, got {p}")
    return p * (p - 1) // 2


def pair_index(j1: int, j2: int, p: int) -> int:
    """Canonical index of (j1, j2) in the row-major order
    (0,1), (0,2), ..., (0,p-1), (1,2), ..., (p-2,p-1)."""
    if not (0 <= j1 < j2 < p):
        raise InvalidPair(f"require 0 <= j1 < j2 < p, got ({j1}, {j2}) with p={p}")
    return j1 * p - j1 * (j1 + 1) // 2 + (j2 - j1 - 1)


def pair_from_index(idx: int, p: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`, exact integer arithmetic at any p."""
    total = pair_count(p)
    if not (0 <= idx < total):
        raise InvalidPair(f"pair index {idx} outside [0, {total})")
    # Counted from the end, row p-2-m holds m+1 pairs and starts at reverse
    # index m(m+1)/2, so m is the largest integer with m(m+1)/2 <= total-1-idx.
    m = (math.isqrt(8 * (total - 1 - idx) + 1) - 1) // 2
    j1 = p - 2 - m
    return j1, j1 + 1 + (idx - _row_start(j1, p))


def _row_start(j1: int, p: int) -> int:
    return j1 * p - j1 * (j1 + 1) // 2


# --------------------------------------------------------------------------
# Configuration and results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Sweep parameters.  At least one of ``top_k`` / ``threshold`` is
    required; both may be set, in which case the result carries both
    views.  ``pair_range`` restricts the sweep to a half-open interval of
    canonical pair indices for sharding."""

    top_k: int | None = None
    threshold: float | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    worker_count: int = 1
    pair_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.top_k is None and self.threshold is None:
            raise InvalidValue("set top_k, threshold, or both")
        if self.top_k is not None and self.top_k < 1:
            raise InvalidValue(f"top_k must be >= 1, got {self.top_k}")
        if self.threshold is not None and not self.threshold >= 0:  # NaN too
            raise InvalidValue(f"threshold must be >= 0, got {self.threshold}")
        if self.block_size < 1:
            raise InvalidValue(f"block_size must be >= 1, got {self.block_size}")
        if self.worker_count < 1:
            raise InvalidValue(f"worker_count must be >= 1, got {self.worker_count}")
        if self.pair_range is not None:
            start, end = self.pair_range
            if start < 0 or end < start:
                raise InvalidValue(f"malformed pair_range {self.pair_range}")


@dataclass(frozen=True, eq=False)
class PairTable:
    """Scored pairs as parallel read-only arrays, one per field of
    :class:`~jciscan.cumulants.PairStatistic`.  An integer index or
    iteration builds ``PairStatistic`` objects on request; any other index
    yields a table.  A table equals a table with equal arrays, or any
    sequence of the same pairs in the same order, and hashes as the tuple
    of its pairs."""

    j1: np.ndarray
    j2: np.ndarray
    tau_hat: np.ndarray
    r_hat: np.ndarray

    def __post_init__(self) -> None:
        # Read-only views, so the caller's own arrays stay writable.
        views = [np.asarray(column).view() for column in self._columns()]
        if views[0].ndim != 1 or len({view.shape for view in views}) != 1:
            raise DimensionMismatch(f"columns need one 1-D length, got {[v.shape for v in views]}")
        for name, view in zip(("j1", "j2", "tau_hat", "r_hat"), views):
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.j1, self.j2, self.tau_hat, self.r_hat

    @classmethod
    def of(cls, pairs) -> PairTable:
        """``pairs`` when it is a table, else the table of an iterable of
        ``PairStatistic``, in its order."""
        if isinstance(pairs, PairTable):
            return pairs
        rows = [(s.j1, s.j2, s.tau_hat, s.r_hat) for s in pairs]
        return cls.concat([cls(*map(np.array, zip(*rows)))] if rows else [])

    @classmethod
    def concat(cls, tables) -> PairTable:
        columns = zip(_EMPTY._columns(), *(table._columns() for table in tables))
        return cls(*(np.concatenate(column) for column in columns))

    def ordered(self, limit: int | None = None) -> PairTable:
        """The first ``limit`` entries (all when None) by the ordering
        contract: r_hat descending, ties by (j1, j2) ascending.  The sort is
        stable, so equal keys keep their input order."""
        return self[np.lexsort((self.j2, self.j1, np.negative(self.r_hat)))[:limit]]

    def __len__(self) -> int:
        return self.r_hat.size

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return PairStatistic(*(column[index].item() for column in self._columns()))
        return PairTable(*(column[index] for column in self._columns()))

    def __eq__(self, other):
        if isinstance(other, PairTable):
            return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


_EMPTY = PairTable(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0), np.empty(0))


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one sweep.

    ``top_pairs`` is sorted by the ordering contract and has at most
    ``top_k`` entries; ``selected`` holds every scanned pair with
    r_hat strictly greater than the threshold, in the same order.  Both
    are :class:`PairTable` columns, empty when not requested.
    ``elapsed_seconds`` is wall-clock bookkeeping; equality compares only
    the deterministic fields, matching the determinism contract.
    """

    top_pairs: PairTable
    selected: PairTable
    pairs_scanned: int
    elapsed_seconds: float = field(compare=False)
    scores: np.ndarray | None = field(default=None, compare=False)


# --------------------------------------------------------------------------
# Workspaces: one per route, each the only place its pair values are made
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Workspace:
    """The float route's workspace, shared read-only by workers.

    ``matrix`` is the n x p centered float64 predictor matrix, the only
    copy of the predictors; ``scale[j]`` is sqrt(css_j); the response is
    centered with index ``RESPONSE_INDEX``."""

    response: CenteredColumn
    matrix: np.ndarray
    scale: np.ndarray
    response_scale: float
    sqrt_n: float

    tile = 1  # one anchor's row is already a whole (n,) @ (n, p) product

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    def rows(self, anchors: range, span: tuple[int, int]):
        """Yield ``(j1, lo, r_hat, tau_hat)`` per anchor, in anchor order:
        anchor j1 against partners ``lo, lo + 1, ...`` clipped to the
        canonical pair index span.  The vector-matrix product always has
        shape (n,) @ (n, p), so a value never depends on span or tiling."""
        for j1 in anchors:
            lo, hi = _partners(j1, self.p, span)
            if lo >= hi:
                continue
            sums = ((self.response.centered * self.matrix[:, j1]) @ self.matrix)[lo:hi]
            denom = (self.scale[j1] * self.response_scale) * self.scale[lo:hi]
            yield j1, lo, self.sqrt_n * np.abs(sums) / denom, sums / self.n


@dataclass(frozen=True, eq=False)
class CodeWorkspace:
    """The exact route's workspace, shared read-only by workers: the
    caller's n x p uint8 genotype ``codes``, uncopied, and integer sums for
    them and the response shifted to ``y' = y - min(y)``.  Every sum is a
    float64 holding an exact integer.

    Attributes:
        response: ``y'`` as float32.
        sums: ``S_j = sum_i x_ij``.
        cross: ``n S_jy - S_j S_y``, with ``S_jy = sum_i x_ij y'_i``.
        spread: ``D_j = n S_jj - S_j^2``, n^2 times the 1/n variance.
        response_sum: ``S_y = sum_i y'_i``.
        response_spread: ``D_y = n S_yy - S_y^2``.
    """

    codes: np.ndarray
    response: np.ndarray
    sums: np.ndarray
    cross: np.ndarray
    spread: np.ndarray
    response_sum: float
    response_spread: float

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def p(self) -> int:
        return self.codes.shape[1]

    @property
    def tile(self) -> int:
        """One GEMM tile of anchors."""
        return _ANCHOR_BLOCK

    def rows(self, anchors: range, span: tuple[int, int]):
        """Yield ``(j1, lo, r_hat, tau_hat)``: each anchor's row as
        contiguous pieces, one per partner chunk of its tiles, in increasing
        ``lo``.  Each partner chunk is widened to float32 once and shared by
        every anchor block of ``anchors``.  Every sum is an exact integer, so
        a value never depends on span, tiling or threading."""
        limits = [_partners(j1, self.p, span) for j1 in anchors]
        last = max(end for _, end in limits)
        for c0 in range(min(limits)[0], last, _PARTNER_CHUNK):
            c1 = min(c0 + _PARTNER_CHUNK, last)
            chunk = self.codes[:, c0:c1].astype(np.float32)
            for b0 in range(0, len(anchors), _ANCHOR_BLOCK):
                block = limits[b0 : b0 + _ANCHOR_BLOCK]
                lo = max(c0, min(block)[0])
                hi = min(c1, max(end for _, end in block))
                if lo >= hi:
                    continue
                a0 = anchors[b0]
                r_hat, tau_hat = self._tile(a0, a0 + len(block), lo, chunk[:, lo - c0 : hi - c0])
                for i, (start, end) in enumerate(block):
                    s, e = max(lo, start) - lo, min(hi, end) - lo
                    if s < e:
                        yield a0 + i, lo + s, r_hat[i, s:e], tau_hat[i, s:e]

    def _tile(self, a0: int, a1: int, lo: int, partners: np.ndarray):
        """r_hat and tau_hat of anchors ``[a0, a1)`` against the float32
        partner columns starting at ``lo``, as two (a1 - a0) x width arrays.

        With ``b_j = n S_jy - S_j S_y`` the numerator is
        ``N = n (n S_12y - S_y S_12) - (S_1 b_2 + b_1 S_2)``; within the
        exactness bounds every intermediate is an integer of magnitude at
        most ``2 c^2 n^3 m < 2^53``, so float64 holds each one exactly, and
        so does n^3: tau_hat is the correctly rounded N / n^3.
        """
        n, k = self.n, a1 - a0
        anchors, mates = slice(a0, a1), slice(lo, lo + partners.shape[1])
        x = self.codes[:, anchors].astype(np.float32)
        products = np.concatenate([x, x * self.response[:, None]], axis=1).T @ partners
        num = np.multiply(products[k:], n, dtype=np.float64)  # n S_12y
        num -= np.multiply(products[:k], self.response_sum, dtype=np.float64)
        num *= n
        num -= np.stack([self.sums[anchors], self.cross[anchors]], axis=1) @ np.stack(
            [self.cross[mates], self.sums[mates]]
        )
        r_hat = np.multiply.outer(self.spread[anchors] * self.response_spread, self.spread[mates])
        np.sqrt(r_hat, out=r_hat)
        np.divide(np.abs(num), r_hat, out=r_hat)
        num /= float(n) ** 3
        return r_hat, num


def precompute(matrix, response) -> Workspace | CodeWorkspace:
    """Center every column and the response exactly once.

    Accepts a real n x p array or any object exposing ``.codes`` (a
    genotype matrix).  uint8 codes against an integer-valued response take
    the exact route while its bounds hold (see the module docstring) and
    get a :class:`CodeWorkspace`: the codes stay as they are and only
    per-column integer sums are computed, by int64 reductions.  Any other
    input takes the float route and gets a :class:`Workspace`: codes are
    widened to float64 and the columns are centered together in a
    contiguous p x n copy; means, centered values and css are
    bit-identical to :func:`~jciscan.cumulants.center` on each column.
    After this call a float-route pair costs one fused length-n
    product-sum plus one division and one square root.

    Raises:
        InvalidValue: non-finite entries (response first, then the lowest
            offending column).
        ZeroVarianceColumn: a constant column (its id) or response (-1),
            by the relative floor of :func:`~jciscan.cumulants.near_constant`;
            on the exact route a column is constant when ``D_j == 0``.
        DegenerateSample: n < 3.
        TooFewColumns: p < 2.
    """
    codes = getattr(matrix, "codes", None)
    raw = np.asarray(codes if codes is not None else matrix)
    if raw.ndim != 2:
        raise InvalidValue(f"expected an n x p matrix, got shape {raw.shape}")
    n, p = raw.shape
    if n < MIN_SCAN_SAMPLES:
        raise DegenerateSample(f"pair scans need n >= {MIN_SCAN_SAMPLES}, got {n}")
    if p < 2:
        raise TooFewColumns(f"need at least 2 predictor columns, got {p}")
    y = np.asarray(response, dtype=np.float64)
    if y.shape != (n,):
        raise DimensionMismatch(f"response has shape {y.shape}, expected ({n},)")

    cy = center(y, index=RESPONSE_INDEX)
    validate_c1(cy)
    if codes is not None and raw.dtype == np.uint8 and _exact_bounds_hold(raw, y):
        return _exact_workspace(raw, y)

    # Row j of `cols` is column j: contiguous rows give the same pairwise
    # sums and dot products as center() on that column alone.
    cols = np.array(raw.T, dtype=np.float64, order="C")
    finite = np.isfinite(cols).all(axis=1)
    with np.errstate(invalid="ignore"):  # non-finite columns are reported below
        means = cols.sum(axis=1) / n
        cols -= means[:, None]
        css = np.array([np.dot(row, row) for row in cols])
        bad = ~finite | near_constant(means, cols, css)
    if bad.any():
        j = int(np.argmax(bad))
        if not finite[j]:
            raise InvalidValue(f"column {j} contains non-finite values")
        raise ZeroVarianceColumn(j)
    cmat = np.ascontiguousarray(cols.T)
    cmat.setflags(write=False)

    return Workspace(
        response=cy,
        matrix=cmat,
        scale=np.sqrt(css),
        response_scale=math.sqrt(cy.css),
        sqrt_n=math.sqrt(n),
    )


#: float32 and float64 hold every integer of magnitude below these exactly.
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53


def _exact_bounds_hold(codes: np.ndarray, y: np.ndarray) -> bool:
    """Whether the exact route's sums fit: y integer-valued, and with c the
    largest code and m = max(y) - min(y), ``c^2 n m < 2^24`` (float32 GEMM
    tiles) and ``2 c^2 n^3 m < 2^53`` (float64 combine).  y is finite and
    not constant here, so m >= 1 when y is integer-valued."""
    if not np.array_equal(y, np.rint(y)):
        return False
    n = y.size
    c2m = int(codes.max()) ** 2 * int(y.max() - y.min())
    return c2m * n < _FLOAT32_EXACT and 2 * c2m * n**3 < _FLOAT64_EXACT


def _exact_workspace(codes: np.ndarray, y: np.ndarray) -> CodeWorkspace:
    """The exact route's workspace: integer sums per column from int64
    reductions over the codes, buffered, so no n x p copy is made.
    ``y - min(y)`` is exact for an integer-valued y within bounds."""
    n = codes.shape[0]
    shifted = (y - y.min()).astype(np.int64)
    s = codes.sum(axis=0, dtype=np.int64)
    sy = np.einsum("ij,i->j", codes, shifted, dtype=np.int64)
    ss = np.einsum("ij,ij->j", codes, codes, dtype=np.int64)
    s_y, s_yy = int(shifted.sum()), int(shifted @ shifted)
    spread = n * ss - s * s
    if not spread.all():
        raise ZeroVarianceColumn(int(np.argmin(spread != 0)))
    view = codes.view()
    view.setflags(write=False)
    return CodeWorkspace(
        codes=view,
        response=shifted.astype(np.float32),
        sums=s.astype(np.float64),
        cross=(n * sy - s * s_y).astype(np.float64),
        spread=spread.astype(np.float64),
        response_sum=float(s_y),
        response_spread=float(n * s_yy - s_y * s_y),
    )


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------


def _span(p: int, pair_range: tuple[int, int] | None) -> tuple[int, int]:
    total = pair_count(p)
    span = pair_range if pair_range is not None else (0, total)
    if span[0] < 0 or span[1] > total:
        raise InvalidPair(f"pair_range {span} exceeds [0, {total})")
    if span[0] >= span[1]:
        raise EmptyRange(f"pair_range {span} selects no pairs")
    return span


def _anchors_for_span(p: int, span: tuple[int, int]) -> range:
    lo_anchor, _ = pair_from_index(span[0], p)
    hi_anchor, _ = pair_from_index(span[1] - 1, p)
    return range(lo_anchor, hi_anchor + 1)


def _partners(j1: int, p: int, span: tuple[int, int]) -> tuple[int, int]:
    """Partners ``[lo, hi)`` of anchor j1 inside the canonical pair span."""
    base = _row_start(j1, p)
    return max(j1 + 1, j1 + 1 + (span[0] - base)), min(p, j1 + 1 + (span[1] - base))


#: A tile's top-k buffer is cut back to k once it holds more than this many
#: times k candidates.
_CUT_FACTOR = 4


def _take(j1, lo, scores, taus, keep) -> PairTable:
    j2 = lo + keep
    return PairTable(np.full_like(j2, j1), j2, taus[keep], scores[keep])


def _sweep_tile(ws, anchors, span, top_k, threshold, out):
    """Sweep one tile of anchors.  Returns ``(top, hits, scanned)``: the
    tile's ordered top-k and its threshold hits as tables (empty when not
    requested) and the pair count.  Writes every score into ``out`` (flat,
    offset by the span start) when given."""
    top: list[PairTable] = []
    hits: list[PairTable] = []
    held = 0
    floor = -np.inf
    scanned = 0
    for j1, lo, scores, taus in ws.rows(anchors, span):
        scanned += scores.size
        if out is not None:
            at = pair_index(j1, lo, ws.p) - span[0]
            out[at : at + scores.size] = scores
        if top_k is not None:
            # >= floor keeps exact ties with the k-th best; the cut's
            # (j1, j2) tie-break settles them.
            keep = np.flatnonzero(scores >= floor)
            if keep.size:
                top.append(_take(j1, lo, scores, taus, keep))
                held += keep.size
            if held > _CUT_FACTOR * top_k:
                top = [PairTable.concat(top).ordered(top_k)]
                held = top_k
                floor = top[0].r_hat[-1]
        if threshold is not None:
            keep = np.flatnonzero(scores > threshold)
            if keep.size:
                hits.append(_take(j1, lo, scores, taus, keep))
    return PairTable.concat(top).ordered(top_k), PairTable.concat(hits), scanned


def scan(workspace, config: ScanConfig, response=None, collect_scores: bool = False) -> ScanResult:
    """Score every pair in range; keep the top-k and/or thresholded subset.

    ``workspace`` is a :class:`Workspace`, a :class:`CodeWorkspace` or a
    raw matrix (then ``response`` is required and :func:`precompute` runs
    internally).  Work tiles hold ``max(block_size, ws.tile)`` anchors, so
    a small ``block_size`` never cuts below the route's smallest tile.
    With ``collect_scores`` the result also carries the flat score array
    over the configured range (canonical pair order), filled during the
    same sweep.  The result is identical for any block_size/worker_count
    combination; see the module docstring for why.

    Raises:
        EmptyRange: the configured pair range selects no pairs.
    """
    if not isinstance(workspace, (Workspace, CodeWorkspace)):
        workspace = precompute(workspace, response)
    ws = workspace
    span = _span(ws.p, config.pair_range)

    started = time.perf_counter()
    anchors = _anchors_for_span(ws.p, span)
    step = max(config.block_size, ws.tile)
    tiles = [anchors[i : i + step] for i in range(0, len(anchors), step)]
    scores = np.empty(span[1] - span[0]) if collect_scores else None

    def sweep(tile):
        return _sweep_tile(ws, tile, span, config.top_k, config.threshold, scores)

    workers = min(config.worker_count, len(tiles))
    if workers <= 1:
        parts = [sweep(tile) for tile in tiles]
    else:
        # The workspace is shared read-only; each tile owns its candidate
        # sets and its disjoint slice of `scores`.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(sweep, tiles))

    return ScanResult(
        top_pairs=PairTable.concat(t for t, _, _ in parts).ordered(config.top_k),
        selected=PairTable.concat(h for _, h, _ in parts).ordered(),
        pairs_scanned=sum(c for _, _, c in parts),
        elapsed_seconds=time.perf_counter() - started,
        scores=scores,
    )


def all_scores(ws: Workspace | CodeWorkspace, pair_range: tuple[int, int] | None = None) -> np.ndarray:
    """Flat float64 array of every pair's score, canonical order.

    Position ``i`` holds the pair with canonical index ``start + i`` where
    ``start`` is the beginning of ``pair_range`` (0 when unset).  Memory is
    O(#pairs); intended for desk-scale p.
    """
    span = _span(ws.p, pair_range)
    out = np.empty(span[1] - span[0])
    _sweep_tile(ws, _anchors_for_span(ws.p, span), span, None, None, out)
    return out


def iter_score_rows(ws: Workspace | CodeWorkspace):
    """Yield ``(j1, scores_for_j2_gt_j1)`` per anchor, canonical order.
    Streaming companion to :func:`all_scores` for O(p^2) dump writers.
    Rows are joined from their pieces one ``ws.tile`` block of anchors at
    a time: a row per anchor on the float route, one GEMM tile of anchors
    on the exact route."""
    span = (0, pair_count(ws.p))
    step = ws.tile
    for a0 in range(0, ws.p - 1, step):
        block = range(a0, min(a0 + step, ws.p - 1))
        pieces: list[list[np.ndarray]] = [[] for _ in block]
        for j1, _, scores, _ in ws.rows(block, span):
            pieces[j1 - a0].append(scores)
        for j1, row in zip(block, pieces):
            yield j1, row[0] if len(row) == 1 else np.concatenate(row)


def select_by_threshold(stats, c: float) -> PairTable:
    """Filter a pair table, or any iterable of ``PairStatistic``, to r_hat
    strictly above ``c``, returned in the result ordering (r descending,
    pair ascending)."""
    if not c >= 0:  # NaN too
        raise InvalidValue(f"threshold must be >= 0, got {c}")
    table = PairTable.of(stats)
    return table[table.r_hat > c].ordered()


def merge_top_pairs(parts, top_k: int) -> PairTable:
    """Merge per-shard top-k tables (or iterables of ``PairStatistic``)
    into the global top-k.  Exact when every shard kept at least its local
    top-k over a partition of the pair set.

    Raises:
        InvalidValue: ``top_k < 1``, as in :class:`ScanConfig`.
    """
    if top_k < 1:
        raise InvalidValue(f"top_k must be >= 1, got {top_k}")
    return PairTable.concat(PairTable.of(part) for part in parts).ordered(top_k)


def ranks_of_pairs(scores: np.ndarray, p: int, pairs) -> dict[tuple[int, int], int]:
    """1-based rank of each requested pair in the full descending order.

    ``scores`` must be a full-range array from :func:`all_scores`.  The
    rank counts strictly greater scores plus equal-scored pairs that
    precede canonically (canonical order is exactly the (j1, j2) tie rule).
    """
    if scores.shape[0] != pair_count(p):
        raise DimensionMismatch(
            f"need the full score array ({pair_count(p)} entries), got {scores.shape[0]}"
        )
    ranks: dict[tuple[int, int], int] = {}
    for j1, j2 in pairs:
        ci = pair_index(j1, j2, p)
        v = scores[ci]
        greater = int(np.count_nonzero(scores > v))
        ties_before = int(np.count_nonzero(scores[:ci] == v))
        ranks[(j1, j2)] = greater + ties_before + 1
    return ranks


def default_worker_count() -> int:
    """Worker count from the JCI_WORKERS environment variable, else 1."""
    raw = os.environ.get("JCI_WORKERS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise InvalidValue(f"JCI_WORKERS must be an integer, got {raw!r}") from None
        if value >= 1:
            return value
        raise InvalidValue(f"JCI_WORKERS must be >= 1, got {value}")
    return 1
