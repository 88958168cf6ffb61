"""All-pairs interaction sweep: precompute once, score every pair, keep the best.

The sweep hoists everything that does not depend on the partner column:
means, centered columns, centered sums of squares, their square roots and
sqrt(n) are computed once per dataset.  After that, scoring one anchor
column j1 against every partner j2 is a single fused product
``(y_c * x_c[j1]) @ C`` followed by elementwise normalization, where C is
the n x p centered matrix.  One row iterator computes these rows; the
top-k/threshold selection, the flat score array and the dump stream all
consume it, so a scan that also collects every score sweeps once.

Determinism contract
--------------------
Results are bit-identical for every ``block_size`` and ``worker_count``.
This holds by construction: each pair's value comes from the per-anchor
row product above, whose operand shapes are fixed by (n, p) alone.  Tiling
and threading only decide *which* anchor rows a worker evaluates; they
never change how a value is computed.  Every pair set, from a tile's
candidate buffer to ``ScanResult`` and the shard merge, is one
:class:`PairTable` of parallel arrays; tile buffers, the final tile merge,
shard merges and threshold selection are all ordered by its one stable
lexicographic sort on the full key, so the order never depends on which
tile or worker found a pair.

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
# Workspace
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Workspace:
    """Immutable centered view of a dataset, shared read-only by workers.

    ``matrix`` is the n x p centered predictor matrix, the only copy of the
    predictors; ``scale[j]`` is sqrt(css_j); the response is centered with
    index ``RESPONSE_INDEX``.
    """

    response: CenteredColumn
    matrix: np.ndarray
    scale: np.ndarray
    response_scale: float
    sqrt_n: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


def precompute(matrix, response) -> Workspace:
    """Center every column and the response exactly once.

    Accepts a real n x p array or any object exposing ``.codes`` (a
    genotype matrix); codes are widened to float64.  The columns are
    centered together in a contiguous p x n copy; means, centered values
    and css are bit-identical to :func:`~jciscan.cumulants.center` on each
    column.  After this call the per-pair cost of the sweep is one fused
    length-n product-sum plus one division and one square root.

    Raises:
        InvalidValue: non-finite entries (response first, then the lowest
            offending column).
        ZeroVarianceColumn: a constant column (its id) or response (-1),
            by the relative floor of :func:`~jciscan.cumulants.near_constant`.
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


def _rows(ws: Workspace, anchors, span: tuple[int, int]):
    """Yield ``(j1, lo, scores, sums)`` per anchor: the scores and raw
    product-sums of j1 against partners ``lo, lo + 1, ...`` clipped to the
    canonical pair index span.

    This is the only place a pair value is computed.  The vector-matrix
    product always has shape (n,) @ (n, p), so a pair's value never depends
    on the span, tiling or threading.
    """
    p = ws.p
    for j1 in anchors:
        base = _row_start(j1, p)
        lo = max(j1 + 1, j1 + 1 + (span[0] - base))
        hi = min(p, j1 + 1 + (span[1] - base))
        if lo >= hi:
            continue
        sums = ((ws.response.centered * ws.matrix[:, j1]) @ ws.matrix)[lo:hi]
        denom = (ws.scale[j1] * ws.response_scale) * ws.scale[lo:hi]
        yield j1, lo, ws.sqrt_n * np.abs(sums) / denom, sums


#: A tile's top-k buffer is cut back to k once it holds more than this many
#: times k candidates.
_CUT_FACTOR = 4


def _take(j1, lo, scores, sums, keep, n) -> PairTable:
    j2 = lo + keep
    return PairTable(np.full_like(j2, j1), j2, sums[keep] / n, scores[keep])


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
    for j1, lo, scores, sums in _rows(ws, anchors, span):
        scanned += scores.size
        if out is not None:
            at = pair_index(j1, lo, ws.p) - span[0]
            out[at : at + scores.size] = scores
        if top_k is not None:
            # >= floor keeps exact ties with the k-th best; the cut's
            # (j1, j2) tie-break settles them.
            keep = np.flatnonzero(scores >= floor)
            if keep.size:
                top.append(_take(j1, lo, scores, sums, keep, ws.n))
                held += keep.size
            if held > _CUT_FACTOR * top_k:
                top = [PairTable.concat(top).ordered(top_k)]
                held = top_k
                floor = top[0].r_hat[-1]
        if threshold is not None:
            keep = np.flatnonzero(scores > threshold)
            if keep.size:
                hits.append(_take(j1, lo, scores, sums, keep, ws.n))
    return PairTable.concat(top).ordered(top_k), PairTable.concat(hits), scanned


def scan(workspace, config: ScanConfig, response=None, collect_scores: bool = False) -> ScanResult:
    """Score every pair in range; keep the top-k and/or thresholded subset.

    ``workspace`` is a :class:`Workspace` or a raw matrix (then
    ``response`` is required and :func:`precompute` runs internally).
    With ``collect_scores`` the result also carries the flat score array
    over the configured range (canonical pair order), filled during the
    same sweep.  The result is identical for any block_size/worker_count
    combination; see the module docstring for why.

    Raises:
        EmptyRange: the configured pair range selects no pairs.
    """
    if not isinstance(workspace, Workspace):
        workspace = precompute(workspace, response)
    ws = workspace
    span = _span(ws.p, config.pair_range)

    started = time.perf_counter()
    anchors = _anchors_for_span(ws.p, span)
    tiles = [anchors[i : i + config.block_size] for i in range(0, len(anchors), config.block_size)]
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


def all_scores(ws: Workspace, pair_range: tuple[int, int] | None = None) -> np.ndarray:
    """Flat float64 array of every pair's score, canonical order.

    Position ``i`` holds the pair with canonical index ``start + i`` where
    ``start`` is the beginning of ``pair_range`` (0 when unset).  Memory is
    O(#pairs); intended for desk-scale p.
    """
    span = _span(ws.p, pair_range)
    out = np.empty(span[1] - span[0])
    _sweep_tile(ws, _anchors_for_span(ws.p, span), span, None, None, out)
    return out


def iter_score_rows(ws: Workspace):
    """Yield ``(j1, scores_for_j2_gt_j1)`` per anchor, canonical order.
    Streaming companion to :func:`all_scores` for O(p^2) dump writers."""
    for j1, _, scores, _ in _rows(ws, range(ws.p - 1), (0, pair_count(ws.p))):
        yield j1, scores


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
    top-k over a partition of the pair set."""
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
