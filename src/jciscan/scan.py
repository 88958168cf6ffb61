"""All-pairs interaction sweep: precompute once, score every pair, keep the best.

Two routes compute a pair's value; :func:`precompute` picks one per dataset
and returns its workspace: :class:`Workspace` for the float route,
:class:`CodeWorkspace` for the exact route.

The float route serves every input the exact route does not.  It scales
each column and y by a power of two, exact in the normal range, and then
hoists everything that does not depend on the partner column: means,
centered columns, centered sums of squares, their square roots and
sqrt(n) are computed once per dataset.  After that, scoring one anchor
column j1 against every partner j2 is a single fused product
``(y_c * x_c[j1]) @ C`` followed by elementwise normalization, where C
is the n x p centered matrix.

The exact route serves integers in [0, 255] of any dtype (genotype codes,
0/1/2 dosages, 0/1 designs) against an integer-valued response
(case/control, counts) while every sum fits the float formats exactly.
With y shifted by its minimum, every raw sum is a small integer: per
column ``S_j``, ``D_j = n S_jj - S_j^2`` and ``S_jy``, per pair ``S_12``
and ``S_12y``.  The pair sums take one float32 GEMM per level l of y,
``A_l = X[rows_l, A].T @ X[rows_l, B]`` over the rows where y = l, so
``S_12 = sum_l A_l`` and ``S_12y = sum_l l A_l`` cost n multiply-adds per
pair.  They accumulate in float32 and stay exact, because every partial
sum is an integer of magnitude at most ``c^2 n m < 2^24`` (c the largest
code, m = max(y) - min(y)).  A float64 combine then forms the integer
numerator

    N = n^2 S_12y - n (S_1 S_2y + S_2 S_1y + S_y S_12) + 2 S_1 S_2 S_y,

exact while ``2 c^2 n^3 m < 2^53``, and ``r_hat = |N| / sqrt(D_1 D_2 D_y)``,
``tau_hat = N / n^3``.  These values are exact up to the final rounding of
the square root and the divisions, so tiling, summation order and BLAS
threads cannot change them.

Each workspace's ``rows(anchors, span)`` is the only place its route
computes a pair value.  Both yield whole 2-D tiles ``(j1, lo, r_hat,
tau_hat)``: anchors ``j1``, one per row, by partners ``lo, lo + 1, ...``,
NaN outside the span.  Their one reader, :func:`_sweep_tile`, feeds the
top-k, threshold, rank-count and flat-array consumers of either route
with one flat ``nonzero`` per tile; it reads exactly the anchors it is
given.  All three kernels (``Workspace.rows``, ``Workspace.bounds`` and
``CodeWorkspace.rows``) walk one tile grid, :func:`_tile_grid`: runs of
ascending anchors, each against its partners in the span in equal chunks
(one chunk of all p columns for ``Workspace.rows``).  A workspace's
``tile`` is one GEMM tile of anchors: 64 on the float route
(``_ANCHOR_BLOCK``), 256 on the exact route (``_CODE_ANCHORS``);
:func:`scan` cuts work tiles of ``max(block_size, tile)`` anchors.
:func:`iter_score_rows` sweeps 64 anchors (``_ANCHOR_BLOCK``) at a time
on either route into a flat array and yields its rows, so a dump block
stays 64 x (p - 1) scores.

The exact route holds its codes once, in the level-ordered store that
:func:`precompute` builds in one walk over blocks of columns, as many as
the float route's walk takes (:func:`~jciscan.dataio._walk_width`); the
walk also checks the route's bounds and stops at the first block that
breaks one (:class:`CodeWorkspace`).  The store holds each column's rows
in y's stable sort order, so each level of y is one row range, then code
0 to whole bytes, 2 bits per code (8 when a code exceeds
3), a quarter of the uint8 codes.  The 2-bit layout is the packed file's,
and :mod:`jciscan.dataio` owns its one pack and one unpack
(``_pack_codes``, ``_unpack_codes``).  An array is walked in place and a
packed file (:class:`~jciscan.dataio.PackedGenotypes`) a decoded block at a
time, so no n x p uint8 array is built for the scan.  Each ``rows`` call
then works in a fixed working set, allocated once and sized by the GEMM
tile and n, never by p: it decodes a tile's 256 anchor columns and up to
512 partner columns (fewer past 1536 samples, ``_CODE_CELLS``) from the
store, by that unpack, into two reused float32 buffers of stored rows x
columns, runs one GEMM per level on that level's contiguous rows into 256 x
512 float32 sums, and combines them in float64 64 anchors at a time, each
slice one yielded tile.  A partner chunk that reaches into the tile's own
anchors is summed 64 anchors at a time from each slice's first partner.
Cache-sized operand panels keep GEMM at full speed (Goto and van de Geijn,
ACM TOMS 2008).  The buffers take
``4 n' (256 + w)`` bytes for the decoded codes (n' = 4 ceil(n/4) the stored
rows, w the partners: ``4 n' w`` is at most 3 MiB past 1536 samples),
``n' w / 4`` for the 2-bit unpacking and at most 2 MiB for the sums and the
combine, whatever p is.

One top-k floor per scan
------------------------
A top-k :func:`scan` keeps one floor for the whole call (:class:`_TopK`),
a value at least k distinct scanned pairs reach: no pair below it can
place, and pairs equal to it are kept for the final (j1, j2) tie-break.
It has two sources, the k-th largest certified lower bound screened and
the k-th largest value held, and it carries from tile to tile, is shared
by every worker, and only rises.  A worker that reads it late sees a
lower value, which only keeps more candidates; it never drops a pair the
final cut keeps.  This is the running k-th-best bound of threshold top-k
algorithms (Fagin, Lotem and Naor, JCSS 2003).  Ranks ride on the same
pass: a :func:`scan` with ``rank_pairs`` first reads each requested
pair's value on its own, then counts, in every row the pass reads, the
pairs above each value and those tied with it that precede it
canonically.

The certified screen
--------------------
On the float route a top-k, threshold or rank scan first reads
``Workspace.bounds``: BLAS-3 tiles giving every pair an estimate and a
radius that holds the value ``rows`` makes whatever the summation order,
FMA use or thread split (see :meth:`Workspace.bounds`); the prescale
gives the bound one path at every column scale.  Each tile is
screened once per scan, for every output asked for (:func:`_screened`):
it keeps each anchor's largest upper bound; top-k bounds the cell lower
bounds above the floor a few rows at a time, so once every work tile is
screened the floor is the k-th largest finite cell lower bound of the
span; and each rank value marks the anchors holding a pair whose bounds
bracket it and counts, per anchor, the pairs certainly above it.

One row-choice step then opens each work tile's sweep in :func:`scan`:
it reads the marked anchors and those whose largest upper bound reaches
the floor or exceeds the threshold, adds the screen's counts for the
anchors it leaves unread, and tallies the rows read.  The screen only
chooses rows: every reported value and rank comes from ``rows``.  The
exact route's tiles are its values: it has no ``bounds`` and reads every
row of a work tile, a contiguous range, so its ranks are counted from the
rows alone.

Determinism contract
--------------------
Results are bit-identical for every ``block_size``, ``worker_count`` and
``pair_range`` shard, and for every BLAS thread count.  On the float route
each pair's value comes from the per-anchor row product above, whose
operand shapes are fixed by (n, p) alone; the screen's GEMM bits change
with BLAS threads and tile shapes, but its bound holds for every order, so
they only change which extra rows are read.  On the exact route every sum
is an exact integer, so its values are also the same under every BLAS
kernel.  The float route's are not: its row products are bit-identical
on one BLAS kernel, but OpenBLAS picks the kernel by CPU, and under other
``OPENBLAS_CORETYPE`` kernels 79-95% of the ``all_scores`` cells moved,
by up to 7e-11 relative.  Tiling, threading and the floor only decide
*which* pairs are evaluated and kept as candidates, never how a value is
computed.  Rank counts are integers that each work tile returns on its
own and that are summed after the pool, so no worker writes to a shared
count.  Every pair set is one :class:`PairTable` of parallel arrays, and
the final top-k cut, shard merges and threshold selection are all ordered
by its one stable lexicographic sort on the full key, so the order never
depends on which tile or worker found a pair.

Ordering contract
-----------------
Pairs are ordered by r_hat descending, ties broken by (j1, j2) ascending.
Ranks are 1-based positions in that total order.  Ties are among the
*computed* values.  On the float route, pairs whose exact scores tie
(repeated columns are one case) can differ in their last bits, so their
order follows rounding that depends on the BLAS kernel.  On the exact
route such pairs are computed equal and ordered by (j1, j2).
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import time
from collections.abc import Sequence
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
from . import dataio
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

#: The float route's GEMM tile is this many anchors against at most this
#: many partners: the screen arrays of :meth:`Workspace.bounds` have that
#: shape whatever p is, and :meth:`Workspace.rows` makes this many rows at a
#: time.  :func:`iter_score_rows` sweeps this many anchors at a time on
#: either route.
_ANCHOR_BLOCK = 64
_PARTNER_CHUNK = 2048

#: The exact route's GEMM tile is this many anchors against at most this
#: many partners, decoded from the code store into two float32 buffers
#: reused for the whole :meth:`CodeWorkspace.rows` call, so its working set
#: never depends on p.  Past ``_CODE_CELLS / _CODE_PARTNERS`` samples the
#: partners narrow to keep their buffer at ``_CODE_CELLS`` codes, down to
#: ``_COMBINE_ROWS``.  The float64 combine runs ``_COMBINE_ROWS`` anchors
#: of a tile at a time, and each such slice is one yielded tile.
_CODE_ANCHORS = 256
_CODE_PARTNERS = 512
_CODE_CELLS = 3 * 2**18
_COMBINE_ROWS = 64

#: The top-k screen of a float tile (:func:`_screened`) bounds cells this
#: many anchor rows at a time.
_SCREEN_ROWS = 8

#: Smallest sample size for which a pair scan is considered meaningful.
MIN_SCAN_SAMPLES = 3

#: Float route screen constants (see :meth:`Workspace.bounds`): the unit
#: roundoff; a bound on one operation's absolute underflow error, also
#: under flush-to-zero; and the relative slack on each bound for the
#: roundings of the post-processing on both sides (about 12 ulps) with margin.
_UNIT = 2.0**-53
_ETA = 2.0**-1022
_SLACK = 2.0**-46


# --------------------------------------------------------------------------
# Pair enumeration
# --------------------------------------------------------------------------


def pair_count(p: int) -> int:
    """Number of unordered pairs, p*(p-1)/2.  Python ints, so the 27.5e9
    pairs of a genome-scale run do not overflow."""
    if _count(p, "p", 0) < 2:
        raise TooFewColumns(f"need at least 2 columns to form pairs, got {p}")
    return p * (p - 1) // 2


def pair_index(j1: int, j2: int, p: int) -> int:
    """Canonical index of (j1, j2) in the row-major order
    (0,1), (0,2), ..., (0,p-1), (1,2), ..., (p-2,p-1)."""
    ((j1, j2),) = _pairs([(j1, j2)])
    return _index(j1, j2, _count(p, "p", 0))


def _index(j1: int, j2: int, p: int) -> int:
    """:func:`pair_index` of checked integers: the range check and the formula."""
    if not (0 <= j1 < j2 < p):
        raise InvalidPair(f"require 0 <= j1 < j2 < p, got ({j1}, {j2}) with p={p}")
    return _row_start(j1, p) + (j2 - j1 - 1)


def pair_from_index(idx: int, p: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`, exact integer arithmetic at any p."""
    total = pair_count(p)
    if not (_integer(idx) and 0 <= idx < total):
        raise InvalidPair(f"pair index must be an integer in [0, {total}), got {idx!r}")
    j1 = _anchor(idx, p)
    return j1, j1 + 1 + (idx - _row_start(j1, p))


def _anchor(idx: int, p: int) -> int:
    """The j1 of canonical pair index ``idx``, which is not checked."""
    # Counted from the end, row p-2-m holds m+1 pairs and starts at reverse
    # index m(m+1)/2, so m is the largest integer with m(m+1)/2 <= total-1-idx.
    m = (math.isqrt(8 * (p * (p - 1) // 2 - 1 - idx) + 1) - 1) // 2
    return p - 2 - m


def _row_start(j1: int, p: int) -> int:
    return j1 * p - j1 * (j1 + 1) // 2


# --------------------------------------------------------------------------
# Configuration and results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Sweep parameters.  At least one of ``top_k``, ``threshold`` and
    ``rank_pairs`` is required; any combination may be set, and the result
    carries every view asked for from one pass.  ``rank_pairs`` names
    ``(j1, j2)`` pairs whose 1-based rank among the scanned pairs the result
    reports, held as a tuple of int pairs.  ``pair_range`` restricts the
    sweep to a half-open interval of canonical pair indices for sharding,
    and ranks are then ranks within it.  Each argument follows its kind's
    one rule (:func:`_count`, :func:`_threshold`, :func:`_pair_range`,
    :func:`_pairs`), as at every public entry point: ``top_k``,
    ``block_size`` and ``worker_count`` are integers of at least 1,
    ``threshold`` a real number of at least 0 (not NaN) and ``pair_range``
    two integers with ``0 <= start <= end``, else InvalidValue; a
    ``rank_pairs`` coordinate is an integer, else InvalidPair.  Python's
    and numpy's integers are integers; a ``bool`` is not an integer, a
    count or a threshold."""

    top_k: int | None = None
    threshold: float | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    worker_count: int = 1
    pair_range: tuple[int, int] | None = None
    rank_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank_pairs", _pairs(self.rank_pairs))
        if self.top_k is None and self.threshold is None and not self.rank_pairs:
            raise InvalidValue("set top_k, threshold or rank_pairs (any combination)")
        if self.top_k is not None:
            _count(self.top_k, "top_k")
        if self.threshold is not None:
            _threshold(self.threshold)
        _count(self.block_size, "block_size")
        _count(self.worker_count, "worker_count")
        if self.pair_range is not None:
            object.__setattr__(self, "pair_range", _pair_range(self.pair_range))


# --------------------------------------------------------------------------
# Argument rules: one helper per kind, called once by each public entry point
# --------------------------------------------------------------------------


def _integer(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's; a ``bool`` is
    a ``numbers.Integral`` but not an integer here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(value, what: str, least: int = 1):
    """``value`` when it is an integer of at least ``least``, else InvalidValue."""
    if not _integer(value):
        raise InvalidValue(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InvalidValue(f"{what} must be >= {least}, got {value}")
    return value


def _threshold(value):
    """``value`` when it is a real number of at least 0, else InvalidValue:
    a ``bool`` is not a threshold, and NaN fails the comparison."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value >= 0):
        raise InvalidValue(f"threshold must be a real number >= 0, got {value!r}")
    return value


def _pair_range(value) -> tuple[int, int]:
    """``value`` as ``(start, end)`` Python ints when it is two integers
    with ``0 <= start <= end``, else InvalidValue."""
    pair = tuple(value) if isinstance(value, Sequence) else ()
    if len(pair) != 2 or not all(map(_integer, pair)):
        raise InvalidValue(f"pair_range must be two integers, got {value!r}")
    if pair[0] < 0 or pair[1] < pair[0]:
        raise InvalidValue(f"malformed pair_range {value}")
    return int(pair[0]), int(pair[1])


def _pairs(pairs, error=InvalidPair) -> tuple[tuple[int, int], ...]:
    """``pairs`` as a tuple of ``(j1, j2)`` Python int pairs when it is an
    iterable of pairs of integers, else ``error``.  The order of a pair is
    the caller's to check."""
    try:
        held = tuple((j1, j2) for j1, j2 in pairs)
    except (TypeError, ValueError):
        held = ((None, None),)  # no pairs at all: rejected below
    if not all(_integer(j) for pair in held for j in pair):
        raise error(f"expected (j1, j2) integer pairs, got {pairs!r}")
    return tuple((int(j1), int(j2)) for j1, j2 in held)


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
class ScanStats:
    """What one :func:`scan` call did: the certified bounds tiles it
    screened and the anchor rows it read (one row per rank pair for its
    value, then the sweep's)."""

    tiles_screened: int
    rows_read: int


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one sweep.

    ``top_pairs`` is sorted by the ordering contract and has at most
    ``top_k`` entries; ``selected`` holds every scanned pair with
    r_hat strictly greater than the threshold, in the same order.  Both
    are :class:`PairTable` columns, empty when not requested.  ``ranks``
    holds ``((j1, j2), rank)`` for each of ``rank_pairs``, in request
    order: the pair's 1-based position among the scanned pairs.
    ``elapsed_seconds`` and ``stats`` are bookkeeping; equality and hash
    compare only the deterministic fields, matching the determinism
    contract.
    """

    top_pairs: PairTable
    selected: PairTable
    ranks: tuple[tuple[tuple[int, int], int], ...]
    pairs_scanned: int
    elapsed_seconds: float = field(compare=False)
    stats: ScanStats = field(compare=False)


# --------------------------------------------------------------------------
# Workspaces: one per route, each the only place its pair values are made
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Workspace:
    """The float route's workspace, shared read-only by workers.

    Column j is held scaled by ``2^-shift[j]`` and y by
    ``2^-response_shift`` (:func:`precompute`), each field bit-identical to
    :func:`~jciscan.cumulants.center` of the scaled column: ``matrix`` is
    the n x p centered float64 matrix, the only copy of the predictors;
    ``scale[j]`` is sqrt(css_j), the only per-column statistic a pair
    reads; the response is centered with index ``RESPONSE_INDEX``."""

    response: CenteredColumn
    matrix: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    response_scale: float
    response_shift: int
    sqrt_n: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    @property
    def tile(self) -> int:
        """One GEMM tile of anchors of :meth:`bounds`."""
        return _ANCHOR_BLOCK

    def rows(self, anchors, span: tuple[int, int]):
        """Yield ``(j1, lo, r_hat, tau_hat)`` per run of at most
        ``_ANCHOR_BLOCK`` of the ascending ``anchors`` (:func:`_tile_grid`,
        one chunk of partners per run), in order.  Each row's product
        always has shape (n,) @ (n, p), so a value never depends on span,
        tiling or which anchors share its tile.  The scaled ratio is r_hat
        itself; tau_hat beyond the float range is +-inf."""
        sums = np.empty((min(len(anchors), _ANCHOR_BLOCK), self.p))
        for j1, starts, ends, lo, hi in _tile_grid(anchors, self.p, span, _ANCHOR_BLOCK, self.p):
            for row, a in zip(sums, j1.tolist()):
                np.matmul(self.response.centered * self.matrix[:, a], self.matrix, out=row)
            block = sums[: j1.size, lo:hi]
            denom = np.multiply.outer(self.scale[j1] * self.response_scale, self.scale[lo:hi])
            r_hat = self.sqrt_n * np.abs(block) / denom
            _mask(r_hat, starts, ends, lo, np.nan)
            shifts = np.add.outer(self.shift[j1] + self.response_shift, self.shift[lo:hi])
            with np.errstate(over="ignore"):  # past the float range, masked cells too
                tau_hat = np.ldexp(block / self.n, shifts)
            yield j1, lo, r_hat, tau_hat

    def bounds(self, anchors: range, span: tuple[int, int]):
        """Yield ``(a0, lo, estimate, radius)`` per GEMM tile of ``anchors``:
        an estimate of r_hat over anchors ``a0, a0 + 1, ...`` by partners
        ``lo, lo + 1, ...`` and a radius per anchor such that the r_hat
        :meth:`rows` gives each pair lies within ``estimate -+ radius``,
        whatever BLAS does.  Pairs outside the span (j2 <= j1 included) have
        estimate -inf.  The estimate array is reused: read it before asking
        for the next tile.

        With ``W = y_c * C[:, A]`` (the products :meth:`rows` forms) a tile
        is ``G = W.T @ C[:, B]``, and the estimate is ``|G|`` times
        ``sqrt_n / denom``, formed as the outer product of
        ``sqrt_n / (scale[A] * response_scale)`` and ``1 / scale[B]``.  Any
        summation order, FMA or thread split puts both G and the row's
        product-sum s within ``gamma_n sum_i |w_i||c_i|`` plus ``2 n eta`` of
        the exact dot product (Higham, Accuracy and Stability of Numerical
        Algorithms, section 3.1), so
        ``|G - s| <= 2 gamma_n max_i |w_i| ||c||_1 + 4 n eta``, and by
        Cauchy-Schwarz ``||c||_1 <= sqrt(n) ||c||_2 <= sqrt(n) scale (1 +
        gamma_n)``, the computed css being within gamma_n.  The radius maps
        this through the monotone post-processing and adds ``_SLACK`` times
        the tile's largest estimate and radius plus ``eta``: that covers
        the rounding of ``sqrt_n`` and the few roundings of either side's
        post-processing and of one comparison of ``estimate -+ radius``
        with a value.  After the prescale every |x| is in [1/2, 1) at its
        column's largest, so every |c| and |y_c| is below 2 and, by
        :func:`~jciscan.cumulants.near_constant`'s relative floor, css
        exceeds ``(eps n / 2)^2``: every factor is normal and no partial
        sum exceeds ``8 n``, at any column scale."""
        n = self.n
        gamma = n * _UNIT / (1 - n * _UNIT)
        # ||c||_2 <= scale (1 + gamma_n): the computed css is within gamma_n.
        spread = 2 * gamma * (1 + gamma) * (1 + _SLACK) * self.sqrt_n
        # sqrt_n / denom is the outer product of these normal factors.
        anchor_factors = self.sqrt_n / (self.scale * self.response_scale)
        partner_factors = 1 / self.scale
        underflow = 4 * n * _ETA * anchor_factors.max() * partner_factors.max() + _ETA
        # Two tile buffers, reused from tile to tile: fresh arrays of this
        # size cost a page-faulting allocation each.
        size = min(len(anchors), _ANCHOR_BLOCK) * min(self.p, _PARTNER_CHUNK)
        buffers = np.empty((2, size))
        for run, starts, ends, lo, hi in _tile_grid(anchors, self.p, span, _ANCHOR_BLOCK, _PARTNER_CHUNK):
            a0, a1 = int(run[0]), int(run[-1]) + 1
            estimate, factor = (b[: (a1 - a0) * (hi - lo)].reshape(a1 - a0, hi - lo) for b in buffers)
            w = self.response.centered[:, None] * self.matrix[:, a0:a1]
            np.matmul(w.T, self.matrix[:, lo:hi], out=estimate)
            np.abs(estimate, out=estimate)
            estimate *= np.multiply.outer(anchor_factors[a0:a1], partner_factors[lo:hi], out=factor)
            radius = spread * np.abs(w).max(axis=0) * anchor_factors[a0:a1]
            radius += underflow
            radius += _SLACK * (estimate.max() + radius.max())
            _mask(estimate, starts, ends, lo, -np.inf)
            yield a0, lo, estimate, radius


@dataclass(frozen=True, eq=False)
class CodeWorkspace:
    """The exact route's workspace, shared read-only by workers: the codes
    in a level-ordered store, and integer sums for them and the response
    shifted to ``y' = y - min(y)``.  Every sum is a float64 holding an
    exact integer.

    Attributes:
        store: the codes, bytes x p uint8, at ``bits`` bits per code.
            Its rows are y' in stable sort order: the levels ascending,
            each level's rows in input order, then code 0 up to
            :attr:`stored_rows`.  At 2 bits, byte row b of column j holds
            rows 4b..4b+3, row 4b + k in bits 2k and 2k + 1
            (:mod:`jciscan.dataio`'s one codec, the packed file's layout);
            at 8 bits, row b.  Padding adds nothing to any sum or product.
        bits: 2 when every code is at most 3, else 8.
        n: the samples, padding not counted.
        levels: ``(l, rows)`` per distinct value l of y', ascending from
            0: ``rows`` is the level's row range of the store.
        sums: ``S_j = sum_i x_ij``.
        cross: ``n S_jy - S_j S_y``, with ``S_jy = sum_i x_ij y'_i``.
        spread: ``D_j = n S_jj - S_j^2``, n^2 times the 1/n variance.
        response_sum: ``S_y = sum_i y'_i``.
        response_spread: ``D_y = n S_yy - S_y^2``.
    """

    store: np.ndarray
    bits: int
    n: int
    levels: tuple[tuple[int, slice], ...]
    sums: np.ndarray
    cross: np.ndarray
    spread: np.ndarray
    response_sum: float
    response_spread: float

    @property
    def p(self) -> int:
        return self.store.shape[1]

    @property
    def stored_rows(self) -> int:
        """The store's rows, ``4 ceil(n / 4)``: tail padding included."""
        return -(-self.n // 4) * 4

    @property
    def tile(self) -> int:
        """One GEMM tile of anchors."""
        return _CODE_ANCHORS

    @property
    def partners(self) -> int:
        """The most partners of one GEMM tile (``_CODE_CELLS``)."""
        return min(_CODE_PARTNERS, max(_COMBINE_ROWS, _CODE_CELLS // self.stored_rows))

    #: The exact route's tiles are its values: every anchor's rows are read.
    bounds = None

    def rows(self, anchors, span: tuple[int, int]):
        """Yield ``(j1, lo, r_hat, tau_hat)`` per slice of at most
        ``_COMBINE_ROWS`` anchors of each GEMM tile of ``anchors``
        (:func:`_tile_grid`), in reused arrays: read each before the next.
        ``anchors`` is always a range: the exact route reads every row, and
        each run's anchors are contiguous store columns.
        A tile's anchor and partner columns are decoded from the store
        (:meth:`_decode`) into two float32 buffers of stored rows x
        ``_CODE_ANCHORS`` and x :attr:`partners`, allocated once per call;
        the anchors are decoded once per run of tiles that share them.
        A partner chunk that reaches into the tile's own anchors is summed
        one combine slice at a time, from the slice's first partner.
        With ``b_j = n S_jy - S_j S_y`` the float64 combine forms
        ``N = n^2 S_12y - n S_y S_12 - (S_1 b_2 + b_1 S_2)``, every
        intermediate an integer below ``2 c^2 n^3 m < 2^53``, so each is
        exact; tau_hat is the correctly rounded N / n^3, and r_hat is
        ``|N / d|`` with ``d = sqrt((D_1 D_y) D_2)``, the same as ``|N| / d``."""
        n, rows = self.n, self.stored_rows
        block = min(len(anchors), _CODE_ANCHORS)
        width = min(self.p, self.partners)
        step = min(block, _COMBINE_ROWS)
        mine_buffer, mates_buffer = np.empty(rows * block, np.float32), np.empty(rows * width, np.float32)
        slot_buffer = np.empty(len(self.store) * max(block, width), dtype=np.uint8) if self.bits == 2 else None
        narrow = np.empty((3, block * width), dtype=np.float32)
        wide = np.empty((2, step * width))
        held = None
        for run, starts, ends, lo, hi in _tile_grid(anchors, self.p, span, _CODE_ANCHORS, width):
            a0, k = int(run[0]), len(run)
            if a0 != held:
                x = self._decode(a0, a0 + k, mine_buffer, slot_buffer)
                held = a0
            mates = self._decode(lo, hi, mates_buffer, slot_buffer)
            # Partners that reach into the tile's own anchors are summed one
            # combine slice at a time from that slice's first partner, so no
            # GEMM spends a tile's worth of cells on pairs with j2 <= j1.
            if lo >= starts.max():
                pieces = [(0, k, lo)]
            else:
                pieces = [(r0, min(r0 + step, k), max(lo, int(starts[r0 : r0 + step].min())))
                          for r0 in range(0, k, step)]
            for p0, p1, c0 in pieces:
                if c0 >= hi:
                    continue
                h, w = p1 - p0, hi - c0
                s12, s12y, product = (b[: h * w].reshape(h, w) for b in narrow)
                self._level_sums(x[:, p0:p1], mates[:, c0 - lo :], s12, s12y, product)
                mated = np.stack([self.cross[c0:hi], self.sums[c0:hi]])
                for r0 in range(0, h, step):
                    r1 = min(r0 + step, h)
                    num, r_hat = (b[: (r1 - r0) * w].reshape(r1 - r0, w) for b in wide)
                    mine = slice(a0 + p0 + r0, a0 + p0 + r1)
                    np.multiply(s12y[r0:r1], n * n, out=num, dtype=np.float64)
                    num -= np.multiply(s12[r0:r1], n * self.response_sum, out=r_hat, dtype=np.float64)
                    pair = np.stack([self.sums[mine], self.cross[mine]], 1)
                    num -= np.matmul(pair, mated, out=r_hat)
                    np.multiply.outer(self.spread[mine] * self.response_spread, self.spread[c0:hi], out=r_hat)
                    np.abs(np.divide(num, np.sqrt(r_hat, out=r_hat), out=r_hat), out=r_hat)
                    num /= float(n) ** 3
                    _mask(r_hat, starts[p0 + r0 : p0 + r1], ends[p0 + r0 : p0 + r1], c0, np.nan)
                    yield np.arange(mine.start, mine.stop), c0, r_hat, num

    def _decode(self, j0: int, j1: int, buffer: np.ndarray, slot_buffer) -> np.ndarray:
        """Columns ``[j0, j1)`` of the store as float32 codes, stored rows x
        columns, at the head of ``buffer``: 8-bit codes by one cast, 2-bit
        codes by :func:`~jciscan.dataio._unpack_codes` through ``slot_buffer``."""
        out = buffer[: self.stored_rows * (j1 - j0)].reshape(self.stored_rows, j1 - j0)
        codes = self.store[:, j0:j1]
        if self.bits == 8:
            out[...] = codes
        else:
            dataio._unpack_codes(codes, out, slot_buffer[: codes.size].reshape(codes.shape))
        return out

    def _level_sums(self, x, mates, s12, s12y, product) -> None:
        """``S_12`` and ``S_12y`` of anchors ``x`` against partners ``mates``
        (stored rows x columns, :meth:`_decode`), one GEMM per level on its
        contiguous rows: from the top level down, S_12 gathers each A_l and
        S_12y gains S_12 times the gap to the next level, l A_l in all."""
        top = len(self.levels) - 1
        for i in range(top, -1, -1):
            level = self.levels[i][1]
            np.matmul(x[level].T, mates[level], out=s12 if i == top else product)
            if i < top:
                s12 += product
            gap = self.levels[i][0] - self.levels[i - 1][0] if i else 0
            if i == top:
                np.multiply(s12, gap, out=s12y)
            elif gap:
                s12y += s12 if gap == 1 else np.multiply(s12, gap, out=product)


def _columns(matrix):
    """``((n, p), blocks)`` of a :func:`precompute` input: ``blocks(width)``
    yields ``(j0, cols)`` per run of ``width`` columns, in order, ``cols``
    an n x columns array of columns ``j0, j0 + 1, ...``.  A column source
    (``n``, ``p`` and ``column_blocks``, as
    :class:`~jciscan.dataio.PackedGenotypes` has) decodes its own blocks;
    an array's are views."""
    if hasattr(matrix, "column_blocks"):
        return (matrix.n, matrix.p), matrix.column_blocks

    def blocks(width: int):
        for j0 in range(0, matrix.shape[1], width):
            yield j0, matrix[:, j0 : j0 + width]

    return matrix.shape, blocks


def precompute(matrix, response) -> Workspace | CodeWorkspace:
    """Center every column and the response exactly once.

    Accepts a real n x p array, any object exposing ``.codes`` (a genotype
    matrix) or a column source with ``n``, ``p`` and ``column_blocks`` (a
    :class:`~jciscan.dataio.PackedGenotypes`, walked without an n x p
    array; :func:`_columns`).  The route follows the values, not the
    container: integers in [0, 255] of any dtype against an integer-valued
    response take the exact route while its bounds hold and get a
    :class:`CodeWorkspace` (:func:`_exact_workspace`): the codes in a
    level-ordered store of 2 or 8 bits per code, and per-column integer
    sums, all from one walk over the input that also decides the route and
    stops at the first block that rules it out; the input itself is not
    kept.  Any other input takes the float route and gets a
    :class:`Workspace` from a walk of its own.  Both walks take blocks of
    :func:`~jciscan.dataio._walk_width` columns, ``max(64, 2**17 // n)``
    (1 MiB of float64 at n <= 2048).  On the float route each block is
    widened to float64 as contiguous rows, scaled by ``2^-e`` (e
    the ``frexp`` exponent of the largest |x|, y alike), centered, and
    written straight into the one n x p matrix, so the route holds the
    input once plus one block.  Means, centered values and css are
    bit-identical to :func:`~jciscan.cumulants.center` on each scaled
    column.  One max and one min per column give e, the finite check and
    the variance floor's spread.  After this call a float-route pair costs
    one fused length-n product-sum plus one division and one square root.

    Raises:
        InvalidValue: a matrix or response dtype other than bool,
            integer or float, or non-finite entries (response first, then
            the lowest offending column).
        ZeroVarianceColumn: a constant column (its id) or response (-1),
            by the relative floor of :func:`~jciscan.cumulants.near_constant`;
            on the exact route a column is constant when ``D_j == 0``.
        DegenerateSample: n < 3.
        TooFewColumns: p < 2.
    """
    raw = matrix
    if not hasattr(matrix, "column_blocks"):
        raw = np.asarray(getattr(matrix, "codes", matrix))
        if raw.ndim != 2:
            raise InvalidValue(f"expected an n x p matrix, got shape {raw.shape}")
        if raw.dtype.kind not in "biuf":
            raise InvalidValue(f"expected a real matrix, got dtype {raw.dtype}")
    (n, p), blocks = _columns(raw)
    if n < MIN_SCAN_SAMPLES:
        raise DegenerateSample(f"pair scans need n >= {MIN_SCAN_SAMPLES}, got {n}")
    if p < 2:
        raise TooFewColumns(f"need at least 2 predictor columns, got {p}")
    y = np.asarray(response)
    if y.dtype.kind not in "biuf":
        raise InvalidValue(f"expected a real response, got dtype {y.dtype}")
    y = y.astype(np.float64, copy=False)
    if y.shape != (n,):
        raise DimensionMismatch(f"response has shape {y.shape}, expected ({n},)")

    response_shift = int(np.frexp(max(y.max(), -y.min()))[1])
    cy = center(np.ldexp(y, -response_shift), index=RESPONSE_INDEX)
    validate_c1(cy)
    if (code_ws := _exact_workspace(raw, y)) is not None:
        return code_ws

    centered = np.empty((n, p))
    shift = np.empty(p, dtype=np.intc)
    css = np.empty(p)
    width = dataio._walk_width(n)
    for j0, cols in blocks(width):
        block = slice(j0, j0 + width)
        # Row j of `cols` is column j0 + j: contiguous rows give the same
        # pairwise sums and dot products as center() on that column alone.
        cols = np.array(cols.T, dtype=np.float64, order="C")
        # max and min, not np.abs: no temporary; NaN and inf reach them.
        # Rounding is monotone, so they give the centered extremes bit for bit.
        top, bottom = cols.max(axis=1), cols.min(axis=1)
        finite = np.isfinite(top) & np.isfinite(bottom)
        e = np.frexp(np.maximum(top, -bottom))[1]
        np.ldexp(cols, -e[:, None], out=cols)
        with np.errstate(invalid="ignore"):  # non-finite columns are reported below
            means = cols.sum(axis=1) / n
            cols -= means[:, None]
            # One stacked product: each row's dot product in the same order
            # as center()'s np.dot, bit for bit, without a Python loop.
            ss = (cols[:, None, :] @ cols[:, :, None]).ravel()
            spread = np.maximum(np.ldexp(top, -e) - means, means - np.ldexp(bottom, -e))
            bad = ~finite | near_constant(means, spread, ss, n)
        if bad.any():
            j = int(np.argmax(bad))
            if not finite[j]:
                raise InvalidValue(f"column {j0 + j} contains non-finite values")
            raise ZeroVarianceColumn(j0 + j)
        centered[:, block], shift[block], css[block] = cols.T, e, ss
    centered.setflags(write=False)
    return Workspace(
        response=cy,
        matrix=centered,
        scale=np.sqrt(css),
        shift=shift,
        response_scale=math.sqrt(cy.css),
        response_shift=response_shift,
        sqrt_n=math.sqrt(n),
    )


#: float32 and float64 hold every integer of magnitude below these exactly.
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53


def _exact_workspace(matrix, y: np.ndarray) -> CodeWorkspace | None:
    """The exact route's workspace, or None for the float route: y
    integer-valued, every entry an integer in [0, 255], and with c the
    largest code and m = max(y) - min(y) (>= 1 here), ``c^2 n m < 2^24``
    (float32 GEMM tiles) and ``2 c^2 n^3 m < 2^53`` (float64 combine).
    ``matrix`` is an array or a column source (:func:`_columns`).

    One walk over blocks of :func:`~jciscan.dataio._walk_width` columns,
    the float walk's rule, checks and narrows the entries to uint8, gathers the block's rows
    into y's stable sort order by one ``take`` (each level one row range,
    rows past n code 0), updates the largest code c so far and checks both
    bounds on it, and packs the block into the store
    (:class:`CodeWorkspace`): 2 bits per code until a code above 3 widens
    the store to 8.  c only grows, so the walk returns None at the first
    block that fails either check, and nothing after that block is read or
    packed.  The same level-ordered block, in float32, gives ``S_j`` and
    ``S_jy`` by one product with ``[1, y']`` and ``S_jj`` by one sum of
    squares.  Every partial sum is an integer of at most ``c^2 n m``, and
    that bound is checked before the block's sums are taken, so the sums
    are exact in any order.  No n x p copy of the input is made.
    ``y' = y - min(y)`` is exact for an integer-valued y within bounds."""
    (n, p), blocks = _columns(matrix)
    m = float(y.max()) - float(y.min())  # Python floats: inf past the float range, no warning
    # n m < 2^24 is the float32 bound at c = 1; at c = 0 every column is constant.
    if not (n * m < _FLOAT32_EXACT and np.array_equal(y, np.rint(y))):
        return None
    shifted = (y - y.min()).astype(np.int64)
    counts = np.bincount(shifted)
    values = np.flatnonzero(counts)
    ends = np.cumsum(counts[values]).tolist()
    levels = tuple((v, slice(a, e)) for v, a, e in zip(values.tolist(), [0, *ends], ends))
    # Store rows are y' in stable sort order; the tail past n stays code 0.
    order, rows = np.argsort(shifted, kind="stable"), -(-n // 4) * 4
    weights = np.zeros((rows, 2), dtype=np.float32)
    weights[:, 0] = 1
    weights[:n, 1] = shifted[order]
    width = dataio._walk_width(n)
    ordered = np.zeros((rows, width), dtype=np.uint8)
    wide = np.empty((rows, width), dtype=np.float32)
    store, bits, c = np.empty((rows // 4, p), dtype=np.uint8), 2, 0
    sums = np.empty((p, 3), dtype=np.float32)
    for j0, cols in blocks(width):
        if cols.dtype != np.uint8:
            if not (cols.min() >= 0 and cols.max() <= 255):  # NaN fails too
                return None
            narrow = cols.astype(np.uint8)
            if not np.array_equal(narrow, cols):
                return None
            cols = narrow
        j1 = j0 + cols.shape[1]
        block = ordered[:, : j1 - j0]
        # "clip" (every index is valid) keeps np.take from buffering its output.
        np.take(cols, order, axis=0, out=block[:n], mode="clip")
        c = max(c, int(block.max()))
        # c only grows, so the first block that breaks a bound ends the walk.
        # Integer factors and power-of-two bounds: the float products compare
        # as the exact ones would.
        if not (c * c * m * n < _FLOAT32_EXACT and 2 * c * c * m * n**3 < _FLOAT64_EXACT):
            return None
        if c > 3 and bits == 2:
            widened = np.empty((rows, p), dtype=np.uint8)
            dataio._unpack_codes(store[:, :j0], widened[:, :j0], np.empty((rows // 4, j0), dtype=np.uint8))
            store, bits = widened, 8
        store[:, j0:j1] = block if bits == 8 else dataio._pack_codes(block, 0)
        f = wide[:, : j1 - j0]
        f[...] = block
        sums[j0:j1, :2] = (weights.T @ f).T
        sums[j0:j1, 2] = weights[:, 0] @ np.square(f, out=f)
    s, sy, ss = sums.T.astype(np.int64)
    s_y, s_yy = int(shifted.sum()), int(shifted @ shifted)
    spread = n * ss - s * s
    if not spread.all():
        raise ZeroVarianceColumn(int(np.argmin(spread != 0)))
    store.setflags(write=False)
    return CodeWorkspace(
        store=store,
        bits=bits,
        n=n,
        levels=levels,
        sums=s.astype(np.float64),
        cross=(n * sy - s * s_y).astype(np.float64),
        spread=spread.astype(np.float64),
        response_sum=float(s_y),
        response_spread=float(n * s_yy - s_y * s_y),
    )


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------


def _span(p: int, pair_range) -> tuple[int, int]:
    """The pair span of ``pair_range`` (:func:`_pair_range`), all pairs when None."""
    total = pair_count(p)
    span = _pair_range(pair_range) if pair_range is not None else (0, total)
    if span[1] > total:
        raise InvalidPair(f"pair_range {span} exceeds [0, {total})")
    if span[0] == span[1]:
        raise EmptyRange(f"pair_range {span} selects no pairs")
    return span


def _anchors_for_span(p: int, span: tuple[int, int]) -> range:
    return range(_anchor(span[0], p), _anchor(span[1] - 1, p) + 1)


def _partners(j1, p: int, span: tuple[int, int]):
    """Partners ``[lo, hi)`` of anchor(s) j1 inside the canonical pair span."""
    base = _row_start(j1, p)
    return np.maximum(j1 + 1, j1 + 1 + (span[0] - base)), np.minimum(p, j1 + 1 + (span[1] - base))


def _tile_grid(anchors, p: int, span: tuple[int, int], block: int, width: int):
    """The tile walk of all three kernels: the ascending ``anchors`` in runs
    of at most ``block``, each run against its partners in the span in the
    fewest chunks of at most ``width`` columns, their widths within one of
    each other.  A tile is ``(run, starts, ends, lo, hi)``: the run's
    anchors as an intp array with their partners ``[starts[i], ends[i])``
    in the span, and the columns ``[lo, hi)`` of the union of those
    partners.  The tiles of one run come one after another, and share its
    ``run``, ``starts`` and ``ends``."""
    anchors = np.asarray(anchors, dtype=np.intp)
    starts, ends = _partners(anchors, p, span)
    for b0 in range(0, anchors.size, block):
        run = slice(b0, b0 + block)
        first, stop = int(starts[run].min()), int(ends[run].max())
        cols, chunks = stop - first, -(-(stop - first) // width)
        for c in range(chunks):
            lo, hi = first + cols * c // chunks, first + cols * (c + 1) // chunks
            yield anchors[run], starts[run], ends[run], lo, hi


def _mask(tile: np.ndarray, starts, ends, lo: int, fill: float) -> None:
    """Set ``fill`` in a tile's cells (partners from ``lo``) outside each
    row's ``[starts[i], ends[i])``.  The span is contiguous in canonical
    order, so it clips only its end anchors' rows; j2 > j1 a diagonal block."""
    hi = lo + tile.shape[1]
    head = min(starts.max(), hi)
    if head > lo:
        tile[:, : head - lo][np.arange(lo, head) < starts[:, None]] = fill
    tail = max(ends.min(), lo)
    if tail < hi:
        tile[:, tail - lo :][np.arange(tail, hi) >= ends[:, None]] = fill


class _TopK:
    """The top-k state of one :func:`scan`, shared by its work tiles and
    workers: the pairs ``held`` and the ``floor`` (module docstring), the
    larger of the k-th largest cell lower bound screened and the k-th
    largest value read; a scan reads and screens each pair once, so each
    count is over distinct pairs."""

    def __init__(self, k: int):
        self.k, self.floor, self.held = k, -np.inf, [_EMPTY]
        self._bounds, self._lock = np.empty(0), threading.Lock()

    def bound(self, lower: np.ndarray) -> None:
        with self._lock:
            self._bounds = self._lift(np.concatenate([self._bounds, lower]))

    def offer(self, tile) -> None:
        """Hold the cells of a ``rows`` tile at or above the floor, the
        floor first lifted to the tile's own k-th largest when more than 2k
        reach it; the pool is cut to the floor whenever it holds more than 2k."""
        r_hat = tile[2]
        flat, values = np.flatnonzero(r_hat >= self.floor), r_hat.ravel()
        if flat.size > 2 * self.k:
            with self._lock:
                self._lift(values[flat])
            flat = flat[values[flat] >= self.floor]
        if not flat.size:
            return
        found = _table(tile, np.divmod(flat, r_hat.shape[1]))
        with self._lock:
            self.held.append(found)
            if sum(map(len, self.held)) > 2 * self.k:
                pool = PairTable.concat(self.held)
                self._lift(pool.r_hat)
                self.held = [pool[pool.r_hat >= self.floor]]

    def _lift(self, values: np.ndarray) -> np.ndarray:
        """Lift the floor to the k-th largest of ``values`` when there are
        k; return those at or above it."""
        if values.size >= self.k:
            self.floor = max(self.floor, np.partition(values, values.size - self.k)[values.size - self.k])
        return values[values >= self.floor]


def _cells(mask: np.ndarray):
    """A 2-D mask's true cells as (rows, columns): a flat scan, faster than a 2-D ``nonzero``."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _table(tile, cells) -> PairTable:
    """The pairs of a ``rows`` tile ``(j1, lo, r_hat, tau_hat)`` at ``cells`` = (rows, columns)."""
    j1, lo, r_hat, tau_hat = tile
    i, j = cells
    return PairTable(j1[i], lo + j, tau_hat[i, j], r_hat[i, j])


def _sweep_tile(ws, anchors, span, top, threshold, out, ranked=None):
    """Sweep the ascending ``anchors``, one 2-D tile of ``ws.rows`` at a
    time; return the threshold hits (a table) and the rank counts.  Each
    tile goes to every consumer given: its pairs at or above the floor of
    ``top`` go to :meth:`_TopK.offer`; ``out`` receives every score, flat
    from the span start; with ``ranked = (values, index)``, count ``t``
    gains the pairs above ``values[t]`` and those equal to it before
    canonical index ``index[t]``.  Which anchors to read is the caller's
    choice (:func:`scan`)."""
    values, index = ranked if ranked is not None else (np.empty(0), None)
    counts = np.zeros(values.size, dtype=np.int64)
    hits = []
    for tile in ws.rows(anchors, span):
        j1, lo, r_hat, _ = tile
        if out is not None:
            starts, ends = _partners(j1, ws.p, span)
            starts, ends = np.maximum(starts, lo), np.minimum(ends, lo + r_hat.shape[1])
            at = _row_start(j1, ws.p) + starts - j1 - 1 - span[0]
            for i, (s, e, a) in enumerate(zip(starts.tolist(), ends.tolist(), at.tolist())):
                out[a : a + e - s] = r_hat[i, s - lo : e - lo]
        if top is not None:
            top.offer(tile)
        if threshold is not None:
            hits.append(_table(tile, _cells(r_hat > threshold)))
        for t, v in enumerate(values.tolist()):
            i, j = _cells(r_hat == v)
            before = _row_start(j1[i], ws.p) + lo + j - j1[i] - 1 < index[t]
            counts[t] += np.count_nonzero(r_hat > v) + np.count_nonzero(before)
    return PairTable.concat(hits), counts


def _screened(ws, anchors: range, span, top, values):
    """Screen a work tile by the workspace's certified bounds; return
    ``(need, reach, above, tiles)``: whether a rank value needs each
    anchor's row read (a pair whose bounds bracket the value), each
    anchor's largest upper bound, which the top-k floor and a threshold
    cut, per rank value the pairs of each anchor certainly above it, and
    the bounds tiles screened.  Top-k lifts the scan's floor by the cell
    lower bounds."""
    need = np.zeros(len(anchors), dtype=bool)
    reach = np.full(len(anchors), -np.inf)
    above = np.zeros((values.size, len(anchors)), dtype=np.int64)
    tiles = 0
    for a0, _, estimate, radius in ws.bounds(anchors, span):
        tiles += 1
        at = slice(a0 - anchors.start, a0 - anchors.start + len(radius))
        most = estimate.max(axis=1)
        np.maximum(reach[at], most + radius, out=reach[at])
        if values.size:
            # Pairs below every value settle at once; the rest are few.
            i, j = _cells(estimate >= (values.min() - radius)[:, None])
            near, wide = estimate[i, j], radius[i]
            for t, v in enumerate(values.tolist()):
                above[t, at] += np.bincount(i[near > v + wide], minlength=len(radius))
                need[at.start + i[(near <= v + wide) & (near >= v - wide)]] = True
        if top is not None:
            # The cells above the floor are bounded a few rows at a time,
            # each group lifting the floor for the next.
            cut = top.floor
            live = np.flatnonzero(most > cut + radius)
            for r in range(0, live.size, _SCREEN_ROWS):
                rows = live[r : r + _SCREEN_ROWS]
                lower = estimate[rows]
                lower -= radius[rows, None]
                top.bound(lower[lower > cut])
                cut = top.floor
    return need, reach, above, tiles


def scan(ws: Workspace | CodeWorkspace, config: ScanConfig) -> ScanResult:
    """Score every pair in range; keep the top-k and/or thresholded subset,
    and rank the requested pairs, all from one pass.

    ``ws`` is a :class:`Workspace` or a :class:`CodeWorkspace` from
    :func:`precompute`.  Work tiles hold ``max(block_size, ws.tile)``
    anchors, so a small ``block_size`` never cuts below the route's
    smallest tile.  The rank pairs' values come first, one row read each.
    A workspace with ``bounds`` then screens every work tile once, for
    every output at the same time, before any row is read, so the reads see
    the whole scan's floor.  Each work tile's sweep starts with the row
    choice (module docstring) and returns its own rank counts, summed after
    the pool.  The result is identical for any block_size/worker_count
    combination; see the module docstring for why.

    Raises:
        EmptyRange: the configured pair range selects no pairs.
        InvalidPair: a pair range beyond the pairs, or a rank pair with
            ``j1 >= j2``, outside ``[0, p)`` or outside the pair range.
    """
    span = _span(ws.p, config.pair_range)
    pairs = config.rank_pairs
    index = np.array([_index(j1, j2, ws.p) for j1, j2 in pairs], dtype=np.int64)
    for pair, i in zip(pairs, index.tolist()):
        if not span[0] <= i < span[1]:
            raise InvalidPair(f"rank pair {pair} lies outside pair_range {span}")

    started = time.perf_counter()
    values = np.array([_scores(ws, (i, i + 1))[0] for i in index.tolist()])
    anchors = _anchors_for_span(ws.p, span)
    step = max(config.block_size, ws.tile)
    tiles = [anchors[i : i + step] for i in range(0, len(anchors), step)]
    top = _TopK(config.top_k) if config.top_k is not None else None

    def screen(tile):
        return _screened(ws, tile, span, top, values) if ws.bounds is not None else None

    def sweep(tile, screened):
        # The row choice: once every work tile is screened, read the anchors
        # a rank value needs and those whose largest upper bound reaches
        # the floor or exceeds the threshold; an unread anchor adds its
        # pairs certainly above each value.
        unread = 0
        if screened is not None:
            need, reach, above, _ = screened
            if top is not None:
                need = need | (reach >= top.floor)
            if config.threshold is not None:
                need = need | (reach > config.threshold)
            unread = above[:, ~need].sum(axis=1)
            tile = np.asarray(tile)[need]
        hits, counts = _sweep_tile(ws, tile, span, top, config.threshold, None, (values, index))
        return hits, counts + unread, len(tile)

    # The workspace is shared read-only; the top-k state takes a lock.
    workers = min(config.worker_count, len(tiles))
    if workers <= 1:
        screens = list(map(screen, tiles))
        parts = list(map(sweep, tiles, screens))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            screens = list(pool.map(screen, tiles))
            parts = list(pool.map(sweep, tiles, screens))

    counts = sum((c for _, c, _ in parts), np.zeros(len(pairs), dtype=np.int64))
    return ScanResult(
        top_pairs=PairTable.concat(top.held).ordered(top.k) if top is not None else _EMPTY,
        selected=PairTable.concat(h for h, _, _ in parts).ordered(),
        ranks=tuple(zip(pairs, (c + 1 for c in counts.tolist()))),
        pairs_scanned=int(span[1] - span[0]),
        elapsed_seconds=time.perf_counter() - started,
        stats=ScanStats(
            tiles_screened=sum(s[-1] for s in screens if s is not None),
            rows_read=len(pairs) + sum(r for _, _, r in parts),
        ),
    )


def _scores(ws, span: tuple[int, int]) -> np.ndarray:
    out = np.empty(span[1] - span[0])
    _sweep_tile(ws, _anchors_for_span(ws.p, span), span, None, None, out)
    return out


def all_scores(ws: Workspace | CodeWorkspace, pair_range: tuple[int, int] | None = None) -> np.ndarray:
    """Flat float64 array of every pair's score, canonical order.

    Position ``i`` holds the pair with canonical index ``start + i`` where
    ``start`` is the beginning of ``pair_range`` (0 when unset).  Memory is
    O(#pairs); intended for desk-scale p.  ``pair_range`` follows
    :class:`ScanConfig`'s rule.
    """
    return _scores(ws, _span(ws.p, pair_range))


def iter_score_rows(ws: Workspace | CodeWorkspace):
    """Yield ``(j1, scores_for_j2_gt_j1)`` per anchor, canonical order.
    Streaming companion to :func:`all_scores` for O(p^2) dump writers.
    On either route each block of ``_ANCHOR_BLOCK`` anchors is swept into a
    fresh array of at most ``_ANCHOR_BLOCK x (p - 1)`` scores, and its rows
    are views of that array, so a caller may keep them."""
    p = ws.p
    for a0 in range(0, p - 1, _ANCHOR_BLOCK):
        a1 = min(a0 + _ANCHOR_BLOCK, p - 1)
        span = (_row_start(a0, p), _row_start(a1, p))
        out = _scores(ws, span)
        for j1 in range(a0, a1):
            at = _row_start(j1, p) - span[0]
            yield j1, out[at : at + p - 1 - j1]


def select_by_threshold(stats, c: float) -> PairTable:
    """Filter a pair table, or any iterable of ``PairStatistic``, to r_hat
    strictly above ``c``, returned in the result ordering (r descending,
    pair ascending).  ``c`` follows :class:`ScanConfig`'s threshold rule."""
    _threshold(c)
    table = PairTable.of(stats)
    return table[table.r_hat > c].ordered()


def merge_top_pairs(parts, top_k: int) -> PairTable:
    """Merge per-shard top-k tables (or iterables of ``PairStatistic``)
    into the global top-k.  Exact when every shard kept at least its local
    top-k over a partition of the pair set.

    Raises:
        InvalidValue: ``top_k`` not an integer, or below 1, as in :class:`ScanConfig`.
    """
    return PairTable.concat(PairTable.of(part) for part in parts).ordered(_count(top_k, "top_k"))


def ranks_of_pairs(scores, p: int, pairs) -> dict[tuple[int, int], int]:
    """1-based rank of each requested pair in the full descending order.

    The rank counts strictly greater scores plus equal-scored pairs that
    precede canonically (canonical order is exactly the (j1, j2) tie rule).
    ``scores`` is one of:

    * a full-range array from :func:`all_scores`;
    * a workspace: then this is ``scan(ws, ScanConfig(rank_pairs=pairs))``,
      one screened pass that holds no score array;
    * a :class:`ScanResult`: the ranks its scan made for ``rank_pairs`` are
      looked up, so a caller that also wants a top-k or threshold view
      asks :func:`scan` for all of them in one pass.

    All three give the same ranks, and check ``p`` (:func:`pair_count`)
    and the pairs' coordinates (:class:`ScanConfig`'s ``rank_pairs`` rule)
    alike.

    Raises:
        InvalidValue: a pair the :class:`ScanResult` did not rank.
    """
    pairs, total = _pairs(pairs), pair_count(p)
    if isinstance(scores, ScanResult):
        held = dict(scores.ranks)
        missing = [pair for pair in pairs if pair not in held]
        if missing:
            raise InvalidValue(f"the scan result ranks no {missing}")
        return {pair: held[pair] for pair in pairs}
    if isinstance(scores, np.ndarray):
        if scores.shape[0] != total:
            raise DimensionMismatch(f"need the full score array ({total} entries), got {scores.shape[0]}")
        ranks: dict[tuple[int, int], int] = {}
        for j1, j2 in pairs:
            ci = _index(j1, j2, p)
            v = scores[ci]
            greater = int(np.count_nonzero(scores > v))
            ties_before = int(np.count_nonzero(scores[:ci] == v))
            ranks[(j1, j2)] = greater + ties_before + 1
        return ranks

    ws = scores
    if ws.p != p:
        raise DimensionMismatch(f"workspace has p={ws.p}, expected {p}")
    return dict(scan(ws, ScanConfig(rank_pairs=pairs)).ranks) if pairs else {}


def default_worker_count() -> int:
    """Worker count from the JCI_WORKERS environment variable, else 1; a
    count by :func:`_count`'s rule."""
    raw = os.environ.get("JCI_WORKERS", "").strip() or "1"
    try:
        value = int(raw)
    except ValueError:
        value = raw  # not an integer: _count says so
    return _count(value, "JCI_WORKERS")
