"""Built-in simulation study designs and the replication harness.

Five designs cover categorical and continuous predictors, with and
without main effects (0-based column indices; design docstrings use the
conventional 1-based names X1, X2, ...):

1. fair 0/1 predictors, response X1*X2; true pair (1,2)
2. i.i.d. normal (sd 2) predictors, response X1*X2 + X3*X4
3. binary response (P=0.75) driving eight conditionally dependent binary
   predictors in partner pairs; remaining columns fair coin flips
4. AR(1)-correlated normals (rho 0.1), response with four main effects and
   two strong product terms: X1 + X3 + X6 + X10 + 3*X1*X3 + 3*X6*X10
5. three designated bivariate-normal pairs with correlations 0.1/0.3/0.5,
   response X1*X2 + X3*X4 + X5*X6

Reproducibility: every generator is a pure function of (n, p, seed) using
the PCG64 generator.  Replicate r draws from the root SeedSequence's
spawn child r, built as it starts (:func:`child_seed`), and each generator
draws in a fixed documented order, so datasets are byte-identical across
runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyReport, InvalidValue
from .scan import MIN_SCAN_SAMPLES, ScanConfig, ScanResult, _count, _pairs, precompute, ranks_of_pairs, scan

#: (n, p) defaults per study id.
STUDY_DEFAULTS: dict[int, tuple[int, int]] = {
    1: (200, 1000),
    2: (200, 1000),
    3: (200, 1000),
    4: (100, 500),
    5: (100, 500),
}

#: True influential pairs per study id, 0-based.
STUDY_TRUE_PAIRS: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((0, 1),),
    2: ((0, 1), (2, 3)),
    3: ((0, 1), (2, 3), (4, 5), (6, 7)),
    4: ((0, 2), (5, 9)),
    5: ((0, 1), (2, 3), (4, 5)),
}

# Study 3 design constants: success rates of the odd-position predictors
# X1, X3, X5, X7 per response class.  The majority class (P = 0.75) uses
# the mild rates, the minority class the extreme ones; this association
# is what puts every designated pair far above both the cross-pair and
# the finite-sample noise ceiling (exact enumeration gives designated
# scores 0.46-0.52 vs 0.28 for cross pairs; the reverse association
# would drop two designated pairs under 0.12 and break the design).
_STUDY3_THETA_MAJORITY = (0.3, 0.4, 0.5, 0.3)
_STUDY3_THETA_MINORITY = (0.95, 0.9, 0.9, 0.95)
_STUDY3_RESPONSE_RATE = 0.75

# Study 5 designated-pair correlations for (X1,X2), (X3,X4), (X5,X6).
_STUDY5_CORRELATIONS = (0.1, 0.3, 0.5)

_STUDY4_RHO = 0.1

#: The fair-coin blocks of studies 1 and 3 draw their uniforms whole rows at
#: a time, as many rows as fit in this many cells (512 KiB of float64) and
#: at least one, so no n x p float block is held.
_DRAW_CELLS = 2**16


@dataclass(frozen=True)
class SimStudySpec:
    """One replicated simulation design, the one place a spec is checked,
    by :mod:`jciscan.scan`'s count and pair rules: ``study_id`` and
    ``replications`` are integers of at least 1, ``n`` of at least
    ``MIN_SCAN_SAMPLES``, ``seed`` of at least 0, and ``true_pairs`` a
    nonempty tuple of integer pairs ``0 <= j1 < j2 < p``; anything else, a
    ``bool`` too, raises InvalidValue."""

    study_id: int
    n: int
    p: int
    true_pairs: tuple[tuple[int, int], ...]
    seed: int
    replications: int = 1

    def __post_init__(self) -> None:
        pairs = _pairs(self.true_pairs, InvalidValue)
        if not pairs or not all(0 <= j1 < j2 for j1, j2 in pairs):
            raise InvalidValue(f"true_pairs must be nonempty, each 0 <= j1 < j2, got {self.true_pairs!r}")
        object.__setattr__(self, "true_pairs", pairs)
        _count(self.study_id, "study_id")
        if _count(self.n, "n") < MIN_SCAN_SAMPLES:
            raise InvalidValue(f"need n >= {MIN_SCAN_SAMPLES}, got {self.n}")
        need = max(j2 for _, j2 in pairs) + 1
        if _count(self.p, "p") < need:
            raise InvalidValue(f"study {self.study_id} needs p >= {need}, got {self.p}")
        _count(self.seed, "seed", 0)
        _count(self.replications, "replications")


@dataclass(frozen=True, eq=False)
class SimDataset:
    """Generated predictors and response; the design's true pairs are the
    spec's.  The 0/1 designs (studies 1 and 3) hold their predictors as
    uint8 codes, the others as float64; the response is always float64."""

    predictors: np.ndarray
    response: np.ndarray


@dataclass(frozen=True)
class ReplicateReport:
    """Scan outcome of one replicate: the top-5 view plus the exact rank
    and top-5 membership of every true pair."""

    replicate: int
    result: ScanResult
    ranks: dict[tuple[int, int], int]
    in_top5: dict[tuple[int, int], bool]


@dataclass(frozen=True)
class PairSummary:
    mean_rank: float
    median_rank: int
    top5_pct: float


@dataclass(frozen=True)
class RankSummary:
    """Per-pair rank aggregates plus the joint all-pairs-in-top-5 rate."""

    per_pair: dict[tuple[int, int], PairSummary]
    all_pairs_top5_pct: float
    replications: int


def study_spec(
    study_id: int,
    *,
    n: int | None = None,
    p: int | None = None,
    seed: int = 0,
    replications: int = 1,
) -> SimStudySpec:
    """Spec for a built-in study, applying the design defaults for n, p;
    :class:`SimStudySpec` checks it."""
    try:
        dn, dp = STUDY_DEFAULTS[study_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise InvalidValue(f"study_id must be one of {sorted(STUDY_DEFAULTS)}, got {study_id!r}") from None
    return SimStudySpec(
        study_id=study_id,
        n=dn if n is None else n,
        p=dp if p is None else p,
        true_pairs=STUDY_TRUE_PAIRS[study_id],
        seed=seed,
        replications=replications,
    )


# --------------------------------------------------------------------------
# Generators.  Draw orders are fixed and documented per generator; changing
# them is a compatibility break for seeded outputs.
# --------------------------------------------------------------------------


def _fair_coins(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the n x w uint8 array ``out`` with ``rng.random((n, w)) < 0.5``.

    The uniforms are drawn a block of rows at a time; consecutive draws
    continue one stream in C order, so every value is that of the one
    n x w draw, and no n x w float block is held."""
    n, w = out.shape
    rows = max(1, _DRAW_CELLS // w)
    flags = out.view(np.bool_)
    for i0 in range(0, n, rows):
        block = flags[i0 : i0 + rows]
        np.less(rng.random(block.shape), 0.5, out=block)


def gen_study1(n: int, p: int, seed) -> SimDataset:
    """Fair 0/1 predictors, as uint8 codes, drawn as one n x p block of
    uniforms (a block of rows at a time, see :func:`_fair_coins`);
    response X1*X2 as float64."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, p), dtype=np.uint8)
    _fair_coins(rng, x)
    y = (x[:, 0] & x[:, 1]).astype(np.float64)
    return SimDataset(predictors=x, response=y)


def gen_study2(n: int, p: int, seed) -> SimDataset:
    """i.i.d. N(0, sd=2) predictors (one block); response X1*X2 + X3*X4."""
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=0.0, scale=2.0, size=(n, p))
    y = x[:, 0] * x[:, 1] + x[:, 2] * x[:, 3]
    return SimDataset(predictors=x, response=y)


def gen_study3(n: int, p: int, seed) -> SimDataset:
    """Binary response first, then four (odd, even) predictor pairs, then
    the fair-coin noise block (one n x (p - 8) block of uniforms, drawn a
    block of rows at a time).  Predictors are uint8 codes, the response
    float64.

    The response satisfies P(Y=1) = 0.75.  Odd-position columns X1, X3,
    X5, X7 are Bernoulli with class-conditional rates (majority class:
    mild rates, minority class: extreme rates).  Each even partner
    depends on (Y, odd partner): when the odd column's class rate
    exceeds 0.5 the partner fires with 0.95 / 0.6 (odd = 1 / 0),
    otherwise with 0.05 / 0.4.
    """
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < _STUDY3_RESPONSE_RATE).astype(np.float64)
    x = np.empty((n, p), dtype=np.uint8)
    for m in range(4):
        class_rate = np.where(
            y == 1.0, _STUDY3_THETA_MAJORITY[m], _STUDY3_THETA_MINORITY[m]
        )
        odd = rng.random(n) < class_rate
        hot = class_rate > 0.5
        partner_rate = np.where(
            odd,
            np.where(hot, 0.95, 0.05),
            np.where(hot, 0.6, 0.4),
        )
        x[:, 2 * m] = odd
        x[:, 2 * m + 1] = rng.random(n) < partner_rate
    if p > 8:
        _fair_coins(rng, x[:, 8:])
    return SimDataset(predictors=x, response=y)


def gen_study4(n: int, p: int, seed) -> SimDataset:
    """AR(1) normals with cov(Xj1, Xj2) = rho^|j1-j2|, rho = 0.1, built
    sequentially column by column (exact, O(np), no p x p factorization);
    response X1 + X3 + X6 + X10 + 3*X1*X3 + 3*X6*X10.

    Draw order: innovation block for all p columns at once, then the
    recurrence X_j = rho*X_{j-1} + sqrt(1-rho^2)*eps_j, run in place over
    the block: column j holds eps_j until it is overwritten by X_j, so the
    design is the only n x p array.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    carry = math.sqrt(1.0 - _STUDY4_RHO**2)
    for j in range(1, p):
        x[:, j] = _STUDY4_RHO * x[:, j - 1] + carry * x[:, j]
    y = (
        x[:, 0]
        + x[:, 2]
        + x[:, 5]
        + x[:, 9]
        + 3.0 * x[:, 0] * x[:, 2]
        + 3.0 * x[:, 5] * x[:, 9]
    )
    return SimDataset(predictors=x, response=y)


def gen_study5(n: int, p: int, seed) -> SimDataset:
    """Three designated bivariate-normal pairs with unit marginals and
    correlations 0.1 / 0.3 / 0.5; all other columns independent standard
    normals; response X1*X2 + X3*X4 + X5*X6.

    Draw order: one n x p standard-normal block, then the even member of
    each designated pair is rewritten as rho*odd + sqrt(1-rho^2)*raw.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    for m, rho in enumerate(_STUDY5_CORRELATIONS):
        a, b = 2 * m, 2 * m + 1
        x[:, b] = rho * x[:, a] + math.sqrt(1.0 - rho**2) * x[:, b]
    y = x[:, 0] * x[:, 1] + x[:, 2] * x[:, 3] + x[:, 4] * x[:, 5]
    return SimDataset(predictors=x, response=y)


GENERATORS = {
    1: gen_study1,
    2: gen_study2,
    3: gen_study3,
    4: gen_study4,
    5: gen_study5,
}


# --------------------------------------------------------------------------
# Replication harness
# --------------------------------------------------------------------------


def child_seed(seed: int, replicate: int) -> np.random.SeedSequence:
    """Seed of one replicate: the root SeedSequence's spawn child at
    position ``replicate``, built directly from its spawn key, so it costs
    O(1) at any ``replicate``.  Stable across runs and platforms."""
    return np.random.SeedSequence(seed, spawn_key=(replicate,))


def run_replications(spec: SimStudySpec, generator=None, worker_count: int = 1) -> list[ReplicateReport]:
    """Run every replicate of a study; each uses its own child seed.

    Per replicate: generate, then one :func:`~jciscan.scan.scan` with
    top_k=5 and ``rank_pairs`` set to the true pairs, so the top-5 view and
    the exact rank of every true pair come from one screened pass and no
    replicate holds a full score array; the ranks are then read from the
    result with :func:`~jciscan.scan.ranks_of_pairs`.  The dataset is
    dropped once :func:`~jciscan.scan.precompute` returns and the workspace
    once the scan does, so a replicate holds its design once: the exact
    route's 0/1 design is packed into a 2-bit code store, a quarter of the
    uint8 design, and the float route's centered matrix is the one n x p
    array its scan sees.  ``generator``
    overrides the study-id dispatch for custom designs (same (n, p, seed)
    signature).
    """
    gen = generator if generator is not None else GENERATORS.get(spec.study_id)
    if gen is None:
        raise InvalidValue(f"no generator for study_id {spec.study_id}; pass one explicitly")
    config = ScanConfig(top_k=5, rank_pairs=spec.true_pairs, worker_count=worker_count)
    reports: list[ReplicateReport] = []
    for r in range(spec.replications):
        ds = gen(spec.n, spec.p, child_seed(spec.seed, r))
        ws = precompute(ds.predictors, ds.response)
        del ds
        result = scan(ws, config)
        del ws
        ranks = ranks_of_pairs(result, spec.p, spec.true_pairs)
        in_top5 = {pair: rank <= config.top_k for pair, rank in ranks.items()}
        reports.append(ReplicateReport(replicate=r, result=result, ranks=ranks, in_top5=in_top5))
    return reports


def lower_median(values: list[int]) -> int:
    """Median taking the lower of the two middle values for even counts."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def summarize(reports: list[ReplicateReport]) -> RankSummary:
    """Aggregate replicate reports into per-pair mean/median rank and
    top-5 percentages, plus the joint all-pairs rate."""
    if not reports:
        raise EmptyReport("no replicate reports to summarize")
    pairs = list(reports[0].ranks.keys())
    per_pair: dict[tuple[int, int], PairSummary] = {}
    for pair in pairs:
        ranks = [rep.ranks[pair] for rep in reports]
        hits = sum(1 for rep in reports if rep.in_top5[pair])
        per_pair[pair] = PairSummary(
            mean_rank=sum(ranks) / len(ranks),
            median_rank=lower_median(ranks),
            top5_pct=100.0 * hits / len(reports),
        )
    joint = sum(1 for rep in reports if all(rep.in_top5.values()))
    return RankSummary(
        per_pair=per_pair,
        all_pairs_top5_pct=100.0 * joint / len(reports),
        replications=len(reports),
    )
