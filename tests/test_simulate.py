"""Simulation designs: moment checks against the stated targets,
reproducibility, harness behavior, summaries."""

import tracemalloc

import numpy as np
import pytest

from jciscan import (
    GenotypeMatrix,
    ScanConfig,
    all_scores,
    gen_study1,
    gen_study2,
    gen_study3,
    gen_study4,
    gen_study5,
    pair_count,
    precompute,
    ranks_of_pairs,
    run_replications,
    scan,
    study_spec,
    summarize,
)
from jciscan.errors import EmptyReport, InvalidValue
from jciscan.scan import MIN_SCAN_SAMPLES, CodeWorkspace, Workspace
from jciscan import simulate
from jciscan.simulate import (
    _DRAW_CELLS,
    _STUDY4_RHO,
    GENERATORS,
    STUDY_DEFAULTS,
    STUDY_TRUE_PAIRS,
    ReplicateReport,
    SimStudySpec,
    child_seed,
    lower_median,
)

# --------------------------------------------------------------------------
# Spec factory and defaults
# --------------------------------------------------------------------------


def test_study_defaults():
    assert STUDY_DEFAULTS == {1: (200, 1000), 2: (200, 1000), 3: (200, 1000), 4: (100, 500), 5: (100, 500)}
    spec = study_spec(1, seed=7)
    assert (spec.n, spec.p) == (200, 1000)
    assert spec.true_pairs == ((0, 1),)
    spec = study_spec(5, seed=7)
    assert (spec.n, spec.p) == (100, 500)
    assert spec.true_pairs == ((0, 1), (2, 3), (4, 5))


def test_study_spec_validation():
    # study_spec looks up the id and fills the defaults; SimStudySpec checks
    # everything, by the scan module's count and pair rules.
    for study_id, bad in (
        (6, {}), (1, dict(n=2)), (4, dict(p=9)), (True, {}), ([1], {}), (1, dict(n=3.5)),
        (1, dict(replications=2.5)), (1, dict(replications=True)), (1, dict(seed=1.5)),
    ):
        with pytest.raises(InvalidValue):
            study_spec(study_id, **{"seed": 0, **bad})
    base = dict(study_id=1, n=50, p=10, true_pairs=((0, 1),), seed=0)
    for bad in (
        dict(true_pairs=()), dict(true_pairs=((3, 3),)), dict(true_pairs=((0, 10),)), dict(n=2), dict(seed=-1),
        dict(true_pairs=((0.5, 1),)),
    ):
        with pytest.raises(InvalidValue):
            SimStudySpec(**{**base, **bad})


#: Smallest p each design can be drawn at: one past its highest true column.
STUDY_MIN_P = {1: 2, 2: 4, 3: 8, 4: 10, 5: 6}


@pytest.mark.parametrize("study_id", sorted(STUDY_DEFAULTS))
def test_study_spec_bounds_per_study(study_id):
    need = STUDY_MIN_P[study_id]
    assert need == max(j2 for _, j2 in STUDY_TRUE_PAIRS[study_id]) + 1
    with pytest.raises(InvalidValue, match=f"needs p >= {need}"):
        study_spec(study_id, p=need - 1)
    spec = study_spec(study_id, n=MIN_SCAN_SAMPLES, p=need)
    assert (spec.n, spec.p) == (MIN_SCAN_SAMPLES, need)
    assert GENERATORS[study_id](spec.n, spec.p, child_seed(0, 0)).predictors.shape == (spec.n, need)
    with pytest.raises(InvalidValue, match=f"n >= {MIN_SCAN_SAMPLES}"):
        study_spec(study_id, n=MIN_SCAN_SAMPLES - 1)


# --------------------------------------------------------------------------
# Generators: definitional identities
# --------------------------------------------------------------------------


def test_study1_response_is_product():
    ds = gen_study1(500, 20, seed=3)
    x = ds.predictors
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert np.array_equal(ds.response, x[:, 0] * x[:, 1])
    assert np.array_equal(ds.response == 1.0, (x[:, 0] == 1.0) & (x[:, 1] == 1.0))


def test_study1_balance():
    ds = gen_study1(10_000, 25, seed=11)
    means = ds.predictors.mean(axis=0)
    assert np.all(np.abs(means - 0.5) < 0.02)


def test_study2_moments_and_response():
    ds = gen_study2(10_000, 8, seed=5)
    x = ds.predictors
    assert abs(x[:, 0].var() - 4.0) < 0.25  # sd 2 -> variance 4
    assert abs(x.mean()) < 0.05
    assert np.array_equal(ds.response, x[:, 0] * x[:, 1] + x[:, 2] * x[:, 3])


def test_study3_design_constants():
    from jciscan.simulate import (
        _STUDY3_RESPONSE_RATE,
        _STUDY3_THETA_MAJORITY,
        _STUDY3_THETA_MINORITY,
    )

    assert _STUDY3_RESPONSE_RATE == 0.75
    assert _STUDY3_THETA_MAJORITY == (0.3, 0.4, 0.5, 0.3)
    assert _STUDY3_THETA_MINORITY == (0.95, 0.9, 0.9, 0.95)


def test_study3_conditional_frequencies():
    ds = gen_study3(100_000, 12, seed=9)
    x, y = ds.predictors, ds.response
    assert abs(y.mean() - 0.75) < 0.01
    # minority class carries the extreme rates: X1 fires at 0.95 and its
    # partner at 0.95 given X1=1
    minority = y == 0.0
    assert abs(x[minority, 0].mean() - 0.95) < 0.01
    sel = minority & (x[:, 0] == 1.0)
    assert abs(x[sel, 1].mean() - 0.95) < 0.01
    # majority class: X1 fires at 0.3, partner at 0.05 given X1=1
    majority = y == 1.0
    assert abs(x[majority, 0].mean() - 0.3) < 0.01
    sel = majority & (x[:, 0] == 1.0)
    assert abs(x[sel, 1].mean() - 0.05) < 0.01
    # partner given odd = 0: 0.6 (minority, hot) vs 0.4 (majority, mild)
    sel = minority & (x[:, 0] == 0.0)
    assert abs(x[sel, 1].mean() - 0.6) < 0.02
    sel = majority & (x[:, 0] == 0.0)
    assert abs(x[sel, 1].mean() - 0.4) < 0.01
    # noise block is a fair coin
    assert abs(x[:, 8:].mean() - 0.5) < 0.01


def test_study4_covariance_structure():
    ds = gen_study4(100_000, 12, seed=13)
    x = ds.predictors
    assert abs(np.cov(x[:, 0], x[:, 1])[0, 1] - 0.1) < 0.01
    assert abs(np.cov(x[:, 0], x[:, 2])[0, 1] - 0.01) < 0.01
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.02)
    expect = (
        x[:, 0] + x[:, 2] + x[:, 5] + x[:, 9]
        + 3.0 * x[:, 0] * x[:, 2] + 3.0 * x[:, 5] * x[:, 9]
    )
    assert np.array_equal(ds.response, expect)


def test_study5_correlations():
    ds = gen_study5(100_000, 10, seed=17)
    x = ds.predictors
    for (a, b), rho in zip(((0, 1), (2, 3), (4, 5)), (0.1, 0.3, 0.5)):
        assert abs(np.corrcoef(x[:, a], x[:, b])[0, 1] - rho) < 0.01
    assert abs(np.corrcoef(x[:, 0], x[:, 2])[0, 1]) < 0.01
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.03)
    assert np.array_equal(
        ds.response, x[:, 0] * x[:, 1] + x[:, 2] * x[:, 3] + x[:, 4] * x[:, 5]
    )


@pytest.mark.parametrize("gen", [gen_study1, gen_study2, gen_study3, gen_study4, gen_study5])
def test_generators_are_pure(gen):
    a = gen(50, 12, seed=123)
    b = gen(50, 12, seed=123)
    assert np.array_equal(a.predictors, b.predictors)
    assert np.array_equal(a.response, b.response)
    c = gen(50, 12, seed=124)
    assert not np.array_equal(a.predictors, c.predictors)


# (n, p): n not a multiple of the rows drawn per block, two columns, and a
# row wider than one block.
_DRAW_SHAPES = [(70_001, 2), (200, 1000), (3, _DRAW_CELLS + 3)]


@pytest.mark.parametrize("n, p", _DRAW_SHAPES)
def test_study1_design_is_the_one_block_draw_as_uint8(n, p):
    ds = gen_study1(n, p, seed=8)
    assert ds.predictors.dtype == np.uint8 and ds.response.dtype == np.float64
    expect = np.random.default_rng(8).random((n, p)) < 0.5
    assert np.array_equal(ds.predictors, expect)
    assert ds.response.tobytes() == (expect[:, 0] * expect[:, 1]).astype(np.float64).tobytes()


@pytest.mark.parametrize("n, p", _DRAW_SHAPES)
def test_study3_noise_block_is_the_one_block_draw_as_uint8(n, p):
    ds = gen_study3(n, p + 8, seed=8)
    assert ds.predictors.dtype == np.uint8 and ds.response.dtype == np.float64
    rng = np.random.default_rng(8)
    for _ in range(9):  # the response, then four (odd, even) pairs
        rng.random(n)
    assert np.array_equal(ds.predictors[:, 8:], rng.random((n, p)) < 0.5)
    assert set(np.unique(ds.predictors[:, :8])) <= {0, 1}


def test_study4_in_place_recurrence_is_the_two_array_form():
    n, p = 37, 300
    eps = np.random.default_rng(6).normal(size=(n, p))
    x = np.empty((n, p))
    x[:, 0] = eps[:, 0]
    carry = np.sqrt(1.0 - _STUDY4_RHO**2)
    for j in range(1, p):
        x[:, j] = _STUDY4_RHO * x[:, j - 1] + carry * eps[:, j]
    ds = gen_study4(n, p, seed=6)
    assert ds.predictors.tobytes() == x.tobytes()


@pytest.mark.parametrize("gen", [gen_study1, gen_study3])
def test_uint8_design_scores_as_its_float_copy(gen):
    ds = gen(90, 120, child_seed(2, 0))
    codes = precompute(ds.predictors, ds.response)
    assert isinstance(codes, CodeWorkspace) and codes.bits == 2  # 0/1 codes stored at 2 bits each
    widened = precompute(ds.predictors.astype(np.float64), ds.response)
    assert all_scores(codes).tobytes() == all_scores(widened).tobytes()


def test_study1_single_replicate_scan_ranks_true_pair_first():
    ds = gen_study1(200, 1000, seed=5)
    ws = precompute(ds.predictors, ds.response)
    res = scan(ws, ScanConfig(top_k=1))
    assert (res.top_pairs[0].j1, res.top_pairs[0].j2) == (0, 1)


# --------------------------------------------------------------------------
# Replication harness
# --------------------------------------------------------------------------


def test_run_replications_deterministic():
    spec = study_spec(2, n=60, p=30, seed=77, replications=3)
    a = run_replications(spec)
    b = run_replications(spec)
    assert [r.ranks for r in a] == [r.ranks for r in b]
    assert [r.result.top_pairs for r in a] == [r.result.top_pairs for r in b]


def test_single_replication_equals_manual_child_run():
    spec = study_spec(2, n=60, p=30, seed=41, replications=1)
    rep = run_replications(spec)[0]
    ds = gen_study2(60, 30, child_seed(41, 0))
    ws = precompute(ds.predictors, ds.response)
    manual = ranks_of_pairs(all_scores(ws), 30, spec.true_pairs)
    assert rep.ranks == manual
    assert rep.in_top5 == {pr: rk <= 5 for pr, rk in manual.items()}


def test_reports_drop_the_score_array():
    spec = study_spec(1, n=50, p=20, seed=13, replications=3)
    reports = run_replications(spec)
    assert not any(hasattr(rep.result, "scores") for rep in reports)
    for r, rep in enumerate(reports):
        ds = gen_study1(50, 20, child_seed(13, r))
        ws = precompute(ds.predictors, ds.response)
        assert rep.ranks == ranks_of_pairs(all_scores(ws), 20, spec.true_pairs)
        assert rep.result.top_pairs == scan(ws, ScanConfig(top_k=5)).top_pairs


def test_replicate_holds_no_score_array():
    # n=20, p=3000: 4,498,500 pairs, whose flat float64 scores take 34 MiB.
    spec = study_spec(1, n=20, p=3000, seed=5)
    tracemalloc.start()
    try:
        (report,) = run_replications(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    ds = gen_study1(20, 3000, child_seed(5, 0))
    ws = precompute(ds.predictors, ds.response)
    assert report.ranks == ranks_of_pairs(all_scores(ws), 3000, spec.true_pairs)


def test_binary_replicate_holds_its_design_once():
    # 2000 x 4000: the uint8 design takes 7.6 MiB and the exact route's
    # buffers 7.9 MiB.  A float64 0/1 design alone would take 61 MiB (the
    # float-drawn design peaked at 78 MiB here).
    spec = study_spec(1, n=2000, p=4000, seed=3)
    tracemalloc.start()
    try:
        (report,) = run_replications(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert report.ranks == {(0, 1): 1}


def test_float_replicate_scans_with_one_matrix_held(monkeypatch):
    # The dataset is dropped once precompute returns, so the scan sees the
    # centered matrix alone, not the design beside it; the previous
    # replicate's workspace is gone before the next design is drawn.
    n, p = 200, 2000
    held = []

    def counted(ws, config):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return scan(ws, config)

    monkeypatch.setattr(simulate, "scan", counted)
    spec = study_spec(5, n=n, p=p, seed=3, replications=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_replications(spec)
    finally:
        tracemalloc.stop()
    assert len(held) == 3
    assert all(n * p * 8 <= h < 1.5 * n * p * 8 for h in held)


def test_one_replicate_screens_each_bounds_tile_once(monkeypatch):
    # The top-5 view and the true pairs' ranks come from one scan, so each
    # certified bounds tile is screened once per replicate, not once for
    # the top-5 and again for the ranks; the screen then reads a few rows.
    spec = study_spec(2, n=80, p=400, seed=4)
    ds = gen_study2(80, 400, child_seed(4, 0))
    ws = precompute(ds.predictors, ds.response)
    assert isinstance(ws, Workspace)
    grid = [tile[:2] for tile in ws.bounds(range(399), (0, pair_count(400)))]
    screened = []
    raw = Workspace.bounds

    def counted(self, anchors, span):
        for tile in raw(self, anchors, span):
            screened.append(tile[:2])
            yield tile

    monkeypatch.setattr(Workspace, "bounds", counted)
    (report,) = run_replications(spec)
    assert sorted(screened) == sorted(grid)
    assert report.result.stats.tiles_screened == len(grid)
    assert report.result.stats.rows_read < 400 // 4
    assert report.ranks == ranks_of_pairs(all_scores(ws), 400, spec.true_pairs)


@pytest.mark.parametrize("gen", [gen_study1, gen_study3])
def test_binary_designs_score_as_genotype_codes(gen):
    # The 0/1 designs are uint8 codes and take the exact route, so their
    # scores, exact ties included, are those of the same design as genotype
    # codes 1/2: a shift leaves every exact integer sum, and so every
    # score, unchanged.
    ds = gen(200, 300, child_seed(0, 0))
    ws = precompute(ds.predictors, ds.response)
    assert isinstance(ws, CodeWorkspace)
    codes = ds.predictors.astype(np.uint8) + 1
    gm = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(300)), chromosomes=(1,) * 300)
    assert all_scores(ws).tobytes() == all_scores(precompute(gm, ds.response)).tobytes()


def test_child_seed_is_the_spawn_child():
    for s in (0, 41):
        children = np.random.SeedSequence(s).spawn(21)
        for r, child in enumerate(children):
            assert child_seed(s, r).spawn_key == child.spawn_key == (r,)
            assert np.array_equal(child_seed(s, r).generate_state(8), child.generate_state(8))


def test_first_replicate_starts_without_a_seed_per_replicate():
    # A run builds each replicate's seed as the replicate starts, so a huge
    # replicate count costs nothing before the first dataset is drawn.
    class FirstCall(Exception):
        pass

    def generator(n, p, seed):
        raise FirstCall(tracemalloc.get_traced_memory()[1])

    spec = SimStudySpec(study_id=1, n=20, p=4, true_pairs=((0, 1),), seed=5, replications=100_000)
    tracemalloc.start()
    try:
        with pytest.raises(FirstCall) as raised:
            run_replications(spec, generator=generator)
    finally:
        tracemalloc.stop()
    assert raised.value.args[0] < 8 * 2**20


def test_replicates_differ_from_each_other():
    spec = study_spec(1, n=50, p=12, seed=3, replications=2)
    reports = run_replications(spec)
    assert reports[0].replicate == 0 and reports[1].replicate == 1
    a = gen_study1(50, 12, child_seed(3, 0)).predictors
    b = gen_study1(50, 12, child_seed(3, 1)).predictors
    assert not np.array_equal(a, b)


def test_run_replications_custom_generator():
    def custom(n, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        from jciscan.simulate import SimDataset

        return SimDataset(predictors=x, response=x[:, 0] * x[:, 1])

    spec = SimStudySpec(study_id=99, n=80, p=10, true_pairs=((0, 1),), seed=1, replications=2)
    with pytest.raises(InvalidValue):
        run_replications(spec)
    reports = run_replications(spec, generator=custom)
    assert all(r.ranks[(0, 1)] == 1 for r in reports)


def test_worker_count_does_not_change_reports():
    spec = study_spec(1, n=50, p=40, seed=9, replications=2)
    a = run_replications(spec, worker_count=1)
    b = run_replications(spec, worker_count=4)
    assert [r.ranks for r in a] == [r.ranks for r in b]
    assert [r.result.top_pairs for r in a] == [r.result.top_pairs for r in b]


# --------------------------------------------------------------------------
# Summaries
# --------------------------------------------------------------------------


def _fake_reports(rank_lists):
    reports = []
    for i, ranks in enumerate(rank_lists):
        reports.append(
            ReplicateReport(
                replicate=i,
                result=None,
                ranks=dict(ranks),
                in_top5={pr: rk <= 5 for pr, rk in ranks.items()},
            )
        )
    return reports


def test_lower_median_convention():
    assert lower_median([1, 1, 1]) == 1
    assert lower_median([1, 2, 3, 4]) == 2
    assert lower_median([4, 3, 2, 1]) == 2
    assert lower_median([7]) == 7


def test_summarize_known_values():
    reports = _fake_reports([{(0, 1): 1} for _ in range(3)])
    s = summarize(reports)
    assert s.per_pair[(0, 1)].mean_rank == 1.0
    assert s.per_pair[(0, 1)].median_rank == 1
    assert s.per_pair[(0, 1)].top5_pct == 100.0
    assert s.all_pairs_top5_pct == 100.0

    reports = _fake_reports([{(0, 1): r} for r in (1, 2, 3, 4)])
    s = summarize(reports)
    assert s.per_pair[(0, 1)].mean_rank == 2.5
    assert s.per_pair[(0, 1)].median_rank == 2  # lower median


def test_summarize_joint_rate_is_bounded_by_per_pair():
    reports = _fake_reports(
        [
            {(0, 1): 1, (2, 3): 9},
            {(0, 1): 2, (2, 3): 2},
            {(0, 1): 8, (2, 3): 1},
            {(0, 1): 3, (2, 3): 3},
        ]
    )
    s = summarize(reports)
    assert s.per_pair[(0, 1)].top5_pct == 75.0
    assert s.per_pair[(2, 3)].top5_pct == 75.0
    assert s.all_pairs_top5_pct == 50.0
    assert s.all_pairs_top5_pct <= min(ps.top5_pct for ps in s.per_pair.values())


def test_summarize_empty_rejected():
    with pytest.raises(EmptyReport):
        summarize([])


def test_rank_bounds():
    spec = study_spec(3, n=60, p=20, seed=0, replications=2)
    for rep in run_replications(spec):
        for rank in rep.ranks.values():
            assert 1 <= rank <= pair_count(20)
