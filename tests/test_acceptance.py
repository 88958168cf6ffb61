"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Seeds are fixed; the Monte Carlo bands absorb the
reduced replication counts.

Criterion 5 (study 5 quantitative bands) is expected to FAIL: the
generator is provably faithful to the stated design (moments and the
large-n score limits match the analytic values exactly), but at n=100,
p=500 the long-run joint top-5 rate is ~40% against a required band of
56-80.  The ordering clause holds.  See the repository notes for the full
analysis; the test is kept faithful rather than loosened.
"""

import math
import time

import numpy as np

import jciscan as jc
from jciscan import (
    ScanConfig,
    center,
    merge_top_pairs,
    pair_count,
    precompute,
    sample_k3,
    scan,
)
from jciscan.dataio import (
    GenotypeMatrix,
    genotype_from_floats,
    parse_csv,
    parse_packed,
    write_csv,
    write_packed,
)
from jciscan.simulate import run_replications, study_spec, summarize

SEED = 0


def report(num, name, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def wilson95(pct, n):
    """Wilson score 95% interval, in percent, for a rate of pct% over n trials."""
    z2 = 1.96**2
    rate = pct / 100.0
    center = (rate + z2 / (2 * n)) / (1 + z2 / n)
    half = math.sqrt(z2 * rate * (1 - rate) / n + z2 * z2 / (4 * n * n)) / (1 + z2 / n)
    return f"[{100 * (center - half):.0f},{100 * (center + half):.0f}]"


def study_summary(study_id, reps):
    spec = study_spec(study_id, seed=SEED, replications=reps)
    return summarize(run_replications(spec))


# --------------------------------------------------------------------------
# 1-5: simulation study reproduction
# --------------------------------------------------------------------------


def test_criterion_01_study1_rank_exactly_one():
    started = time.perf_counter()
    s = study_summary(1, reps=50)
    elapsed = time.perf_counter() - started
    ps = s.per_pair[(0, 1)]
    ok = ps.mean_rank == 1.0 and ps.median_rank == 1 and elapsed < 300.0
    assert report(
        1,
        "study 1: pair (1,2) mean and median rank exactly 1",
        ok,
        f"mean={ps.mean_rank} median={ps.median_rank} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_study2_top5_rates():
    s = study_summary(2, reps=50)
    a = s.per_pair[(0, 1)].top5_pct
    b = s.per_pair[(2, 3)].top5_pct
    joint = s.all_pairs_top5_pct
    ok = a >= 95.0 and b >= 95.0 and joint >= 90.0
    assert report(
        2,
        "study 2: per-pair top-5 >= 95%, joint >= 90%",
        ok,
        f"(1,2)={a:.0f}% (3,4)={b:.0f}% joint={joint:.0f}%",
    )


def test_criterion_03_study3_rank_bounds():
    s = study_summary(3, reps=50)
    means = {pr: ps.mean_rank for pr, ps in s.per_pair.items()}
    medians = {pr: ps.median_rank for pr, ps in s.per_pair.items()}
    ok = all(m <= 10.0 for m in means.values()) and all(m <= 6 for m in medians.values())
    assert report(
        3,
        "study 3: every true pair mean rank <= 10, median <= 6",
        ok,
        "means=" + "/".join(f"{means[pr]:.2f}" for pr in sorted(means))
        + " medians=" + "/".join(str(medians[pr]) for pr in sorted(medians)),
    )


def test_criterion_04_study4_top5_bands():
    s = study_summary(4, reps=100)
    a = s.per_pair[(0, 2)].top5_pct
    b = s.per_pair[(5, 9)].top5_pct
    joint = s.all_pairs_top5_pct
    ok = abs(a - 92.0) <= 10.0 and abs(b - 92.0) <= 10.0 and abs(joint - 84.0) <= 12.0
    assert report(
        4,
        "study 4: top-5 rates 92+-10 per pair, joint 84+-12",
        ok,
        f"(1,3)={a:.0f}% (6,10)={b:.0f}% joint={joint:.0f}%",
    )


def test_criterion_05_study5_top5_bands_and_ordering():
    s = study_summary(5, reps=100)
    r12 = s.per_pair[(0, 1)].top5_pct
    r34 = s.per_pair[(2, 3)].top5_pct
    r56 = s.per_pair[(4, 5)].top5_pct
    joint = s.all_pairs_top5_pct
    n = s.replications
    ordering_ok = r56 >= r34 >= r12
    bands_ok = (
        abs(r12 - 78.0) <= 12.0
        and abs(r34 - 89.0) <= 12.0
        and abs(r56 - 96.0) <= 12.0
        and abs(joint - 68.0) <= 12.0
    )
    report(
        5,
        "study 5: top-5 bands 78/89/96 joint 68 (+-12) and correlation ordering",
        bands_ok and ordering_ok,
        f"(1,2)={r12:.0f}% {wilson95(r12, n)} (3,4)={r34:.0f}% {wilson95(r34, n)} "
        f"(5,6)={r56:.0f}% {wilson95(r56, n)} joint={joint:.0f}% {wilson95(joint, n)} "
        f"(Wilson 95%, n={n}) ordering={'ok' if ordering_ok else 'violated'}; "
        "joint band is unattainable at the stated n=100 design (see notes)",
    )
    assert ordering_ok, "correlation-strength ordering must hold"
    assert bands_ok, "study 5 quantitative bands (expected red: design SNR caps joint near 40%)"


# --------------------------------------------------------------------------
# 6-7: oracle equivalence and the algebraic identity
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
    rt_n = math.sqrt(n)
    out = {}
    for j1 in range(p):
        c1 = cols[j1]
        for j2 in range(j1 + 1, p):
            c2 = cols[j2]
            s = 0.0
            for i in range(n):
                s += c1[i] * c2[i] * cy[i]
            out[(j1, j2)] = rt_n * abs(s) / math.sqrt(ss[j1] * ss[j2] * ssy)
    return out


def test_criterion_06_scanner_matches_naive_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = 0
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(20, 101))
        p = int(rng.integers(5, 51))
        if case % 2 == 0:
            X = rng.normal(size=(n, p))
            y = X[:, 0] * X[:, 1] + rng.normal(size=n)
        else:
            X = (rng.random((n, p)) < 0.5).astype(np.float64)
            X[0, :] = 1.0
            X[1, :] = 0.0
            y = X[:, 0] * X[:, 1] + (rng.random(n) < 0.25)
        ref = naive_pair_scores(X, y)
        order = sorted(ref, key=lambda pr: (-ref[pr], pr[0], pr[1]))
        k = min(10, len(order))
        res = scan(precompute(X, y), ScanConfig(top_k=k))
        assert [(s.j1, s.j2) for s in res.top_pairs] == order[:k]
        for s in res.top_pairs:
            expect = ref[(s.j1, s.j2)]
            rel = abs(s.r_hat - expect) / expect if expect else abs(s.r_hat)
            worst = max(worst, rel)
            assert rel <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 20 and elapsed < 10.0
    assert report(
        6,
        "scanner top-k equals naive triple-loop reference",
        ok,
        f"20 instances, worst rel err {worst:.2e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_07_algebraic_identity_two_forms():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 200))
        c1 = center(rng.normal(size=n), 0)
        c2 = center(rng.normal(scale=rng.uniform(0.5, 3.0), size=n), 1)
        cy = center(rng.normal(size=n), -1)
        direct = jc.pair_score(c1, c2, cy).r_hat
        ratio = abs(sample_k3(c1, c2, cy)) / math.sqrt(
            jc.sample_k2(c1) * jc.sample_k2(c2) * jc.sample_k2(cy)
        )
        rel = abs(direct - ratio) / ratio if ratio else abs(direct)
        worst = max(worst, rel)
        assert rel <= 1e-12
    assert report(
        7,
        "direct form equals |tau|/(s1*s2*sy) on 1000 random triples",
        True,
        f"worst rel diff {worst:.2e}",
    )


# --------------------------------------------------------------------------
# 8: determinism
# --------------------------------------------------------------------------


def test_criterion_08_determinism_workers_blocks_and_seeds(tmp_path):
    rng = np.random.default_rng(SEED + 8)
    X = rng.normal(size=(200, 500))
    y = X[:, 3] * X[:, 4] + rng.normal(size=200)
    ws = precompute(X, y)
    base = scan(ws, ScanConfig(top_k=25, threshold=0.15))
    combos = 0
    for workers in (1, 2, 8):
        for block in (1, 64, 256):
            res = scan(ws, ScanConfig(top_k=25, threshold=0.15, worker_count=workers, block_size=block))
            assert res.top_pairs == base.top_pairs
            assert res.selected == base.selected
            assert res.pairs_scanned == base.pairs_scanned
            combos += 1

    from jciscan.cli import main

    sim_outs = []
    for tag in ("a", "b"):
        summary = tmp_path / f"s_{tag}.csv"
        reps = tmp_path / f"r_{tag}.csv"
        code = main(
            ["simulate", "--study", "3", "--reps", "3", "--seed", "11", "--n", "100",
             "--p", "300", "--out-summary", str(summary), "--out-replicates", str(reps)]
        )
        assert code == 0
        sim_outs.append(summary.read_bytes() + reps.read_bytes())
    ok = combos == 9 and sim_outs[0] == sim_outs[1]
    assert report(
        8,
        "bit-identical results across 9 worker/block combos; seeded sim outputs identical",
        ok,
        f"{combos} scan combos on n=200 p=500, simulate run twice byte-equal",
    )


# --------------------------------------------------------------------------
# 9: throughput and shard completeness
# --------------------------------------------------------------------------


def test_criterion_09_throughput_and_shard_merge():
    rng = np.random.default_rng(SEED + 9)
    X = (rng.random((200, 1000)) < 0.5).astype(np.float64)
    X[0, :] = 1.0
    X[1, :] = 0.0
    y = X[:, 0] * X[:, 1]
    ws = precompute(X, y)
    started = time.perf_counter()
    res = scan(ws, ScanConfig(top_k=10, worker_count=1))
    elapsed = time.perf_counter() - started
    per_pair_us = elapsed / res.pairs_scanned * 1e6
    envelope_us = 20 * 3.6  # informational: 20x of the compiled 3.6 us/pair figure

    total = pair_count(1000)
    cuts = [0, total // 3, (2 * total) // 3, total]
    shards = [
        scan(ws, ScanConfig(top_k=10, pair_range=(a, b))).top_pairs
        for a, b in zip(cuts, cuts[1:])
    ]
    merged = tuple(merge_top_pairs(shards, 10))
    ok = elapsed < 5.0 and res.pairs_scanned == total and merged == res.top_pairs
    assert report(
        9,
        "499,500-pair scan < 5 s single-threaded; shard merge exact",
        ok,
        f"elapsed {elapsed:.2f}s = {per_pair_us:.2f} us/pair "
        f"(informational envelope {envelope_us:.0f} us/pair), 3 shards merged exactly",
    )


# --------------------------------------------------------------------------
# 10: format round trips and representation parity
# --------------------------------------------------------------------------


def test_criterion_10_roundtrips_and_representation_parity(tmp_path):
    rng = np.random.default_rng(SEED + 10)
    for i in range(100):
        n = int(rng.integers(1, 40))
        p = int(rng.integers(1, 10))
        gm = GenotypeMatrix(
            codes=rng.integers(1, 4, size=(n, p)).astype(np.uint8),
            snp_ids=tuple(f"rs{i}_{j}" for j in range(p)),
            chromosomes=tuple(int(rng.integers(0, 24)) for _ in range(p)),
        )
        packed_path = tmp_path / "m.jcg"
        write_packed(gm, packed_path)
        back = parse_packed(packed_path)
        assert np.array_equal(back.codes, gm.codes)
        assert back.snp_ids == gm.snp_ids and back.chromosomes == gm.chromosomes

        csv_path = tmp_path / "m.csv"
        labels = [gm.column_label(j) for j in range(p)]
        write_csv(csv_path, gm.codes.astype(float), labels)
        matrix, _, names = parse_csv(csv_path, None)
        gm2 = genotype_from_floats(matrix, names)
        assert np.array_equal(gm2.codes, gm.codes)

    n, p = 80, 12
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    y = (codes[:, 0] == codes[:, 1]).astype(float) + 0.05 * rng.normal(size=n)
    gm = GenotypeMatrix(
        codes=codes,
        snp_ids=tuple(f"rs{j}" for j in range(p)),
        chromosomes=tuple((j % 23) + 1 for j in range(p)),
    )
    packed_path = tmp_path / "big.jcg"
    write_packed(gm, packed_path)
    csv_path = tmp_path / "big.csv"
    write_csv(csv_path, codes.astype(float), [gm.column_label(j) for j in range(p)])
    via_packed = scan(precompute(parse_packed(packed_path), y), ScanConfig(top_k=15))
    matrix, _, _ = parse_csv(csv_path, None)
    via_csv = scan(precompute(matrix, y), ScanConfig(top_k=15))
    ok = via_packed.top_pairs == via_csv.top_pairs
    assert report(
        10,
        "100 encode/decode round trips exact; packed vs CSV scans identical",
        ok,
        "codes, ids and chromosomes preserved; top-15 bitwise equal across representations",
    )


# --------------------------------------------------------------------------
# 11: estimator consistency ladder
# --------------------------------------------------------------------------


def test_criterion_11_consistency_ladder():
    # Bernoulli(1/2) factors with response = product: population three-way
    # cumulant is q^2 (1-q)^2 = 1/16 (enumeration-checked in the unit suite)
    truth = 0.0625
    rng = np.random.default_rng(SEED + 11)
    medians = []
    for n in (100, 1000, 10_000):
        errs = []
        for _ in range(200):
            x1 = (rng.random(n) < 0.5).astype(np.float64)
            x2 = (rng.random(n) < 0.5).astype(np.float64)
            y = x1 * x2
            tau = sample_k3(center(x1, 0), center(x2, 1), center(y, -1))
            errs.append(abs(tau - truth))
        medians.append(float(np.median(errs)))
    ok = medians[0] > medians[1] > medians[2]
    assert report(
        11,
        "median |tau - k3| decreases over n = 100, 1000, 10000",
        ok,
        "medians " + " > ".join(f"{m:.2e}" for m in medians),
    )
