"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

They spawn the real CLI on the smaller workloads (about a minute on two
cores) and check that inputs are deterministic per seed, that the checker
rejects corrupted outputs and counts them as failed runs, that tracing
changes no output byte, and that the spans account for each command.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

SMALL = ("csv_threshold", "dump_report")


def _inputs(prep: workloads.Prepared):
    """Every input file's bytes, plus the seeds passed on command lines."""
    files = {p.name: p.read_bytes() for p in sorted(prep.workdir.iterdir())}
    seeds = [cmd[cmd.index("--seed") + 1] for cmd in prep.commands if "--seed" in cmd]
    return files, seeds


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher() as launcher:
        yield launcher


@pytest.fixture(scope="module")
def prepared(tmp_path_factory, launcher):
    """One good untraced run of each small workload, shared by the tests."""
    out = {}
    for name in (*SMALL, "sim_study"):
        prep = workloads.prepare(name, tmp_path_factory.mktemp(name), seed=7)
        result = run.run_workload(prep, launcher)
        assert result.error is None, result.error
        out[name] = prep
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    a = workloads.prepare(name, tmp_path / "a", seed=3)
    b = workloads.prepare(name, tmp_path / "b", seed=3)
    c = workloads.prepare(name, tmp_path / "c", seed=4)
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(c)


def test_reference_matches_the_formula_pair_by_pair():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(30, 6)) * 3 + 1, rng.normal(size=30)
    scores = checks.reference_scores(x, y)
    k = 0
    for j1 in range(6):
        for j2 in range(j1 + 1, 6):
            a, b, w = x[:, j1] - x[:, j1].mean(), x[:, j2] - x[:, j2].mean(), y - y.mean()
            want = math.sqrt(30) * abs(sum(a * b * w)) / math.sqrt(sum(a * a) * sum(b * b) * sum(w * w))
            assert scores[k] == pytest.approx(want, rel=1e-12)
            k += 1


def test_planted_pair_ranks_first_in_the_reference(tmp_path):
    # Seed 607 once planted a pair at a rare allele, below the null maximum.
    for seed in (0, 1, 2, 607):
        prep = workloads.prepare("genome_topk", tmp_path / str(seed), seed)
        j1, j2 = prep.reference["planted"]
        scores = prep.reference["scores"]
        assert int(np.argmax(scores)) == checks.canonical_index(j1, j2, 2000)


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _swap_first_rows(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _perturb_first_score(lines):
    a, b, r = lines[1].split(",")
    lines[1] = f"{a},{b},{float(r) * (1 + 1e-8)!r}"


def _drop_last_threshold_row(lines):
    del lines[-1]


def _perturb_dump_score(lines):
    cells = lines[1000].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    lines[1000] = ",".join(cells)


def _swap_dump_rows(lines):
    lines[5], lines[6] = lines[6], lines[5]


CORRUPTIONS = [
    ("csv_threshold", 0, _swap_first_rows),
    ("csv_threshold", 0, _perturb_first_score),
    ("csv_threshold", 0, _drop_last_threshold_row),
    ("dump_report", 0, _swap_first_rows),
    ("dump_report", 1, _perturb_dump_score),
    ("dump_report", 1, _swap_dump_rows),
]


@pytest.mark.parametrize("name,output,corrupt", CORRUPTIONS)
def test_checker_rejects_corrupted_output(prepared, name, output, corrupt):
    prep = prepared[name]
    path = prep.outputs[output]
    good = path.read_bytes()
    try:
        prep.check()
        _edit_lines(path, corrupt)
        with pytest.raises(checks.CheckFailed):
            prep.check()
    finally:
        path.write_bytes(good)


def test_corrupted_output_counts_as_a_failed_run(prepared, launcher, monkeypatch):
    """A program whose output is wrong fails the run in the tally."""
    prep = prepared["csv_threshold"]
    real_spawn = launcher.spawn

    def faulty_program(argv, stdout, stderr):
        result = real_spawn(argv, stdout, stderr)
        _edit_lines(prep.outputs[0], _drop_last_threshold_row)
        return result

    monkeypatch.setattr(launcher, "spawn", faulty_program)
    tally = run.Tally()
    tally.count("run", run.run_workload(prep, launcher).error)
    assert (tally.attempted, tally.failed) == (1, 1)
    monkeypatch.undo()
    tally.count("run", run.run_workload(prep, launcher).error)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_command_that_writes_nothing_fails(prepared, launcher, monkeypatch):
    """Outputs left by an earlier good run never pass for a later run's."""
    prep = prepared["csv_threshold"]
    assert run.run_workload(prep, launcher).error is None
    monkeypatch.setattr(prep, "commands", [["--help"]] * len(prep.commands))
    assert "not written" in run.run_workload(prep, launcher).error
    monkeypatch.undo()
    assert run.run_workload(prep, launcher).error is None


def test_set_up_that_writes_nothing_fails(prepared, launcher, monkeypatch):
    prep = prepared["dump_report"]
    tally = run.Tally()
    run._setup(prep, launcher, tally, traced=False)
    assert (tally.attempted, tally.failed) == (1, 0)
    monkeypatch.setattr(prep, "setup", ["--help"])
    run._setup(prep, launcher, tally, traced=False)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_peak_rss_is_the_childs_own(launcher, tmp_path):
    """Children do not inherit this (large) process's memory high-water mark."""
    ballast = np.ones(64 * 2**20 // 8)  # noqa: F841  (64 MiB held by the parent)
    _, rss, code = launcher.spawn([sys.executable, "-S", "-c", "pass"],
                                  tmp_path / "out", tmp_path / "err")
    assert code == 0 and rss < 32


def test_study1_summary_must_be_exact(prepared, tmp_path):
    prep = prepared["sim_study"]
    prep.check()
    text = prep.outputs[0].read_text(encoding="utf-8")
    bad = tmp_path / "study1.csv"
    bad.write_text(text.replace('"(1,2)",1.0,', '"(1,2)",1.5,'), encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_study1_summary(bad)


@pytest.mark.parametrize("name", ("dump_report", "sim_study"))
def test_tracing_passes_results_through_unchanged(prepared, launcher, name):
    prep = prepared[name]
    plain = run.run_workload(prep, launcher)
    traced = run.run_workload(prep, launcher, traced=True)
    assert plain.error is None and traced.error is None
    assert traced.digest == plain.digest
    assert not any(rec["absent"] for rec in traced.records)

    for rec in traced.records:
        start, end = rec["main"]
        top = [s for s in rec["spans"] if s[3] == -1]
        assert all(start <= s[1] <= s[2] <= end for s in rec["spans"])
        self_s = (end - start) - sum(s[4] for s in top)
        startup_s = run._command_wall(rec) - (end - start)
        assert self_s >= 0 and startup_s > 0
        assert sum(s[4] for s in top) + self_s + startup_s == pytest.approx(run._command_wall(rec))

    layers = run.layer_metrics(prep, traced.records, None)
    assert set(layers) == set(run.PER_LAYER)
    if name == "sim_study":
        assert layers["simulate.sweeps_per_replicate"] == 2.0
        assert layers["scan.precompute_calls"] == 48
    else:
        assert layers["cli.dump_rows"] == prep.pairs == layers["scan.pairs_scanned"]
        assert layers["cli.report_s"] > 0 and layers["scan.dump_sweep_s"] > 0


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """Next to BENCHMARK.json and the benchmark alone, nothing can run."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csv_threshold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
