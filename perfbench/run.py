"""jciscan benchmark: seeded workloads through the real CLI, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

Run from the root of a checkout; ``src/jciscan`` is imported from there.
Each workload command is ``python -m jciscan ...`` in a fresh process with
one BLAS/OpenMP thread and ``--workers 1``: the plain single-threaded
baseline.  Thread scaling is not measured.

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` interleaves untraced runs with traced ones (``traced.py``
wraps the program's public names from outside) and reports per-layer
metrics as medians over the traced runs, plus the tracing overhead.

One workload run is every command of the workload, spawn of the first to
exit of the last, then a check of every output against the reference
(``checks.py``).  A run that exits non-zero or fails a check counts as
failed.  Every output is removed before each run, so a command that stops
writing one fails.  The first run warms caches and is excluded from the
timings; then runs, with the set-up command interleaved, repeat until
``--seconds`` have passed (at least ``MIN_RUNS``) and medians are
reported, because plain Python on a shared box is noisy (an identical
3M-iteration loop spread 0.47-0.67 s on a 2-core box).

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the seed, commit and
machine.  ``--workload all`` runs every workload in both modes, prints a
table and, with ``--out``, writes it all to a JSON file.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set before numpy loads, so the benchmark's own reference GEMMs are
# single-threaded too and never compete with a measured child.
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 60

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "pairs/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "dataio.parse_s": "s",
    "dataio.input_mib": "MiB",
    "dataio.parse_mib_per_s": "MiB/s",
    "dataio.setup_parse_s": "s",
    "scan.precompute_s": "s",
    "scan.precompute_calls": "count",
    "scan.precompute_peak_mib": "MiB",
    "scan.scan_s": "s",
    "scan.pairs_scanned": "count",
    "scan.ns_per_pair": "ns",
    "scan.gflops_per_s": "GFLOP/s",
    "scan.blas3_ref_gflops_per_s": "GFLOP/s",
    "scan.roofline_fraction": "ratio",
    "scan.sweep_only_s": "s",
    "scan.select_s": "s",
    "scan.selected": "count",
    "scan.dump_sweep_s": "s",
    "simulate.generate_s": "s",
    "simulate.replicate_ms.p50": "ms",
    "simulate.replicate_ms.p75": "ms",
    "simulate.ranks_s": "s",
    "simulate.sweeps_per_replicate": "count",
    "simulate.replicates_per_s": "replicates/s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.rows_out": "count",
    "cli.dump_rows": "count",
    "cli.dump_mib": "MiB",
    "cli.report_s": "s",
    "cli.report_rows_per_s": "rows/s",
    "trace.overhead_s": "s",
}


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "JCI_WORKERS"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Starts each measured child through ``spawner.py``, a small process,
    so that a child's peak RSS is its own and not this process's (see
    spawner.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int]:
        """Run one child to completion; return (wall s, peak RSS MiB, exit code)."""
        request = {"argv": argv, "env": child_env(), "stdout": str(stdout),
                   "stderr": str(stderr), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(line)
        return reply["wall"], reply["maxrss_kib"] / 1024.0, reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def jciscan_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "jciscan", *args]


def traced_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), str(spans), *args]


@dataclass
class Run:
    """One workload run: every command, then the output check."""

    wall: float = 0.0
    rss_mib: float = 0.0
    error: str | None = None
    digest: list[str] | None = None
    records: list[dict] = field(default_factory=list)


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_workload(prep: workloads.Prepared, launcher: Launcher, traced: bool = False) -> Run:
    """Run every command of the workload, then check the outputs.

    Outputs byte-identical to ones already checked against the reference
    are not checked again (the program's results are deterministic); any
    other output gets the full check."""
    run = Run()
    out, err = prep.workdir / "stdout.txt", prep.workdir / "stderr.txt"
    spans_files = [prep.workdir / f"spans{i}.json" for i in range(len(prep.commands))]
    # A file left by an earlier run must never pass for this run's output.
    for path in (*prep.outputs, *spans_files):
        path.unlink(missing_ok=True)
    start = perf_counter()
    for args, spans in zip(prep.commands, spans_files):
        argv = traced_argv(spans, args) if traced else jciscan_argv(args)
        wall, rss, code = launcher.spawn(argv, out, err)
        run.rss_mib = max(run.rss_mib, rss)
        if code != 0:
            run.wall = perf_counter() - start
            run.error = f"`{args[0]}` exited {code}: {_stderr_tail(err)}"
            return run
        if traced:
            record = json.loads(spans.read_text(encoding="utf-8"))
            record["wall"] = wall
            record["command"] = args[0]
            run.records.append(record)
    run.wall = perf_counter() - start
    missing = [path.name for path in prep.outputs if not path.is_file()]
    if missing:
        run.error = "outputs not written: " + ", ".join(missing)
        return run
    run.digest = [hashlib.sha256(path.read_bytes()).hexdigest() for path in prep.outputs]
    if run.digest != prep.verified:
        try:
            prep.check()
            prep.verified = run.digest
        except checks.CheckFailed as exc:
            run.error = str(exc)
    return run


# --------------------------------------------------------------------------
# Per-layer metrics of one traced run
# --------------------------------------------------------------------------


def _command_wall(record: dict) -> float:
    """Process wall of a traced command, less the post-command extras."""
    return record["wall"] - record["extras_s"]


def layer_metrics(prep: workloads.Prepared, records: list[dict], setup: dict | None) -> dict:
    m = dict.fromkeys(PER_LAYER, 0.0)
    input_bytes = 0
    flops = 0.0
    scan_spans = ("cli.scan", "simulate.scan")
    sim_sweeps = 0
    generate, ranks = [], []
    gemm = None
    for rec in records:
        main_s = rec["main"][1] - rec["main"][0]
        spans = rec["spans"]
        top_busy = sum(s[4] for s in spans if s[3] == -1)
        m["cli.startup_s"] += _command_wall(rec) - main_s
        m["cli.self_s"] += main_s - top_busy
        if rec["command"] == "report":
            m["cli.report_s"] += main_s
        for name, start, end, parent, busy, info in spans:
            if name.startswith("dataio."):
                m["dataio.parse_s"] += busy
                input_bytes += info.get("bytes", 0)
            elif name.endswith(".precompute"):
                m["scan.precompute_s"] += busy
                m["scan.precompute_calls"] += 1
            elif name in scan_spans:
                m["scan.scan_s"] += busy
                m["scan.pairs_scanned"] += info["pairs"]
                m["scan.selected"] += info["selected"]
                flops += 2.0 * info["n"] * info["pairs"]
                sim_sweeps += name == "simulate.scan"
            elif name == "scan.all_scores":
                # A full sweep nested in `scan` (the simulation's second
                # sweep): counted as a sweep, not as scan time.
                if parent >= 0 and spans[parent][0] in scan_spans:
                    m["scan.scan_s"] -= busy
                sim_sweeps += 1
            elif name == "cli.iter_score_rows":
                m["scan.dump_sweep_s"] += busy
            elif name == "simulate.generate":
                m["simulate.generate_s"] += busy
                generate.append(start)
            elif name == "simulate.ranks_of_pairs":
                m["simulate.ranks_s"] += busy
                ranks.append(end)
        m["scan.sweep_only_s"] += rec["sweep_only_s"] or 0.0
        m["scan.precompute_peak_mib"] = max(
            m["scan.precompute_peak_mib"], rec["precompute_peak_mib"] or 0.0
        )
        g = rec["gemm"]
        if g and (gemm is None or g["n"] * g["p"] ** 2 > gemm["n"] * gemm["p"] ** 2):
            gemm = g

    m["dataio.input_mib"] = input_bytes / 2**20
    if m["dataio.parse_s"] > 0:
        m["dataio.parse_mib_per_s"] = m["dataio.input_mib"] / m["dataio.parse_s"]
    if setup is not None:
        m["dataio.setup_parse_s"] = sum(
            (s[4] for s in setup["spans"] if s[0].startswith("dataio.")), 0.0
        )
    if m["scan.scan_s"] > 0:
        m["scan.ns_per_pair"] = 1e9 * m["scan.scan_s"] / m["scan.pairs_scanned"]
        m["scan.gflops_per_s"] = flops / m["scan.scan_s"] / 1e9
        m["scan.select_s"] = m["scan.scan_s"] - m["scan.sweep_only_s"]
    if gemm is not None:
        m["scan.blas3_ref_gflops_per_s"] = 2.0 * gemm["n"] * gemm["p"] ** 2 / gemm["s"] / 1e9
        m["scan.roofline_fraction"] = m["scan.gflops_per_s"] / m["scan.blas3_ref_gflops_per_s"]
    if generate:
        replicate_ms = [1e3 * (e - s) for s, e in zip(sorted(generate), sorted(ranks))]
        m["simulate.replicate_ms.p50"] = float(np.percentile(replicate_ms, 50))
        m["simulate.replicate_ms.p75"] = float(np.percentile(replicate_ms, 75))
        m["simulate.sweeps_per_replicate"] = sim_sweeps / len(generate)

    for path in prep.outputs:
        data = path.read_bytes()
        if path.name == "dump.csv":
            m["cli.dump_rows"] += data.count(b"\n") - 1
            m["cli.dump_mib"] += len(data) / 2**20
        else:
            lines = data.splitlines()
            m["cli.rows_out"] += sum(1 for line in lines[1:] if not line.startswith(b"#"))
    if m["cli.report_s"] > 0:
        m["cli.report_rows_per_s"] = m["cli.dump_rows"] / m["cli.report_s"]
    return m


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def count(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"perfbench: {what} failed: {error}", file=sys.stderr)


def _setup(prep: workloads.Prepared, launcher: Launcher, tally: Tally,
           traced: bool) -> tuple[float, dict | None]:
    out, err = prep.workdir / "setup_stdout.txt", prep.workdir / "stderr.txt"
    spans = prep.workdir / "setup_spans.json"
    for path in (prep.setup_output, spans):
        if path is not None:
            path.unlink(missing_ok=True)
    argv = traced_argv(spans, prep.setup) if traced else jciscan_argv(prep.setup)
    wall, _, code = launcher.spawn(argv, out, err)
    error = None if code == 0 else f"exited {code}: {_stderr_tail(err)}"
    if error is None:
        try:
            prep.check_setup()
        except checks.CheckFailed as exc:
            error = str(exc)
    tally.count("set-up", error)
    record = json.loads(spans.read_text(encoding="utf-8")) if traced and code == 0 else None
    return wall, record


def _until(seconds: float):
    """Yield run numbers until ``seconds`` have passed and MIN_RUNS ran."""
    end = perf_counter() + seconds
    i = 0
    while i < MIN_RUNS or perf_counter() < end:
        yield i
        i += 1


def _log_walls(name: str, what: str, walls: list[float]) -> None:
    print(f"perfbench: {name} {what} walls (s): " + " ".join(f"{w:.3f}" for w in walls),
          file=sys.stderr)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path, launcher: Launcher):
    """Set up, warm up and measure one workload; return (metrics, tally)."""
    tally = Tally()
    prep = workloads.prepare(name, workdir, seed)
    if not trace:
        warm = run_workload(prep, launcher)
        tally.count("warm-up run", warm.error)
        setup_walls, runs = [], []
        for _ in _until(seconds):
            # Set-up runs interleave with workload runs, so that both sample
            # the same stretch of a machine whose speed drifts.  Set-up gets
            # at most one turn per run and about half the time.
            if len(setup_walls) <= len(runs) and sum(setup_walls) <= sum(r.wall for r in runs):
                setup_walls.append(_setup(prep, launcher, tally, traced=False)[0])
            runs.append(run_workload(prep, launcher))
            tally.count("run", runs[-1].error)
        _log_walls(name, "setup", setup_walls)
        _log_walls(name, "run", [r.wall for r in runs])
        wall = statistics.median(r.wall for r in runs)
        metrics = {
            "wall_s": wall,
            "pairs_per_s": prep.pairs / wall,
            "peak_rss_mib": statistics.median(r.rss_mib for r in runs),
            "setup_s": statistics.median(setup_walls),
        }
        return metrics, tally

    _, setup_record = _setup(prep, launcher, tally, traced=True)
    warm = run_workload(prep, launcher)
    tally.count("warm-up run", warm.error)
    plain_walls, traced_walls, layers = [], [], []
    for _ in _until(seconds):
        plain = run_workload(prep, launcher)
        tally.count("run", plain.error)
        plain_walls.append(plain.wall)
        traced = run_workload(prep, launcher, traced=True)
        if traced.error is None and plain.error is None and traced.digest != plain.digest:
            traced.error = "traced outputs differ from untraced outputs"
        tally.count("traced run", traced.error)
        if traced.error is None:
            traced_walls.append(sum(_command_wall(r) for r in traced.records))
            layers.append(layer_metrics(prep, traced.records, setup_record))
    _log_walls(name, "run", plain_walls)
    _log_walls(name, "traced run", traced_walls)
    plain_wall = statistics.median(plain_walls)
    metrics = {k: statistics.median(layer[k] for layer in layers) if layers else 0.0 for k in PER_LAYER}
    if traced_walls:
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - plain_wall
    if prep.replicates:
        metrics["simulate.replicates_per_s"] = prep.replicates / plain_wall
    return metrics, tally


# --------------------------------------------------------------------------
# Records
# --------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        # Name, version and build options; not where it is installed.
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    except (TypeError, KeyError):
        blas = None
    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def result_line(metrics: dict, units: dict, tally: Tally) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


@contextlib.contextmanager
def scratch_dir(name: str, seed: int):
    """A fresh work directory under WORK_ROOT, removed afterwards."""
    path = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def run_all(seed: int, seconds: float, out: Path | None, launcher: Launcher) -> int:
    """Every workload untraced then traced; print a table, optionally
    write the record to ``out``."""
    record = {"meta": machine_record(seed), "seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        entry: dict = {}
        total = Tally()
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with scratch_dir(name, seed) as workdir:
                metrics, tally = measure(name, seed, seconds, trace, workdir, launcher)
            entry[key] = metrics
            total.attempted += tally.attempted
            total.failed += tally.failed
        entry.update(attempted=total.attempted, failed=total.failed,
                     failed_ratio=total.failed / total.attempted)
        record["workloads"][name] = entry
        rows = [(k, entry["end_to_end"][k], u) for k, u in END_TO_END.items()]
        rows.append(("failed_ratio", entry["failed_ratio"], "ratio"))
        rows += [(k, entry["per_layer"][k], u) for k, u in PER_LAYER.items()]
        for key, value, unit in rows:
            print(f"{name:14s} {key:30s} {value:16.6g} {unit}", flush=True)
    record["meta"]["loadavg_end"] = os.getloadavg()
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = sum(w["failed"] for w in record["workloads"].values())
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write the record here")
    args = parser.parse_args(argv)
    if args.out is not None and args.workload != "all":
        parser.error("--out needs --workload all")

    if not (ROOT / "src" / "jciscan" / "cli.py").is_file():
        print(f"perfbench: no jciscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with Launcher() as launcher:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out, launcher)
        with scratch_dir(args.workload, args.seed) as workdir:
            metrics, tally = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                     workdir, launcher)
    print(json.dumps({"meta": machine_record(args.seed)}))
    print(json.dumps(result_line(metrics, PER_LAYER if args.trace else END_TO_END, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
