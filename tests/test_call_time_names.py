"""Names looked up at call time.

The benchmark's tracer (``perfbench/traced.py``) times each layer by
replacing module globals with wrappers before a command runs.  A name that
is renamed or inlined silently drops its layer's metric, so these tests pin
every wrapped name and show that the program reaches it through the module
at call time.
"""

import importlib

from jciscan.dataio import write_csv
from jciscan.simulate import gen_study1, run_replications, study_spec

cli, dataio, scan_module, simulate = (
    importlib.import_module(f"jciscan.{name}") for name in ("cli", "dataio", "scan", "simulate")
)

TRACED = {
    cli: ("precompute", "scan", "iter_score_rows"),
    simulate: ("precompute", "scan", "ranks_of_pairs"),
    scan_module: ("all_scores",),
    dataio: ("parse_packed", "parse_csv", "read_phenotype"),
}


def test_traced_names_exist_and_are_callable():
    for module, names in TRACED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert isinstance(simulate.GENERATORS, dict)
    assert sorted(simulate.GENERATORS) == [1, 2, 3, 4, 5]


def test_run_replications_looks_up_its_generator_at_call_time(monkeypatch):
    seeds = []

    def wrapper(n, p, seed):
        seeds.append(seed)
        return gen_study1(n, p, seed)

    monkeypatch.setitem(simulate.GENERATORS, 1, wrapper)
    run_replications(study_spec(1, n=30, p=6, replications=2))
    assert len(seeds) == 2


def test_scan_dump_looks_up_iter_score_rows_at_call_time(monkeypatch, tmp_path):
    calls = []
    raw = cli.iter_score_rows

    def wrapper(ws):
        calls.append(ws.p)
        yield from raw(ws)

    monkeypatch.setattr(cli, "iter_score_rows", wrapper)
    ds = gen_study1(40, 6, seed=2)
    data = tmp_path / "d.csv"
    write_csv(data, ds.predictors, [f"x{j + 1}" for j in range(6)], response=ds.response)
    dump = tmp_path / "dump.csv"
    argv = ["scan", str(data), "--response-column", "y", "--top-k", "3"]
    assert cli.main([*argv, "--out", str(tmp_path / "top.csv"), "--dump-all", str(dump)]) == 0
    assert calls == [6]
    assert len(dump.read_text().splitlines()) == 1 + 15


def test_run_replications_looks_up_scan_and_ranks_at_call_time(monkeypatch):
    # The tracer pairs each replicate's generate span with one
    # ranks_of_pairs span, so each name is reached once per replicate.
    calls = []
    for name in ("scan", "ranks_of_pairs"):
        def wrapper(*args, _raw=getattr(simulate, name), _name=name, **kwargs):
            calls.append(_name)
            return _raw(*args, **kwargs)

        monkeypatch.setattr(simulate, name, wrapper)
    run_replications(study_spec(1, n=30, p=6, replications=3))
    assert calls == ["scan", "ranks_of_pairs"] * 3
