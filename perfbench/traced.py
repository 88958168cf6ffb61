"""Traced child: run one ``jciscan`` command with spans around its layers.

Usage: ``python traced.py SPANS_JSON ARG...`` (with jciscan importable),
equivalent to ``python -m jciscan ARG...`` plus a span record.

The spans are set up from outside the program: before ``cli.main`` runs,
the public names the CLI and the simulation harness look up at call time
are replaced by wrappers that record (name, start, end, parent, busy,
info) and return the wrapped call's result unchanged.  A name that no
longer exists records no span and is listed under ``absent``.  Spans stay
in memory until the command ends, then go to SPANS_JSON together with
three measurements taken after the command (``extras_s`` is their time):

* ``sweep_only_s``: ``all_scores`` on each workspace that was scanned;
* ``gemm``: one ``W.T @ C`` GEMM of the largest scanned n x p, the
  BLAS-3 reference rate;
* ``precompute_peak_mib``: tracemalloc peak of ``precompute`` on the
  largest input it saw.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import tracemalloc
from time import perf_counter

import numpy as np

# By module path: the package re-exports a function named `scan`, which
# shadows the `jciscan.scan` submodule as a package attribute.
cli, dataio, scan_module, simulate = (
    importlib.import_module(f"jciscan.{name}") for name in ("cli", "dataio", "scan", "simulate")
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.scanned: list = []  # (workspace, pair_range) per scan call
        self.precompute_args = None
        self.precompute_size = -1

    def traced(self, fn, name: str, info=None):
        """``fn`` wrapped in a span; ``info(args, kwargs, result)`` adds
        counters to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = [name, start, end, parent, end - start, {}]
            if info is not None:
                self.spans[idx][5] = info(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(name)
        else:
            setattr(module, attr, self.traced(fn, name, info))

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Span of a generator: start at the first ``next``, end at
        exhaustion; ``busy`` counts only the time spent inside ``next``,
        not the consumer's work between items."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(name)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            inner = fn(*args, **kwargs)
            start = perf_counter()
            busy = 0.0
            items = 0
            while True:
                t = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += perf_counter() - t
                    break
                busy += perf_counter() - t
                items += 1
                yield item
            self.spans.append([name, start, perf_counter(), parent, busy, {"items": items}])

        setattr(module, attr, wrapper)


def _file_info(args, kwargs, result):
    src = args[0] if args else None
    if isinstance(src, (str, os.PathLike)):
        return {"bytes": os.path.getsize(src)}
    return {}


def install(tracer: Tracer) -> None:
    for attr in ("parse_packed", "parse_csv", "read_phenotype"):
        tracer.wrap(dataio, attr, f"dataio.{attr}", _file_info)

    raw_precompute = getattr(scan_module, "precompute", None)

    def precompute_info(args, kwargs, ws):
        size = ws.n * ws.p
        if size > tracer.precompute_size:
            tracer.precompute_size = size
            tracer.precompute_args = (raw_precompute, args, kwargs)
        return {"n": ws.n, "p": ws.p}

    def scan_info(args, kwargs, result):
        ws = args[0]
        config = args[1] if len(args) > 1 else kwargs.get("config")
        tracer.scanned.append((ws, getattr(config, "pair_range", None)))
        return {
            "n": getattr(ws, "n", 0),
            "p": getattr(ws, "p", 0),
            "pairs": getattr(result, "pairs_scanned", 0),
            "selected": len(getattr(result, "selected", ())),
        }

    for module, prefix in ((cli, "cli"), (simulate, "simulate")):
        tracer.wrap(module, "precompute", f"{prefix}.precompute", precompute_info)
        tracer.wrap(module, "scan", f"{prefix}.scan", scan_info)
    tracer.wrap_generator(cli, "iter_score_rows", "cli.iter_score_rows")
    tracer.wrap(simulate, "ranks_of_pairs", "simulate.ranks_of_pairs")
    tracer.wrap(scan_module, "all_scores", "scan.all_scores")
    generators = getattr(simulate, "GENERATORS", None)
    if generators is None:
        tracer.absent.append("simulate.generate")
    else:
        for key, fn in list(generators.items()):
            generators[key] = tracer.traced(fn, "simulate.generate")


def after_command(tracer: Tracer, raw_all_scores) -> dict:
    """Measurements taken once the command has returned."""
    out: dict = {"sweep_only_s": None, "gemm": None, "precompute_peak_mib": None}
    if raw_all_scores is not None and tracer.scanned:
        total = 0.0
        for ws, pair_range in tracer.scanned:
            t = perf_counter()
            raw_all_scores(ws, pair_range=pair_range)
            total += perf_counter() - t
        out["sweep_only_s"] = total
    if tracer.scanned:
        n, p = max(((ws.n, ws.p) for ws, _ in tracer.scanned), key=lambda s: s[0] * s[1] * s[1])
        rng = np.random.default_rng(0)
        c = rng.standard_normal((n, p))
        w = c * rng.standard_normal(n)[:, None]
        times = []
        for _ in range(3):
            t = perf_counter()
            w.T @ c
            times.append(perf_counter() - t)
        out["gemm"] = {"n": n, "p": p, "s": sorted(times)[1]}
    if tracer.precompute_args is not None and tracer.precompute_args[0] is not None:
        fn, args, kwargs = tracer.precompute_args
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            out["precompute_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return out


def main(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    raw_all_scores = getattr(scan_module, "all_scores", None)
    install(tracer)
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse ends `--help` and flag errors this way
        code = exc.code if isinstance(exc.code, int) else 1
    end = perf_counter()
    extras = after_command(tracer, raw_all_scores)
    extras_end = perf_counter()
    record = {
        "main": [start, end],
        "spans": tracer.spans,
        "absent": tracer.absent,
        "code": code,
        "extras_s": extras_end - end,
        **extras,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
