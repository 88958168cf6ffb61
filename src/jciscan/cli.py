"""Command-line front end.

Subcommands: ``scan`` (score pairs in a data file), ``simulate`` (run a
built-in study design), ``convert`` (CSV <-> packed genotypes) and
``report`` (summarize a full score dump).

Exit codes: 0 success, 1 I/O or memory failure, 2 malformed input or flags
(including a size flag too large for any numpy array), 3 statistically
degenerate data (offending column named on stderr).
Diagnostics go to stderr; stdout carries nothing unless ``--out`` is "-".
``--workers`` (default 1) is the one worker setting: the threads of one
scan, and of each replicate's scan under ``simulate``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    DegenerateSample,
    InvalidValue,
    JciscanError,
    ZeroVarianceColumn,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_DEGENERATE = 3

_DEGENERATE_ERRORS = (ZeroVarianceColumn, DegenerateSample)


def _fail(message: str, code: int) -> int:
    print(f"jciscan: {message}", file=sys.stderr)
    return code


def _check_representable(what: str, cells: int) -> None:
    """A size flag asking for more float64 cells than one numpy array can
    address (``sys.maxsize`` bytes, numpy's intp limit) is malformed input;
    a size numpy can represent but the OS will not grant fails later as a
    memory failure."""
    if cells * 8 > sys.maxsize:
        raise InvalidValue(f"{what} asks for {cells} float64 cells, more than one array can hold")


# --------------------------------------------------------------------------
# Compute layers, imported by the commands that run them
# --------------------------------------------------------------------------

# Module globals that cmd_scan looks up at call time, so a wrapper set on
# this module (a tracer, a test) sees every call.  Each forwards to
# `jciscan.scan`, loaded on first use.


def precompute(matrix, response):
    from .scan import precompute

    return precompute(matrix, response)


def scan(ws, config):
    from .scan import scan

    return scan(ws, config)


def iter_score_rows(ws):
    from .scan import iter_score_rows

    return iter_score_rows(ws)


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------


def _load_scan_input(args):
    """Returns (matrix-like, response, labels, chroms)."""
    from . import dataio

    # The format is peeked at on the opened input.  A file that can seek is
    # then read from its path, which a column walk reopens after this handle
    # closes; a pipe only from this handle, which holds what the peek read.
    with dataio._open(args.input, "rb") as fh:
        stream = args.input if fh.seekable() else fh
        if dataio.is_packed(fh):
            if args.phenotype is None:
                raise InvalidValue("packed input needs --phenotype")
            if args.response_column is not None:
                raise InvalidValue("--response-column does not apply to packed input")
            # A column source, not a decoded matrix: precompute walks it.
            source = dataio.open_packed(stream, missing_policy=args.missing or "reject")
            y = dataio.read_phenotype(args.phenotype)
            labels = [source.column_label(j) for j in range(source.p)]
            return source, y, labels, source.chromosomes
        if args.missing is not None:
            raise InvalidValue("--missing applies to packed input only")
        if (args.phenotype is None) == (args.response_column is None):
            raise InvalidValue("CSV input needs exactly one of --response-column / --phenotype")
        matrix, y, names = dataio.parse_csv(stream, args.response_column)
    if args.phenotype is not None:
        y = dataio.read_phenotype(args.phenotype)
    chroms = [dataio.parse_column_label(name)[0] for name in names]
    return matrix, y, names, chroms


def cmd_scan(args) -> int:
    from . import dataio
    from .scan import ScanConfig

    config = ScanConfig(
        top_k=args.top_k,
        threshold=args.threshold,
        worker_count=args.workers,
        pair_range=args.pair_range,
    )
    if args.dump_all is not None and args.pair_range is not None:
        raise InvalidValue("--dump-all covers the full pair set; drop --pair-range")

    matrix, response, labels, chroms = _load_scan_input(args)
    try:
        ws = precompute(matrix, response)
    except ZeroVarianceColumn as exc:
        # repr() keeps a label with a line break on the one stderr line.
        name = "response" if exc.index == -1 else repr(labels[exc.index])
        return _fail(f"zero-variance column: {name}", EXIT_DEGENERATE)
    del matrix  # the workspace holds what the scan reads

    result = scan(ws, config)

    def pair_rows(table):
        for j1, j2, r_hat in zip(table.j1.tolist(), table.j2.tolist(), table.r_hat.tolist()):
            yield [labels[j1], labels[j2], r_hat]

    def rows():
        yield from pair_rows(result.top_pairs)
        if config.threshold is not None:
            if config.top_k is not None:
                yield [f"# pairs with r_hat > {config.threshold!r}"]
            yield from pair_rows(result.selected)

    out = sys.stdout if args.out == "-" else args.out
    dataio.write_table(out, ["snp1", "snp2", "r_hat"], rows())

    if args.dump_all is not None:
        dataio.write_score_dump(args.dump_all, iter_score_rows(ws), labels, chroms)
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def _pair_label(pair: tuple[int, int]) -> str:
    # 1-based display names, matching the design docstrings (X1, X2, ...).
    return f"({pair[0] + 1},{pair[1] + 1})"


def cmd_simulate(args) -> int:
    from . import dataio
    from .simulate import run_replications, study_spec, summarize

    if args.out_summary is None and args.out_replicates is None:
        raise InvalidValue("nothing to write: set --out-summary and/or --out-replicates")
    spec = study_spec(
        args.study, n=args.n, p=args.p, seed=args.seed, replications=args.reps
    )
    _check_representable(f"study {spec.study_id} at n={spec.n}, p={spec.p}", spec.n * spec.p)
    reports = run_replications(spec, worker_count=args.workers)

    if args.out_replicates is not None:
        dataio.write_table(
            args.out_replicates,
            ["replicate", "pair", "rank", "in_top5"],
            (
                [rep.replicate, _pair_label(pair), rep.ranks[pair], int(rep.in_top5[pair])]
                for rep in reports
                for pair in spec.true_pairs
            ),
        )

    if args.out_summary is not None:
        summary = summarize(reports)
        rows = []
        for pair in spec.true_pairs:
            ps = summary.per_pair[pair]
            rows.append([_pair_label(pair), ps.mean_rank, ps.median_rank, ps.top5_pct])
        rows.append(["ALL", "", "", summary.all_pairs_top5_pct])
        dataio.write_table(
            args.out_summary, ["pair", "mean_rank", "median_rank", "top5_pct"], rows
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# convert
# --------------------------------------------------------------------------


def cmd_convert(args) -> int:
    from . import dataio

    if args.from_format == args.to_format:
        raise InvalidValue("--from and --to must differ")
    if args.from_format == "csv":
        if args.missing is not None:
            raise InvalidValue("--missing applies to packed input only")
        dataio.convert_csv_to_packed(args.input, args.output)
    else:
        gm = dataio.parse_packed(args.input, missing_policy=args.missing or "reject")
        labels = [gm.column_label(j) for j in range(gm.p)]
        dataio.write_csv(args.output, gm.codes, labels)
    return EXIT_OK


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------


def cmd_report(args) -> int:
    if args.out_histogram is None and args.out_groups is None:
        raise InvalidValue("nothing to write: set --out-histogram and/or --out-groups")
    if args.bins < 1:
        raise InvalidValue(f"--bins must be >= 1, got {args.bins}")
    _check_representable(f"--bins {args.bins}", args.bins + 1)

    from array import array
    from collections import defaultdict

    import numpy as np

    from . import dataio

    # Each r_hat is held once, in its chromosome pair's float64 array.
    groups: defaultdict[tuple[str, str], array] = defaultdict(lambda: array("d"))
    for chrom1, chrom2, value in dataio.read_score_dump(args.scores):
        groups[chrom1, chrom2].append(value)

    if args.out_histogram is not None:
        # Each group binned over one range: no joined copy of every score.
        columns = [np.frombuffer(vals) for vals in groups.values()]
        top = max(float(col.max()) for col in columns)
        span = (0.0, top if top > 0 else 1.0)
        counts = sum(np.histogram(col, bins=args.bins, range=span)[0] for col in columns)
        edges = np.histogram_bin_edges(columns[0], bins=args.bins, range=span).tolist()
        rows = zip(edges, edges[1:], counts.tolist())
        dataio.write_table(args.out_histogram, ["bin_lo", "bin_hi", "count"], rows)

    if args.out_groups is not None:
        dataio.write_table(
            args.out_groups,
            ["chrom1", "chrom2", "pairs", "mean_r_hat", "max_r_hat"],
            (
                [chrom1, chrom2, len(vals), float(np.mean(vals)), max(vals)]
                for (chrom1, chrom2), vals in sorted(groups.items())
            ),
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _pair_range_arg(text: str) -> tuple[int, int]:
    try:
        start, _, end = text.partition(":")
        return int(start), int(end)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:END, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Flag rejections print one ``jciscan: <message>`` line and exit 2,
    as every other malformed-input path does; ``--help`` is unchanged."""

    def error(self, message: str):
        # An unrecognized argument may hold a line break; keep the one line.
        self.exit(EXIT_FORMAT, f"jciscan: {message}".replace("\n", "\\n") + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jciscan",
        description="Pairwise interaction screening via the normalized three-way joint cumulant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="score all predictor pairs in a data file")
    p_scan.add_argument("input", help="CSV or packed genotype file (auto-detected)")
    p_scan.add_argument("--response-column", help="response column name (CSV input)")
    p_scan.add_argument("--phenotype", help="phenotype file, one real per line")
    p_scan.add_argument("--top-k", type=int, help="keep the k best pairs")
    p_scan.add_argument("--threshold", type=float, help="also select pairs with r_hat > c")
    p_scan.add_argument("--workers", type=int, default=1, help="worker threads (default: 1)")
    p_scan.add_argument("--pair-range", type=_pair_range_arg, help="canonical pair span START:END")
    p_scan.add_argument(
        "--missing", choices=["reject", "impute"], help="missing-genotype policy, packed input only (default: reject)"
    )
    p_scan.add_argument("--out", default="-", help='output CSV path ("-" = stdout)')
    p_scan.add_argument("--dump-all", help="also stream every pair's score to this CSV")
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("simulate", help="run a built-in simulation study")
    p_sim.add_argument("--study", type=int, required=True, choices=[1, 2, 3, 4, 5])
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n", type=int, help="override the design sample size")
    p_sim.add_argument("--p", type=int, help="override the design predictor count")
    p_sim.add_argument("--workers", type=int, default=1, help="worker threads of each replicate's scan (default: 1)")
    p_sim.add_argument("--out-summary", help="per-pair rank/top-5 summary CSV")
    p_sim.add_argument("--out-replicates", help="per-replicate rank CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_conv = sub.add_parser("convert", help="convert between CSV and packed genotypes")
    p_conv.add_argument("--from", dest="from_format", required=True, choices=["csv", "packed"])
    p_conv.add_argument("--to", dest="to_format", required=True, choices=["csv", "packed"])
    p_conv.add_argument(
        "--missing", choices=["reject", "impute"], help="missing-genotype policy, packed input only (default: reject)"
    )
    p_conv.add_argument("input")
    p_conv.add_argument("output")
    p_conv.set_defaults(func=cmd_convert)

    p_rep = sub.add_parser("report", help="summarize a full score dump")
    p_rep.add_argument("--scores", required=True, help="dump produced by scan --dump-all")
    p_rep.add_argument("--bins", type=int, default=20)
    p_rep.add_argument("--out-histogram", help="histogram CSV (bin_lo,bin_hi,count)")
    p_rep.add_argument("--out-groups", help="per chromosome-pair summary CSV")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DEGENERATE_ERRORS as exc:
        return _fail(str(exc), EXIT_DEGENERATE)
    except JciscanError as exc:
        return _fail(str(exc), EXIT_FORMAT)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}", EXIT_IO)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
