"""End-to-end CLI contract tests: flags, exit codes, output schemas,
determinism, CSV/packed parity."""

import contextlib
import csv as csvmod
import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jciscan import CodeWorkspace, ScanConfig, pair_count, precompute, scan
from jciscan.cli import build_parser, main
from jciscan.cumulants import PairStatistic
from jciscan.dataio import (
    MAGIC,
    GenotypeMatrix,
    parse_csv,
    read_phenotype,
    write_csv,
    write_packed,
)
from jciscan.errors import ParseError
from jciscan.simulate import gen_study1


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse-level rejections
        return int(exc.code)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csvmod.reader(fh))


def write_study1_csv(path, n=60, p=12, seed=3):
    ds = gen_study1(n, p, seed=seed)
    write_csv(path, ds.predictors, [f"x{j + 1}" for j in range(p)], response=ds.response)
    return ds


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------


def test_scan_names_true_columns_first(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "out.csv"
    write_study1_csv(data, n=200, p=20, seed=5)
    assert run(["scan", str(data), "--response-column", "y", "--top-k", "3", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["snp1", "snp2", "r_hat"]
    assert rows[1][:2] == ["x1", "x2"]


def test_scan_top_k_row_count(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "out.csv"
    write_study1_csv(data, n=80, p=10, seed=1)
    assert run(["scan", str(data), "--response-column", "y", "--top-k", "10", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 11  # header + exactly k rows


def test_scan_threshold_matches_dump_filter(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "out.csv"
    dump = tmp_path / "dump.csv"
    write_study1_csv(data, n=100, p=14, seed=9)
    assert (
        run(["scan", str(data), "--response-column", "y", "--top-k", "5",
             "--out", str(out), "--dump-all", str(dump)])
        == 0
    )
    scores = read_rows(dump)[1:]
    cut = 0.74 * float(max(float(r[4]) for r in scores))  # arbitrary user cutoff
    out2 = tmp_path / "out2.csv"
    assert (
        run(["scan", str(data), "--response-column", "y", "--threshold", repr(cut), "--out", str(out2)])
        == 0
    )
    got = read_rows(out2)[1:]
    expect = [r for r in scores if float(r[4]) > cut]
    expect.sort(key=lambda r: (-float(r[4]), r[0], r[1]))
    assert [(r[0], r[1], r[2]) for r in got] == [(r[0], r[1], r[4]) for r in expect]


def test_scan_both_topk_and_threshold_sections(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "out.csv"
    write_study1_csv(data, n=80, p=8, seed=2)
    assert (
        run(["scan", str(data), "--response-column", "y", "--top-k", "3",
             "--threshold", "0.0", "--out", str(out)])
        == 0
    )
    text = out.read_text()
    assert "# pairs with r_hat > 0.0" in text
    head, _, tail = text.partition("# pairs with r_hat > 0.0\n")
    assert len(head.strip().splitlines()) == 4  # header + 3 top rows
    assert len(tail.strip().splitlines()) == 28  # all pairs of p=8 selected


def test_scan_stdout_when_out_is_dash(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_study1_csv(data, n=50, p=6, seed=4)
    assert run(["scan", str(data), "--response-column", "y", "--top-k", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("snp1,snp2,r_hat")


def test_scan_exit_codes(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,y\n1,2\n")  # ragged
    assert run(["scan", str(bad), "--response-column", "y", "--top-k", "1"]) == 2

    const = tmp_path / "const.csv"
    const.write_text("a,b,y\n1,7,0\n2,7,1\n3,7,0\n4,7,1\n")
    assert run(["scan", str(const), "--response-column", "y", "--top-k", "1"]) == 3

    missing = tmp_path / "nope.csv"
    assert run(["scan", str(missing), "--response-column", "y", "--top-k", "1"]) == 1

    data = tmp_path / "ok.csv"
    write_study1_csv(data, n=50, p=6)
    # no selection mode at all
    assert run(["scan", str(data), "--response-column", "y"]) == 2
    # response flags must be exactly one for CSV
    assert run(["scan", str(data), "--top-k", "1"]) == 2
    pheno = tmp_path / "y.txt"
    pheno.write_text("1\n0\n")
    assert (
        run(["scan", str(data), "--response-column", "y", "--phenotype", str(pheno), "--top-k", "1"])
        == 2
    )
    # dump with a pair range is rejected
    assert (
        run(["scan", str(data), "--response-column", "y", "--top-k", "1",
             "--pair-range", "0:3", "--dump-all", str(tmp_path / "d2.csv")])
        == 2
    )


def test_scan_builds_no_pair_objects(tmp_path, monkeypatch):
    # Results stay columnar from the sweep to the CSV writer: no per-pair
    # Python object is built, however many pairs are selected.
    built = []
    post_init = PairStatistic.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PairStatistic, "__post_init__", counting)
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(30, 12)), rng.normal(size=30)
    result = scan(precompute(X, y), ScanConfig(top_k=10, threshold=0.0))
    assert len(result.selected) == pair_count(12)
    data = tmp_path / "data.csv"
    write_csv(data, X, [f"x{j}" for j in range(12)], response=y)
    assert run(["scan", str(data), "--response-column", "y", "--threshold", "0",
                "--out", str(tmp_path / "out.csv")]) == 0
    assert len(read_rows(tmp_path / "out.csv")) == 1 + pair_count(12)
    assert built == []
    first = result.selected[0]  # the counter is live: one object, built on request
    assert built == [first]


def test_scan_names_degenerate_column_on_stderr(tmp_path, capsys):
    const = tmp_path / "const.csv"
    const.write_text("a,weird,y\n1,7,0\n2,7,1\n3,7,0\n4,7,1\n")
    assert run(["scan", str(const), "--response-column", "y", "--top-k", "1"]) == 3
    assert "weird" in capsys.readouterr().err


def test_scan_packed_flag_validation(tmp_path):
    rng = np.random.default_rng(44)
    gm = GenotypeMatrix(
        codes=rng.integers(1, 4, size=(12, 4)).astype(np.uint8),
        snp_ids=("a", "b", "c", "d"),
        chromosomes=(1, 1, 2, 2),
    )
    packed = tmp_path / "g.jcg"
    write_packed(gm, packed)
    pheno = tmp_path / "y.txt"
    pheno.write_text("".join(f"{v}\n" for v in rng.normal(size=12)))
    # packed input: --response-column is meaningless, --phenotype required
    assert run(["scan", str(packed), "--response-column", "y", "--top-k", "1"]) == 2
    assert run(["scan", str(packed), "--top-k", "1"]) == 2
    assert run(["scan", str(packed), "--phenotype", str(pheno), "--top-k", "1",
                "--out", str(tmp_path / "o.csv")]) == 0


def test_scan_phenotype_length_mismatch(tmp_path):
    data = tmp_path / "d.csv"
    write_study1_csv(data, n=50, p=6)
    pheno = tmp_path / "y.txt"
    pheno.write_text("\n".join(["1"] * 49))
    assert run(["scan", str(data), "--phenotype", str(pheno), "--top-k", "1"]) == 2


def test_scan_pair_range_subset(tmp_path):
    data = tmp_path / "d.csv"
    out_all = tmp_path / "all.csv"
    out_rng = tmp_path / "rng.csv"
    write_study1_csv(data, n=60, p=8, seed=8)
    assert run(["scan", str(data), "--response-column", "y", "--threshold", "0.0", "--out", str(out_all)]) == 0
    assert (
        run(["scan", str(data), "--response-column", "y", "--threshold", "0.0",
             "--pair-range", "0:7", "--out", str(out_rng)])
        == 0
    )
    # range 0:7 is exactly the anchor-0 row: x1 paired with x2..x8
    rows = read_rows(out_rng)[1:]
    assert len(rows) == 7
    assert all(r[0] == "x1" for r in rows)
    assert set(map(tuple, rows)) <= set(map(tuple, read_rows(out_all)[1:]))


def test_scan_workers_env_and_flag(tmp_path, monkeypatch):
    data = tmp_path / "d.csv"
    out1 = tmp_path / "o1.csv"
    out2 = tmp_path / "o2.csv"
    out3 = tmp_path / "o3.csv"
    write_study1_csv(data, n=60, p=10, seed=6)
    base = ["scan", str(data), "--response-column", "y", "--top-k", "6"]
    assert run(base + ["--out", str(out1)]) == 0
    monkeypatch.setenv("JCI_WORKERS", "4")
    assert run(base + ["--out", str(out2)]) == 0
    assert run(base + ["--out", str(out3), "--workers", "2"]) == 0
    assert out1.read_text() == out2.read_text() == out3.read_text()
    monkeypatch.setenv("JCI_WORKERS", "bogus")
    assert run(base + ["--out", str(out1)]) == 2


# --------------------------------------------------------------------------
# CSV vs packed parity
# --------------------------------------------------------------------------


def test_scan_csv_and_packed_outputs_identical(tmp_path):
    rng = np.random.default_rng(12)
    n, p = 40, 9
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    # keep the response correlated with a pair so the ranking is non-trivial
    y = (codes[:, 0] == codes[:, 1]).astype(float) + rng.normal(scale=0.1, size=n)
    gm = GenotypeMatrix(
        codes=codes,
        snp_ids=tuple(f"rs{j}" for j in range(p)),
        chromosomes=tuple((j % 3) + 1 for j in range(p)),
    )
    labels = [gm.column_label(j) for j in range(p)]

    packed = tmp_path / "g.jcg"
    write_packed(gm, packed)
    csv_path = tmp_path / "g.csv"
    write_csv(csv_path, codes.astype(float), labels)
    pheno = tmp_path / "y.txt"
    pheno.write_text("".join(f"{v!r}\n" for v in y.tolist()))

    out_csv = tmp_path / "from_csv.csv"
    out_packed = tmp_path / "from_packed.csv"
    args = ["--top-k", "12", "--threshold", "0.2"]
    assert run(["scan", str(csv_path), "--phenotype", str(pheno), "--out", str(out_csv)] + args) == 0
    assert run(["scan", str(packed), "--phenotype", str(pheno), "--out", str(out_packed)] + args) == 0
    assert out_csv.read_text() == out_packed.read_text()


def test_scan_csv_and_packed_outputs_identical_for_case_control_response(tmp_path):
    # An integer response sends codes down the exact route; CSV cells that
    # are all codes go the same way, so both files still match byte for byte.
    rng = np.random.default_rng(13)
    n, p = 60, 10
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    y = 1 + ((codes[:, 2] == 3) ^ (codes[:, 5] == 1) ^ (rng.random(n) < 0.2))
    gm = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(p)), chromosomes=(1,) * p)
    assert isinstance(precompute(gm, y.astype(float)), CodeWorkspace)
    labels = [gm.column_label(j) for j in range(p)]
    packed = tmp_path / "g.jcg"
    write_packed(gm, packed)
    csv_path = tmp_path / "g.csv"
    write_csv(csv_path, codes.astype(float), labels)
    pheno = tmp_path / "y.txt"
    pheno.write_text("".join(f"{v}\n" for v in y.tolist()))

    outputs = []
    for source in (csv_path, packed):
        out, dump = tmp_path / f"{source.stem}.csv", tmp_path / f"{source.stem}.dump"
        argv = ["scan", str(source), "--phenotype", str(pheno), "--top-k", "12", "--threshold", "0.2",
                "--out", str(out), "--dump-all", str(dump)]
        assert run(argv) == 0
        outputs.append(out.read_bytes() + dump.read_bytes())
    assert outputs[0] == outputs[1]


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def test_simulate_deterministic_and_schema(tmp_path):
    outs = []
    for tag in ("a", "b"):
        summary = tmp_path / f"sum_{tag}.csv"
        reps = tmp_path / f"reps_{tag}.csv"
        code = run(
            ["simulate", "--study", "1", "--reps", "3", "--seed", "7",
             "--n", "60", "--p", "30", "--out-summary", str(summary),
             "--out-replicates", str(reps)]
        )
        assert code == 0
        outs.append((summary.read_bytes(), reps.read_bytes()))
    assert outs[0] == outs[1]

    rows = read_rows(tmp_path / "sum_a.csv")
    assert rows[0] == ["pair", "mean_rank", "median_rank", "top5_pct"]
    assert rows[1][0] == "(1,2)"
    assert rows[-1][0] == "ALL"
    rep_rows = read_rows(tmp_path / "reps_a.csv")
    assert rep_rows[0] == ["replicate", "pair", "rank", "in_top5"]
    assert len(rep_rows) == 1 + 3  # one true pair x 3 replicates


def test_simulate_study1_small_run_is_exact(tmp_path):
    summary = tmp_path / "s.csv"
    assert (
        run(["simulate", "--study", "1", "--reps", "5", "--seed", "1", "--out-summary", str(summary)])
        == 0
    )
    rows = read_rows(summary)
    assert rows[1] == ["(1,2)", "1.0", "1", "100.0"]
    assert rows[2] == ["ALL", "", "", "100.0"]


def test_simulate_study5_schema(tmp_path):
    summary = tmp_path / "s.csv"
    assert (
        run(["simulate", "--study", "5", "--reps", "2", "--seed", "3",
             "--n", "50", "--p", "40", "--out-summary", str(summary)])
        == 0
    )
    rows = read_rows(summary)
    assert [r[0] for r in rows[1:]] == ["(1,2)", "(3,4)", "(5,6)", "ALL"]


def test_simulate_invalid_params(tmp_path):
    assert run(["simulate", "--study", "9", "--out-summary", str(tmp_path / "s.csv")]) == 2
    assert run(["simulate", "--study", "1", "--reps", "0", "--out-summary", str(tmp_path / "s.csv")]) == 2
    assert run(["simulate", "--study", "1", "--n", "2", "--out-summary", str(tmp_path / "s.csv")]) == 2
    assert run(["simulate", "--study", "1", "--reps", "2"]) == 2  # no outputs requested


# --------------------------------------------------------------------------
# convert
# --------------------------------------------------------------------------


def test_convert_roundtrip_preserves_cells(tmp_path):
    rng = np.random.default_rng(15)
    codes = rng.integers(1, 4, size=(11, 5)).astype(float)
    src = tmp_path / "src.csv"
    write_csv(src, codes, [f"ch{(j % 4) + 1}:rs{j}" for j in range(5)])
    packed = tmp_path / "mid.jcg"
    back = tmp_path / "back.csv"
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(packed)]) == 0
    assert run(["convert", "--from", "packed", "--to", "csv", str(packed), str(back)]) == 0
    assert src.read_text() == back.read_text()


def test_convert_rejects_non_genotype_values(tmp_path, capsys):
    src = tmp_path / "src.csv"
    src.write_text("a,b\n1,2\n2.5,3\n")
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(tmp_path / "o.jcg")]) == 2
    err = capsys.readouterr().err
    assert "row 1" in err and "column 0" in err


def test_convert_rejects_empty_and_same_format(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("a,b\n")
    assert run(["convert", "--from", "csv", "--to", "packed", str(empty), str(tmp_path / "o.jcg")]) == 2
    ok = tmp_path / "ok.csv"
    ok.write_text("a\n1\n")
    assert run(["convert", "--from", "csv", "--to", "csv", str(ok), str(tmp_path / "o.csv")]) == 2


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------


def write_dump(path, rows):
    with open(path, "w", newline="") as fh:
        w = csvmod.writer(fh)
        w.writerow(["snp1", "snp2", "chrom1", "chrom2", "r_hat"])
        w.writerows(rows)


def test_report_histogram_conserves_counts(tmp_path):
    rng = np.random.default_rng(20)
    dump = tmp_path / "dump.csv"
    write_dump(dump, [[f"a{i}", f"b{i}", 1, 2, repr(float(v))] for i, v in enumerate(rng.random(5000))])
    hist = tmp_path / "hist.csv"
    assert run(["report", "--scores", str(dump), "--bins", "13", "--out-histogram", str(hist)]) == 0
    rows = read_rows(hist)
    assert rows[0] == ["bin_lo", "bin_hi", "count"]
    assert len(rows) == 14
    assert sum(int(r[2]) for r in rows[1:]) == 5000


def test_report_uniform_scores_fill_bins_evenly(tmp_path):
    rng = np.random.default_rng(21)
    dump = tmp_path / "dump.csv"
    n = 100_000
    write_dump(dump, [["a", "b", 1, 1, repr(float(v))] for v in rng.random(n)])
    hist = tmp_path / "hist.csv"
    assert run(["report", "--scores", str(dump), "--bins", "10", "--out-histogram", str(hist)]) == 0
    counts = [int(r[2]) for r in read_rows(hist)[1:]]
    assert sum(counts) == n
    assert all(abs(c - 10_000) <= 500 for c in counts)


def test_report_chromosome_groups(tmp_path):
    dump = tmp_path / "dump.csv"
    write_dump(
        dump,
        [
            ["a", "b", 1, 1, "0.5"],
            ["a", "c", 1, 2, "0.25"],
            ["b", "c", 1, 2, "0.75"],
        ],
    )
    groups = tmp_path / "groups.csv"
    assert run(["report", "--scores", str(dump), "--out-groups", str(groups)]) == 0
    rows = read_rows(groups)
    assert rows[0] == ["chrom1", "chrom2", "pairs", "mean_r_hat", "max_r_hat"]
    assert rows[1] == ["1", "1", "1", "0.5", "0.5"]
    assert rows[2] == ["1", "2", "2", "0.5", "0.75"]


def test_report_single_chromosome_single_group(tmp_path):
    dump = tmp_path / "dump.csv"
    write_dump(dump, [["a", "b", 7, 7, "0.5"], ["a", "c", 7, 7, "0.1"]])
    groups = tmp_path / "groups.csv"
    assert run(["report", "--scores", str(dump), "--out-groups", str(groups)]) == 0
    assert len(read_rows(groups)) == 2


def test_report_rejects_malformed_dump(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,dump\n1,2,3\n")
    assert run(["report", "--scores", str(bad), "--out-histogram", str(tmp_path / "h.csv")]) == 2
    empty = tmp_path / "empty.csv"
    write_dump(empty, [])
    assert run(["report", "--scores", str(empty), "--out-histogram", str(tmp_path / "h.csv")]) == 2
    nonfinite = tmp_path / "nan.csv"
    write_dump(nonfinite, [["a", "b", 1, 1, "nan"]])
    assert run(["report", "--scores", str(nonfinite), "--out-histogram", str(tmp_path / "h.csv")]) == 2
    ok = tmp_path / "ok.csv"
    write_dump(ok, [["a", "b", 1, 1, "0.5"]])
    assert run(["report", "--scores", str(ok)]) == 2  # no outputs requested
    assert run(["report", "--scores", str(ok), "--bins", "0", "--out-histogram", str(tmp_path / "h.csv")]) == 2


# Every size here asks for petabytes or more, so the OS refuses the
# allocation before any page is touched; none of them can be granted.
@pytest.mark.parametrize(
    "argv, code",
    [
        (["report", "--bins", str(10**15)], 1),  # 7.1 PiB of bin edges
        (["report", "--bins", str(10**20)], 2),  # beyond numpy's array size
        (["simulate", "--study", "2", "--reps", "1", "--n", str(10**12)], 1),  # 7.1 PiB
        (["simulate", "--study", "2", "--reps", "1", "--n", str(10**20)], 2),
    ],
)
def test_oversized_size_flags_exit_with_one_line(tmp_path, capsys, argv, code):
    dump = tmp_path / "dump.csv"
    write_dump(dump, [["a", "b", 1, 1, "0.5"], ["a", "c", 1, 2, "0.25"]])
    out = str(tmp_path / "out.csv")
    if argv[0] == "report":
        argv = argv + ["--scores", str(dump), "--out-histogram", out]
    else:
        argv = argv + ["--out-summary", out]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("jciscan: "), err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_cli_scan_dump_matches_library_scores(tmp_path):
    import jciscan as jc

    data = tmp_path / "d.csv"
    ds = write_study1_csv(data, n=50, p=7, seed=30)
    dump = tmp_path / "dump.csv"
    assert (
        run(["scan", str(data), "--response-column", "y", "--top-k", "1", "--dump-all", str(dump),
             "--out", str(tmp_path / "o.csv")])
        == 0
    )
    rows = read_rows(dump)[1:]
    ws = jc.precompute(ds.predictors, ds.response)
    flat = jc.all_scores(ws)
    assert len(rows) == flat.shape[0]
    for idx, row in enumerate(rows):
        assert float(row[4]) == flat[idx]


# --------------------------------------------------------------------------
# malformed numeric text, in every reader
# --------------------------------------------------------------------------

BAD_TOKENS = ["NA", "abc", "nan", "inf", "-inf", "1e999", ""]


def fails_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("jciscan: ")
    assert "Traceback" not in err.getvalue()


def numeric_cells(rows, cols):
    return [[str(1 + (r * cols + c) % 3) for c in range(cols)] for r in range(rows)]


def write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["csv", "phenotype", "dump"]), data=st.data())
def test_malformed_number_names_its_position(kind, data):
    # Blank phenotype lines are skipped by design, so '' is no error there.
    token = data.draw(st.sampled_from(BAD_TOKENS[:-1] if kind == "phenotype" else BAD_TOKENS))
    rows = data.draw(st.integers(1, 6))
    bad_row = data.draw(st.integers(0, rows - 1))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        table = os.path.join(tmp, "table.csv")
        if kind == "csv":
            cols = data.draw(st.integers(2, 4))
            bad_col = data.draw(st.integers(0, cols - 1))
            cells = numeric_cells(rows, cols)
            cells[bad_row][bad_col] = token
            header = ",".join([f"x{c}" for c in range(cols - 1)] + ["y"])
            write_lines(table, [header] + [",".join(row) for row in cells])
            with pytest.raises(ParseError) as exc:
                parse_csv(table, "y")
            argv = ["scan", table, "--response-column", "y", "--top-k", "1", "--out", out]
        elif kind == "phenotype":
            # Leading blank lines are skipped but still count as rows.
            blanks = data.draw(st.integers(0, 2))
            bad_row, bad_col = blanks + bad_row, 0
            pheno = os.path.join(tmp, "y.txt")
            values = [token if r == bad_row else "1.5" for r in range(blanks, blanks + rows)]
            write_lines(pheno, [""] * blanks + values)
            write_lines(table, ["a,b"] + [",".join(row) for row in numeric_cells(rows, 2)])
            with pytest.raises(ParseError) as exc:
                read_phenotype(pheno)
            argv = ["scan", table, "--phenotype", pheno, "--top-k", "1", "--out", out]
        else:
            bad_col = 4
            write_dump(table, [["a", "b", 1, 2, token if r == bad_row else "0.5"] for r in range(rows)])
            argv = ["report", "--scores", table, "--out-histogram", out]
            args = build_parser().parse_args(argv)
            with pytest.raises(ParseError) as exc:
                args.func(args)
        assert (exc.value.row, exc.value.column) == (bad_row, bad_col)
        fails_cleanly(argv)


# --------------------------------------------------------------------------
# CLI fuzzing: drawn flags and inputs
# --------------------------------------------------------------------------


def _packed_bytes():
    codes = np.array([[1, 2, 3], [2, 3, 1], [3, 3, 2], [1, 1, 2], [2, 1, 3]], dtype=np.uint8)
    gm = GenotypeMatrix(codes=codes, snp_ids=("s0", "s1", "s2"), chromosomes=(1, 1, 2))
    buf = io.BytesIO()
    write_packed(gm, buf)
    return buf.getvalue()


DUMP_HEAD = b"snp1,snp2,chrom1,chrom2,r_hat\n"

# "@name" tokens in a drawn argv become files with these bytes.
FUZZ_FILES = {
    "csv": b"x0,x1,x2,y\n1,2,3,0.5\n2,1,3,1.5\n3,3,1,2.5\n1,1,2,0.1\n2,3,2,4\n",
    "genotype_csv": b"ch1:a,ch2:b,c\n1,2,3\n2,3,3\n3,1,2\n1,1,1\n2,2,3\n",
    "csv_constant": b"x0,x1,y\n1,2,1\n2,2,2\n3,2,5\n1,2,0\n2,2,4\n",
    "csv_constant_newline_label": b'"a\nb",x1,y\n2,1,1\n2,2,2\n2,3,5\n2,1,0\n2,2,4\n',
    "csv_two_rows": b"x0,x1,y\n1,2,1\n2,3,2\n",
    "csv_not_utf8": b"x0,x1,y\n1,\xff,1\n2,3,2\n3,1,0\n",
    "csv_long_cell": b"x0,y\n" + b"1" * 200_000 + b",1\n",
    "csv_ragged": b"x0,x1,y\n1,2\n",
    "empty": b"",
    "packed": _packed_bytes(),
    "packed_truncated": _packed_bytes()[:-2],
    "packed_oversized": struct.pack("<4sHHQQ", MAGIC, 1, 0, 2**62, 2)
    + (struct.pack("<BH", 1, 1) + b"s") * 2
    + bytes(16),
    "pheno": b"1\n2\n1\n2\n2\n",
    "pheno_constant": b"1\n1\n1\n1\n1\n",
    "pheno_short": b"1\n2\n",
    "pheno_not_utf8": b"1\n\xff\n1\n2\n2\n",
    "dump": DUMP_HEAD + b"a,b,1,1,0.5\na,c,1,2,0.25\nb,c,2,2,0.75\n",
    "dump_not_utf8": DUMP_HEAD + b"a,b,1,1,0.5\na,\xff,1,2,0.25\n",
    "dump_bad_header": b"snp1,snp2,r_hat\na,b,0.5\n",
    "dump_ragged": DUMP_HEAD + b"a,b,1,0.5\n",
}
# Entries repeat to weight the draw toward inputs that get past the parser.
INPUTS = ["@csv"] * 4 + ["@packed"] * 3 + [
    "@genotype_csv", "@csv_constant", "@csv_constant_newline_label", "@csv_two_rows",
    "@csv_not_utf8", "@csv_long_cell", "@csv_ragged", "@empty", "@missing", "@dir",
    "@packed_truncated", "@packed_oversized",
]
PHENOS = ["@pheno"] * 4 + ["@pheno_constant", "@pheno_short", "@pheno_not_utf8", "@missing", "@empty"]
DUMPS = ["@dump"] * 4 + ["@dump_not_utf8", "@dump_bad_header", "@dump_ragged", "@empty", "@missing"]
OUTS = ["@out"] * 4 + ["@dir", "@nodir"]


def _opt(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def _req(flag, values):
    return st.sampled_from(values).map(lambda v: [flag, v])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [token for part in ps for token in part])


SCAN_SOURCES = st.one_of(
    st.sampled_from(
        [["@csv", "--response-column", "y"], ["@packed", "--phenotype", "@pheno"],
         ["@csv", "--phenotype", "@pheno"]]
    ),
    st.sampled_from(
        [[i, "--response-column", "y"] for i in INPUTS]
        + [[i, "--phenotype", ph] for i in ("@csv", "@packed") for ph in PHENOS]
        + [["@csv"], ["@packed", "--response-column", "y"], ["@csv", "--response-column", "nope"],
           ["@csv", "--response-column", "y", "--phenotype", "@pheno"]]
    ),
)
SCAN_SELECTION = st.one_of(
    _req("--top-k", ["1", "3"]),
    _req("--threshold", ["0", "0.3", "inf"]),
    _argv(_req("--top-k", ["1", "3"]), _req("--threshold", ["0", "0.3"])),
    st.sampled_from(
        [[], ["--top-k", "0"], ["--top-k", "-2"], ["--top-k", "1000000"], ["--top-k", "x"],
         ["--threshold", "nan"], ["--threshold", "-1"], ["--top-k", "2", "--threshold", "nan"]]
    ),
)

FUZZ_ARGV = st.one_of(
    _argv(
        st.just(["scan"]),
        SCAN_SOURCES,
        SCAN_SELECTION,
        _opt("--workers", ["1", "2", "4", "0"]),
        _opt("--block-size", ["1", "2", "256", "0"]),
        _opt("--pair-range", ["0:2", "1:3", "2:1", "0:999", "-1:2", "1:1", "a:b"]),
        _opt("--missing", ["reject", "impute", "impute", "drop"]),
        _opt("--out", OUTS + ["-"]),
        _opt("--dump-all", OUTS),
    ),
    _argv(
        st.just(["report"]),
        _req("--scores", DUMPS),
        _opt("--bins", ["1", "7", "100", "0", "-1"]),
        _opt("--out-histogram", OUTS),
        _opt("--out-groups", OUTS),
    ),
    _argv(
        st.just(["convert"]),
        _req("--from", ["csv", "packed", "csv", "packed", "vcf"]),
        _req("--to", ["csv", "packed", "csv", "packed", "vcf"]),
        _opt("--missing", ["reject", "impute"]),
        st.sampled_from(INPUTS + ["@genotype_csv"] * 3).map(lambda v: [v]),
        st.sampled_from(OUTS).map(lambda v: [v]),
    ),
    _argv(
        st.just(["simulate"]),
        _req("--study", ["1", "2", "3", "4", "5", "9"]),
        _opt("--reps", ["1", "2", "0", "-1"]),
        _req("--n", ["5", "12", "12", "2", "0", "-1"]),
        _req("--p", ["2", "6", "12", "12", "1", "0", "-1"]),
        _opt("--seed", ["0", "7", "-3"]),
        _opt("--workers", ["1", "2", "0"]),
        _opt("--out-summary", OUTS),
        _opt("--out-replicates", OUTS),
    ),
)


def _materialize(argv, tmp):
    paths = {
        "@dir": tmp,
        "@missing": os.path.join(tmp, "missing.csv"),
        "@nodir": os.path.join(tmp, "no", "such", "out.csv"),
    }
    resolved = []
    for i, token in enumerate(argv):
        if token.startswith("@") and token not in paths:
            path = os.path.join(tmp, f"{i}_{token[1:]}")
            if token[1:] in FUZZ_FILES:
                with open(path, "wb") as fh:
                    fh.write(FUZZ_FILES[token[1:]])
            resolved.append(path)
        else:
            resolved.append(paths.get(token, token))
    return resolved


@settings(max_examples=250, deadline=None)
@given(argv=FUZZ_ARGV)
@example(argv=["scan", "@csv_not_utf8", "--response-column", "y", "--top-k", "1", "--out", "@out"])
@example(argv=["scan", "@csv", "--phenotype", "@pheno_not_utf8", "--top-k", "1", "--out", "@out"])
@example(argv=["report", "--scores", "@dump_not_utf8", "--out-histogram", "@out"])
@example(argv=["scan", "@packed_oversized", "--phenotype", "@pheno", "--top-k", "1", "--out", "@out"])
@example(argv=["scan", "@csv", "--response-column", "y", "--threshold", "nan", "--out", "@out"])
@example(argv=["scan", "@csv_long_cell", "--response-column", "y", "--top-k", "1", "--out", "@out"])
@example(argv=["scan", "@csv_constant_newline_label", "--response-column", "y", "--top-k", "1",
               "--out", "@out"])
@example(argv=["simulate", "--study", "1", "--n", "5", "--p", "2", "--seed", "-3", "--out-summary", "@out"])
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = _materialize(argv, tmp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                assert exc.code == 2
                return
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("jciscan: "), err.getvalue()


def test_undecodable_text_exits_2(tmp_path):
    argvs = [
        ["scan", "@csv_not_utf8", "--response-column", "y", "--top-k", "1", "--out", "@out"],
        ["scan", "@csv", "--phenotype", "@pheno_not_utf8", "--top-k", "1", "--out", "@out"],
        ["report", "--scores", "@dump_not_utf8", "--out-histogram", "@out"],
    ]
    for argv in argvs:
        fails_cleanly(_materialize(argv, str(tmp_path)))


def test_threshold_nan_exits_2(tmp_path):
    fails_cleanly(
        _materialize(["scan", "@csv", "--response-column", "y", "--threshold", "nan", "--out", "@out"],
                     str(tmp_path))
    )
