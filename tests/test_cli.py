"""End-to-end CLI contract tests: flags, exit codes, output schemas,
determinism, CSV/packed parity."""

import contextlib
import csv as csvmod
import io
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jciscan
from jciscan import CodeWorkspace, ScanConfig, all_scores, pair_count, precompute, scan
from jciscan.cli import build_parser, main
from jciscan.cumulants import PairStatistic
from jciscan import dataio
from jciscan.dataio import (
    MAGIC,
    GenotypeMatrix,
    genotype_from_floats,
    open_packed,
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


# Modules a command loads only when it runs them: the simulation harness
# (simulate) and a thread pool (scan with more than one worker).
_LAZY_MODULES = ("jciscan.simulate", "concurrent.futures")

_IMPORT_PROBE = """
import sys
import jciscan.cli
print(*(m for m in %r if m in sys.modules))
import jciscan
names = {}
exec("from jciscan import *", names)
assert set(jciscan.__all__) <= set(names) and set(jciscan.__all__) <= set(dir(jciscan))
assert names["run_replications"] is jciscan.run_replications is sys.modules["jciscan.simulate"].run_replications
try:
    jciscan.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("jciscan.no_such_name resolved")
""" % (_LAZY_MODULES,)


def _env_with_src():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jciscan.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_commands_import_only_what_they_run():
    env = _env_with_src()
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    assert probe.stdout.split() == []
    # -X importtime lists every module the process imports on stderr.
    helped = subprocess.run([sys.executable, "-X", "importtime", "-m", "jciscan", "--help"], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in helped.stderr.splitlines()}
    assert "jciscan.cli" in imported
    assert imported.isdisjoint(_LAZY_MODULES)


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


def test_scan_rejects_a_response_column_named_twice(tmp_path, capsys):
    data = tmp_path / "twice.csv"
    data.write_text("a,a,y\n1,2,0\n2,1,1\n3,5,0\n4,4,1\n")
    out = tmp_path / "out.csv"
    assert run(["scan", str(data), "--response-column", "a", "--top-k", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "jciscan: response column 'a' is ambiguous: the header names it 2 times\n"
    )
    assert not out.exists()


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


def test_degenerate_inputs_exit_3_with_the_error_line(tmp_path, capsys):
    # Errors that reach main's handler for degenerate data, not a command's
    # own: a two-row scan, and a study 1 replicate whose response is
    # constant at n = 3 and the default seed.  Neither writes an output.
    two = tmp_path / "two.csv"
    two.write_text("a,b,y\n1,2,0\n2,5,1\n")
    assert run(["scan", str(two), "--response-column", "y", "--top-k", "1"]) == 3
    assert capsys.readouterr() == ("", "jciscan: pair scans need n >= 3, got 2\n")
    summary = tmp_path / "s.csv"
    argv = ["simulate", "--study", "1", "--reps", "1", "--n", "3", "--p", "2", "--out-summary", str(summary)]
    assert run(argv) == 3
    assert capsys.readouterr() == ("", "jciscan: response column has zero (or near-zero) sample variance\n")
    assert not summary.exists()


def test_scan_names_degenerate_column_on_stderr(tmp_path, capsys):
    const = tmp_path / "const.csv"
    const.write_text("a,weird,y\n1,7,0\n2,7,1\n3,7,0\n4,7,1\n")
    assert run(["scan", str(const), "--response-column", "y", "--top-k", "1"]) == 3
    assert "weird" in capsys.readouterr().err


def test_scan_of_a_response_near_the_float_limit_matches_the_unscaled_scan(tmp_path):
    # A response times 1e307 sums past the float range unless it is scaled
    # down first; the scan runs quietly and names the same top pairs.
    rng = np.random.default_rng(37)
    X = rng.normal(size=(80, 10))
    y = X[:, 2] * X[:, 5] + 0.5 * X[:, 1] * X[:, 7] + rng.normal(size=80)
    names = [f"x{j}" for j in range(10)]
    labels = []
    for factor in (1.0, 1e307):
        data, out = tmp_path / "d.csv", tmp_path / "top.csv"
        write_csv(data, X, names, response=y * factor)
        done = subprocess.run([sys.executable, "-m", "jciscan", "scan", str(data), "--response-column", "y",
                               "--top-k", "10", "--out", str(out)], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        labels.append([row[:2] for row in read_rows(out)])
    assert labels[0] == labels[1] and len(labels[0]) == 11


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


def test_scan_flag_errors_exit_2_without_a_traceback(tmp_path, capsys):
    rng = np.random.default_rng(45)
    packed, pheno, data = tmp_path / "g.jcg", tmp_path / "y.txt", tmp_path / "d.csv"
    write_packed(genotype_from_floats(rng.integers(1, 4, size=(12, 3)), ["a", "b", "c"]), packed)
    pheno.write_text("".join(f"{v}\n" for v in rng.normal(size=12)))
    write_study1_csv(data, n=20, p=4)
    assert run(["scan", str(packed), "--phenotype", str(pheno), "--response-column", "y", "--top-k", "1"]) == 2
    assert capsys.readouterr().err == "jciscan: --response-column does not apply to packed input\n"
    for span in ("5", "a:b"):
        assert run(["scan", str(data), "--response-column", "y", "--top-k", "1", "--pair-range", span]) == 2
        assert capsys.readouterr().err == f"jciscan: argument --pair-range: expected START:END, got {span!r}\n"


def test_scan_rejects_missing_for_csv_input(tmp_path, capsys):
    # --missing is the packed reader's policy; a CSV has no missing codes.
    data, out = tmp_path / "d.csv", tmp_path / "o.csv"
    write_study1_csv(data, n=20, p=4)
    for policy in ("impute", "reject"):
        argv = ["scan", str(data), "--response-column", "y", "--top-k", "1", "--missing", policy, "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == "jciscan: --missing applies to packed input only\n"
    assert not out.exists()


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


def test_scan_of_a_csv_and_of_its_packed_conversion_write_the_same_labels(tmp_path):
    # A label that is not "ch<k>:<id>" with k in 1-255 written plainly is
    # a whole id: it packs as chromosome 0 and comes back unchanged.
    labels = ["ch07:rs1", "ch0:rs2", "ch25:rs3", "ch1:rs4", "ch256:rs5", "ch\uff11:z", "plain"]
    rng = np.random.default_rng(13)
    codes = rng.integers(1, 4, size=(30, len(labels))).astype(np.uint8)
    src, packed, back = tmp_path / "g.csv", tmp_path / "g.jcg", tmp_path / "back.csv"
    write_csv(src, codes, labels)
    pheno = tmp_path / "y.txt"
    pheno.write_text("".join(f"{v!r}\n" for v in rng.normal(size=30).tolist()))
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(packed)]) == 0
    assert run(["convert", "--from", "packed", "--to", "csv", str(packed), str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()
    outputs = []
    for data in (src, packed):
        out, dump = tmp_path / f"{data.name}.top.csv", tmp_path / f"{data.name}.dump.csv"
        assert run(["scan", str(data), "--phenotype", str(pheno), "--top-k", "30", "--out", str(out),
                    "--dump-all", str(dump)]) == 0
        outputs.append((out.read_bytes(), dump.read_bytes()))
    assert outputs[0] == outputs[1]
    assert {row[0] for row in read_rows(tmp_path / "g.csv.top.csv")[1:]} == set(labels[:-1])


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


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_scan_of_a_piped_input_matches_the_scan_of_its_file(tmp_path):
    # The input's format is found on the handle that is then read, so a
    # pipe loses no bytes to it: /dev/stdin fed a genotype CSV (over one
    # read buffer) or a packed file scans as the file itself does.
    rng = np.random.default_rng(53)
    n, p = 700, 16
    gm = GenotypeMatrix(codes=rng.integers(1, 4, size=(n, p)).astype(np.uint8),
                        snp_ids=tuple(f"rs{j}" for j in range(p)), chromosomes=tuple(1 + j % 3 for j in range(p)))
    table, packed, pheno = tmp_path / "g.csv", tmp_path / "g.jcg", tmp_path / "y.txt"
    write_csv(table, gm.codes, [gm.column_label(j) for j in range(p)])
    write_packed(gm, packed)
    pheno.write_text("".join(f"{v}\n" for v in (rng.random(n) < 0.4).astype(int).tolist()))
    for source in (table, packed):
        runs = [
            subprocess.run([sys.executable, "-m", "jciscan", "scan", name, "--phenotype", str(pheno), "--top-k", "3"],
                           input=stdin, env=_env_with_src(), capture_output=True, timeout=120)
            for name, stdin in ((str(source), b""), ("/dev/stdin", source.read_bytes()))
        ]
        assert (runs[0].returncode, runs[0].stderr, runs[0].stdout.count(b"\n")) == (0, b"", 4)
        assert (runs[1].returncode, runs[1].stderr, runs[1].stdout) == (0, b"", runs[0].stdout)


def test_packed_scan_input_is_walked_without_an_n_by_p_array(tmp_path):
    # A .jcg scan opens the file (header, metadata, a chunked missing-code
    # check) and precompute decodes blocks of max(64, 64 * 2048 // n)
    # columns (65 here) straight into the 2-bit store (n p / 4 bytes): load
    # plus precompute stays below half the uint8 codes, which a decoded
    # n x p array alone would fill twice.
    n, p = 2000, 4000
    rng = np.random.default_rng(50)
    codes = rng.integers(1, 4, size=(n, p), dtype=np.uint8)
    path = tmp_path / "g.jcg"
    write_packed(GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(p)), chromosomes=(1,) * p), path)
    y = (rng.random(n) < 0.4).astype(float)
    del codes
    tracemalloc.start()
    try:
        ws = precompute(open_packed(path), y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(ws, CodeWorkspace) and ws.bits == 2
    assert peak < 0.5 * n * p + 2**20, peak


def _with_missing(data: bytes, n: int, p: int, cells) -> bytes:
    """``data``, a packed file, with the code at each (row, column) of
    ``cells`` set to the missing pattern."""
    out = bytearray(data)
    start = len(out) - p * ((n + 3) // 4)
    for row, col in cells:
        out[start + col * ((n + 3) // 4) + row // 4] |= 0b11 << 2 * (row % 4)
    return bytes(out)


@pytest.mark.parametrize("policy", ["reject", "impute"])
@pytest.mark.parametrize("damage", ["none", "missing", "fully_missing", "truncated"])
def test_packed_scan_matches_parse_packed_then_scan(tmp_path, capsys, monkeypatch, policy, damage):
    # The .jcg path (open_packed, then blocks decoded in precompute's walk)
    # against the decoded matrix: parse_packed, then a scan of its codes.
    # Errors, exit codes and output bytes agree, missing codes found and
    # imputed alike, with every column walk cut into 3-column blocks.
    monkeypatch.setattr(dataio, "_walk_width", lambda n: 3)
    rng = np.random.default_rng(51)
    n, p = 50, 130
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    gm = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(p)),
                        chromosomes=tuple(1 + j % 3 for j in range(p)))
    buf = io.BytesIO()
    write_packed(gm, buf)
    data = buf.getvalue()
    if damage == "missing":
        data = _with_missing(data, n, p, [(30, 70), (7, 5), (0, 61), (49, 5)])
    elif damage == "fully_missing":
        data = _with_missing(data, n, p, [(3, 4)] + [(row, 9) for row in range(n)])
    elif damage == "truncated":
        data = data[:-1]
    packed, pheno = tmp_path / "g.jcg", tmp_path / "y.txt"
    packed.write_bytes(data)
    pheno.write_text("".join(f"{v}\n" for v in (rng.random(n) < 0.4).astype(int).tolist()))
    outcomes = []
    for decoded in (False, True):
        if decoded:
            monkeypatch.setattr(dataio, "open_packed", lambda path, missing_policy: dataio.parse_packed(path, missing_policy))
        out, dump = tmp_path / f"top{decoded}.csv", tmp_path / f"dump{decoded}.csv"
        code = run(["scan", str(packed), "--phenotype", str(pheno), "--missing", policy, "--top-k", "15",
                    "--threshold", "0.3", "--out", str(out), "--dump-all", str(dump)])
        written = [f.read_bytes() if f.exists() else None for f in (out, dump)]
        outcomes.append((code, capsys.readouterr().err, written))
    assert outcomes[0] == outcomes[1]
    expect_error = damage in ("truncated", "fully_missing") or (damage == "missing" and policy == "reject")
    assert (outcomes[0][0] == 2) == expect_error
    if damage == "missing" and policy == "reject":
        assert outcomes[0][1] == "jciscan: missing genotype at column 5, row 7\n"
    if not expect_error:
        # Both sources build the same code store, byte for byte.
        y = read_phenotype(pheno)
        walked, decoded = (precompute(source(packed, policy), y) for source in (open_packed, dataio.parse_packed))
        assert isinstance(walked, CodeWorkspace) and isinstance(decoded, CodeWorkspace)
        assert walked.store.tobytes() == decoded.store.tobytes()
        assert (walked.bits, walked.levels) == (decoded.bits, decoded.levels)
        for name in ("sums", "cross", "spread"):
            assert getattr(walked, name).tobytes() == getattr(decoded, name).tobytes()


@pytest.mark.parametrize("n", [5, 6, 7, 49])
def test_set_padding_bits_decode_and_scan_as_zero_padding(tmp_path, n):
    # The slots past row n of each column's last byte are padding: whatever
    # bits they hold, 0b11 included, every decoder and scan of the file
    # reads the codes of the same file with zero padding, under either
    # missing-code policy.
    rng = np.random.default_rng(n)
    p = 9
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    codes[:2] = [[1] * p, [3] * p]
    gm = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(p)), chromosomes=(1,) * p)
    clean = io.BytesIO()
    write_packed(gm, clean)
    col_bytes = (n + 3) // 4
    data = bytearray(clean.getvalue())
    start = len(data) - p * col_bytes
    pad = range(n % 4, 4)
    for j in range(p):
        fill = [0b11] * len(pad) if j % 3 == 0 else rng.integers(0, 4, size=len(pad)).tolist()
        for k, bits in zip(pad, fill):
            data[start + (j + 1) * col_bytes - 1] |= bits << 2 * k
    assert bytes(data) != clean.getvalue()
    path = tmp_path / "padded.jcg"
    path.write_bytes(bytes(data))
    y = (rng.random(n) < 0.5).astype(np.float64)
    y[:2] = [0, 1]
    expected = all_scores(precompute(codes, y)).tobytes()
    for policy in ("reject", "impute"):
        assert np.array_equal(dataio.parse_packed(path, policy).codes, codes)
        walk = open_packed(path, policy)
        for width in (1, 4, p):
            assert np.array_equal(np.concatenate([block for _, block in walk.column_blocks(width)], axis=1), codes)
        assert all_scores(precompute(walk, y)).tobytes() == expected
        assert all_scores(precompute(dataio.parse_packed(path, policy), y)).tobytes() == expected


def test_scan_dosage_csv_matches_the_uint8_code_route(tmp_path):
    # 0/1/2 allele dosages in a CSV take the exact route from their values
    # alone: the output is the in-process scan of the same uint8 codes, byte
    # for byte.  Each mirrored column 2 - x ties its twin's pairs exactly,
    # and the tied pairs come out in (j1, j2) order.
    rng = np.random.default_rng(17)
    n, half = 80, 6
    base = rng.integers(0, 3, size=(n, half)).astype(np.uint8)
    base[:2] = [[0] * half, [2] * half]
    codes = np.hstack([base, 2 - base])
    y = (rng.random(n) < 0.4).astype(np.float64)
    y[:2] = [0.0, 1.0]
    labels = [f"rs{j}" for j in range(codes.shape[1])]
    data, out = tmp_path / "dosage.csv", tmp_path / "top.csv"
    write_csv(data, codes, labels, response=y)
    assert run(["scan", str(data), "--response-column", "y", "--top-k", "20", "--threshold", "0.1",
                "--out", str(out)]) == 0

    ws = precompute(codes, y)
    assert isinstance(ws, CodeWorkspace)
    result = scan(ws, ScanConfig(top_k=20, threshold=0.1))

    def lines(table):
        return [f"{labels[a]},{labels[b]},{r!r}\n"
                for a, b, r in zip(table.j1.tolist(), table.j2.tolist(), table.r_hat.tolist())]

    expected = ["snp1,snp2,r_hat\n", *lines(result.top_pairs), "# pairs with r_hat > 0.1\n",
                *lines(result.selected)]
    assert out.read_text() == "".join(expected)
    top = result.top_pairs
    keys = list(zip((-top.r_hat).tolist(), top.j1.tolist(), top.j2.tolist()))
    assert len(set(top.r_hat.tolist())) <= len(top) // 2
    assert keys == sorted(keys)


def test_study1_csv_scan_scores_as_genotype_codes(tmp_path):
    # Study 1's 0/1 design read from a CSV keeps exact ties: its dump holds
    # the scores of the same design as genotype codes 1/2 (a shift leaves
    # every exact integer sum, and so every score, unchanged), so as many
    # distinct scores as they give.
    data, dump = tmp_path / "d.csv", tmp_path / "dump.csv"
    ds = write_study1_csv(data, n=200, p=100, seed=0)
    assert run(["scan", str(data), "--response-column", "y", "--top-k", "5", "--dump-all", str(dump),
                "--out", str(tmp_path / "top.csv")]) == 0
    scores = [float(row[4]) for row in read_rows(dump)[1:]]
    codes = ds.predictors.astype(np.uint8) + 1
    gm = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(100)), chromosomes=(1,) * 100)
    flat = all_scores(precompute(gm, ds.response))
    assert scores == flat.tolist()
    assert len(set(scores)) == np.unique(flat).size


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


def test_convert_packed_to_csv_widens_one_row_at_a_time(tmp_path):
    # The codes are written as the old float64 widening wrote them, byte for
    # byte, but the run holds the decoded codes plus one block of rows, not
    # an n x p float64 copy (8 times the codes).
    n, p = 200, 2000
    codes = np.random.default_rng(23).integers(1, 4, size=(n, p)).astype(np.uint8)
    gm = GenotypeMatrix(codes=codes, snp_ids=tuple(f"rs{j}" for j in range(p)), chromosomes=(2,) * p)
    packed, out, ref = tmp_path / "g.jcg", tmp_path / "g.csv", tmp_path / "ref.csv"
    write_packed(gm, packed)
    tracemalloc.start()
    try:
        assert run(["convert", "--from", "packed", "--to", "csv", str(packed), str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * codes.nbytes + 2**20
    write_csv(ref, codes.astype(np.float64), [gm.column_label(j) for j in range(p)])
    assert out.read_bytes() == ref.read_bytes()


def test_convert_rejects_non_genotype_values(tmp_path, capsys):
    src = tmp_path / "src.csv"
    src.write_text("a,b\n1,2\n2.5,3\n")
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(tmp_path / "o.jcg")]) == 2
    err = capsys.readouterr().err
    assert "row 1" in err and "column 0" in err
    src.write_text("a,b\n1,1\n0,1\n")  # a 0/1 CSV
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(tmp_path / "o.jcg")]) == 2
    assert capsys.readouterr().err == "jciscan: value 0.0 at data row 1, column 0 is not a genotype code\n"


def test_convert_rejects_missing_for_csv_input(tmp_path, capsys):
    src, out = tmp_path / "src.csv", tmp_path / "o.jcg"
    src.write_text("a,b\n1,2\n2,3\n")
    assert run(["convert", "--from", "csv", "--to", "packed", "--missing", "impute", str(src), str(out)]) == 2
    assert capsys.readouterr().err == "jciscan: --missing applies to packed input only\n"
    assert not out.exists()
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(out)]) == 0
    back = tmp_path / "back.csv"
    assert run(["convert", "--from", "packed", "--to", "csv", "--missing", "impute", str(out), str(back)]) == 0
    assert back.read_text() == src.read_text()


def test_convert_rejects_empty_and_same_format(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("a,b\n")
    assert run(["convert", "--from", "csv", "--to", "packed", str(empty), str(tmp_path / "o.jcg")]) == 2
    ok = tmp_path / "ok.csv"
    ok.write_text("a\n1\n")
    assert run(["convert", "--from", "csv", "--to", "csv", str(ok), str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("label", ["x" * 65536])
def test_convert_rejects_unpackable_labels_before_touching_the_output(tmp_path, capsys, label):
    src, out = tmp_path / "src.csv", tmp_path / "o.jcg"
    src.write_text(f"ch1:ok,{label}\n1,2\n2,3\n")
    out.write_bytes(b"earlier output")
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(out)]) == 2
    assert capsys.readouterr().err.startswith("jciscan: ")
    assert out.read_bytes() == b"earlier output"


def test_convert_csv_to_packed_streams_uint8_codes(tmp_path, capsys):
    # Each parsed block is cast to uint8 codes as it comes: the run never
    # holds the n x p float64 table (8 times the codes).
    n, p = 400, 3000
    codes = np.random.default_rng(31).integers(1, 4, size=(n, p)).astype(np.uint8)
    labels = [f"ch{1 + j % 22}:rs{j}" for j in range(p)]
    src, out = tmp_path / "g.csv", tmp_path / "g.jcg"
    write_csv(src, codes, labels)
    tracemalloc.start()
    try:
        assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * codes.nbytes + 4 * 2**20, peak
    expected = io.BytesIO()
    write_packed(genotype_from_floats(codes, labels), expected)
    assert out.read_bytes() == expected.getvalue()
    # A non-code in the last block is named by file row and column.
    text = src.read_text()
    src.write_text(text[: text.rindex(",")] + ",4\n")
    out.unlink()
    assert run(["convert", "--from", "csv", "--to", "packed", str(src), str(out)]) == 2
    assert capsys.readouterr().err == (
        f"jciscan: value 4.0 at data row {n - 1}, column {p - 1} is not a genotype code\n"
    )
    assert not out.exists()


def _scan_and_convert(src, tmp_path, capsys):
    """Exit code, stderr and output bytes of ``scan`` and of ``convert``."""
    outcomes = []
    for argv, out in (
        (["scan", str(src), "--response-column", "y", "--top-k", "5", "--threshold", "0.05",
          "--out"], tmp_path / "top.csv"),
        (["convert", "--from", "csv", "--to", "packed", str(src)], tmp_path / "g.jcg"),
    ):
        out.unlink(missing_ok=True)
        code = run([*argv, str(out)])
        outcomes.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
    return outcomes


def test_csv_line_ends_blank_lines_and_bom_keep_their_outcomes(tmp_path, capsys):
    rng = np.random.default_rng(29)
    cells = np.column_stack([rng.integers(1, 4, size=(40, 6)), rng.integers(1, 3, size=40)])
    lines = [",".join([f"ch1:rs{j}" for j in range(6)] + ["y"])]
    lines += [",".join(map(str, row)) for row in cells.tolist()]
    src = tmp_path / "data.csv"
    src.write_text("\n".join(lines) + "\n")
    expected = _scan_and_convert(src, tmp_path, capsys)
    assert [(code, err) for code, err, _ in expected] == [(0, ""), (0, "")]
    crlf = ("\r\n".join(lines) + "\r\n").encode()
    for raw in (crlf, b"\xef\xbb\xbf" + src.read_bytes(), b"\xef\xbb\xbf" + crlf):
        src.write_bytes(raw)
        assert _scan_and_convert(src, tmp_path, capsys) == expected
    for end in ("\n", "\r\n"):
        src.write_text(end.join(lines[:4] + [""] + lines[4:]) + end, newline="")
        assert _scan_and_convert(src, tmp_path, capsys) == [
            (2, "jciscan: row 3 has 0 cells, header has 7\n", None)
        ] * 2


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


def test_report_holds_each_score_once(tmp_path):
    # One float64 array per chromosome pair (about 8.5 bytes per row), each
    # binned in place by np.histogram's small blocks: no joined copy of
    # every score (8 more bytes per row), nor a list of Python floats
    # beside the groups' lists (over 60).
    rng = np.random.default_rng(22)
    n = 150_000
    dump = tmp_path / "dump.csv"
    write_dump(dump, [[f"a{i}", f"b{i}", 1 + i % 3, 2 + i % 5, repr(float(v))] for i, v in enumerate(rng.random(n))])
    argv = ["report", "--scores", str(dump), "--out-histogram", str(tmp_path / "h.csv"),
            "--out-groups", str(tmp_path / "g.csv")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * n + 2**20, peak / n
    assert sum(int(r[2]) for r in read_rows(tmp_path / "h.csv")[1:]) == n
    assert sum(int(r[2]) for r in read_rows(tmp_path / "g.csv")[1:]) == n


@settings(max_examples=30, deadline=None)
@given(
    groups=st.lists(
        st.lists(st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 0.5, 0.7, 0.9, 1.0]) | st.floats(0, 1), min_size=1, max_size=40),
        min_size=1,
        max_size=6,
    ),
    bins=st.integers(1, 17),
)
def test_report_histogram_is_the_histogram_of_all_scores(groups, bins):
    # Summed per-group counts and the edges equal np.histogram of every
    # score at once, bit for bit, bin edges and top values included.
    with tempfile.TemporaryDirectory() as tmp:
        dump, hist = os.path.join(tmp, "dump.csv"), os.path.join(tmp, "h.csv")
        write_dump(dump, [["a", "b", 1, g, repr(v)] for g, values in enumerate(groups) for v in values])
        assert run(["report", "--scores", dump, "--bins", str(bins), "--out-histogram", hist]) == 0
        rows = read_rows(hist)[1:]
    scores = np.concatenate([np.array(values, dtype=np.float64) for values in groups])
    top = float(scores.max())
    counts, edges = np.histogram(scores, bins=bins, range=(0.0, top if top > 0 else 1.0))
    assert [int(r[2]) for r in rows] == counts.tolist()
    assert [float(r[0]) for r in rows] + [float(rows[-1][1])] == edges.tolist()


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
                code = exc.code
                assert code == 2
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
