"""Golden-output corpus: seeded CLI invocations pinned by sha256.

Each case runs ``cli.main`` in process, in one temporary directory, on
inputs written there from fixed seeds (:func:`write_inputs`), and hashes
its exit code, stdout, stderr and every file it writes.
``tests/golden/manifest.json`` holds the pinned hashes;
``tests/golden/regenerate.py`` rewrites it (``--check`` lists the cases
whose hashes changed and writes nothing).

Exact-route outputs do not depend on the BLAS kernel, so their bytes are
pinned whole.  Float-route values do (up to 7e-11 relative across
OpenBLAS kernels), so for a case marked ``ORDER`` each CSV output is
hashed without its last cell, the ``r_hat``: the hash pins the pairs and
their order.  Its values are checked against
:func:`jciscan.cumulants.pair_score` to :data:`VALUE_RTOL` instead.

Cases run in list order, and a later case may read an earlier one's
output (``report`` reads a dump).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from jciscan import cli
from jciscan.cumulants import center, pair_score
from jciscan.dataio import GenotypeMatrix, write_packed

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

#: Relative bound on a float-route r_hat against ``pair_score``: the
#: fused row product and the reference's ordered pass differ by rounding
#: only, and other BLAS kernels move a value by at most 7e-11 relative.
VALUE_RTOL = 1e-9

N = 120
#: ``--threshold`` of the scan cases: a few to a few dozen pairs of each input lie above it.
THRESHOLD = "0.2"
BYTES, ORDER = "bytes", "order"


def datasets():
    """The corpus inputs as arrays: ``(matrices, labels, phenotypes)``.

    ``g`` holds genotype codes, ``d`` dosages 0-7 (the exact route's 8-bit
    store), and ``t`` is ``g`` with columns 0 and 1 repeated as 7 and 11,
    so pairs tie exactly and the (j1, j2) tie-break decides their order.
    Only exact-route cases read ``t``: on the float route twin pairs differ
    in their last bits, and their order with the BLAS kernel.  y depends on
    g's columns 0 and 1 through their product."""
    rng = np.random.default_rng(20261020)
    g = rng.integers(1, 4, size=(N, 30)).astype(np.uint8)
    d = rng.integers(0, 8, size=(N, 20)).astype(np.uint8)
    t = g.copy()
    t[:, 7], t[:, 11] = g[:, 0], g[:, 1]
    signal = np.prod(g[:, :2] - 2.0, axis=1)
    phenotypes = {
        "cc": 1 + (signal + rng.normal(size=N) > 0.5).astype(np.int64),
        "count": rng.poisson(np.exp(0.6 * signal)),
        "real": signal + rng.normal(size=N),
    }
    labels = {
        "g": [f"ch{1 + j % 3}:rs{j}" for j in range(g.shape[1])],
        "d": [f"d{j}" for j in range(d.shape[1])],
    }
    return {"g": g, "d": d, "t": t}, labels, phenotypes


def _csv_text(header, rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def write_inputs(directory: Path) -> None:
    """Write the corpus inputs into ``directory``."""
    matrices, labels, phenotypes = datasets()
    g, d = matrices["g"], matrices["d"]
    ids, chroms = tuple(f"rs{j}" for j in range(g.shape[1])), tuple(1 + j % 3 for j in range(g.shape[1]))
    for name, values in phenotypes.items():
        (directory / f"{name}.txt").write_text("".join(f"{v!r}\n" for v in values.tolist()))
    (directory / "g.csv").write_text(_csv_text(labels["g"], g.tolist()))
    (directory / "d.csv").write_text(_csv_text(labels["d"], d.tolist()))
    for name in ("g", "t"):
        buffer = io.BytesIO()
        write_packed(GenotypeMatrix(codes=matrices[name], snp_ids=ids, chromosomes=chroms), buffer)
        (directory / f"{name}.jcg").write_bytes(buffer.getvalue())
    # t.jcg with missing codes (0b11) at (row, column) (5, 3), (77, 3) and (0, 20).
    damaged = bytearray((directory / "t.jcg").read_bytes())
    col_bytes = (N + 3) // 4
    start = len(damaged) - g.shape[1] * col_bytes
    for row, col in [(5, 3), (77, 3), (0, 20)]:
        damaged[start + col * col_bytes + row // 4] |= 0b11 << 2 * (row % 4)
    (directory / "gm.jcg").write_bytes(bytes(damaged))
    # A CSV with a cell that is not a number, and one with a constant column.
    rows = [[*row, y] for row, y in zip(g[:10].tolist(), phenotypes["cc"].tolist())]
    rows[6][2] = "NA"
    (directory / "bad.csv").write_text(_csv_text([*labels["g"], "y"], rows))
    rows = [[*row, 2, y] for row, y in zip(g[:, :4].tolist(), phenotypes["real"].tolist())]
    (directory / "const.csv").write_text(_csv_text(["a", "b", "c", "e", "flat", "y"], rows))


def _scan_case(source: str, pheno: str):
    name = f"scan_{source}_{pheno}"
    argv = ["scan", source, "--phenotype", f"{pheno}.txt", "--top-k", "10", "--threshold", THRESHOLD,
            "--out", f"top_{name}.csv", "--dump-all", f"dump_{name}.csv"]
    return name, argv, ORDER if pheno == "real" else BYTES


#: ``(name, argv, kind)`` in run order.
CASES = (
    ("convert_csv_to_packed", ["convert", "--from", "csv", "--to", "packed", "g.csv", "conv.jcg"], BYTES),
    ("convert_packed_to_csv", ["convert", "--from", "packed", "--to", "csv", "g.jcg", "conv.csv"], BYTES),
    *(_scan_case(source, pheno) for source in ("g.jcg", "g.csv", "d.csv") for pheno in ("cc", "count", "real")),
    ("scan_stdout", ["scan", "g.jcg", "--phenotype", "count.txt", "--top-k", "8"], BYTES),
    ("scan_ties", ["scan", "t.jcg", "--phenotype", "cc.txt", "--top-k", "10", "--threshold", THRESHOLD,
                   "--out", "top_ties.csv", "--dump-all", "dump_ties.csv"], BYTES),
    ("missing_reject", ["scan", "gm.jcg", "--phenotype", "cc.txt", "--missing", "reject", "--top-k", "5",
                        "--out", "top_missing_reject.csv"], BYTES),
    ("missing_impute", ["scan", "gm.jcg", "--phenotype", "cc.txt", "--missing", "impute", "--top-k", "10",
                        "--threshold", THRESHOLD, "--out", "top_missing_impute.csv",
                        "--dump-all", "dump_missing_impute.csv"], BYTES),
    # Threshold 0 selects every pair of a shard, so each shard's ends show.
    *((f"shard_{span}", ["scan", "t.jcg", "--phenotype", "cc.txt", "--pair-range", span, "--top-k", "5",
                         "--threshold", "0", "--out", f"shard_{span.replace(':', '_')}.csv"], BYTES)
      for span in ("0:200", "200:435")),
    *((f"workers_{w}_{pheno}", ["scan", "g.csv", "--phenotype", f"{pheno}.txt", "--top-k", "10",
                                "--threshold", THRESHOLD, "--workers", w, "--block-size", "4",
                                "--out", f"top_workers_{w}_{pheno}.csv"], ORDER if pheno == "real" else BYTES)
      for pheno in ("count", "real") for w in ("1", "2")),
    ("report", ["report", "--scores", "dump_ties.csv", "--bins", "10",
                "--out-histogram", "hist.csv", "--out-groups", "groups.csv"], BYTES),
    *((f"simulate_study{study}", ["simulate", "--study", study, "--reps", "4", "--n", "60", "--p", "12",
                                  "--seed", "7", "--out-summary", f"summary{study}.csv",
                                  "--out-replicates", f"replicates{study}.csv"], BYTES)
      for study in ("1", "3")),
    ("exit2_bad_cell", ["scan", "bad.csv", "--response-column", "y", "--top-k", "3", "--out", "bad_top.csv"], BYTES),
    ("exit3_constant_column", ["scan", "const.csv", "--response-column", "y", "--top-k", "3",
                               "--out", "const_top.csv"], BYTES),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def order_view(text: str) -> str:
    """``text``, a CSV table, with the last cell of each row dropped; a
    ``#`` section line is kept whole."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for line in text.splitlines():
        if line.startswith("#"):
            out.write(line + "\n")
        else:
            writer.writerow(next(csv.reader([line]))[:-1])
    return out.getvalue()


def run_case(argv):
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_corpus(directory: Path):
    """Write the inputs into ``directory`` and run every case there.

    Returns ``(hashes, tables)``: ``hashes[name]`` maps ``exit``,
    ``stdout``, ``stderr`` and each file the case wrote to a sha256;
    ``tables[name]`` maps the stdout and CSV outputs of each ``ORDER``
    case to their text."""
    write_inputs(directory)
    hashes, tables = {}, {}
    cwd = os.getcwd()
    os.chdir(directory)  # relative paths: no temporary path reaches an output
    try:
        for name, argv, kind in CASES:
            before = set(os.listdir("."))
            code, out, err = run_case(argv)
            written = {f: Path(f).read_bytes() for f in sorted(set(os.listdir(".")) - before)}
            if kind == ORDER:
                tables[name] = {"stdout": out, **{f: data.decode("utf-8") for f, data in written.items()}}
                out = order_view(out)
                written = {f: order_view(data.decode("utf-8")).encode("utf-8") for f, data in written.items()}
            hashes[name] = {
                "exit": _sha(str(code).encode()),
                "stdout": _sha(out.encode("utf-8")),
                "stderr": _sha(err.encode("utf-8")),
                **{f: _sha(data) for f, data in written.items()},
            }
    finally:
        os.chdir(cwd)
    return hashes, tables


def changed_cases(pinned: dict, hashes: dict) -> list[str]:
    """The names of the cases whose hashes differ from ``pinned``, or that
    only one of the two holds."""
    return sorted(name for name in set(pinned) | set(hashes) if pinned.get(name) != hashes.get(name))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_golden_corpus_matches_the_manifest(corpus):
    hashes, _ = corpus
    pinned = json.loads(MANIFEST.read_text())
    assert changed_cases(pinned, hashes) == []


def test_golden_float_route_values_match_pair_score(corpus):
    _, tables = corpus
    matrices, labels, phenotypes = datasets()
    cy = center(phenotypes["real"], index=-1)
    checked = 0
    for name, texts in tables.items():
        source = "d" if "d.csv" in name else "g"
        x = matrices[source].astype(np.float64)
        # g.jcg labels its columns as g.csv does: "ch<k>:rs<j>".
        index = {label: j for j, label in enumerate(labels[source])}
        for text in texts.values():
            for row in csv.reader(io.StringIO(text)):
                if row[0].startswith("#") or row[-1] == "r_hat":
                    continue
                j1, j2 = index[row[0]], index[row[1]]
                want = pair_score(center(x[:, j1], index=j1), center(x[:, j2], index=j2), cy).r_hat
                assert float(row[-1]) == pytest.approx(want, rel=VALUE_RTOL), (name, row)
                checked += 1
    assert len(tables) == 5 and checked > 2 * 435 + 190  # every dump row, then the tables
