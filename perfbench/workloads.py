"""Seeded inputs and command lines of the four benchmark workloads.

Every input file is written here, by the benchmark's own writers, never by
``jciscan.dataio``: a change to the program's writers cannot change the
bytes the program is measured on.  The same ``(workload, seed)`` always
gives the same bytes (PCG64 streams keyed by both).

Why each workload exists (shares are of ``cli.main`` time in traced runs
on a shared 2-core x86 box, one BLAS thread; see README.md):

``genome_topk``
    Packed 2-bit genotypes, n=1000, p=2000 (1,999,000 pairs), case/control
    phenotype with one planted pair that must rank first; ``scan --top-k
    100``.  Loads the pair sweep: ``scan`` is ~94% of the time.  Bypasses
    text parsing (~1%, 22 ms), dense selection and output.  The workload on
    which a faster sweep kernel (GEMM tiles) must show.  Set-up is
    ``convert --from csv --to packed`` of the same data.
``csv_threshold``
    Continuous CSV, n=200, p=1500 (1,124,250 pairs), planted product term;
    ``scan --response-column y --top-k 100 --threshold 0.1``.  ~16% of the
    pairs pass the threshold.  Loads CSV parsing (~25%), dense selection
    (~44%) and row writing (~22%); the sweep is ~8%, so a sweep-only
    speed-up should barely move it.
``sim_study``
    ``simulate --study 1 --reps 8`` (binary, 200x1000) then ``simulate
    --study 5 --reps 40`` (continuous, 100x500): 48 replicates of small
    sweeps.  Loads per-call overheads: the per-column Python ``precompute``
    (~20%) and two full sweeps per replicate.  Bypasses all file parsing.
    A kernel that wins on big tiles and loses on small ones shows here.
``dump_report``
    Packed, n=200, p=1000 (499,500 pairs); ``scan --top-k 10 --dump-all``
    (a 22 MB dump) then ``report`` on the dump.  Loads the dump writer and
    the dump reader side by side (~95% of the time); nowhere else measures
    that path.  The scan itself is ~2%.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# Stream ids keep the workloads' random streams apart for one seed.
_STREAM = {"genome_topk": 1, "csv_threshold": 2, "sim_study": 3, "dump_report": 4}

# Chromosomes 1..22 in contiguous blocks, so `report` has groups to form.
N_CHROMOSOMES = 22


@dataclass
class Prepared:
    """A workload's inputs, commands and the reference its outputs must
    match.  ``commands`` and ``setup`` are argv lists for ``python -m
    jciscan``; ``outputs`` names the files the commands write."""

    name: str
    workdir: Path
    commands: list[list[str]]
    setup: list[str]
    outputs: list[Path]
    pairs: int
    replicates: int = 0
    setup_expected: Path | None = None
    setup_output: Path | None = None
    reference: dict = field(default_factory=dict)
    verified: list[str] | None = None  # digests of outputs that passed check()

    def check(self) -> None:
        """Raise ``checks.CheckFailed`` unless every output matches."""
        _CHECKERS[self.name](self)

    def check_setup(self) -> None:
        """The set-up command's output must equal the benchmark's own bytes."""
        if self.setup_output is not None:
            checks.same_bytes(self.setup_output, self.setup_expected)


# --------------------------------------------------------------------------
# Writers (the benchmark's own; formats as documented in jciscan.dataio)
# --------------------------------------------------------------------------


def write_csv(path: Path, header: list[str], table: np.ndarray, as_int: bool) -> None:
    """Headered CSV; floats as ``repr`` (exact round trip), codes as ints."""
    cell = (lambda v: str(int(v))) if as_int else repr
    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row)) for row in table.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_packed(path: Path, codes: np.ndarray, ids: list[str], chroms: list[int]) -> None:
    """Packed genotype file, format version 1 (see jciscan.dataio)."""
    n, p = codes.shape
    out = [struct.pack("<4sHHQQ", b"JCG1", 1, 0, n, p)]
    for ident, chrom in zip(ids, chroms):
        raw = ident.encode("utf-8")
        out.append(struct.pack("<BH", chrom, len(raw)) + raw)
    bits = np.zeros((p, -(-n // 4) * 4), dtype=np.uint8)
    bits[:, :n] = (codes.T - 1).astype(np.uint8)
    quads = bits.reshape(p, -1, 4)
    packed = quads[:, :, 0] | (quads[:, :, 1] << 2) | (quads[:, :, 2] << 4) | (quads[:, :, 3] << 6)
    out.append(packed.astype(np.uint8).tobytes())
    path.write_bytes(b"".join(out))


def write_phenotype(path: Path, y: np.ndarray) -> None:
    path.write_text("".join(f"{int(v)}\n" for v in y.tolist()), encoding="utf-8")


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------


def genotypes(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Codes 1/2/3 under Hardy-Weinberg with allele frequency in [0.1, 0.5];
    no column is constant."""
    maf = rng.uniform(0.1, 0.5, size=p)
    codes = 1 + rng.binomial(2, maf, size=(n, p))
    constant = np.all(codes == codes[0], axis=0)
    codes[0, constant] = np.where(codes[0, constant] == 1, 2, 1)
    return codes.astype(np.uint8)


def planted_phenotype(rng: np.random.Generator, codes: np.ndarray, pair) -> np.ndarray:
    """Case/control 1/2: case odds follow the sign of the pair's centred
    genotype product, so the pair's joint cumulant stands far above the
    null maximum."""
    a, b = pair
    z = (codes[:, a].astype(np.float64) - 2.0) * (codes[:, b].astype(np.float64) - 2.0)
    case = rng.random(codes.shape[0]) < 0.5 + 0.45 * np.sign(z)
    return np.where(case, 2.0, 1.0)


def _genome_files(workdir: Path, rng, n: int, p: int):
    codes = genotypes(rng, n, p)
    pair = tuple(sorted(rng.choice(p, size=2, replace=False).tolist()))
    # The planted pair gets allele frequency 0.5, where its centred product
    # varies most: at n=1000 its score is then >= 0.39 on 100 seeds, the null
    # maximum ~0.16.  At a rare allele the signal could fall to the null's.
    codes[:, list(pair)] = 1 + rng.binomial(2, 0.5, size=(n, 2))
    y = planted_phenotype(rng, codes, pair)
    chroms = [1 + (j * N_CHROMOSOMES) // p for j in range(p)]
    ids = [f"rs{j}" for j in range(p)]
    labels = [f"ch{c}:{i}" for c, i in zip(chroms, ids)]
    write_csv(workdir / "genotypes.csv", labels, codes, as_int=True)
    write_packed(workdir / "expected.jcg", codes, ids, chroms)
    write_phenotype(workdir / "pheno.txt", y)
    ref = checks.reference_scores(codes.astype(np.float64), y)
    return ref, labels, chroms, pair


def prepare(name: str, workdir: Path, seed: int) -> Prepared:
    """Write the workload's inputs into ``workdir`` and compute its
    reference (untimed)."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _STREAM[name]])
    w = workdir
    one_worker = ["--workers", "1"]
    if name == "genome_topk":
        ref, labels, _, pair = _genome_files(w, rng, 1000, 2000)
        return Prepared(
            name, w,
            commands=[["scan", str(w / "expected.jcg"), "--phenotype", str(w / "pheno.txt"),
                       "--top-k", "100", "--out", str(w / "top.csv"), *one_worker]],
            setup=["convert", "--from", "csv", "--to", "packed",
                   str(w / "genotypes.csv"), str(w / "converted.jcg")],
            setup_expected=w / "expected.jcg", setup_output=w / "converted.jcg",
            outputs=[w / "top.csv"], pairs=ref.size,
            reference={"scores": ref, "labels": labels, "planted": pair, "top_k": 100},
        )
    if name == "csv_threshold":
        n, p = 200, 1500
        x = rng.normal(size=(n, p)) * rng.uniform(0.5, 5.0, size=p) + rng.uniform(-10, 10, size=p)
        a, b = sorted(rng.choice(p, size=2, replace=False).tolist())
        za = (x[:, a] - x[:, a].mean()) / x[:, a].std()
        zb = (x[:, b] - x[:, b].mean()) / x[:, b].std()
        y = za * zb + rng.normal(size=n)
        labels = [f"x{j}" for j in range(p)]
        write_csv(w / "data.csv", labels + ["y"], np.column_stack([x, y]), as_int=False)
        ref = checks.reference_scores(x, y)
        return Prepared(
            name, w,
            commands=[["scan", str(w / "data.csv"), "--response-column", "y", "--top-k", "100",
                       "--threshold", "0.1", "--out", str(w / "top.csv"), *one_worker]],
            setup=["--help"],
            outputs=[w / "top.csv"], pairs=ref.size,
            reference={"scores": ref, "labels": labels, "top_k": 100, "threshold": 0.1},
        )
    if name == "sim_study":
        sim_seed = str(int(rng.integers(0, 2**31)))
        # (study, reps, n, p): sizes are passed, not left to the designs' defaults.
        runs = [(1, 8, 200, 1000), (5, 40, 100, 500)]
        outs = [w / f"study{s}.csv" for s, *_ in runs]
        return Prepared(
            name, w,
            commands=[["simulate", "--study", str(s), "--reps", str(r), "--n", str(n),
                       "--p", str(p), "--seed", sim_seed, "--out-summary", str(out), *one_worker]
                      for (s, r, n, p), out in zip(runs, outs)],
            setup=["--help"],
            outputs=outs,
            # Each replicate scores every pair of its design once.
            pairs=sum(r * (p * (p - 1) // 2) for _, r, _, p in runs),
            replicates=sum(r for _, r, _, _ in runs),
        )
    if name == "dump_report":
        ref, labels, chroms, _ = _genome_files(w, rng, 200, 1000)
        return Prepared(
            name, w,
            commands=[
                ["scan", str(w / "expected.jcg"), "--phenotype", str(w / "pheno.txt"),
                 "--top-k", "10", "--out", str(w / "top.csv"), "--dump-all", str(w / "dump.csv"),
                 *one_worker],
                ["report", "--scores", str(w / "dump.csv"), "--out-histogram", str(w / "hist.csv"),
                 "--out-groups", str(w / "groups.csv")],
            ],
            setup=["convert", "--from", "csv", "--to", "packed",
                   str(w / "genotypes.csv"), str(w / "converted.jcg")],
            setup_expected=w / "expected.jcg", setup_output=w / "converted.jcg",
            outputs=[w / "top.csv", w / "dump.csv", w / "hist.csv", w / "groups.csv"],
            pairs=ref.size,
            reference={"scores": ref, "labels": labels, "chroms": chroms, "top_k": 10},
        )
    raise KeyError(name)


# --------------------------------------------------------------------------
# Output checks per workload
# --------------------------------------------------------------------------


def _check_genome_topk(w: Prepared) -> None:
    ref = w.reference
    top = checks.check_scan_output(w.outputs[0], ref["scores"], ref["labels"], ref["top_k"], None)
    if top[0] != tuple(ref["planted"]):
        raise checks.CheckFailed(f"planted pair {ref['planted']} is not rank 1 (got {top[0]})")


def _check_csv_threshold(w: Prepared) -> None:
    ref = w.reference
    checks.check_scan_output(w.outputs[0], ref["scores"], ref["labels"], ref["top_k"],
                             ref["threshold"])


def _check_sim_study(w: Prepared) -> None:
    outputs = [path.read_bytes() for path in w.outputs]
    first = w.reference.setdefault("first_outputs", outputs)
    if outputs != first:
        raise checks.CheckFailed("simulate summaries differ between runs")
    checks.check_study1_summary(w.outputs[0])


def _check_dump_report(w: Prepared) -> None:
    ref = w.reference
    top, dump, hist, groups = w.outputs
    checks.check_scan_output(top, ref["scores"], ref["labels"], ref["top_k"], None)
    checks.check_dump(dump, ref["scores"], ref["labels"], ref["chroms"])
    checks.check_report(hist, groups, ref["scores"], ref["chroms"])


_CHECKERS = {
    "genome_topk": _check_genome_topk,
    "csv_threshold": _check_csv_threshold,
    "sim_study": _check_sim_study,
    "dump_report": _check_dump_report,
}

WORKLOADS = tuple(_CHECKERS)
