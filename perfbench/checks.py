"""Reference scores and output checks.

The reference is the score's formula in plain numpy float64, computed from
the generated inputs and nothing of jciscan's:

    r_hat(j1, j2) = sqrt(n) * |sum_i xc_j1,i * xc_j2,i * yc_i| / sqrt(css_j1 * css_j2 * css_y)

with xc, yc the columns minus their means and css their centered sums of
squares.  All pairs come out of one ``(yc * Xc).T @ Xc`` product; its
summation order differs from the program's, so values are compared with a
relative tolerance, and set membership is only allowed to differ for pairs
whose reference score is within ``TIE_TOL`` of the boundary.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

#: Relative tolerance of a reported r_hat against the reference ...
RTOL = 1e-9
#: ... plus this absolute slack, for scores of pairs near zero in a dump.
ATOL = 1e-12
#: Pairs this close to the k-th score or to the threshold may fall on
#: either side of it.
TIE_TOL = 1e-12


class CheckFailed(Exception):
    """An output does not match the reference."""


def reference_scores(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every pair's r_hat, flat in canonical order (0,1), (0,2), ..., (p-2,p-1)."""
    n, p = x.shape
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    css = np.einsum("ij,ij->j", xc, xc)
    sums = (xc * yc[:, None]).T @ xc
    j1, j2 = np.triu_indices(p, 1)
    return np.sqrt(n) * np.abs(sums[j1, j2]) / np.sqrt(css[j1] * css[j2] * (yc @ yc))


def canonical_index(j1: np.ndarray, j2: np.ndarray, p: int) -> np.ndarray:
    return j1 * p - j1 * (j1 + 1) // 2 + (j2 - j1 - 1)


def _close(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.abs(got - want) <= RTOL * np.abs(want) + ATOL


def same_bytes(got: Path, want: Path) -> None:
    if not got.is_file():
        raise CheckFailed(f"{got.name} was not written")
    if got.read_bytes() != want.read_bytes():
        raise CheckFailed(f"{got.name} differs from {want.name}")


def _parse_rows(rows: list[str], index: dict[str, int]):
    """(j1, j2, r_hat) arrays of ``snp1,snp2,r_hat`` rows."""
    try:
        cells = [row.split(",") for row in rows]
        j1 = np.array([index[c[0]] for c in cells], dtype=np.int64)
        j2 = np.array([index[c[1]] for c in cells], dtype=np.int64)
        r = np.array([float(c[2]) for c in cells], dtype=np.float64)
    except (KeyError, IndexError, ValueError) as exc:
        raise CheckFailed(f"malformed result row: {exc}") from None
    if np.any(j1 >= j2):
        raise CheckFailed("result row with j1 >= j2")
    return j1, j2, r


def _check_section(what: str, idx: np.ndarray, r: np.ndarray, scores: np.ndarray) -> None:
    bad = ~_close(r, scores[idx])
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"{what} row {i}: r_hat {r[i]!r} vs reference {scores[idx[i]]!r}")
    # Ordering contract: r_hat descending, then (j1, j2) ascending, which
    # is canonical index ascending.  Strictness also rules out duplicates.
    ordered = (r[:-1] > r[1:]) | ((r[:-1] == r[1:]) & (idx[:-1] < idx[1:]))
    if not ordered.all():
        raise CheckFailed(f"{what} rows out of order at row {int(np.argmin(ordered)) + 1}")


def _check_membership(what: str, idx: np.ndarray, scores: np.ndarray, bound: float, strict: bool):
    """Output set == {pairs above ``bound``}, except within TIE_TOL of it."""
    chosen = np.zeros(scores.size, dtype=bool)
    chosen[idx] = True
    missing = (scores > bound + TIE_TOL) & ~chosen
    low = scores[idx] <= bound - TIE_TOL if strict else scores[idx] < bound - TIE_TOL
    if missing.any() or low.any():
        raise CheckFailed(
            f"{what} set differs from the reference: {int(missing.sum())} missing, "
            f"{int(low.sum())} below the bound"
        )


def check_scan_output(path: Path, scores: np.ndarray, labels: list[str], top_k, threshold):
    """Check a ``scan --out`` file; return its top-k pairs as (j1, j2)."""
    p = len(labels)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "snp1,snp2,r_hat":
        raise CheckFailed(f"{path.name}: bad header")
    body = lines[1:]
    marker = f"# pairs with r_hat > {threshold!r}"
    if threshold is not None and top_k is not None:
        if marker not in body:
            raise CheckFailed(f"{path.name}: threshold section marker missing")
        cut = body.index(marker)
        top_rows, thr_rows = body[:cut], body[cut + 1 :]
    elif threshold is not None:
        top_rows, thr_rows = [], body
    else:
        top_rows, thr_rows = body, []
    index = {label: j for j, label in enumerate(labels)}
    top: list[tuple[int, int]] = []
    if top_k is not None:
        j1, j2, r = _parse_rows(top_rows, index)
        if r.size != min(top_k, scores.size):
            raise CheckFailed(f"top-k section has {r.size} rows, want {top_k}")
        idx = canonical_index(j1, j2, p)
        _check_section("top-k", idx, r, scores)
        kth = -np.partition(-scores, top_k - 1)[top_k - 1]
        _check_membership("top-k", idx, scores, kth, strict=False)
        top = list(zip(j1.tolist(), j2.tolist()))
    if threshold is not None:
        j1, j2, r = _parse_rows(thr_rows, index)
        idx = canonical_index(j1, j2, p)
        _check_section("threshold", idx, r, scores)
        _check_membership("threshold", idx, scores, threshold, strict=True)
    return top


def check_dump(path: Path, scores: np.ndarray, labels: list[str], chroms: list[int]) -> None:
    """Every pair once, canonical order, right labels, r_hat as the reference."""
    p = len(labels)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "snp1,snp2,chrom1,chrom2,r_hat":
        raise CheckFailed(f"{path.name}: bad header")
    if len(lines) - 1 != scores.size:
        raise CheckFailed(f"dump has {len(lines) - 1} rows, want {scores.size}")
    chrom_text = [str(c) for c in chroms]
    values: list[str] = []
    pos = 1
    for j1 in range(p - 1):
        m = p - 1 - j1
        cols = list(zip(*(line.split(",") for line in lines[pos : pos + m])))
        if (
            len(cols) != 5
            or cols[0] != (labels[j1],) * m
            or cols[1] != tuple(labels[j1 + 1 :])
            or cols[2] != (chrom_text[j1],) * m
            or cols[3] != tuple(chrom_text[j1 + 1 :])
        ):
            raise CheckFailed(f"dump rows of anchor {j1} are malformed or out of order")
        values.extend(cols[4])
        pos += m
    try:
        r = np.array(values, dtype=np.float64)
    except ValueError as exc:
        raise CheckFailed(f"dump r_hat: {exc}") from None
    bad = ~_close(r, scores)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"dump row {i}: r_hat {r[i]!r} vs reference {scores[i]!r}")


def _read_csv_rows(path: Path, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header.split(","):
        raise CheckFailed(f"{path.name}: bad header")
    return rows[1:]


def check_report(hist: Path, groups: Path, scores: np.ndarray, chroms: list[int]) -> None:
    """Histogram and group counts sum to the pair count; maxima match."""
    top = scores.max()
    try:
        bins = _read_csv_rows(hist, "bin_lo,bin_hi,count")
        counts = [int(b[2]) for b in bins]
        hi = float(bins[-1][1])
        rows = _read_csv_rows(groups, "chrom1,chrom2,pairs,mean_r_hat,max_r_hat")
        got = {(int(g[0]), int(g[1])): (int(g[2]), float(g[3]), float(g[4])) for g in rows}
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"malformed report: {exc}") from None
    if sum(counts) != scores.size:
        raise CheckFailed(f"histogram counts sum to {sum(counts)}, want {scores.size}")
    if not _close(np.array(hi), top):
        raise CheckFailed(f"histogram top edge {hi!r} vs reference max {top!r}")

    c = np.asarray(chroms, dtype=np.int64)
    j1, j2 = np.triu_indices(c.size, 1)
    key = c[j1] * 256 + c[j2]
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    want_count = np.diff(np.append(starts, key.size))
    want_sum = np.add.reduceat(scores[order], starts)
    want_max = np.maximum.reduceat(scores[order], starts)
    want = {
        (int(k) // 256, int(k) % 256): (int(cnt), s / cnt, mx)
        for k, cnt, s, mx in zip(keys, want_count, want_sum, want_max)
    }
    if sum(v[0] for v in got.values()) != scores.size:
        raise CheckFailed("group pair counts do not sum to the pair count")
    if got.keys() != want.keys():
        raise CheckFailed("report groups differ from the reference groups")
    for k, (cnt, mean, mx) in got.items():
        wc, wmean, wmx = want[k]
        if cnt != wc or not _close(np.array([mean, mx]), np.array([wmean, wmx])).all():
            raise CheckFailed(f"group {k}: ({cnt}, {mean!r}, {mx!r}) vs reference {want[k]}")
    if not _close(np.array(max(v[2] for v in got.values())), top):
        raise CheckFailed("group maximum differs from the reference max")


def check_study1_summary(path: Path) -> None:
    """Study 1's true pair must sit at mean rank 1.0."""
    rows = _read_csv_rows(path, "pair,mean_rank,median_rank,top5_pct")
    if not rows or rows[0][:2] != ["(1,2)", "1.0"]:
        raise CheckFailed(f"study 1 true pair not at mean rank 1.0: {rows[:1]}")
