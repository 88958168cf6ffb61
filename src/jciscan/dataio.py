"""Dataset parsing and serialization: numeric CSV, packed genotypes and
the CSV tables the command line writes (every file the CLI opens goes
through :func:`_open` here).

CSV
---
RFC-4180-style text with a mandatory header row.  One column may be the
response; remaining columns are numeric predictors in header order.
Writes use 17 significant digits so parse(write(x)) reproduces float64
values exactly.  Non-numeric cells are rejected (no imputation for text
input).

Packed genotype format
----------------------
A self-describing little-endian binary layout for n x p genotype code
matrices (codes 1=AA, 2=AB/BA, 3=BB):

    magic   4 bytes  "JCG1"
    version u16      1
    flags   u16      bit 0: file may contain missing codes
    n       u64      samples
    p       u64      predictor columns
    meta    per column: chromosome u8, id length u16, id bytes (UTF-8)
    payload column-major, 4 codes per byte, 2 bits each, low bits first:
            00 -> code 1, 01 -> code 2, 10 -> code 3, 11 -> missing;
            each column padded with zero bits to a byte boundary

Missing codes are never stored in a decoded matrix: the parser either
rejects them (default) or imputes the column's modal code.  Writing is
deterministic; identical matrices produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    InvalidValue,
    MissingGenotype,
    MissingResponse,
    NotPackedFile,
    ParseError,
    TruncatedFile,
)

MAGIC = b"JCG1"
FORMAT_VERSION = 1
FLAG_MISSING_ALLOWED = 0x0001

_HEADER = struct.Struct("<4sHHQQ")
_COLUMN_META = struct.Struct("<BH")
#: Largest single read of a packed payload from a stream that cannot seek.
_READ_CHUNK = 16 * 2**20

#: 2-bit encodings: code value -> bit pair (code - 1); 0b11 marks missing.
MISSING_BITS = 0b11

#: Bit offset of each of the four 2-bit slots in a payload byte, low bits first.
_SLOT_SHIFTS = np.arange(4, dtype=np.uint8) * 2

CSV_FLOAT_DIGITS = 17

#: Header of the score dump that ``scan --dump-all`` writes and ``report``
#: reads: one row per pair, r_hat written as the shortest round-trip float.
DUMP_HEADER = ("snp1", "snp2", "chrom1", "chrom2", "r_hat")


@dataclass(frozen=True, eq=False)
class GenotypeMatrix:
    """n x p genotype codes plus per-column SNP id and chromosome label.

    ``codes`` is uint8 with every entry in {1, 2, 3}; chromosome uses the
    1-23 numbering (23 = X), 0 when unknown.
    """

    codes: np.ndarray
    snp_ids: tuple[str, ...]
    chromosomes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise InvalidValue(f"codes must be 2-D, got shape {self.codes.shape}")
        n, p = self.codes.shape
        if n < 1 or p < 1:
            raise InvalidValue(f"matrix must be non-empty, got {n} x {p}")
        if len(self.snp_ids) != p or len(self.chromosomes) != p:
            raise InvalidValue("metadata length must equal the column count")
        # Reductions, not an elementwise mask: no n x p temporaries.
        if not (self.codes.min() >= 1 and self.codes.max() <= 3):
            raise InvalidValue("genotype codes must lie in {1, 2, 3}")

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def p(self) -> int:
        return self.codes.shape[1]

    def column_label(self, j: int) -> str:
        """Display id of column j: "ch<chrom>:<id>", or the bare id when
        the chromosome is unknown."""
        chrom = self.chromosomes[j]
        return f"ch{chrom}:{self.snp_ids[j]}" if chrom else self.snp_ids[j]


def parse_column_label(label: str) -> tuple[int, str]:
    """Split "ch<k>:<id>" into (k, id); anything else maps to (0, label)."""
    if label.startswith("ch"):
        head, sep, rest = label.partition(":")
        if sep and rest and head[2:].isdigit():
            return int(head[2:]), rest
    return 0, label


def payload_bytes(n: int, p: int) -> int:
    """Packed payload size: p columns of ceil(n/4) bytes."""
    return p * ((n + 3) // 4)


@contextlib.contextmanager
def _open(stream, mode: str):
    """Context manager over ``stream``, the one place a file is opened.

    A path is opened in ``mode`` (text modes as UTF-8 with ``newline=""``)
    and closed on exit; an already open file object (``sys.stdout`` too) is
    passed through and left open.  Text that fails to decode as UTF-8, or
    that the ``csv`` module cannot split (a cell over its field size
    limit), raises :class:`FormatError` from inside the block.
    """
    is_path = isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__")
    name = repr(os.fspath(stream) if is_path else getattr(stream, "name", "input"))
    try:
        if is_path:
            text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
            with open(stream, mode, **text) as fh:
                yield fh
        else:
            yield stream
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name} is not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise FormatError(f"{name} is not a readable CSV table: {exc}") from None


def write_table(stream, header, rows) -> None:
    """Write a CSV table: ``header``, then each row of ``rows`` as it is
    drawn (an iterator streams).  Cells are written with ``str``, so
    float cells must be Python floats; lines end in "\\n"."""
    with _open(stream, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------


def parse_number(text: str, row: int, column: int, what: str) -> float:
    """Parse one text cell as a finite float.

    ``row``/``column`` are the 0-based position reported on failure and
    ``what`` names the kind of input (cell, phenotype, r_hat).

    Raises:
        ParseError: ``text`` is not a number, or is NaN or infinite.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(
            row,
            column,
            f"bad {what} {text!r} at data row {row}, column {column}: not a finite number",
        )
    return value


def parse_csv(stream, response_column: str | None):
    """Parse a headered numeric CSV.

    Returns ``(matrix, response, predictor_names)`` where ``matrix`` is an
    n x p float64 array in header order and ``response`` is None when
    ``response_column`` is None.

    Raises:
        FormatError: no header, empty data section, or ragged rows.
        MissingResponse: ``response_column`` not in the header.
        ParseError: a non-numeric cell (0-based data row / file column).
    """
    with _open(stream, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("empty file: missing header row") from None
        if not header or any(name.strip() == "" for name in header):
            raise FormatError("malformed header: empty column name")
        resp_idx: int | None = None
        if response_column is not None:
            try:
                resp_idx = header.index(response_column)
            except ValueError:
                raise MissingResponse(
                    f"response column {response_column!r} not found in header"
                ) from None

        rows: list[list[float]] = []
        for r, record in enumerate(reader):
            if len(record) != len(header):
                raise FormatError(
                    f"row {r} has {len(record)} cells, header has {len(header)}"
                )
            rows.append([parse_number(cell, r, c, "cell") for c, cell in enumerate(record)])
        if not rows:
            raise FormatError("no data rows after the header")

        table = np.asarray(rows, dtype=np.float64)
        if resp_idx is None:
            return table, None, list(header)
        pred_cols = [j for j in range(len(header)) if j != resp_idx]
        names = [header[j] for j in pred_cols]
        return table[:, pred_cols], table[:, resp_idx], names


def write_csv(stream, matrix, names, response=None, response_name: str = "y") -> None:
    """Write a numeric CSV (17 significant digits, exact round trip).

    The response column, when given, is appended after the predictors.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise InvalidValue(f"matrix must be 2-D, got shape {matrix.shape}")
    if len(names) != matrix.shape[1]:
        raise InvalidValue("one name per predictor column is required")
    if response is not None and len(response) != matrix.shape[0]:
        raise InvalidValue(
            f"response has {len(response)} entries, matrix has {matrix.shape[0]} rows"
        )
    header = list(names) + ([response_name] if response is not None else [])
    fmt = f".{CSV_FLOAT_DIGITS}g"

    def rows():
        for i in range(matrix.shape[0]):
            row = [format(v, fmt) for v in matrix[i].tolist()]
            if response is not None:
                row.append(format(float(response[i]), fmt))
            yield row

    write_table(stream, header, rows())


def read_phenotype(stream) -> np.ndarray:
    """Read a phenotype vector: plain text, one finite real per line."""
    with _open(stream, "r") as fh:
        lines = enumerate(line.strip() for line in fh)
        values = [parse_number(text, i, 0, "phenotype") for i, text in lines if text]
    if not values:
        raise FormatError("empty phenotype file")
    return np.asarray(values, dtype=np.float64)


def read_score_dump(stream):
    """Yield ``(chrom1, chrom2, r_hat)`` for each data row of a score dump
    (the :data:`DUMP_HEADER` table), one row at a time in file order.

    Raises:
        FormatError: the header is not :data:`DUMP_HEADER`, a row does not
            have one cell per header column, or there are no data rows.
        ParseError: an ``r_hat`` that is not a finite number.
    """
    with _open(stream, "r") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != DUMP_HEADER:
            raise FormatError("not a score dump: unexpected header")
        i = -1
        for i, row in enumerate(reader):
            if len(row) != len(DUMP_HEADER):
                raise FormatError(f"score dump row {i} has {len(row)} cells")
            yield row[2], row[3], parse_number(row[4], i, 4, "r_hat")
        if i < 0:
            raise FormatError("score dump has no data rows")


# --------------------------------------------------------------------------
# Packed genotypes
# --------------------------------------------------------------------------


def write_packed(matrix: GenotypeMatrix, stream) -> None:
    """Serialize a genotype matrix to the packed layout (no timestamps,
    deterministic bytes)."""
    with _open(stream, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0, matrix.n, matrix.p))
        for snp_id, chrom in zip(matrix.snp_ids, matrix.chromosomes):
            encoded = snp_id.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise InvalidValue(f"SNP id too long to encode: {snp_id[:32]!r}...")
            if not (0 <= chrom <= 0xFF):
                raise InvalidValue(f"chromosome code {chrom} outside u8 range")
            fh.write(_COLUMN_META.pack(chrom, len(encoded)))
            fh.write(encoded)
        # Column-major bit pairs, each column zero-padded to whole bytes;
        # shifted in place so the only copies are the bits and the bytes.
        bits = np.zeros((matrix.p, payload_bytes(matrix.n, 1) * 4), dtype=np.uint8)
        bits[:, : matrix.n] = matrix.codes.T
        bits[:, : matrix.n] -= 1
        grouped = bits.reshape(matrix.p, -1, 4)
        grouped <<= _SLOT_SHIFTS
        fh.write(np.bitwise_or.reduce(grouped, axis=2).tobytes())


def parse_packed(stream, missing_policy: str = "reject") -> GenotypeMatrix:
    """Decode a packed genotype file.

    ``missing_policy`` is "reject" (error on the first missing code) or
    "impute" (replace each missing entry with the column's modal code,
    ties broken toward the smaller code).

    Raises:
        NotPackedFile: bad magic, unsupported version, or file too short
            to hold the header.
        TruncatedFile: metadata or payload ends early.
        MissingGenotype: a missing code under the reject policy, or a
            fully missing column under impute.
    """
    if missing_policy not in ("reject", "impute"):
        raise InvalidValue(f"missing_policy must be 'reject' or 'impute', got {missing_policy!r}")
    with _open(stream, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise NotPackedFile("file too short for a packed header")
        magic, version, _flags, n, p = _HEADER.unpack(head)
        if magic != MAGIC:
            raise NotPackedFile(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise NotPackedFile(f"unsupported format version {version}")
        if n < 1 or p < 1:
            raise FormatError(f"declared shape {n} x {p} is empty")

        snp_ids: list[str] = []
        chroms: list[int] = []
        for j in range(p):
            meta = fh.read(_COLUMN_META.size)
            if len(meta) < _COLUMN_META.size:
                raise TruncatedFile(_COLUMN_META.size, len(meta))
            chrom, id_len = _COLUMN_META.unpack(meta)
            raw_id = fh.read(id_len)
            if len(raw_id) < id_len:
                raise TruncatedFile(id_len, len(raw_id))
            try:
                snp_ids.append(raw_id.decode("utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"column {j} id is not valid UTF-8") from None
            chroms.append(chrom)

        # A declared shape larger than the file never sizes an allocation:
        # a seekable stream is checked up front, and every stream is read in
        # bounded chunks until it ends.
        expected = payload_bytes(n, p)
        left = _bytes_left(fh)
        if left is not None and left < expected:
            raise TruncatedFile(expected, left)
        payload = _read_chunked(fh, expected)
        if len(payload) < expected:
            raise TruncatedFile(expected, len(payload))

        raw = np.frombuffer(payload, dtype=np.uint8).reshape(p, -1)
        # (p, col_bytes, 4) 2-bit groups, low bits first, flattened per column.
        groups = (raw[:, :, None] >> _SLOT_SHIFTS) & 0b11
        codes = groups.reshape(p, -1)[:, :n].T.astype(np.uint8) + 1

        missing = codes == MISSING_BITS + 1
        if missing.any():
            if missing_policy == "reject":
                rows, cols = np.nonzero(missing)
                first = np.lexsort((rows, cols))[0]
                raise MissingGenotype(column=int(cols[first]), row=int(rows[first]))
            for j in np.nonzero(missing.any(axis=0))[0]:
                col_missing = missing[:, j]
                present = codes[~col_missing, j]
                if present.size == 0:
                    raise MissingGenotype(column=int(j), row=0)
                counts = np.bincount(present, minlength=4)
                codes[col_missing, j] = int(np.argmax(counts[1:4])) + 1
        codes.setflags(write=False)
        return GenotypeMatrix(codes=codes, snp_ids=tuple(snp_ids), chromosomes=tuple(chroms))


def _bytes_left(fh) -> int | None:
    """Bytes from the position of ``fh`` to its end; None when the stream
    cannot seek."""
    if not fh.seekable():
        return None
    here = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(here)
    return end - here


def _read_chunked(fh, size: int) -> bytearray:
    """Up to ``size`` bytes of ``fh``, read at most ``_READ_CHUNK`` at a
    time; fewer when the stream ends first."""
    data = bytearray()
    while len(data) < size:
        chunk = fh.read(min(_READ_CHUNK, size - len(data)))
        if not chunk:
            break
        data += chunk
    return data


def is_packed(path) -> bool:
    """True when the file starts with the packed-genotype magic bytes."""
    with _open(path, "rb") as fh:
        return fh.read(len(MAGIC)) == MAGIC


def _not_codes(arr: np.ndarray) -> np.ndarray:
    """Mask of the cells outside the genotype domain {1, 2, 3}."""
    return ~((arr == 1) | (arr == 2) | (arr == 3))


def is_genotype(matrix) -> bool:
    """Whether a non-empty float matrix holds only genotype codes, so that
    :func:`genotype_from_floats` accepts it."""
    arr = np.asarray(matrix, dtype=np.float64)
    return arr.size > 0 and not _not_codes(arr).any()


def genotype_from_floats(matrix, names) -> GenotypeMatrix:
    """Build a GenotypeMatrix from float cells, validating the {1,2,3}
    domain.  Column labels of the form "ch<k>:<id>" populate chromosome
    metadata.

    Raises:
        ParseError: first cell (row, column) outside the genotype domain.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    bad = _not_codes(arr)
    if bad.any():
        rows, cols = np.nonzero(bad)
        r, c = int(rows[0]), int(cols[0])
        raise ParseError(r, c, f"value {arr[r, c]!r} at data row {r}, column {c} is not a genotype code")
    parsed = [parse_column_label(name) for name in names]
    return GenotypeMatrix(
        codes=arr.astype(np.uint8),
        snp_ids=tuple(ident for _, ident in parsed),
        chromosomes=tuple(chrom for chrom, _ in parsed),
    )
