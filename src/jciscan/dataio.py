"""Dataset parsing and serialization: numeric CSV, packed genotypes and
the CSV tables the command line writes (every file the CLI opens goes
through :func:`_open` here).

CSV
---
RFC-4180-style UTF-8 text with a mandatory header row; a leading
byte-order mark is dropped.  One column may be the response; remaining
columns are numeric predictors in header order.  A cell is a number by
Python's ``float()`` and must be finite (:func:`parse_number`): that rule
defines every value and every error.  The data section is read in blocks
of whole lines, about :data:`_CSV_BLOCK_CHARS` characters each.  A line
of single digits, one per header column (a genotype or dosage table),
has one byte layout, :func:`_digit_line`, read and written: a block of
such lines is decoded straight from its bytes as uint8 digits, widened
to float64 only when the parsed blocks are joined, and :func:`write_csv`
writes a block of digit cells by the same layout.  Any other plain
block (ASCII ``0-9 + - . e E``, commas and line ends only, no blank
line, no cell over ``csv.field_size_limit()``) is converted by numpy's C
reader, which rounds a number as ``float()`` does; it is kept when it
gives one finite value per header column.  The first block that is not
kept, and the rest of the stream, are walked row by row with
``csv.reader``, one numpy call per row, and only a row with a bad cell is
walked cell by cell to name it.  Any other written block is formatted
cell by cell with 17 significant digits, so parse(write(x)) reproduces
float64 values exactly.  Non-numeric cells are rejected (no imputation
for text input).

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
Reading has two steps.  :func:`_open_payload` reads the header and
metadata and checks once that the payload is all there, measuring a
seekable source by seeking to its end; a source that cannot seek (a
pipe) is read to its end once and its payload held in memory.  The
source's length, never the declared shape, sizes what is read.
:meth:`PackedGenotypes._payload_blocks` is then the one reader of payload
bytes, a run of columns at a time, and :func:`_walk_width` the one rule
for the columns of a run, here and in :func:`~jciscan.scan.precompute`.
:func:`open_packed` opens a file for a column walk
(:class:`PackedGenotypes`) after a missing-code check over those blocks;
:func:`parse_packed` fills one n x p array from the same walk, so
``convert --from packed --to csv`` still decodes the whole matrix.

This module owns the one 2-bit codec of this payload and of the exact
route's code store (:class:`~jciscan.scan.CodeWorkspace`):
:func:`_pack_codes` writes code - 1 in a file, the code itself in the
store, and :func:`_unpack_codes` reads either.  The payload decoder
unpacks a block's transposed bytes, drops the slots past row n whatever
they hold, and adds 1.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import re
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

#: 2-bit encodings: code value -> bit pair (code - 1); 0b11 marks missing.
MISSING_BITS = 0b11

CSV_FLOAT_DIGITS = 17
#: Characters of CSV data read per block: whole lines, at least this many
#: unless the stream ends first.
_CSV_BLOCK_CHARS = 256 * 2**10
#: The bytes of a plain CSV block of unsigned integers; a plain block may
#: also hold the bytes of :data:`_FLOAT_MARKS`.
_INTEGER_BYTES = b"0123456789,\r\n"
_FLOAT_MARKS = b"+-.eE"
#: Cells :func:`write_csv` writes per block of rows.
_WRITE_CELLS = 2**14

#: Header of the score dump that ``scan --dump-all`` writes and ``report``
#: reads: one row per pair, r_hat written as the shortest round-trip float.
DUMP_HEADER = ("snp1", "snp2", "chrom1", "chrom2", "r_hat")

#: A "ch<k>:<id>" label: k in ASCII digits without a leading zero.
_CHROM_LABEL = re.compile(r"ch([1-9][0-9]{0,2}):(.+)", re.DOTALL)


@dataclass(frozen=True, eq=False)
class GenotypeMatrix:
    """n x p genotype codes plus per-column SNP id and chromosome label.

    ``codes`` is uint8 (narrowed from any integer dtype) with every entry
    in {1, 2, 3}; chromosome uses the 1-23 numbering (23 = X), 0 when unknown.
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
        if self.codes.dtype.kind not in "iu":
            raise InvalidValue(f"integer codes needed, got {self.codes.dtype}; see jciscan.dataio.genotype_from_floats")
        # Reductions, not an elementwise mask: no n x p temporaries.
        if not (self.codes.min() >= 1 and self.codes.max() <= 3):
            raise InvalidValue("genotype codes must lie in {1, 2, 3}")
        object.__setattr__(self, "codes", self.codes.astype(np.uint8, copy=False))

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
    """Split "ch<k>:<id>" into (k, id), k written in ASCII digits without a
    leading zero and in 1-255 (a u8 code); anything else maps to (0, label),
    so :meth:`GenotypeMatrix.column_label` gives every label back whole."""
    match = _CHROM_LABEL.fullmatch(label)
    if match and int(match[1]) <= 255:
        return int(match[1]), match[2]
    return 0, label


def payload_bytes(n: int, p: int) -> int:
    """Packed payload size: p columns of ceil(n/4) bytes."""
    return p * ((n + 3) // 4)


@contextlib.contextmanager
def _open(stream, mode: str):
    """Context manager over ``stream``, the one place a file is opened.

    A path is opened in ``mode`` (text modes as UTF-8 with ``newline=""``;
    a read drops a leading byte-order mark, a write never adds one) and
    closed on exit; an already open file object (``sys.stdout`` too) is
    passed through and left open, a binary one read in a text mode
    through a text wrapper with the path's rules.  Text that fails to
    decode as UTF-8, or that the ``csv`` module cannot split (a cell over
    its field size limit), raises :class:`FormatError` from inside the
    block.
    """
    is_path = isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__")
    name = repr(os.fspath(stream) if is_path else getattr(stream, "name", "input"))
    encoding = "utf-8-sig" if "r" in mode else "utf-8"
    text = {} if "b" in mode else {"encoding": encoding, "newline": ""}
    try:
        if is_path:
            with open(stream, mode, **text) as fh:
                yield fh
        elif text and isinstance(stream, io.BufferedIOBase):
            wrapper = io.TextIOWrapper(stream, **text)
            try:
                yield wrapper
            finally:
                wrapper.detach()  # the caller's stream stays open
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


def _parse_cells(cells: list[str], places, what: str) -> np.ndarray:
    """Parse text cells as finite float64 values, all by one numpy call.

    For ``str`` cells numpy applies Python's ``float()``, the rule of
    :func:`parse_number`.  When a cell fails that rule, :func:`parse_number`
    runs over the cells in order, ``places`` giving each one's ``(row,
    column)``, so the error names the first bad cell.

    Raises:
        ParseError: a cell is not a number, or is NaN or infinite.
    """
    try:
        values = np.array(cells, dtype=np.float64)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([parse_number(cell, *at, what) for cell, at in zip(cells, places)])


def _digit_line(width: int, end: bytes) -> np.ndarray:
    """The one layout of a CSV line of ``width`` single digits ended by
    ``end``, less its digits: each cell's byte pair (``"0"``, separator) as
    a little-endian u16, the separator a comma or, for the last cell, the
    first byte of ``end``.  :func:`_plain_values` subtracts it from a
    line's pairs to read the digits, and :func:`write_csv` adds it to
    digits to write the line."""
    zero = np.full(width, ord("0") | ord(",") << 8, dtype="<u2")
    zero[-1] = ord("0") | end[0] << 8
    return zero


def _plain_values(lines: list[str], width: int) -> np.ndarray | None:
    """The rows of ``lines`` as an n x ``width`` array, or None when the
    block is not plain or does not give ``width`` finite values on every
    line.

    A block whose every line is ``width`` single digits joined by commas,
    all ended by LF or all by CRLF, is decoded straight from its bytes,
    each line's u16 pairs less :func:`_digit_line`: the digits' values
    are returned as uint8, and each is the value ``float()`` gives its
    cell.  Any other plain block is read as float64
    by numpy's C reader, and reads the same as by ``csv.reader`` and
    :func:`parse_number`: its cells hold only ASCII digits, signs, points
    and exponents, which numpy converts with CPython's correctly rounded
    ``PyOS_string_to_double``, the routine behind ``float()``; and it has
    no quote, space or lone carriage return, no blank line (numpy skips
    one, ``csv.reader`` gives a row of no cells) and no cell over the
    ``csv`` field size limit.
    """
    text = "".join(lines)
    if not text.isascii() or "\n" in lines or "\r\n" in lines:
        return None
    raw = text.encode("ascii")
    end = b"\r\n" if lines[0].endswith("\r\n") else b"\n"
    size = 2 * width - 1 + len(end)
    if len(raw) == size * len(lines) and raw[size - 1 :: size] == b"\n" * len(lines):
        # Every line is ``size`` bytes ending in LF.  Less the digit line's
        # template, a pair is its digit's value, and any other pair is at
        # least 10.
        pairs = np.ndarray((len(lines), width), dtype="<u2", buffer=raw, strides=(size, 2))
        values = pairs - _digit_line(width, end)
        if values.max() <= 9:
            return values.astype(np.uint8)
    marks = raw.translate(None, _INTEGER_BYTES)
    if marks.translate(None, _FLOAT_MARKS) or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    limit = csv.field_size_limit()
    if max(map(len, lines)) > limit:  # a line bounds every cell in it
        byte = np.frombuffer(b"\n" + raw + b"\n", dtype=np.uint8)
        ends = np.flatnonzero((byte == ord(",")) | (byte <= ord("\r")))
        if int((ends[1:] - ends[:-1]).max()) - 1 > limit:
            return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _raise_on_next(exc: Exception):
    """An iterator that raises ``exc`` when it is first drawn from."""
    raise exc
    yield  # unreachable: makes this a generator


def _csv_rows(lines, width: int):
    """Yield the data rows that follow a CSV header, in file order, as
    arrays of ``width`` columns: float64, or uint8 for a block of single
    digits.

    ``lines`` is drawn a block at a time.  Each plain block is yielded as
    one array (:func:`_plain_values`).  From the first block that is not,
    the block and the rest of ``lines`` are walked by ``csv.reader`` one
    row at a time (:func:`_parse_cells`), so the per-cell rule names every
    error.  Text that fails to decode while a block is read is raised
    after the block's rows are walked, where the walk would meet it.

    Raises:
        FormatError: a row without ``width`` cells.
        ParseError: a cell that is not a finite number.
    """
    row = 0
    while True:
        block: list[str] = []
        size = 0
        try:
            for line in lines:
                block.append(line)
                size += len(line)
                if size >= _CSV_BLOCK_CHARS:
                    break
        except UnicodeDecodeError as exc:
            lines = _raise_on_next(exc)
            break
        if not block:
            return
        values = _plain_values(block, width)
        if values is None:
            break
        yield values
        row += len(values)
    for r, record in enumerate(csv.reader(itertools.chain(block, lines)), row):
        if len(record) != width:
            raise FormatError(f"row {r} has {len(record)} cells, header has {width}")
        yield _parse_cells(record, ((r, c) for c in range(width)), "cell")[None]


def _csv_header(lines, response_column: str | None):
    """``(header, response index or None)`` from the first CSV record of
    ``lines``, which is drawn past it."""
    try:
        header = next(csv.reader(lines))
    except StopIteration:
        raise FormatError("empty file: missing header row") from None
    if not header or any(name.strip() == "" for name in header):
        raise FormatError("malformed header: empty column name")
    if response_column is None:
        return header, None
    named = header.count(response_column)
    if not named:
        raise MissingResponse(f"response column {response_column!r} not found in header")
    if named > 1:
        raise FormatError(f"response column {response_column!r} is ambiguous: the header names it {named} times")
    return header, header.index(response_column)


def _table_rows(lines, width: int, codes: bool):
    """The blocks of :func:`_csv_rows`, as uint8 genotype codes with
    ``codes`` (:func:`_as_codes`).  A block holding a number that is not a
    code ends the blocks yielded, and its error is raised once every later
    cell has parsed.

    Raises:
        FormatError: no data rows, or as :func:`_csv_rows`.
        ParseError: as :func:`_csv_rows`, then the first non-code number.
    """
    not_code: ParseError | None = None
    rows = 0
    for values in _csv_rows(lines, width):
        if codes and not_code is None:
            try:
                values = _as_codes(values, rows)
            except ParseError as exc:
                not_code = exc
        if not_code is None:
            yield values
        rows += len(values)
    if not rows:
        raise FormatError("no data rows after the header")
    if not_code is not None:
        raise not_code


def parse_csv(stream, response_column: str | None):
    """Parse a headered numeric CSV.

    Returns ``(matrix, response, predictor_names)`` where ``matrix`` is an
    n x p float64 array in header order and ``response`` is an array of
    its own, or None when ``response_column`` is None.

    Raises:
        FormatError: no header, empty data section, ragged rows, or a
            ``response_column`` the header names more than once.
        MissingResponse: ``response_column`` not in the header.
        ParseError: a non-numeric cell (0-based data row / file column).
    """
    with _open(stream, "r") as fh:
        lines = iter(fh)
        header, resp_idx = _csv_header(lines, response_column)
        blocks = list(_table_rows(lines, len(header), codes=False))

    table = np.concatenate(blocks, dtype=np.float64)
    del blocks
    if resp_idx is None:
        return table, None, list(header)
    pred_cols = [j for j in range(len(header)) if j != resp_idx]
    names = [header[j] for j in pred_cols]
    return table[:, pred_cols], table[:, resp_idx].copy(), names


def write_csv(stream, matrix, names, response=None, response_name: str = "y") -> None:
    """Write a numeric CSV (17 significant digits, exact round trip).

    The response column, when given, is appended after the predictors.
    Rows are written about :data:`_WRITE_CELLS` cells at a time, each
    block checked in its own dtype (numpy's promotion of the matrix and
    the response when one is given).  A block whose every cell is a digit
    0-9 (not -0.0, which only a float block can hold) is written in the layout
    :func:`_plain_values` reads, its digits plus :func:`_digit_line`; any
    other block is written cell by cell with ``format(v, ".17g")``, which
    gives the same bytes.

    Raises:
        InvalidValue: before the file is opened, for a shape mismatch, a
            matrix or response dtype other than bool, integer or float, or
            a NaN or infinite cell, which :func:`parse_csv` would reject.
    """
    matrix = _writable(matrix, "matrix")
    if response is not None:
        response = _writable(response, "response")
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
    rows = max(1, _WRITE_CELLS // max(1, len(header)))
    with _open(stream, "w") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for i0 in range(0, matrix.shape[0], rows):
            block = matrix[i0 : i0 + rows]
            if response is not None:
                block = np.column_stack([block, response[i0 : i0 + rows]])
            digit_range = block.size and block.max() <= 9 and block.min() >= 0
            if digit_range and not (block.dtype.kind == "f" and np.signbit(block).any()):  # no -0.0
                digits = block.astype(np.uint8, copy=False)
                if np.array_equal(digits, block):  # every cell integral
                    pairs = (digits + _digit_line(block.shape[1], b"\n")).astype("<u2", copy=False)
                    fh.write(pairs.tobytes().decode("ascii"))
                    continue
            fh.write("".join(",".join(format(v, fmt) for v in row) + "\n" for row in block.tolist()))


def _writable(values, what: str) -> np.ndarray:
    """``values`` as an array whose every cell :func:`write_csv` writes as
    a finite number: bool, integer or float dtype, checked for NaN and
    infinities by one max and one min, with no temporary of its size."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise InvalidValue(f"{what} must be bool, integer or float, got dtype {values.dtype}")
    if values.dtype.kind == "f" and values.size and not np.isfinite([values.max(), values.min()]).all():
        raise InvalidValue(f"{what} holds NaN or infinite values, which parse_csv rejects")
    return values


def read_phenotype(stream) -> np.ndarray:
    """Read a phenotype vector: plain text, one finite real per line.

    The whole file is decoded before any line is parsed, so text that is
    not UTF-8 raises :class:`FormatError` even after a bad number.
    """
    with _open(stream, "r") as fh:
        lines = [(i, text) for i, text in enumerate(line.strip() for line in fh) if text]
    if not lines:
        raise FormatError("empty phenotype file")
    return _parse_cells([text for _, text in lines], ((i, 0) for i, _ in lines), "phenotype")


def write_score_dump(stream, rows, labels, chroms) -> None:
    """Write a score dump (the :data:`DUMP_HEADER` table) from ``rows``,
    an iterable of ``(j1, r_hat)`` with ``r_hat`` the scores of j1 against
    partners ``j1 + 1, j1 + 2, ...``, drawn one item at a time.  Columns
    are named by ``labels`` and ``chroms``.

    The bytes are :func:`write_table`'s.  ``csv.writer`` itself quotes
    each label once, as a cell of a row of two (a lone empty cell would be
    quoted), and each anchor's rows are written as one joined string, each
    score as ``csv.writer`` writes a float, by ``repr``."""
    quoted = _Lines()
    csv.writer(quoted, lineterminator="\n").writerows((label, "") for label in labels)
    names = [line[:-2] for line in quoted]  # less the "," and "\n" after each
    with _open(stream, "w") as fh:
        csv.writer(fh, lineterminator="\n").writerow(DUMP_HEADER)
        for j1, row in rows:
            name1, chrom1 = names[j1], chroms[j1]
            partners = zip(names[j1 + 1 :], chroms[j1 + 1 :], row.tolist())
            lines = [f"{name1},{name2},{chrom1},{chrom2},{score!r}\n" for name2, chrom2, score in partners]
            fh.write("".join(lines))


class _Lines(list):
    """A list that a ``csv.writer`` writes to, one item per row."""

    write = list.append


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


def _pack_codes(codes: np.ndarray, base: int) -> np.ndarray:
    """The rows of uint8 ``codes`` (``base`` to ``base + 3``) packed into
    ceil(rows/4) byte rows, 2 bits per code less ``base``: byte row b holds
    rows 4b..4b+3, row 4b + k in bits 2k and 2k + 1, so the rows k::4 fill
    slot k of every byte at once.  Slots past the last row keep zero bits."""
    packed = codes[::4] - np.uint8(base)
    for k in (1, 2, 3):
        slot = codes[k::4] - np.uint8(base)
        slot *= np.uint8(4**k)  # a shift by 2k: numpy multiplies uint8 ~5x faster than it shifts
        packed[: len(slot)] |= slot
    return packed


def _unpack_codes(packed: np.ndarray, out: np.ndarray, slot_buffer: np.ndarray) -> None:
    """Unpack :func:`_pack_codes`' bytes ``packed`` (bytes x columns) into
    ``out`` (rows x columns, any real dtype), row 4b + k from bits 2k and
    2k + 1 of byte row b, by a shift, a mask and a cast per slot through
    the uint8 ``slot_buffer`` (``packed``'s shape)."""
    slots = out.reshape(len(packed), 4, packed.shape[1])
    slots[:, 0] = np.bitwise_and(packed, 0b11, out=slot_buffer)
    for k in (1, 2):
        np.right_shift(packed, 2 * k, out=slot_buffer)
        slots[:, k] = np.bitwise_and(slot_buffer, 0b11, out=slot_buffer)
    slots[:, 3] = np.right_shift(packed, 6, out=slot_buffer)


def write_packed(matrix: GenotypeMatrix, stream) -> None:
    """Serialize a genotype matrix to the packed layout (deterministic
    bytes); a matrix it cannot encode leaves ``stream`` untouched."""
    packed = _pack_codes(matrix.codes, 1)
    _write_packed(stream, matrix.n, matrix.snp_ids, matrix.chromosomes, packed)


def convert_csv_to_packed(source, stream) -> None:
    """Write the packed file of a genotype CSV without holding its codes.

    The bytes are those of :func:`write_packed` on the codes the CSV
    holds.  Each block of rows is parsed as :func:`parse_csv` parses it,
    cast to uint8 codes (:func:`_table_rows`) and packed to whole byte
    rows, kept in a list that is joined once into the ceil(n/4) x p
    payload; the fewer than 4 rows past a block's last whole byte are
    carried to the next block.  Nothing is written unless every cell is a
    code and every label encodes.

    Raises:
        FormatError: as :func:`parse_csv`.
        ParseError: as :func:`parse_csv`, then, once every cell has
            parsed, the first number that is not a genotype code.
        InvalidValue: a label :func:`write_packed` cannot encode.
    """
    with _open(source, "r") as fh:
        lines = iter(fh)
        header, _ = _csv_header(lines, None)
        parts, n = [], 0
        carry = np.empty((0, len(header)), dtype=np.uint8)
        for block in _table_rows(lines, len(header), codes=True):
            n += len(block)
            block = np.concatenate([carry, block]) if len(carry) else block
            carry = block[len(block) - len(block) % 4 :].copy()
            if len(block) > len(carry):  # under 4 rows (the csv.reader walk's one-row blocks) fill no byte
                parts.append(_pack_codes(block[: len(block) - len(carry)], 1))
    parts.append(_pack_codes(carry, 1))
    packed = np.concatenate(parts)
    del parts
    chroms, ids = zip(*map(parse_column_label, header))
    _write_packed(stream, n, ids, chroms, packed)


def _write_packed(stream, n: int, snp_ids, chromosomes, packed: np.ndarray) -> None:
    """Write a packed file of ``n`` rows from its ceil(n/4) x p payload
    bytes ``packed``; ids and chromosomes are checked before ``stream`` is
    opened."""
    encoded = [snp_id.encode("utf-8") for snp_id in snp_ids]
    for snp_id, raw, chrom in zip(snp_ids, encoded, chromosomes):
        if len(raw) > 0xFFFF:
            raise InvalidValue(f"SNP id too long to encode: {snp_id[:32]!r}...")
        if not (0 <= chrom <= 0xFF):
            raise InvalidValue(f"chromosome code {chrom} outside u8 range")
    with _open(stream, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0, n, len(encoded)))
        for raw, chrom in zip(encoded, chromosomes):
            fh.write(_COLUMN_META.pack(chrom, len(raw)))
            fh.write(raw)
        fh.write(packed.T.tobytes())  # the payload is column-major


def _walk_width(n: int) -> int:
    """Columns of n rows per block of every column walk: the missing-code
    check of :func:`open_packed`, the fill of :func:`parse_packed` and both
    walks of :func:`~jciscan.scan.precompute`.  A block holds 2^17 cells
    (1 MiB as float64) and at least 64 columns, one float GEMM tile of
    anchors, so n <= 2048 reads 2^17 // n columns and more rows read 64."""
    return max(64, 2**17 // n)


def _check_policy(missing_policy: str) -> None:
    if missing_policy not in ("reject", "impute"):
        raise InvalidValue(f"missing_policy must be 'reject' or 'impute', got {missing_policy!r}")


def _read_head(fh):
    """``(n, p, snp_ids, chromosomes)`` from a packed file's header and
    column metadata; ``fh`` is left at the payload."""
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
    return n, p, tuple(snp_ids), tuple(chroms)


def _decode_columns(raw: np.ndarray, n: int, missing_policy: str, c0: int) -> np.ndarray:
    """The one payload decoder: payload columns ``raw`` (columns x
    ceil(n/4) bytes, the first is column ``c0``) as an n x columns uint8
    array of codes, each missing code rejected or imputed by
    ``missing_policy`` (:func:`parse_packed`).  The transposed bytes are
    unpacked (:func:`_unpack_codes`) and the padding slots past row n
    dropped, whatever bits they hold."""
    bits = np.empty((4 * raw.shape[1], len(raw)), dtype=np.uint8)
    _unpack_codes(raw.T, bits, np.empty(raw.T.shape, dtype=np.uint8))
    bits = bits[:n]
    if bits.max() == MISSING_BITS:  # a reduction: most blocks need no mask
        missing = bits == MISSING_BITS
        for j in np.flatnonzero(missing.any(axis=0)):
            if missing_policy == "reject":
                raise MissingGenotype(column=c0 + int(j), row=int(np.argmax(missing[:, j])))
            present = bits[~missing[:, j], j]
            if present.size == 0:
                raise MissingGenotype(column=c0 + int(j), row=0)
            bits[missing[:, j], j] = np.argmax(np.bincount(present, minlength=3))
    bits += 1
    return bits


def parse_packed(stream, missing_policy: str = "reject") -> GenotypeMatrix:
    """Decode a packed genotype file (a path or an open binary stream).

    ``missing_policy`` is "reject" (error on the first missing code) or
    "impute" (replace each missing entry with the column's modal code,
    ties broken toward the smaller code).  The file is opened as by
    :func:`open_packed` (a pipe's payload is held in memory) and the n x p
    array, which ``convert --from packed --to csv`` decodes, is filled
    from the payload bytes :meth:`PackedGenotypes._payload_blocks` reads.

    Raises:
        NotPackedFile: bad magic or version, or too short for a header.
        TruncatedFile: metadata or payload ends early.
        MissingGenotype: a missing code under "reject", or a fully
            missing column under "impute".
    """
    source = _open_payload(stream, missing_policy)
    codes = np.empty((source.n, source.p), dtype=np.uint8)
    step = _walk_width(source.n)
    for j0, block in source.column_blocks(step):
        codes[:, j0 : j0 + step] = block
    codes.setflags(write=False)
    return GenotypeMatrix(codes=codes, snp_ids=source.snp_ids, chromosomes=source.chromosomes)


@dataclass(frozen=True, eq=False)
class PackedGenotypes:
    """A packed genotype file opened for a column walk (:func:`open_packed`):
    its shape and column metadata, with the payload left in ``path`` (a
    path, a seekable stream or a pipe's in-memory copy) from byte
    ``offset`` on, which each walk reads again by :meth:`_payload_blocks`."""

    path: object
    offset: int
    n: int
    p: int
    snp_ids: tuple[str, ...]
    chromosomes: tuple[int, ...]
    missing_policy: str

    column_label = GenotypeMatrix.column_label

    def _payload_blocks(self, width: int):
        """The one reader of payload bytes: yield ``(j0, raw)``, the columns
        x ceil(n/4) bytes of each run of ``width`` columns, or raise
        ``TruncatedFile(size, got)`` for a block that reads short."""
        col_bytes = payload_bytes(self.n, 1)
        with _open(self.path, "rb") as fh:
            for j0 in range(0, self.p, width):
                size = min(width, self.p - j0) * col_bytes
                fh.seek(self.offset + j0 * col_bytes)
                data = fh.read(size)
                if len(data) < size:
                    raise TruncatedFile(size, len(data))
                yield j0, np.frombuffer(data, dtype=np.uint8).reshape(-1, col_bytes)

    def column_blocks(self, width: int):
        """Yield ``(j0, codes)`` per run of ``width`` columns: ``codes`` is
        ``parse_packed(...).codes[:, j0 : j0 + width]``, decoded from ``raw``."""
        for j0, raw in self._payload_blocks(width):
            yield j0, _decode_columns(raw, self.n, self.missing_policy, j0)


def _open_payload(stream, missing_policy: str) -> PackedGenotypes:
    """The header and metadata of ``stream`` as a :class:`PackedGenotypes`,
    after one check that the payload is all there (else ``TruncatedFile
    (expected, available)``).  A seekable source is measured by seeking
    to its end; one that cannot (a pipe, a FIFO) is read to its end once,
    into memory.  Bytes past the payload are ignored."""
    _check_policy(missing_policy)
    with _open(stream, "rb") as fh:
        n, p, snp_ids, chroms = _read_head(fh)
        if not fh.seekable():
            stream = fh = io.BytesIO(fh.read())
        offset = fh.tell()
        available = fh.seek(0, os.SEEK_END) - offset
    expected = payload_bytes(n, p)
    if available < expected:
        raise TruncatedFile(expected, available)
    return PackedGenotypes(stream, offset, n, p, snp_ids, chroms, missing_policy)


def open_packed(path, missing_policy: str = "reject") -> PackedGenotypes:
    """Open the packed genotype file at ``path`` (or an open binary
    stream, kept open for the walk if it can seek; a pipe's payload is
    held in memory) for a column walk.

    Raises what :func:`parse_packed` raises on the same file, here and
    not during the walk: :meth:`PackedGenotypes._payload_blocks` reads the
    payload once, in blocks of :func:`_walk_width` columns, and only a
    block with a missing slot is decoded.
    """
    source = _open_payload(path, missing_policy)
    for j0, raw in source._payload_blocks(_walk_width(source.n)):
        if (raw & (raw >> 1) & 0b01010101).any():  # a slot holding 0b11
            _decode_columns(raw, source.n, missing_policy, j0)
    return source


def is_packed(path) -> bool:
    """True when the file starts with the packed-genotype magic bytes.
    ``path`` may be an open binary file with ``peek`` (as ``open(path,
    "rb")`` gives), which is peeked at, not read, so a pipe's parser
    still gets every byte."""
    with _open(path, "rb") as fh:
        return fh.peek(len(MAGIC))[: len(MAGIC)] == MAGIC


def _as_codes(values: np.ndarray, row0: int) -> np.ndarray:
    """``values``, rows ``row0`` on of a table, as uint8 genotype codes
    (uint8 values pass through uncopied).

    Raises:
        ParseError: the first cell, in row-major order, not 1, 2 or 3.
    """
    if values.size == 0 or (values.min() >= 1 and values.max() <= 3):
        codes = values.astype(np.uint8, copy=False)
        if codes is values or np.array_equal(codes, values):
            return codes
    r, c = (int(i) for i in np.argwhere((values != 1) & (values != 2) & (values != 3))[0])
    raise ParseError(
        row0 + r,
        c,
        f"value {float(values[r, c])!r} at data row {row0 + r}, column {c} is not a genotype code",
    )


def genotype_from_floats(matrix, names) -> GenotypeMatrix:
    """Build a GenotypeMatrix from numeric cells, validating the {1,2,3}
    domain; uint8 codes are used as they are.  Column labels of the form
    "ch<k>:<id>" populate chromosome metadata.

    Raises:
        ParseError: first cell (row, column) outside the genotype domain.
    """
    arr = np.asarray(matrix)
    codes = _as_codes(arr if arr.dtype == np.uint8 else arr.astype(np.float64, copy=False), 0)
    parsed = [parse_column_label(name) for name in names]
    return GenotypeMatrix(
        codes=codes,
        snp_ids=tuple(ident for _, ident in parsed),
        chromosomes=tuple(chrom for chrom, _ in parsed),
    )
