"""Format tests: CSV parse/write round trips, packed-genotype layout,
missing-code policies, error taxonomy."""

import contextlib
import csv
import io
import os
import struct
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jciscan import dataio
from jciscan.dataio import (
    FLAG_MISSING_ALLOWED,
    MAGIC,
    GenotypeMatrix,
    convert_csv_to_packed,
    genotype_from_floats,
    is_packed,
    open_packed,
    parse_column_label,
    parse_csv,
    parse_packed,
    payload_bytes,
    read_phenotype,
    read_score_dump,
    write_csv,
    write_packed,
)
from jciscan.errors import (
    FormatError,
    InvalidValue,
    JciscanError,
    MissingGenotype,
    MissingResponse,
    NotPackedFile,
    ParseError,
    TruncatedFile,
)
from jciscan.scan import CodeWorkspace, Workspace, precompute


def make_matrix(codes, ids=None, chroms=None):
    codes = np.asarray(codes, dtype=np.uint8)
    p = codes.shape[1]
    ids = tuple(ids) if ids is not None else tuple(f"rs{j}" for j in range(p))
    chroms = tuple(chroms) if chroms is not None else tuple((j % 23) + 1 for j in range(p))
    return GenotypeMatrix(codes=codes, snp_ids=ids, chromosomes=chroms)


def random_matrix(rng, n=None, p=None):
    n = n if n is not None else int(rng.integers(1, 60))
    p = p if p is not None else int(rng.integers(1, 12))
    codes = rng.integers(1, 4, size=(n, p)).astype(np.uint8)
    ids = tuple(f"rs{int(rng.integers(1e6))}_{j}" for j in range(p))
    chroms = tuple(int(rng.integers(1, 24)) for _ in range(p))
    return GenotypeMatrix(codes=codes, snp_ids=ids, chromosomes=chroms)


# --------------------------------------------------------------------------
# Packed layout
# --------------------------------------------------------------------------


def test_packed_payload_example_bytes():
    gm = make_matrix(np.array([[1], [2], [3], [1], [2]]), ids=["s"], chroms=[1])
    buf = io.BytesIO()
    write_packed(gm, buf)
    data = buf.getvalue()
    header = 4 + 2 + 2 + 8 + 8
    meta = 1 + 2 + 1  # chrom u8, id length u16, id "s"
    payload = data[header + meta :]
    # low bits first: rows 0..3 -> codes 1,2,3,1 -> 0b00_10_01_00; row 4
    # (code 2) lands in the low bits of the second byte
    assert payload == bytes([0b00_10_01_00, 0b00_00_00_01])
    assert payload == bytes([0x24, 0x01])


def test_packed_header_fields():
    gm = make_matrix(np.array([[1, 3], [2, 2], [3, 1]]), ids=["a", "bb"], chroms=[5, 23])
    buf = io.BytesIO()
    write_packed(gm, buf)
    data = buf.getvalue()
    magic, version, flags, n, p = struct.unpack("<4sHHQQ", data[:24])
    assert magic == MAGIC and version == 1 and flags == 0
    assert (n, p) == (3, 2)
    assert not flags & FLAG_MISSING_ALLOWED


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 31])
def test_packed_roundtrip_padding_shapes(n):
    rng = np.random.default_rng(n)
    gm = random_matrix(rng, n=n, p=3)
    buf = io.BytesIO()
    write_packed(gm, buf)
    buf.seek(0)
    back = parse_packed(buf)
    assert np.array_equal(back.codes, gm.codes)
    assert back.snp_ids == gm.snp_ids
    assert back.chromosomes == gm.chromosomes


def test_packed_roundtrip_random_sizes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        gm = random_matrix(rng)
        buf = io.BytesIO()
        write_packed(gm, buf)
        buf.seek(0)
        back = parse_packed(buf)
        assert np.array_equal(back.codes, gm.codes)
        assert back.snp_ids == gm.snp_ids


def test_packed_roundtrip_at_envelope():
    rng = np.random.default_rng(3)
    n, p = 1000, 100
    ids = [f"rs{j}" for j in range(p)]
    ids[17] = "locus-β7"  # non-ASCII id survives the u16-length encoding
    gm = GenotypeMatrix(
        codes=rng.integers(1, 4, size=(n, p)).astype(np.uint8),
        snp_ids=tuple(ids),
        chromosomes=tuple(int(rng.integers(1, 24)) for _ in range(p)),
    )
    buf = io.BytesIO()
    write_packed(gm, buf)
    buf.seek(0)
    back = parse_packed(buf)
    assert np.array_equal(back.codes, gm.codes)
    assert back.snp_ids == gm.snp_ids
    assert back.chromosomes == gm.chromosomes


def test_packed_write_is_deterministic():
    rng = np.random.default_rng(4)
    gm = random_matrix(rng, n=17, p=5)
    a, b = io.BytesIO(), io.BytesIO()
    write_packed(gm, a)
    write_packed(gm, b)
    assert a.getvalue() == b.getvalue()


def test_packed_file_size_formula(tmp_path):
    rng = np.random.default_rng(6)
    gm = random_matrix(rng, n=10, p=4)
    path = tmp_path / "g.jcg"
    write_packed(gm, path)
    meta = sum(3 + len(s.encode()) for s in gm.snp_ids)
    assert path.stat().st_size == 24 + meta + payload_bytes(10, 4)
    assert payload_bytes(10, 4) == 4 * 3  # ceil(10/4) = 3 bytes per column
    # genome-scale arithmetic, no allocation involved
    assert payload_bytes(4000, 234_754) == 234_754_000


def test_packed_bad_magic_and_empty():
    with pytest.raises(NotPackedFile):
        parse_packed(io.BytesIO(b""))
    for n, p in ((0, 2), (2, 0)):
        with pytest.raises(FormatError, match=f"declared shape {n} x {p} is empty"):
            parse_packed(io.BytesIO(struct.pack("<4sHHQQ", MAGIC, 1, 0, n, p)))
    with pytest.raises(NotPackedFile):
        parse_packed(io.BytesIO(b"NOPE" + b"\x00" * 40))
    with pytest.raises(NotPackedFile):
        # good magic, unsupported version
        parse_packed(io.BytesIO(struct.pack("<4sHHQQ", MAGIC, 9, 0, 1, 1)))


def test_packed_truncation_reports_expected_and_got():
    gm = make_matrix(np.array([[1, 2], [3, 1], [2, 2], [1, 3], [3, 3]]))
    buf = io.BytesIO()
    write_packed(gm, buf)
    data = buf.getvalue()
    with pytest.raises(TruncatedFile) as exc:
        parse_packed(io.BytesIO(data[:-1]))
    assert exc.value.expected == payload_bytes(5, 2)
    assert exc.value.got == payload_bytes(5, 2) - 1
    # cut inside the metadata block
    with pytest.raises(TruncatedFile):
        parse_packed(io.BytesIO(data[:26]))


def test_packed_file_cut_after_open_fails_the_column_walk(tmp_path):
    # open_packed checks the payload length once; a file cut afterwards is
    # found by column_blocks at the first block that reads short.
    gm = random_matrix(np.random.default_rng(5), n=9, p=7)
    path = tmp_path / "g.jcg"
    write_packed(gm, path)
    data = path.read_bytes()
    source = open_packed(path)
    path.write_bytes(data[: -payload_bytes(9, 1)])  # the last column's bytes
    blocks = source.column_blocks(3)
    for start in (0, 3):
        j0, cols = next(blocks)
        assert j0 == start and np.array_equal(cols, gm.codes[:, start : start + 3])
    with pytest.raises(TruncatedFile) as exc:
        next(blocks)
    assert (exc.value.expected, exc.value.got) == (payload_bytes(9, 1), 0)


@pytest.mark.parametrize("chrom", [256, -1])
def test_write_packed_refuses_a_chromosome_code_before_writing(tmp_path, chrom):
    gm = make_matrix(np.array([[1, 2], [3, 1], [2, 2]]), chroms=[1, chrom])
    path, buf = tmp_path / "g.jcg", io.BytesIO()
    for stream in (path, buf):
        with pytest.raises(InvalidValue, match=f"chromosome code {chrom}"):
            write_packed(gm, stream)
    assert not path.exists() and buf.getvalue() == b""


def _with_missing_entry(gm, row, col):
    """Serialized bytes of gm with (row, col) patched to the missing code."""
    buf = io.BytesIO()
    write_packed(gm, buf)
    data = bytearray(buf.getvalue())
    meta = sum(3 + len(s.encode()) for s in gm.snp_ids)
    col_bytes = payload_bytes(gm.n, 1)
    offset = 24 + meta + col * col_bytes + row // 4
    data[offset] |= 0b11 << (2 * (row % 4))
    return bytes(data)


def test_packed_missing_reject_names_first_file_order_hit():
    gm = make_matrix(np.array([[1, 2], [3, 1], [2, 2], [1, 3], [3, 3]]))
    data = _with_missing_entry(gm, row=3, col=0)
    with pytest.raises(MissingGenotype) as exc:
        parse_packed(io.BytesIO(data))
    assert (exc.value.column, exc.value.row) == (0, 3)


def test_packed_missing_impute_uses_modal_code():
    gm = make_matrix(np.array([[1], [1], [3], [2], [1]]), ids=["s"], chroms=[2])
    data = _with_missing_entry(gm, row=3, col=0)
    back = parse_packed(io.BytesIO(data), missing_policy="impute")
    assert back.codes[:, 0].tolist() == [1, 1, 3, 1, 1]  # mode of {1,1,3,1} is 1


def test_packed_missing_impute_tie_prefers_smaller_code():
    gm = make_matrix(np.array([[1], [3], [1], [3], [2]]), ids=["s"], chroms=[2])
    data = _with_missing_entry(gm, row=4, col=0)
    back = parse_packed(io.BytesIO(data), missing_policy="impute")
    assert back.codes[4, 0] == 1


def test_packed_missing_impute_all_missing_column_fails():
    gm = make_matrix(np.array([[2], [2]]), ids=["s"], chroms=[2])
    data = _with_missing_entry(gm, 0, 0)
    data = bytearray(data)
    data[-1] |= 0b11 << 2
    with pytest.raises(MissingGenotype):
        parse_packed(io.BytesIO(bytes(data)), missing_policy="impute")
    with pytest.raises(InvalidValue):
        parse_packed(io.BytesIO(bytes(data)), missing_policy="drop")


def test_genotype_matrix_invariants():
    with pytest.raises(InvalidValue):
        GenotypeMatrix(codes=np.array([[0, 1]], dtype=np.uint8), snp_ids=("a", "b"), chromosomes=(1, 1))
    with pytest.raises(InvalidValue):
        GenotypeMatrix(codes=np.array([[1, 2]], dtype=np.uint8), snp_ids=("a",), chromosomes=(1, 1))
    with pytest.raises(InvalidValue):
        GenotypeMatrix(codes=np.zeros((0, 2), dtype=np.uint8), snp_ids=("a", "b"), chromosomes=(1, 1))
    with pytest.raises(InvalidValue, match="2-D"):
        GenotypeMatrix(codes=np.array([1, 2], dtype=np.uint8), snp_ids=("a", "b"), chromosomes=(1, 1))


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64, bool])
def test_genotype_matrix_narrows_integer_codes_and_refuses_other_dtypes(dtype):
    # Integer codes are narrowed to uint8 and write the uint8 codes' bytes;
    # float and bool codes are refused with a pointer to genotype_from_floats.
    values = np.array([[1, 2], [3, 1], [2, 2]])
    meta = {"snp_ids": ("a", "b"), "chromosomes": (1, 1)}
    if np.dtype(dtype).kind in "iu":
        gm = GenotypeMatrix(codes=values.astype(dtype), **meta)
        assert gm.codes.dtype == np.uint8 and np.array_equal(gm.codes, values)
        assert packed_bytes(gm) == packed_bytes(GenotypeMatrix(codes=values.astype(np.uint8), **meta))
    else:
        with pytest.raises(InvalidValue, match="genotype_from_floats"):
            GenotypeMatrix(codes=(values if dtype is np.float64 else values == 1).astype(dtype), **meta)


def test_packed_parser_never_escapes_the_error_family():
    from jciscan.errors import JciscanError

    rng = np.random.default_rng(99)
    for _ in range(200):
        length = int(rng.integers(0, 120))
        blob = rng.integers(0, 256, size=length).astype(np.uint8).tobytes()
        if rng.random() < 0.7:
            blob = MAGIC + blob  # exercise paths past the magic check
        try:
            parse_packed(io.BytesIO(blob))
        except JciscanError:
            pass  # any library error is acceptable; crashes are not


def test_packed_rejects_non_utf8_id():
    gm = make_matrix(np.array([[1], [2]]), ids=["ok"], chroms=[1])
    buf = io.BytesIO()
    write_packed(gm, buf)
    data = bytearray(buf.getvalue())
    data[27] = 0xFF  # corrupt the id byte ("ok" starts at 24 + 3)
    with pytest.raises(FormatError):
        parse_packed(io.BytesIO(bytes(data)))


def test_is_packed_detection(tmp_path):
    gm = make_matrix(np.array([[1], [2], [3]]), ids=["x"], chroms=[3])
    packed_path = tmp_path / "m.jcg"
    write_packed(gm, packed_path)
    assert is_packed(packed_path)
    text_path = tmp_path / "m.csv"
    text_path.write_text("a,b\n1,2\n")
    assert not is_packed(text_path)


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------


def test_parse_csv_basic():
    text = "x1,x2,y\n1,4.5,0\n2,5.5,1\n3,6.5,0\n"
    matrix, response, names = parse_csv(io.StringIO(text), "y")
    assert names == ["x1", "x2"]
    assert matrix.shape == (3, 2)
    assert matrix[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert response.tolist() == [0.0, 1.0, 0.0]


def test_parse_csv_without_response():
    matrix, response, names = parse_csv(io.StringIO("a,b\n1,2\n3,4\n"), None)
    assert response is None
    assert names == ["a", "b"]
    assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_parse_csv_errors():
    with pytest.raises(FormatError):
        parse_csv(io.StringIO(""), "y")
    with pytest.raises(FormatError):
        parse_csv(io.StringIO("a,b\n"), None)  # header only, no data
    with pytest.raises(FormatError, match="empty column name"):
        parse_csv(io.StringIO("a,,y\n1,2,3\n"), "y")
    with pytest.raises(MissingResponse):
        parse_csv(io.StringIO("a,b\n1,2\n"), "y")
    with pytest.raises(FormatError, match="response column 'a' is ambiguous: the header names it 2 times"):
        parse_csv(io.StringIO("a,a,y\n1,2,3\n"), "a")
    # A repeated predictor name is no concern of the response's.
    _, response, names = parse_csv(io.StringIO("a,a,y\n1,2,3\n"), "y")
    assert names == ["a", "a"] and response.tolist() == [3.0]
    with pytest.raises(FormatError):
        parse_csv(io.StringIO("a,b\n1,2,3\n"), None)  # ragged
    with pytest.raises(ParseError) as exc:
        parse_csv(io.StringIO("a,b\n1,2\n3,NA\n"), None)
    assert (exc.value.row, exc.value.column) == (1, 1)
    with pytest.raises(ParseError):
        parse_csv(io.StringIO("a,b\n1,inf\n"), None)


def test_csv_roundtrip_is_value_exact(tmp_path):
    rng = np.random.default_rng(8)
    matrix = rng.normal(scale=1e3, size=(20, 5)) * 10.0 ** rng.integers(-12, 12, size=(20, 5))
    y = rng.normal(size=20)
    path = tmp_path / "m.csv"
    write_csv(path, matrix, [f"c{j}" for j in range(5)], response=y, response_name="resp")
    back, resp, names = parse_csv(path, "resp")
    assert names == [f"c{j}" for j in range(5)]
    assert np.array_equal(back, matrix)  # 17 significant digits: exact
    assert np.array_equal(resp, y)


def test_csv_column_order_is_stable():
    text = "b,a,y\n1,2,3\n4,5,6\n"
    matrix, _, names = parse_csv(io.StringIO(text), "y")
    assert names == ["b", "a"]
    assert matrix[0].tolist() == [1.0, 2.0]


def _cell_by_cell_csv(matrix, names, response=None):
    # The per-cell formatter: every value widened to float64, then ".17g".
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(names) + (["y"] if response is not None else []))
    for i, row in enumerate(np.asarray(matrix).astype(np.float64).tolist()):
        tail = [] if response is None else [format(float(response[i]), ".17g")]
        writer.writerow([format(v, ".17g") for v in row] + tail)
    return out.getvalue()


_RNG = np.random.default_rng(12)
_WRITTEN_MATRICES = {
    "codes": _RNG.integers(1, 4, size=(70, 1000)).astype(np.uint8),  # several row blocks
    "uint8": _RNG.integers(0, 256, size=(37, 9)).astype(np.uint8),
    "int64": np.array(
        [[0, -1, 9, 10, -99, 10**16 - 1, 10**16, -(10**16) - 3, 2**53 + 1, 10**17 - 1, 10**17, -(2**63)],
         [5, 77, -8, 2**62, 123456789012345678, 99, 0, 1, -1, 10**15, -(10**17) + 1, 2**63 - 1]],
        dtype=np.int64,
    ),
    "bool": _RNG.random((25, 6)) < 0.5,
    "float": _RNG.normal(size=(15, 4)) * 10.0 ** _RNG.integers(-20, 20, size=(15, 4)),
    "integral float": _RNG.integers(0, 3, size=(12, 5)).astype(np.float64),
}


@pytest.mark.parametrize("kind", sorted(_WRITTEN_MATRICES))
@pytest.mark.parametrize("response", [None, "integral", "real", "negative zero"])
def test_write_csv_bytes_equal_the_cell_by_cell_formatter(kind, response):
    matrix = _WRITTEN_MATRICES[kind]
    n = matrix.shape[0]
    y = {
        None: None,
        "integral": np.arange(n, dtype=np.float64) - 3.0,
        "real": np.linspace(-1.0, 2.0, n),
        "negative zero": np.full(n, -0.0),
    }[response]
    names = [f"c{j}" for j in range(matrix.shape[1])]
    out = io.StringIO()
    write_csv(out, matrix, names, response=y)
    assert out.getvalue() == _cell_by_cell_csv(matrix, names, y)


_DIGIT_DTYPES = {"uint8": np.uint8, "int64": np.int64, "bool": np.bool_, "integral float64": np.float64}


@st.composite
def digit_tables(draw):
    """``(matrix, response)``: digits 0-9 (0/1 for bool) in one of
    :data:`_DIGIT_DTYPES`, with no response, an integral 0-9 one or -0.0,
    and row counts on both sides of one write block; an int64 matrix may
    hold one integer of two or more digits, in one block only."""
    p = draw(st.integers(1, 40))
    response = draw(st.sampled_from([None, "digits", "negative zero"]))
    block = dataio._WRITE_CELLS // (p + (response is not None))
    n = max(1, block + draw(st.integers(-3, block + 3)))
    dtype = draw(st.sampled_from(sorted(_DIGIT_DTYPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, 2 if dtype == "bool" else 10, size=(n, p)).astype(_DIGIT_DTYPES[dtype])
    if dtype == "int64" and draw(st.booleans()):
        matrix[draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))] = draw(st.integers(10, 2**63 - 1))
    y = {None: None, "digits": rng.integers(0, 10, size=n).astype(np.float64), "negative zero": np.full(n, -0.0)}
    return matrix, y[response]


def _one_wide_cell():
    # Two write blocks of int64 digits, one cell of the second block 10.
    matrix = np.arange(dataio._WRITE_CELLS * 2, dtype=np.int64).reshape(-1, 2) % 10
    matrix[-1, 0] = 10
    return matrix


@settings(max_examples=60, deadline=None)
@given(table=digit_tables())
@example(table=(_one_wide_cell(), None))
def test_digit_layout_is_its_own_inverse(table):
    # The writer's digit blocks are the reader's: write_csv gives the
    # cell-by-cell formatter's bytes, parse_csv reads back every value, and
    # each written block that is all digits 0-9 (no -0.0) reads back through
    # _plain_values' digit decoder as uint8, every other one as float64.
    matrix, y = table
    names = [f"c{j}" for j in range(matrix.shape[1])]
    out = io.StringIO()
    write_csv(out, matrix, names, response=y)
    text = out.getvalue()
    assert text == _cell_by_cell_csv(matrix, names, y)
    back, resp, read_names = parse_csv(io.StringIO(text), None if y is None else "y")
    assert read_names == names and np.array_equal(back, matrix.astype(np.float64))
    assert (resp is None) if y is None else np.array_equal(resp, y)
    cells = matrix.astype(np.float64) if y is None else np.column_stack([matrix, y])
    lines = text.splitlines(keepends=True)[1:]
    rows = dataio._WRITE_CELLS // cells.shape[1]
    for i0 in range(0, len(cells), rows):
        block = cells[i0 : i0 + rows]
        values = dataio._plain_values(lines[i0 : i0 + rows], cells.shape[1])
        digits = block.max() <= 9 and not np.signbit(block).any()
        assert values.dtype == (np.uint8 if digits else np.float64) and np.array_equal(values, block)


def test_write_csv_validation(tmp_path):
    with pytest.raises(InvalidValue):
        write_csv(tmp_path / "x.csv", np.ones((2, 2)), ["only-one"])
    with pytest.raises(InvalidValue):
        write_csv(tmp_path / "x.csv", np.ones(3), ["a"])
    with pytest.raises(InvalidValue):
        write_csv(tmp_path / "x.csv", np.ones((2, 2)), ["a", "b"], response=np.ones(3))
    # Only files parse_csv reads back: a real dtype and finite cells, checked
    # before the file is opened.
    out = tmp_path / "never.csv"
    finite = np.arange(6.0).reshape(3, 2)
    for matrix, response in [
        (finite + 1j, None),  # complex: the imaginary part would be lost
        (np.array([[1.0, None], [2.0, 3.0]], dtype=object), None),
        (np.array([["1", "x"], ["2", "3"]]), None),
        (finite.astype(str), None),
        (np.where(finite == 4, np.nan, finite), None),
        (np.where(finite == 1, np.inf, finite), None),
        (np.where(finite == 5, -np.inf, finite).astype(np.float32), None),
        (finite, np.array([0.5, np.nan, 1.0])),
        (finite, [0.5, -np.inf, 1.0]),
        (finite, np.array([1, 2, 3]) + 0j),
        (finite, np.array(["a", "b", "c"])),
    ]:
        with pytest.raises(InvalidValue):
            write_csv(out, matrix, ["a", "b"], response=response)
        assert not out.exists()


# --------------------------------------------------------------------------
# Genotype CSV bridge and labels
# --------------------------------------------------------------------------


def test_parse_column_label():
    assert parse_column_label("ch13:rs4886241") == (13, "rs4886241")
    assert parse_column_label("ch7:some:id") == (7, "some:id")
    assert parse_column_label("snp42") == (0, "snp42")
    assert parse_column_label("chX:rs1") == (0, "chX:rs1")
    assert parse_column_label("ch:rs1") == (0, "ch:rs1")
    assert parse_column_label("ch255:rs1") == (255, "rs1")
    # k is ASCII digits without a leading zero, in 1-255; any other label
    # is a whole id.
    for label in ("ch0:rs2", "ch07:rs1", "ch\uff11:z", "ch256:rs3", "ch1:", "ch-1:a", "ch+1:a", "ch 1:a"):
        assert parse_column_label(label) == (0, label)


chromosome_labels = st.one_of(
    st.text(),
    st.builds("ch{}:{}".format, st.one_of(st.integers(0, 300), st.text("0123456789\uff11 +-", max_size=4)), st.text()),
)


@settings(max_examples=300, deadline=None)
@given(label=chromosome_labels)
def test_column_label_inverts_parse_column_label(label):
    chrom, ident = parse_column_label(label)
    gm = make_matrix(np.array([[1]]), ids=[ident], chroms=[chrom])
    assert gm.column_label(0) == label
    assert 0 <= chrom <= 255


def test_column_label_roundtrip():
    gm = make_matrix(np.array([[1, 2]]), ids=["rs9", "plain"], chroms=[13, 0])
    assert gm.column_label(0) == "ch13:rs9"
    assert gm.column_label(1) == "plain"
    assert parse_column_label(gm.column_label(0)) == (13, "rs9")


def test_genotype_from_floats_domain_check():
    good = genotype_from_floats(np.array([[1.0, 3.0], [2.0, 1.0]]), ["ch2:a", "b"])
    assert good.chromosomes == (2, 0)
    assert good.snp_ids == ("a", "b")
    with pytest.raises(ParseError) as exc:
        genotype_from_floats(np.array([[1.0, 2.5], [2.0, 1.0]]), ["a", "b"])
    assert (exc.value.row, exc.value.column) == (0, 1)
    assert str(exc.value) == "value 2.5 at data row 0, column 1 is not a genotype code"
    with pytest.raises(ParseError) as exc:
        genotype_from_floats(np.array([[0.0]]), ["a"])
    assert str(exc.value) == "value 0.0 at data row 0, column 0 is not a genotype code"


def test_csv_packed_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    gm = random_matrix(rng, n=13, p=4)
    csv1 = tmp_path / "a.csv"
    write_csv(csv1, gm.codes.astype(float), [gm.column_label(j) for j in range(4)])
    matrix, _, names = parse_csv(csv1, None)
    gm2 = genotype_from_floats(matrix, names)
    assert np.array_equal(gm2.codes, gm.codes)
    assert gm2.snp_ids == gm.snp_ids
    assert gm2.chromosomes == gm.chromosomes
    packed = tmp_path / "a.jcg"
    write_packed(gm2, packed)
    back = parse_packed(packed)
    csv2 = tmp_path / "b.csv"
    write_csv(csv2, back.codes.astype(float), [back.column_label(j) for j in range(4)])
    assert csv1.read_text() == csv2.read_text()


# --------------------------------------------------------------------------
# Phenotype files
# --------------------------------------------------------------------------


def test_read_phenotype():
    assert read_phenotype(io.StringIO("1\n2.5\n-3\n")).tolist() == [1.0, 2.5, -3.0]
    assert read_phenotype(io.StringIO("1\n\n2\n")).tolist() == [1.0, 2.0]
    with pytest.raises(FormatError):
        read_phenotype(io.StringIO(""))
    with pytest.raises(ParseError):
        read_phenotype(io.StringIO("1\nabc\n"))
    with pytest.raises(ParseError):
        read_phenotype(io.StringIO("nan\n"))


# --------------------------------------------------------------------------
# Text numbers: one numpy call per row against the per-cell rule
# --------------------------------------------------------------------------


def per_cell_parse_csv(text, response_column):
    """``parse_csv`` as the per-cell rule states it: every cell through
    ``parse_number`` in file order, the ragged check before each row."""
    with dataio._open(io.StringIO(text), "r") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for r, record in enumerate(reader):
            if len(record) != len(header):
                raise FormatError(f"row {r} has {len(record)} cells, header has {len(header)}")
            rows.append([dataio.parse_number(cell, r, c, "cell") for c, cell in enumerate(record)])
    if not rows:
        raise FormatError("no data rows after the header")
    table = np.asarray(rows, dtype=np.float64)
    if response_column is None:
        return table, None, header
    resp = header.index(response_column)
    keep = [j for j in range(len(header)) if j != resp]
    return table[:, keep], table[:, resp], [header[j] for j in keep]


def per_line_phenotype(text):
    lines = enumerate(line.strip() for line in io.StringIO(text))
    values = [dataio.parse_number(t, i, 0, "phenotype") for i, t in lines if t]
    if not values:
        raise FormatError("empty phenotype file")
    return np.asarray(values, dtype=np.float64)


def outcome(read, *args):
    """What ``read`` gives: its arrays as bytes, or its error's type,
    message and position."""
    try:
        result = read(*args)
    except JciscanError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    matrix, response, names = result
    as_bytes = None if response is None else response.tobytes()
    return matrix.dtype, matrix.shape, matrix.tobytes(), as_bytes, names


def _padded(cell):
    return st.tuples(st.sampled_from(["", " ", "\t", "\u3000", "\u2005"]), cell,
                     st.sampled_from(["", " ", "\t", "\u3000"])).map("".join)


number_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_000", "1e5_0", "0.000_1", "1.", ".5", "1e-400", "\u0661\u0662", "\uff11",
                     "\U0001d7cf", "\u0663.\u0665"]),
)
good_cells = st.one_of(number_cells, _padded(number_cells))
# Cells float() rejects or that are not finite, and arbitrary short text.
odd_cells = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e400", "-1e999", "", "NA", "abc", "1,5",
                     "0x10", "1 2", "1\x00", "\x001", '"1"', "1__0", "_1", "1_", "1.5e", ".",
                     "\u2167", "\u00b2"]),
    st.text(max_size=4),
)


@st.composite
def csv_tables(draw):
    """A headered CSV text of mostly good cells, with a few odd cells and
    ragged rows, and a response column or None."""
    p = draw(st.integers(1, 5))
    n = draw(st.integers(0, 5))
    rows = []
    for _ in range(n):
        width = max(1, p + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
        rows.append(draw(st.lists(good_cells, min_size=width, max_size=width)))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(odd_cells)
    out = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])), quoting=quoting)
    header = [f"c{j}" for j in range(p)]
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue(), draw(st.sampled_from([None, *header]))


@settings(max_examples=300, deadline=None)
@given(table=csv_tables())
def test_row_parse_matches_the_per_cell_rule(table):
    text, response_column = table
    assert outcome(parse_csv, io.StringIO(text), response_column) == outcome(
        per_cell_parse_csv, text, response_column
    )


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(good_cells, good_cells, odd_cells, st.just("")), max_size=6),
       end=st.sampled_from(["", "\n"]))
def test_phenotype_parse_matches_the_per_line_rule(lines, end):
    text = "\n".join(line.replace("\n", " ").replace("\r", " ") for line in lines) + end
    assert outcome(read_phenotype, io.StringIO(text)) == outcome(per_line_phenotype, text)


def test_parse_csv_peak_memory_stays_near_the_matrix(tmp_path):
    # Each row becomes one float64 array, stacked once: no n x p Python floats.
    values = np.random.default_rng(42).normal(size=(200, 3000))
    path = tmp_path / "wide.csv"
    write_csv(path, values[:, 1:], [f"x{j}" for j in range(1, 3000)], response=values[:, 0])
    for response_column in (None, "y"):
        tracemalloc.start()
        try:
            matrix, _, _ = parse_csv(path, response_column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape[0] == 200
        assert peak <= 2.5 * values.nbytes, (response_column, peak)


def test_parse_csv_response_owns_its_memory():
    # A view would keep the whole parsed table alive beside the predictors.
    matrix, response, _ = parse_csv(io.StringIO("a,y,b\n1,2,3\n4,5,6\n"), "y")
    assert response.tolist() == [2.0, 5.0]
    assert response.base is None and not np.shares_memory(matrix, response)


# --------------------------------------------------------------------------
# Plain blocks: numpy's C reader against the per-cell rule
# --------------------------------------------------------------------------

FIELD_LIMIT = csv.field_size_limit()

plain_numbers = st.one_of(
    st.integers(0, 10**30).map(str),  # unsigned, past int64 too
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.sampled_from(["007", "-0", "+0", "-0.0", "1E5", "1e-400", "-.5", "5.", "+1e+3",
                     "999999999999999999", "9223372036854775808", "1234567890123456789012345",
                     "1234567890123.456789012345", "9" * 25 + "e-10", "0" * FIELD_LIMIT]),
)
# Plain-alphabet cells that float() rejects or that are not finite; the
# last is one character over the csv field size limit.
plain_odd_cells = st.sampled_from(["1e400", "-1e999", ".", "e5", "+-1", "1-2", "", "1e", "--1",
                                   "1.2.3", "E", "+", "1" * 400, "0" * (FIELD_LIMIT + 1)])


@st.composite
def plain_csv_files(draw):
    """A headered CSV text in the plain alphabet: mostly numbers, with a few
    odd cells, ragged rows, blank lines anywhere, LF or CRLF line ends, a
    lone CR, or no final line end; and a response column or None."""
    p = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        width = max(1, p + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])))
        rows.append(draw(st.lists(plain_numbers, min_size=width, max_size=width)))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(plain_odd_cells)
    header = [f"c{j}" for j in range(p)]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [end] * (len(lines) - 1) + [draw(st.sampled_from([end, ""]))]
    if draw(st.integers(0, 4)) == 0:
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    text = "".join(line + e for line, e in zip(lines, ends))
    return text, draw(st.sampled_from([None, *header]))


@settings(max_examples=300, deadline=None)
@given(table=plain_csv_files(), block=st.sampled_from([1, 9, 64, 300, dataio._CSV_BLOCK_CHARS]))
@example(table=("c0,c1\n1,2\n\n3,4\n", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\n1,2\r3,4\n", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\n1," + "0" * (FIELD_LIMIT + 1) + "\n", "c1"), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\n1," + "0" * FIELD_LIMIT + "\n", "c1"), block=dataio._CSV_BLOCK_CHARS)
def test_plain_blocks_match_the_per_cell_rule(table, block):
    # Small blocks put a plain block before a failing one at every row.
    text, response_column = table
    with mock.patch.object(dataio, "_CSV_BLOCK_CHARS", block):
        got = outcome(parse_csv, io.StringIO(text), response_column)
    assert got == outcome(per_cell_parse_csv, text, response_column)


def codes_by_cells(text):
    """``convert``'s codes by the per-cell rule: the whole table parsed,
    then the first cell in row-major order that is not 1, 2 or 3 named."""
    matrix, _, _ = per_cell_parse_csv(text, None)
    bad = ~((matrix == 1) | (matrix == 2) | (matrix == 3))
    if bad.any():
        r, c = (int(i) for i in np.argwhere(bad)[0])
        raise ParseError(r, c, f"value {float(matrix[r, c])!r} at data row {r}, column {c} is not a genotype code")
    return matrix.astype(np.uint8)


def converted_codes(source):
    """``convert``'s codes: the CSV ``source`` packed by
    ``convert_csv_to_packed``, then decoded."""
    packed = io.BytesIO()
    convert_csv_to_packed(source, packed)
    return parse_packed(io.BytesIO(packed.getvalue())).codes


def codes_by_blocks(text):
    return converted_codes(io.StringIO(text))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from("1231231230"), min_size=3, max_size=3),
                           min_size=n, max_size=n)
    ),
    odd=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 2),
                           st.sampled_from(["4", "2.5", "01", "3e0", "2.0", "-1", "NA", " 2", "1e400"])),
                 max_size=3),
    block=st.sampled_from([1, 8, 40, dataio._CSV_BLOCK_CHARS]),
)
def test_codes_parse_matches_parse_then_domain_check(rows, odd, block):
    # A bad number anywhere outranks a non-code cell, in any block.
    for r, c, cell in odd:
        rows[r % len(rows)][c] = cell
    text = "a,b,c\n" + "".join(",".join(row) + "\n" for row in rows)
    with mock.patch.object(dataio, "_CSV_BLOCK_CHARS", block):
        got = outcome(codes_by_blocks, text)
    assert got == outcome(codes_by_cells, text)


def test_plain_csv_never_reaches_the_per_cell_walk(tmp_path, monkeypatch):
    def walked(*args):
        raise AssertionError("a plain block was walked cell by cell")

    monkeypatch.setattr(dataio, "_parse_cells", walked)
    monkeypatch.setattr(dataio, "_CSV_BLOCK_CHARS", 100)
    rng = np.random.default_rng(17)
    floats = rng.normal(size=(30, 6)) * 10.0 ** rng.integers(-300, 300, size=(30, 6))
    codes = rng.integers(1, 4, size=(30, 6))
    path = tmp_path / "plain.csv"
    for matrix in (floats, codes - 1, codes):
        write_csv(path, matrix, [f"x{j}" for j in range(6)])
        for end in (b"\n", b"\r\n"):
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", end))
            assert np.array_equal(parse_csv(path, None)[0], matrix)
    assert np.array_equal(converted_codes(path), codes)


GRID_BREAKS = ("two digits", "sign", "point", "space", "blank line", "lone CR",
               "no final line end", "ragged row", "header width", "non-ASCII digit",
               "one character")


def break_grid(change, header, rows, ends):
    """Apply one of :data:`GRID_BREAKS` in place: a cell, a line end, a row
    or the header that takes a table of single digits off the byte grid."""
    middle = len(rows) // 2
    if change == "two digits":
        rows[0][0] = "12"
    elif change == "sign":
        rows[-1][-1] = "-1"
    elif change == "point":
        rows[0][-1] = "2."
    elif change == "space":
        rows[-1][0] = " 3"
    elif change == "blank line":
        rows.insert(middle, [])
        ends.append(ends[-1])
    elif change == "lone CR":
        ends[middle] = "\r"
    elif change == "no final line end":
        ends[-1] = ""
    elif change == "ragged row":
        rows[middle].append("1")
    elif change == "header width":
        header.append("extra")
    elif change == "non-ASCII digit":
        rows[-1][0] = "\u0663"  # float() reads it as 3


@st.composite
def single_digit_files(draw):
    """A headered CSV of single digits, mostly genotype codes, with LF or
    CRLF line ends and at most one of :data:`GRID_BREAKS`; "one character"
    puts a drawn character in place of any one of the data section's, so a
    line can keep its length with a bad byte in any slot of the grid."""
    p = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    rows = [draw(st.lists(st.sampled_from("1231231231230459"), min_size=p, max_size=p)) for _ in range(n)]
    header = [f"c{j}" for j in range(p)]
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * (n + 1)
    change = draw(st.sampled_from([None, *GRID_BREAKS]))
    break_grid(change, header, rows, ends)
    text = "".join(",".join(line) + end for line, end in zip([header, *rows], ends, strict=True))
    if change == "one character":
        at = draw(st.integers(len(",".join(header) + ends[0]), len(text) - 1))
        text = text[:at] + draw(st.sampled_from(",\r\n .-+e5/:\u0663")) + text[at + 1 :]
    return text, draw(st.sampled_from([None, *header]))


@settings(max_examples=300, deadline=None)
@given(table=single_digit_files(), block=st.sampled_from([1, 9, 64, dataio._CSV_BLOCK_CHARS]))
@example(table=("c0,c1\n1,2\n3,4", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\n1,2\n3,45", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\r\n1,2\r\n3,45\n", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\n1,2\n3.4\n", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\n1,2\n3,:\n", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\r\n1,2\r\n3,4\r5", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1\r\n1,2\r\n3,4\r", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0,c1,c2\n1,2\n3,4\n", None), block=dataio._CSV_BLOCK_CHARS)
@example(table=("c0\n1\n\u0663\n", None), block=dataio._CSV_BLOCK_CHARS)
def test_single_digit_blocks_match_the_per_cell_rule(table, block):
    text, response_column = table
    with mock.patch.object(dataio, "_CSV_BLOCK_CHARS", block):
        got = outcome(parse_csv, io.StringIO(text), response_column)
        got_codes = outcome(codes_by_blocks, text)
    assert got == outcome(per_cell_parse_csv, text, response_column)
    assert got_codes == outcome(codes_by_cells, text)


@pytest.mark.parametrize("end", [b"\n", b"\r\n"])
@pytest.mark.parametrize("n", [40, 41, 42, 43])
def test_genotype_csv_is_decoded_from_its_bytes(tmp_path, monkeypatch, n, end):
    # Neither numpy's text reader nor the per-row walk runs on a genotype
    # CSV, in any of several blocks.
    def unused(*args, **kwargs):
        raise AssertionError("a single-digit block left the byte decoder")

    codes = np.random.default_rng(n).integers(1, 4, size=(n, 7)).astype(np.uint8)
    path = tmp_path / "g.csv"
    write_csv(path, codes, [f"ch1:rs{j}" for j in range(7)])
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    monkeypatch.setattr(np, "loadtxt", unused)
    monkeypatch.setattr(dataio, "_parse_cells", unused)
    monkeypatch.setattr(dataio, "_CSV_BLOCK_CHARS", 100)
    assert np.array_equal(converted_codes(path), codes)
    got, response, _ = parse_csv(path, "ch1:rs3")
    assert got.dtype == response.dtype == np.float64
    assert np.array_equal(got, np.delete(codes, 3, axis=1)) and np.array_equal(response, codes[:, 3])


def test_bad_cell_before_undecodable_text_is_named_first(tmp_path):
    # Rows are read in order: a bad number in the block that holds the
    # undecodable byte is reported, as the row-by-row walk reports it.
    path = tmp_path / "mixed.csv"
    path.write_bytes(b"a,b\n1,NA\n" + b"1,2\n" * 20000 + b"3,\xff\n")
    with pytest.raises(ParseError) as exc:
        parse_csv(path, None)
    assert (exc.value.row, exc.value.column) == (0, 1)
    path.write_bytes(b"a,b\n" + b"1,2\n" * 20000 + b"3,\xff\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        parse_csv(path, None)


# --------------------------------------------------------------------------
# Packed format properties
# --------------------------------------------------------------------------

packed_matrices = st.integers(1, 13).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda p: st.builds(
            GenotypeMatrix,
            codes=st.lists(
                st.integers(1, 3), min_size=n * p, max_size=n * p
            ).map(lambda v: np.array(v, dtype=np.uint8).reshape(n, p)),
            snp_ids=st.lists(st.text(max_size=4), min_size=p, max_size=p).map(tuple),
            chromosomes=st.lists(st.integers(0, 255), min_size=p, max_size=p).map(tuple),
        )
    )
)


def packed_bytes(gm):
    buf = io.BytesIO()
    write_packed(gm, buf)
    return buf.getvalue()


def bit_matrix_payload(codes):
    """The packed payload by the layout's definition: a p x 4 ceil(n/4)
    matrix of bit pairs, zero-padded, each group of four shifted to its
    slot and OR-ed into one byte."""
    n, p = codes.shape
    bits = np.zeros((p, payload_bytes(n, 1) * 4), dtype=np.uint8)
    bits[:, :n] = codes.T - 1
    grouped = bits.reshape(p, -1, 4) << (np.arange(4, dtype=np.uint8) * 2)
    return np.bitwise_or.reduce(grouped, axis=2).tobytes()


@settings(max_examples=80, deadline=None)
@given(gm=packed_matrices)
def test_packed_roundtrip_property(gm):
    # n runs over 1..13, so every n mod 4 padding case is drawn.
    data = packed_bytes(gm)
    assert data[len(data) - payload_bytes(gm.n, gm.p) :] == bit_matrix_payload(gm.codes)
    back = parse_packed(io.BytesIO(data))
    assert np.array_equal(back.codes, gm.codes)
    assert (back.snp_ids, back.chromosomes) == (gm.snp_ids, gm.chromosomes)
    assert packed_bytes(back) == data


@contextlib.contextmanager
def _fifo(data):
    """A FIFO path that one writer thread feeds ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.jcg")
        os.mkfifo(path)

        def feed():
            with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        yield path
        writer.join(timeout=10)
        assert not writer.is_alive()


def _walked(source):
    """An opened file's codes, from its column walk."""
    return np.concatenate([codes for _, codes in source.column_blocks(2)], axis=1), source.snp_ids, source.chromosomes


def _from_every_source(data, policy):
    """What each packed reader gives for the file ``data``: parse_packed of
    a BytesIO, a path and a pipe, and open_packed of a path and a FIFO
    with its column walk; the codes and metadata, or the error's type and
    message."""
    def outcome(read):
        try:
            codes, ids, chroms = read()
            return codes.tobytes(), codes.shape, ids, chroms
        except JciscanError as exc:
            return type(exc), str(exc)

    def parsed(source):
        gm = parse_packed(source, policy)
        return gm.codes, gm.snp_ids, gm.chromosomes

    def piped():
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)  # far below any pipe buffer, so this cannot block
        with os.fdopen(read_end, "rb") as fh:
            return parsed(fh)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.jcg")
        with open(path, "wb") as fh:
            fh.write(data)
        outcomes = [outcome(read) for read in (
            lambda: parsed(io.BytesIO(data)),
            lambda: parsed(path),
            piped,
            lambda: _walked(open_packed(path, policy)),
        )]
    with _fifo(data) as fifo:
        outcomes.append(outcome(lambda: _walked(open_packed(fifo, policy))))
    return outcomes


_MISSING_EXAMPLE = {"gm": make_matrix(np.array([[1, 2], [3, 1], [2, 2], [1, 3], [3, 3]])),
                    "missing": [(3, 1), (0, 0), (4, 1)]}


@settings(max_examples=60, deadline=None)
@given(gm=packed_matrices, missing=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=3),
       policy=st.sampled_from(["reject", "impute"]))
@example(**_MISSING_EXAMPLE, policy="reject")
@example(**_MISSING_EXAMPLE, policy="impute")
def test_packed_every_truncation_offset_fails_cleanly(gm, missing, policy):
    # Every packed source raises the same error, or gives the same codes,
    # for every cut of the file, missing codes (a column of them, when n
    # is 1) under either policy included.
    data = bytearray(packed_bytes(gm))
    start, col_bytes = len(data) - payload_bytes(gm.n, gm.p), payload_bytes(gm.n, 1)
    for row, col in missing:
        row, col = row % gm.n, col % gm.p
        data[start + col * col_bytes + row // 4] |= 0b11 << 2 * (row % 4)
    data = bytes(data)
    for cut in range(len(data) + 1):
        outcomes = _from_every_source(data[:cut], policy)
        assert outcomes == outcomes[:1] * 5, cut
        if cut < len(data):
            assert outcomes[0][0] in (TruncatedFile, NotPackedFile)
        elif not missing:
            assert outcomes[0] == (gm.codes.tobytes(), gm.codes.shape, gm.snp_ids, gm.chromosomes)


@pytest.mark.parametrize("n, p", [(2**62, 2), (4, 2**40), (2**63, 2**63)])
def test_packed_oversized_declared_shape_is_truncated(n, p, tmp_path):
    meta = b"".join(struct.pack("<BH", 1, 1) + b"s" for _ in range(min(p, 2)))
    data = struct.pack("<4sHHQQ", MAGIC, 1, 0, n, p) + meta + bytes(16)
    path = tmp_path / "big.jcg"
    path.write_bytes(data)
    for source in (io.BytesIO(data), path):
        with pytest.raises(TruncatedFile):
            parse_packed(source)
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(data)  # far below any pipe buffer, so this cannot block
    with os.fdopen(read_end, "rb") as fh, pytest.raises(TruncatedFile):
        parse_packed(fh)


def test_packed_bytes_past_the_payload_are_ignored_from_every_source(tmp_path):
    # The payload is read in one call to the end of the stream: trailing
    # bytes are read too, and the decoded matrix is the clean file's.
    # n = 7 leaves a partial last byte per column.
    gm = random_matrix(np.random.default_rng(42), n=7, p=5)
    clean = packed_bytes(gm)
    for extra in (b"\x00", b"\xff" * 3, bytes(range(256)) * 8):
        data = clean + extra
        path = tmp_path / "g.jcg"
        path.write_bytes(data)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)  # far below any pipe buffer, so this cannot block
        with os.fdopen(read_end, "rb") as piped:
            parsed = [parse_packed(source) for source in (io.BytesIO(data), path, piped)]
        for back in parsed:
            assert np.array_equal(back.codes, gm.codes)
            assert (back.snp_ids, back.chromosomes) == (gm.snp_ids, gm.chromosomes)
            assert packed_bytes(back) == clean


def test_genotype_matrix_checks_codes_without_matrix_temporaries():
    codes = np.full((1000, 1000), 2, dtype=np.uint8)
    meta = {"snp_ids": ("a",) * 1000, "chromosomes": (1,) * 1000}
    tracemalloc.start()
    try:
        GenotypeMatrix(codes=codes, **meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * codes.nbytes
    for bad in (0, 4):
        codes[500, 999] = bad
        with pytest.raises(InvalidValue):
            GenotypeMatrix(codes=codes, **meta)


def test_parse_packed_peak_memory_stays_near_the_codes():
    # Decoding column chunks straight into the final array: the peak is the
    # codes, the payload and bounded chunk temporaries, not several
    # n x p intermediates.
    n, p = 400, 5000
    codes = np.random.default_rng(40).integers(1, 4, size=(n, p)).astype(np.uint8)
    buf = io.BytesIO()
    write_packed(make_matrix(codes), buf)
    data = buf.getvalue()
    tracemalloc.start()
    try:
        back = parse_packed(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.codes, codes)
    assert peak <= 1.5 * codes.nbytes + payload_bytes(n, p)


def test_write_packed_peak_memory_stays_below_the_codes(tmp_path):
    # Four row slices OR-ed into one ceil(n/4) x p array: no bit matrix as
    # large as the codes.  n = 403 leaves a partial last byte per column.
    n, p = 403, 5000
    gm = make_matrix(np.random.default_rng(41).integers(1, 4, size=(n, p)))
    path = tmp_path / "g.jcg"
    tracemalloc.start()
    try:
        write_packed(gm, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * gm.codes.nbytes, peak / gm.codes.nbytes
    assert path.read_bytes() == packed_bytes(gm)


@pytest.mark.parametrize("n", [1, 4, 43])
def test_convert_csv_to_packed_carries_rows_between_blocks(tmp_path, monkeypatch, n):
    # Blocks of 5 rows leave 1 to 3 rows past each block's last whole byte,
    # carried to the next block; the bytes are write_packed's.  A quoted
    # first cell sends every row to the csv.reader walk, one row per block.
    rng = np.random.default_rng(n)
    gm = make_matrix(rng.integers(1, 4, size=(n, 9)), ids=[f"rs{j}" for j in range(9)],
                     chroms=[1 + j % 3 for j in range(9)])
    src, out = tmp_path / "g.csv", tmp_path / "g.jcg"
    write_csv(src, gm.codes, [gm.column_label(j) for j in range(gm.p)])
    monkeypatch.setattr(dataio, "_CSV_BLOCK_CHARS", 5 * 2 * gm.p)
    header, first, rest = src.read_text().split("\n", 2)
    for text in (src.read_text(), f'{header}\n"{first[0]}"{first[1:]}\n{rest}'):
        src.write_text(text)
        dataio.convert_csv_to_packed(src, out)
        assert out.read_bytes() == packed_bytes(gm)


def test_convert_csv_to_packed_peak_memory_stays_below_the_codes(tmp_path):
    # The packed bytes (a quarter of the codes, at most doubled by the
    # growth of their array, plus its last copy) and one parsed block:
    # neither the parsed codes nor a concatenation of them is held.
    n, p = 1000, 4000
    codes = np.random.default_rng(44).integers(1, 4, size=(n, p)).astype(np.uint8)
    src, out = tmp_path / "g.csv", tmp_path / "g.jcg"
    write_csv(src, codes, [f"rs{j}" for j in range(p)])
    tracemalloc.start()
    try:
        dataio.convert_csv_to_packed(src, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * codes.nbytes + 2**20, peak / codes.nbytes
    assert out.read_bytes() == packed_bytes(make_matrix(codes, ids=[f"rs{j}" for j in range(p)], chroms=[0] * p))


@pytest.mark.parametrize("n", [200, 1000, 4000])
def test_one_rule_sizes_every_walk_of_the_payload(monkeypatch, n):
    # open_packed's missing-code check, parse_packed's fill and both
    # precompute walks read the payload in blocks of max(64, 2**17 // n)
    # columns: 655, 131 and 64 here.
    widths = []
    read = dataio.PackedGenotypes._payload_blocks

    def spy(self, width):
        widths.append(width)
        return read(self, width)

    monkeypatch.setattr(dataio.PackedGenotypes, "_payload_blocks", spy)
    rng = np.random.default_rng(n)
    data = packed_bytes(make_matrix(rng.integers(1, 4, size=(n, 70))))
    source = open_packed(io.BytesIO(data))
    parse_packed(io.BytesIO(data))
    routes = [type(precompute(source, y)) for y in (rng.integers(0, 2, n).astype(float), rng.normal(size=n))]
    assert routes == [CodeWorkspace, Workspace]
    assert widths == [max(64, 2**17 // n)] * 4


def test_parse_packed_handles_missing_codes_per_column_chunk(monkeypatch):
    # Blocks of two columns: the first missing code in file order, and the
    # modal imputation, are found whichever block holds them.
    monkeypatch.setattr(dataio, "_walk_width", lambda n: 2)
    codes = np.random.default_rng(41).integers(1, 4, size=(9, 7)).astype(np.uint8)
    gm = make_matrix(codes)
    data = bytearray(_with_missing_entry(gm, row=2, col=5))
    data[24 + sum(3 + len(i) for i in gm.snp_ids) + 3 * payload_bytes(9, 1) + 1] |= 0b11 << 6  # (7, 3)
    data = bytes(data)
    with pytest.raises(MissingGenotype) as exc:
        parse_packed(io.BytesIO(data))
    assert (exc.value.column, exc.value.row) == (3, 7)
    back = parse_packed(io.BytesIO(data), missing_policy="impute")
    for row, col in [(7, 3), (2, 5)]:
        present = np.delete(codes[:, col], row)
        assert back.codes[row, col] == np.argmax(np.bincount(present, minlength=4)[1:]) + 1
    untouched = np.ones(codes.shape, dtype=bool)
    untouched[7, 3] = untouched[2, 5] = False
    assert np.array_equal(back.codes[untouched], codes[untouched])


# --------------------------------------------------------------------------
# Undecodable text
# --------------------------------------------------------------------------


def test_undecodable_text_is_a_format_error(tmp_path):
    cases = [
        (parse_csv, b"a,y\n1,\xff\n2,3\n", {"response_column": "y"}),
        (read_phenotype, b"1.5\n\xff\n", {}),
        # A phenotype file is decoded whole before any line is parsed.
        (read_phenotype, b"NA\n" + b"1\n" * 10000 + b"\xff\n", {}),
        (lambda path: list(read_score_dump(path)), b"snp1,snp2,chrom1,chrom2,r_hat\na,b,1,1,0.\xff\n", {}),
    ]
    for reader, raw, kwargs in cases:
        path = tmp_path / "bad.txt"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="not UTF-8"):
            reader(path, **kwargs)


# --------------------------------------------------------------------------
# Byte-order mark
# --------------------------------------------------------------------------

BOM = "\ufeff".encode("utf-8")


def test_csv_header_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(BOM + b"ch1:rs0,x1\n1,2.5\n3,4.5\n")
    matrix, response, names = parse_csv(path, "x1")
    assert names == ["ch1:rs0"]
    assert parse_column_label(names[0]) == (1, "rs0")
    assert matrix.tolist() == [[1.0], [3.0]]
    assert response.tolist() == [2.5, 4.5]


def test_phenotype_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(BOM + b"1\n0\n")
    assert read_phenotype(path).tolist() == [1.0, 0.0]


def test_score_dump_bytes_equal_the_csv_writer(tmp_path):
    # The joined rows against csv.writer writing every cell, on labels that
    # need quoting, or a quoting rule that could drift: an empty label (a
    # lone empty cell is quoted), a comma, a quote, line breaks, edge
    # spaces and non-ASCII text.
    labels = ["", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", " lead", "trail ", "ç é 中", "ch1:x"]
    chroms = [0, 1, 2, 3, 23, 255, 7, 0, 12, 1]
    p = len(labels)
    rng = np.random.default_rng(60)
    rows = [(j1, rng.normal(scale=10.0 ** rng.integers(-300, 300), size=p - 1 - j1)) for j1 in range(p - 1)]
    rows[0][1][:3] = [-0.0, 5e-324, 1 / 3]
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(dataio.DUMP_HEADER)
    for j1, row in rows:
        for j2, score in enumerate(row.tolist(), j1 + 1):
            writer.writerow([labels[j1], labels[j2], chroms[j1], chroms[j2], score])
    path = tmp_path / "dump.csv"
    dataio.write_score_dump(path, iter(rows), labels, tuple(chroms))
    assert path.read_bytes() == reference.getvalue().encode("utf-8")


def test_score_dump_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom_dump.csv"
    path.write_bytes(BOM + b"snp1,snp2,chrom1,chrom2,r_hat\na,b,1,2,0.25\n")
    assert list(read_score_dump(path)) == [("1", "2", 0.25)]


def test_writes_add_no_byte_order_mark(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, np.ones((1, 1)), ["a"])
    assert path.read_bytes() == b"a\n1\n"
