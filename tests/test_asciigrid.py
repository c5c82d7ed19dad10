import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from breakline_dtm import asciigrid, ingest
from breakline_dtm.asciigrid import (
    _lf_lines,
    format_ascii_grid,
    read_ascii_grid,
    write_ascii_grid,
)
from breakline_dtm.errors import HeaderMismatchError
from breakline_dtm.ingest import CONTROL_LINE_ENDS, PointCloud, write_points_xyz
from breakline_dtm.raster import GridSpec

from oracles import per_cell_ascii_grid, per_cell_xyz_text, per_line_ascii_grid

# values whose "%.6f" text is special: non-finite, signed zero, the
# NODATA value itself, 16-digit integers and values that round to zero
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, -9999.0, 1e15, -1e15, 4.9e-7, -4.9e-7, 5e-7]
# |x| * 1e6 from here on is at least 2**52 in float64
BIG = 2.0**52 / 1e6
# reader block sizes: small ones cut inside CRLF pairs, header lines,
# blank runs and lone CRs, and leave lines longer than a block
BLOCK_BYTES = [1, 7, 64, asciigrid._READ_BLOCK_BYTES]


@st.composite
def near_ties(draw):
    """Values where rounding |x| * 1e6 in float64 can pick the wrong integer.

    The double nearest to (k + 0.5) / 1e6 and its neighbours, exact
    dyadic ties such as 1 / 128 (whose product with 1e6 is exactly
    k + 0.5), and values a few ulps either side of 2**52 / 1e6.
    """
    kind = draw(st.sampled_from(["half", "dyadic", "big"]))
    if kind == "half":
        k = draw(st.one_of(st.integers(0, 10**7), st.integers(0, 2**52 - 1)))
        x = (k + 0.5) / 1e6
    elif kind == "dyadic":
        x = (2 * draw(st.integers(0, 2**40)) + 1) / 128
    else:
        x = BIG
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return draw(st.sampled_from([x, -x]))


cells = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-6, 1e-6, allow_nan=False),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    near_ties(),
    # subnormals and tiny negatives print as (-)0.000000
    st.floats(-1e-300, 0.0, allow_subnormal=True),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]),
    # the first value of each width of the integer part, and the last before it
    st.integers(0, 9).flatmap(
        lambda e: st.sampled_from([10.0**e, 10.0**e - 5e-7, -(10.0**e), 5e-7 - 10.0**e])
    ),
)
rasters = st.one_of(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=cells),
    hnp.arrays(np.float64, st.tuples(st.just(1), st.integers(1, 40)), elements=cells),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(1)), elements=cells),
)


def test_single_cell_exact_bytes():
    grid = GridSpec(0, 0, 1.0, 1, 1)
    text = format_ascii_grid(np.array([[7.0]]), grid)
    assert text == (
        "ncols 1\n"
        "nrows 1\n"
        "xllcorner 0.000000\n"
        "yllcorner 0.000000\n"
        "cellsize 1.000000\n"
        "NODATA_value -9999\n"
        "7.000000\n"
    )


def test_round_trip_random_raster(tmp_path):
    rng = np.random.default_rng(33)
    grid = GridSpec(12.25, -4.5, 0.5, 32, 32)
    values = rng.normal(250, 40, (32, 32))
    path = tmp_path / "r.asc"
    write_ascii_grid(values, grid, path)
    back, back_grid = read_ascii_grid(path)
    assert back_grid == grid
    assert np.abs(back - values).max() <= 1e-5


def test_nodata_round_trip(tmp_path):
    grid = GridSpec(0, 0, 2.0, 3, 2)
    values = np.array([[1.0, np.nan, 3.0], [np.nan, 5.0, 6.0]])
    path = tmp_path / "n.asc"
    write_ascii_grid(values, grid, path)
    raw = path.read_text()
    assert "-9999" in raw.splitlines()[6].split()
    back, _ = read_ascii_grid(path)
    assert np.isnan(back[0, 1]) and np.isnan(back[1, 0])
    assert back[0, 0] == 1.0 and back[1, 2] == 6.0


def test_top_row_first_orientation(tmp_path):
    # row 0 is the south row in memory; the file stores north first
    grid = GridSpec(0, 0, 1.0, 2, 2)
    values = np.array([[1.0, 2.0], [3.0, 4.0]])  # row 0 = south
    text = format_ascii_grid(values, grid)
    data_lines = text.splitlines()[6:]
    assert data_lines[0] == "3.000000 4.000000"
    assert data_lines[1] == "1.000000 2.000000"
    path = tmp_path / "o.asc"
    path.write_text(text)
    back, _ = read_ascii_grid(path)
    assert np.array_equal(back, values)


def test_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(34)
    grid = GridSpec(5, 5, 0.25, 8, 6)
    values = rng.normal(size=(6, 8))
    a = tmp_path / "a.asc"
    b = tmp_path / "b.asc"
    write_ascii_grid(values, grid, a)
    write_ascii_grid(values.copy(), grid, b)
    assert a.read_bytes() == b.read_bytes()


def test_failed_write_leaves_earlier_file(tmp_path):
    # the first block reaches the disk before the second one fails
    grid = GridSpec(0, 0, 1.0, 4, 6)
    path = tmp_path / "f.asc"
    write_ascii_grid(np.zeros((6, 4)), grid, path)
    before = path.read_bytes()
    token_matrix = ingest._token_matrix
    calls = []

    def fails_second(x, nonfinite):
        calls.append(x.size)
        if len(calls) == 2:
            raise MemoryError
        return token_matrix(x, nonfinite)

    with mock.patch.object(ingest, "_FORMAT_CHUNK_CELLS", 8), \
            mock.patch.object(ingest, "_token_matrix", fails_second):
        with pytest.raises(MemoryError):
            write_ascii_grid(np.ones((6, 4)), grid, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.asc"]


def test_header_mismatch_errors(tmp_path):
    p = tmp_path / "bad.asc"
    p.write_text("ncols 2\nnrows 2\n1 2\n3 4\n")
    with pytest.raises(HeaderMismatchError):
        read_ascii_grid(p)
    p.write_text(
        "ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n1 2\n3 4\n"
    )
    with pytest.raises(HeaderMismatchError):
        read_ascii_grid(p)
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n1 x\n"
    )
    with pytest.raises(HeaderMismatchError):
        read_ascii_grid(p)


def test_shape_validation():
    grid = GridSpec(0, 0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        format_ascii_grid(np.zeros((2, 3)), grid)


@settings(max_examples=200, deadline=None)
@given(
    rasters,
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.floats(0.01, 100),
    st.sampled_from([1, 5, 7, 1 << 16]),
)
def test_writer_bytes_equal_per_cell_oracle(values, x0, y0, cell, chunk_cells):
    # small chunks put tokens of few widths, or a lone slow cell, in a block
    grid = GridSpec(x0, y0, cell, values.shape[1], values.shape[0])
    with mock.patch.object(ingest, "_FORMAT_CHUNK_CELLS", chunk_cells):
        text = format_ascii_grid(values, grid)
    assert text == per_cell_ascii_grid(values, grid)


def test_long_slow_tokens_keep_the_byte_matrix_narrow():
    # one 1e300 ("1000...000.000000", 308 bytes) in every 109-row block
    # used to widen that block's whole byte matrix to 309 columns
    rng = np.random.default_rng(31)
    grid = GridSpec(0, 0, 0.5, 600, 600)
    plain = rng.normal(100.0, 20.0, grid.shape)
    long = plain.copy()
    long[::109, 7] = 1e300
    long[3, 3:6] = [-4.5e15, 2.0**60, np.nan]

    def peak(values):
        tracemalloc.start()
        try:
            text = format_ascii_grid(values, grid)
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    plain_peak, _ = peak(plain)
    long_peak, text = peak(long)
    assert long_peak <= 1.5 * plain_peak
    assert text == per_cell_ascii_grid(long, grid)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.just(3)), elements=cells),
    st.sampled_from([1, 5, 7, 1 << 16]),
)
@example(np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0078125, 5e-324]]), 1)
def test_points_writer_bytes_equal_per_cell_oracle(tmp_path_factory, xyz, chunk_cells):
    pc = PointCloud(xyz)
    stream = io.StringIO()
    path = tmp_path_factory.mktemp("points") / "p.xyz"
    with mock.patch.object(ingest, "_FORMAT_CHUNK_CELLS", chunk_cells):
        write_points_xyz(pc, stream)
        write_points_xyz(pc, path)
    expected = per_cell_xyz_text(xyz)
    assert stream.getvalue() == expected
    assert path.read_bytes() == expected.encode("ascii")


def _integer_cells(dtype):
    """Any value of ``dtype``, often one of its extremes or a value past 2**53."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return st.booleans()
    info = np.iinfo(dtype)
    near = [info.min, info.min + 1, info.max - 1, info.max, 0, 1, -1, 2**53 - 1, 2**53]
    near += [2**53 + 1, 2**63 + 1, -(2**53) - 1]  # float64 rounds the odd ones
    special = [v for v in near if info.min <= v <= info.max]
    return st.one_of(st.sampled_from(special), hnp.from_dtype(dtype))


@st.composite
def integer_rasters(draw):
    dtype = draw(st.sampled_from([np.bool_, np.uint8, np.int32, np.int64, np.uint64]))
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    return draw(hnp.arrays(dtype, shape, elements=_integer_cells(dtype)))


@settings(max_examples=200, deadline=None)
@given(integer_rasters(), st.sampled_from([1, 5, 7, 1 << 16]))
def test_integer_writer_bytes_equal_per_cell_oracle(values, chunk_cells):
    # small chunks split the raster into many blocks
    grid = GridSpec(0.5, -2.0, 0.5, values.shape[1], values.shape[0])
    with mock.patch.object(ingest, "_FORMAT_CHUNK_CELLS", chunk_cells):
        text = format_ascii_grid(values, grid)
    assert text == per_cell_ascii_grid(values, grid)


def _read_in_blocks(path, block_bytes):
    """Read a well-formed grid; the whole-file path, kept for faults, is not taken."""
    with mock.patch.object(asciigrid, "_READ_BLOCK_BYTES", block_bytes), \
            mock.patch.object(asciigrid, "_read_whole", side_effect=AssertionError("fell back")):
        back, grid = read_ascii_grid(path)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    return back, grid


@settings(max_examples=100, deadline=None)
@given(rasters, st.data(), st.sampled_from(BLOCK_BYTES))
def test_reader_equals_per_line_oracle(tmp_path_factory, values, data, block_bytes):
    grid = GridSpec(-3.5, 7.25, 0.5, values.shape[1], values.shape[0])
    lines = format_ascii_grid(values, grid).split("\n")
    # every ASCII line boundary of str.splitlines(), mixed within a file
    eols = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    sep = data.draw(st.sampled_from([" ", "\t", " \x1f"]))
    text = "".join(ln.replace(" ", sep) + data.draw(eols) for ln in lines[:-1])
    path = tmp_path_factory.mktemp("grid") / "g.asc"
    path.write_bytes(text.encode("ascii"))
    back, back_grid = _read_in_blocks(path, block_bytes)
    expected, geometry = per_line_ascii_grid(text)
    assert (back_grid.origin_x, back_grid.origin_y, back_grid.cell,
            back_grid.ncols, back_grid.nrows) == geometry
    assert back.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text", [b"", b"1 2", b"1 2\n3 4\n", b"1 2\r\n3 4\r\n", b"\r\n\r\n"])
def test_lf_lines_returns_lf_and_crlf_text_itself(text):
    assert _lf_lines(text) is text


@pytest.mark.parametrize("eol", [b"\r", *CONTROL_LINE_ENDS])
def test_lf_lines_rewrites_lone_cr_and_control_line_ends(eol):
    assert _lf_lines(b"1 2" + eol + b"3 4" + eol) == b"1 2\n3 4\n"
    # one odd line end rewrites the CRLFs of the same text too
    assert _lf_lines(b"1 2\r\n3 4" + eol + b"5 6\r\n") == b"1 2\n3 4\n5 6\n"
    assert _lf_lines(b"1 2\r\r\n" + eol) == b"1 2\n\n\n"


def test_reader_skips_blank_lines_like_oracle(tmp_path):
    texts = [
        "\nncols 2\n\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n\n1 -9999\n  \n3 4\n\n",
        # CRLF, lone CR and blank runs in and around the header; no final line end
        "\r\n\r\nncols 3\r\nnrows 3\rxllcorner 0\r\n\r\nyllcorner 0\ncellsize 1\r"
        "NODATA_value -9999\r\n\r\r\n1 2 3\r\n \r4 -9999 6\r\r\n\n7 8 9",
    ]
    p = tmp_path / "b.asc"
    for text in texts:
        p.write_bytes(text.encode("ascii"))
        expected, _ = per_line_ascii_grid(text)
        for block_bytes in BLOCK_BYTES:
            back, _ = _read_in_blocks(p, block_bytes)
            assert back.tobytes() == expected.tobytes(), (text, block_bytes)


def _read_error(path) -> str:
    """The reader's message for a faulty file, the same at every block size."""
    messages = set()
    for block_bytes in BLOCK_BYTES:
        with mock.patch.object(asciigrid, "_READ_BLOCK_BYTES", block_bytes), \
                pytest.raises(HeaderMismatchError) as info:
            read_ascii_grid(path)
        messages.add(str(info.value))
    assert len(messages) == 1, messages
    return messages.pop()


def test_reader_errors_name_the_file(tmp_path):
    head = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
    p = tmp_path / "bad.asc"
    cases = [
        (head.encode() + b"1 2 3\n4 5 \xe9\n", r"bad\.asc: non-ASCII byte 0xe9 at offset 80$"),
        # the first fault in the file is not the one reported
        (head.encode() + b"1 2\n4 5 6\n7 8 9\n\xff", r"bad\.asc: non-ASCII byte 0xff at offset"),
        (head.encode()[:20] + b"\x80" + head.encode()[20:], "non-ASCII byte 0x80 at offset 20$"),
        # loadtxt reads 0xa0 (NBSP in Latin-1) as whitespace
        (head.encode() + b"1 2\xa03\n4 5 6\n", "non-ASCII byte 0xa0 at offset 73$"),
        (head + "1 2 3\n4 5\n", "data row 2 has 2 values, header declares ncols 3$"),
        (head + "1 2 3\n4 5 6\n7 8\n", "data row 3 has 2 values, header declares ncols 3$"),
        (head + "1 2 3\n", "header declares 2 rows but file has 1$"),
        (head + "1 2 3\n4 5 6\n7 8 9\n", "header declares 2 rows but file has 3$"),
        (head, "header declares 2 rows but file has 0$"),
        (head + "1 2\n3 4\n", r"header declares 2x3 but data is \(2, 2\)$"),
        # one value per row would broadcast into a row of three
        (head + "1\n2\n", r"header declares 2x3 but data is \(2, 1\)$"),
        (head + "1 2 3\n4 x 6\n", "non-numeric cell value: "),
        (head.replace("cellsize 1\n", "") + "1 2 3\n4 5 6\n", r"header missing \['cellsize'\]"),
        ("ncols 3\nnrows 2\n1 2 3\n4 5 6\n", "header missing"),
    ]
    for key, value, message in [
        ("ncols", "2.7", "header ncols must be a positive integer, got 2.7"),
        ("ncols", "-3", "header ncols must be a positive integer, got -3.0"),
        ("nrows", "0", "header nrows must be a positive integer, got 0.0"),
        ("xllcorner", "nan", "header xllcorner is not finite: nan"),
        ("yllcorner", "-inf", "header yllcorner is not finite: -inf"),
        ("cellsize", "inf", "header cellsize is not finite: inf"),
        ("NODATA_value", "nan", "header nodata_value is not finite: nan"),
        ("cellsize", "0", r"header cellsize must be > 0, got 0\.0"),
        ("cellsize", "-1", r"header cellsize must be > 0, got -1\.0"),
    ]:
        lines = [f"{key} {value}" if ln.split()[0] == key else ln for ln in head.splitlines()]
        cases.append(("\n".join(lines) + "\n1 2 3\n4 5 6\n", rf"bad\.asc: {message}"))
    for payload, pattern in cases:
        p.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        assert re.search(pattern, _read_error(p)), (payload, pattern)
