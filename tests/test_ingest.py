import io
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breakline_dtm import ingest
from breakline_dtm.errors import (
    EmptyInputError,
    MalformedRecordError,
    UnsupportedFormatError,
)
from breakline_dtm.ingest import (
    BBox,
    PointCloud,
    _drop_nonfinite,
    _parse_xyz_lines,
    bounds,
    loadtxt_f64,
    read_points,
    write_points_xyz,
)
from oracles import las_xyz_by_copy


def make_las(points, scale=(0.01, 0.01, 0.01), offset=(0.0, 0.0, 0.0),
             version=(1, 2), fmt=0, declared_count=None, extra_record_bytes=8, gap=0):
    """Hand-assembled LAS file, point records as raw int32 XYZ plus padding.

    ``gap`` bytes (as variable-length records would be) sit between the
    header and the first point record.
    """
    rec_len = 12 + extra_record_bytes
    header_size = {0: 227, 1: 227, 2: 227, 3: 235, 4: 375}[version[1]]
    header = bytearray(header_size)
    header[0:4] = b"LASF"
    header[24] = version[0]
    header[25] = version[1]
    struct.pack_into("<H", header, 94, header_size)
    struct.pack_into("<I", header, 96, header_size + gap)
    header[104] = fmt
    struct.pack_into("<H", header, 105, rec_len)
    ixyz = np.asarray(points, dtype="<i4").reshape(-1, 3)
    n = len(ixyz) if declared_count is None else declared_count
    if version[1] >= 4:
        struct.pack_into("<Q", header, 247, n)
    else:
        struct.pack_into("<I", header, 107, n)
    struct.pack_into("<3d", header, 131, *scale)
    struct.pack_into("<3d", header, 155, *offset)
    body = np.zeros((len(ixyz), rec_len), dtype=np.uint8)
    body[:, :12] = ixyz.view(np.uint8).reshape(-1, 12)
    return bytes(header) + bytes(gap) + body.tobytes()




def test_text_mixed_separators():
    pc = read_points(b"1.0 2.0 3.0\n4,5,6\n")
    assert pc.xyz.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_text_comments_blank_lines_extra_fields():
    data = b"# header\n\n1 2 3 99 98\n  4\t5,6\n"
    pc = read_points(data)
    assert pc.count == 2
    assert pc.xyz[1].tolist() == [4.0, 5.0, 6.0]


def test_text_crlf_line_endings():
    pc = read_points(b"1 2 3\r\n4 5 6\r\n")
    assert pc.count == 2


def test_text_only_comments_is_empty():
    with pytest.raises(EmptyInputError):
        read_points(b"# nothing\n# here\n")


def test_empty_stream_raises():
    with pytest.raises(EmptyInputError):
        read_points(b"")


def test_malformed_lenient_skips_and_counts():
    pc = read_points(b"1 2 3\nnot a point\n4 5\n7 8 9\n")
    assert pc.count == 2
    assert pc.skipped_records == 2


def test_malformed_strict_raises():
    with pytest.raises(MalformedRecordError):
        read_points(b"1 2 3\nbad line\n", strict=True)


def test_nonfinite_dropped_and_counted():
    pc = read_points(b"1 2 3\n4 5 nan\n6 7 inf\n8 9 10\n")
    assert pc.count == 2
    assert pc.dropped_nonfinite == 2


def test_las_scale_offset_decoding():
    # raw X=250 with scale 0.01 offset 100 -> 102.5, decoded per the
    # header arithmetic done by hand in make_las
    data = make_las([(250, 300, 400)], scale=(0.01, 0.01, 0.01), offset=(100, 200, 300))
    pc = read_points(data)
    assert pc.xyz[0] == pytest.approx([102.5, 203.0, 304.0], abs=1e-12)


@pytest.mark.parametrize("gap", [0, 2, 5])  # point data at byte 227, 229, 232
@pytest.mark.parametrize("rec_len", [13, 21, 35])
def test_las_decode_equals_copy_oracle_at_odd_offsets(gap, rec_len):
    rng = np.random.default_rng(100 * rec_len + gap)
    ixyz = rng.integers(-(2**31), 2**31, size=(257, 3))
    ixyz[:2] = [[-(2**31)] * 3, [2**31 - 1] * 3]
    scale, offset = (0.001, 0.01, 1e-7), (4.5e5, -1234.5678, 0.1)
    data = make_las(ixyz, scale, offset, extra_record_bytes=rec_len - 12, gap=gap)
    expected = las_xyz_by_copy(data, 227 + gap, rec_len, len(ixyz), scale, offset)
    assert read_points(data).xyz.tobytes() == expected.tobytes()
    # a partial record at the end is not read
    assert read_points(data + b"\x7f" * (rec_len - 1)).xyz.tobytes() == expected.tobytes()


def test_las_auto_detection_and_explicit():
    data = make_las([(0, 0, 0), (100, 100, 100)])
    assert read_points(data).count == 2


def test_las_14_point_format_6():
    data = make_las([(1, 2, 3)], version=(1, 4), fmt=6, extra_record_bytes=18)
    pc = read_points(data)
    assert pc.xyz[0] == pytest.approx([0.01, 0.02, 0.03])


@pytest.mark.parametrize("minor, public", [(0, 227), (1, 227), (2, 227), (3, 235), (4, 375)])
def test_las_header_size_below_public_header_rejected(minor, public):
    data = make_las([(1, 2, 3)], version=(1, minor))
    assert read_points(data).count == 1
    short = bytearray(data)
    struct.pack_into("<H", short, 94, public - 1)
    with pytest.raises(
        UnsupportedFormatError, match=f"LAS 1.{minor} header_size {public - 1} .* {public}-byte"
    ):
        read_points(bytes(short))


def test_las_truncated_body_lenient_vs_strict():
    data = make_las([(1, 1, 1), (2, 2, 2)], declared_count=5)
    pc = read_points(data)
    assert pc.count == 2
    assert pc.skipped_records == 3
    with pytest.raises(MalformedRecordError):
        read_points(data, strict=True)


def test_las_compressed_flag_rejected():
    data = make_las([(1, 1, 1)], fmt=0x80)
    with pytest.raises(UnsupportedFormatError):
        read_points(data)


def test_bad_magic_rejected_as_las():
    # without the LASF magic the bytes go to the text reader, which finds no point
    with pytest.raises(EmptyInputError):
        read_points(b"NOPE" + b"\x00" * 300)


def test_bounds_basic_and_degenerate():
    pc = PointCloud(np.array([[0, 0, 1], [2, 3, 1]], dtype=float))
    assert bounds(pc) == BBox(0, 0, 2, 3)
    single = PointCloud(np.array([[5.0, 5.0, 5.0]]))
    assert bounds(single) == BBox(5, 5, 5, 5)


def test_bounds_matches_linear_scan():
    rng = np.random.default_rng(42)
    xyz = np.column_stack(
        [rng.uniform(0, 10, 1000), rng.uniform(0, 10, 1000), rng.uniform(0, 10, 1000)]
    )
    pc = PointCloud(xyz)
    bb = bounds(pc)
    # brute-force oracle: scan every point
    mnx = mny = np.inf
    mxx = mxy = -np.inf
    for x, y, _ in xyz:
        mnx, mxx = min(mnx, x), max(mxx, x)
        mny, mxy = min(mny, y), max(mxy, y)
    assert (bb.min_x, bb.min_y, bb.max_x, bb.max_y) == (mnx, mny, mxx, mxy)


def test_bounds_empty_raises():
    with pytest.raises(EmptyInputError):
        bounds(PointCloud(np.empty((0, 3))))


def test_read_is_deterministic():
    data = b"1.5 2.5 3.5\n-4 5 -6\n"
    a = read_points(data)
    b = read_points(data)
    assert np.array_equal(a.xyz, b.xyz)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e5, 1e5).map(lambda v: round(v, 6)),
            st.floats(-1e5, 1e5).map(lambda v: round(v, 6)),
            st.floats(-1e3, 1e3).map(lambda v: round(v, 6)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_xyz_text_round_trip(points):
    pc = PointCloud(np.asarray(points, dtype=float))
    buf = io.StringIO()
    write_points_xyz(pc, buf)
    back = read_points(buf.getvalue().encode())
    assert np.allclose(back.xyz, pc.xyz, atol=5e-7)


def test_pointcloud_is_read_only():
    pc = read_points(b"1 2 3\n")
    with pytest.raises(ValueError):
        pc.xyz[0, 0] = 9.0


@pytest.mark.parametrize(
    "axis, scale",
    [("x", (0.0, 0.01, 0.01)), ("y", (0.01, float("nan"), 0.01)), ("z", (0.01, 0.01, float("inf")))],
)
def test_las_unusable_scale_factor_rejected(axis, scale):
    data = make_las([(1, 2, 3), (4, 5, 6)], scale=scale)
    with pytest.raises(UnsupportedFormatError, match=f"LAS {axis} scale factor"):
        read_points(data)


def test_cli_las_zero_scale_exits_2(tmp_path, capsys):
    from breakline_dtm.cli import main

    path = tmp_path / "zero.las"
    path.write_bytes(make_las([(1, 2, 3), (4, 5, 6)], scale=(0.01, 0.01, 0.0)))
    assert main(["dtm", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "LAS z scale factor is 0.0" in capsys.readouterr().err


def _per_line_read(data, strict):
    """The per-line parser alone, without the bulk loadtxt route."""
    xyz, skipped = _parse_xyz_lines(data, strict)
    xyz, dropped = _drop_nonfinite(xyz)
    if xyz.shape[0] == 0:
        raise EmptyInputError(
            f"no valid points in text input: {skipped} malformed record(s) skipped "
            f"(--strict names the first), {dropped} with non-finite coordinates dropped"
        )
    return PointCloud(xyz, dropped_nonfinite=dropped, skipped_records=skipped)


def _outcome(read, data, strict):
    try:
        pc = read(data, strict)
    except (EmptyInputError, MalformedRecordError, UnsupportedFormatError) as exc:
        return type(exc).__name__, str(exc)
    return pc.xyz.shape, pc.xyz.tobytes(), pc.skipped_records, pc.dropped_nonfinite


_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e5, 1e5).map(lambda v: f"{v:.6f}"),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e5, 1e5).map(lambda v: f"{v:.3e}"),
)
_odd_token = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "+Infinity", "1_0", "1e5_0", ".5", "5.", "+1.5", "1e500",
    "0x10", "abc", "1d5", "1.5e", "-", "\x00", "3\x01", "\x7f", "\u00e9", "\u0661",
])
_sep = st.sampled_from([" ", "\t", "  ", " \t ", ",", ", ", "\x1f", "\u00a0"])
_eol = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\u2028"])


def _sometimes(draw):
    return draw(st.integers(0, 3)) == 0


@st.composite
def _xyz_text(draw):
    """XYZ text that is clean except for a few independently drawn defects."""
    odd_tokens, odd_seps, odd_eols, comments, bad_bytes = (_sometimes(draw) for _ in range(5))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 5) if odd_tokens else st.integers(3, 5))
        token = st.one_of(_number, _odd_token) if odd_tokens else _number
        sep = draw(_sep if odd_seps else st.sampled_from([" ", "\t", "  "]))
        line = draw(st.sampled_from(["", " ", "\t"])) + sep.join(draw(token) for _ in range(n))
        if comments:
            line += draw(st.sampled_from(["", " # note", "#"]))
            line = draw(st.sampled_from([line, line, "# comment"]))
        lines.append(draw(st.sampled_from([line, line, line, ""])))
    eol = draw(_eol if odd_eols else st.sampled_from(["\n", "\r\n"]))
    data = (eol.join(lines) + draw(st.sampled_from([eol, "", "\n\n"]))).encode("utf-8")
    if bad_bytes:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x85", b"\xa0"])) + data[cut:]
    return data


@settings(max_examples=400, deadline=None)
@given(_xyz_text(), st.booleans())
def test_xyz_fast_path_matches_per_line_parser(data, strict):
    assert _outcome(read_points, data, strict) == _outcome(_per_line_read, data, strict)


def test_xyz_bulk_path_taken_only_on_plain_text(monkeypatch):
    seen = _route_spy(monkeypatch)
    read_points(b"1 2 3\r\n4\t5 6 extra\n\n")
    assert seen == [io.BytesIO]
    # every ASCII line boundary of str.splitlines() is read as LF
    for eol in (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e"):
        seen.clear()
        xyz = read_points(b"1 2 3" + eol + b"4 5 6\r\n7 8 9" + eol).xyz
        assert seen == [io.BytesIO] and xyz.tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    for data in (b"# c\n1 2 3\n", b"1,2,3\n", b"1 2 3\xc3\xa9\n"):
        seen.clear()
        _outcome(read_points, data, False)  # catches the non-ASCII text's EmptyInputError
        assert seen == [_parse_xyz_lines]
    # loadtxt fails on a short line, and the per-line parser reads the text again
    seen.clear()
    read_points(b"1 2 3\n4 5\n")
    assert seen == [io.BytesIO, _parse_xyz_lines]


@pytest.mark.parametrize("data", [
    b"1 2 3\n4 5 6\n",
    b"  1\t2\t3 extra fields\r\n4 5 6 7\r\n\n",
    b"1 2 3\n4 5 nan\n-inf 1 2\n",
    b"\n \n",
    b"nan 1 2\n",
    *(b"1 2 3" + ctrl + b"4 5 6\n" for ctrl in (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")),
    b"1 2 3\n4 5 6\xa0\n",
    b"1 2 3\r4 5 6\r",
    b"1_0 2 3\n",
    b"1 2 3\x00\n",
])
@pytest.mark.parametrize("strict", [False, True])
def test_xyz_fast_path_examples(data, strict):
    assert _outcome(read_points, data, strict) == _outcome(_per_line_read, data, strict)


def _route_spy(monkeypatch):
    """The parses of XYZ text from here on, in order.

    A loadtxt_f64 call is recorded as the type of its argument (str for a
    file by name), a per-line parse as ``_parse_xyz_lines``.
    """
    seen = []

    def spy(text, usecols=None):
        seen.append(type(text))
        return loadtxt_f64(text, usecols)

    def per_line(data, strict):
        seen.append(_parse_xyz_lines)
        return _parse_xyz_lines(data, strict)

    monkeypatch.setattr(ingest, "loadtxt_f64", spy)
    monkeypatch.setattr(ingest, "_parse_xyz_lines", per_line)
    return seen


def _read_path(path):
    return lambda data, strict: read_points(path, strict)


@settings(max_examples=300, deadline=None)
@given(_xyz_text(), st.booleans())
def test_xyz_file_read_by_path_matches_per_line_parser(tmp_path_factory, data, strict):
    path = tmp_path_factory.mktemp("xyz") / "points.xyz"
    path.write_bytes(data)
    assert _outcome(_read_path(path), data, strict) == _outcome(_per_line_read, data, strict)


@pytest.mark.parametrize("data, by_name", [
    (b"1 2 3\n4 5 6\n", True),
    (b"1 2 3\r\n4\t5 6 extra\r\n\n", True),
    (b"1 2 3\n4 5 nan\n-inf 1 2", True),
    (b"", True),
    (b" \n\t\n", True),
    (b"1 2 3\n4 5\n", True),  # loadtxt fails on it: the per-line parser reads it again
    (b"1_0 2 3\n", True),
    (b"1 2 3\x00\n", True),
    (b"1 2 3\r4 5 6\r", False),
    (b"1 2 3\x0c4 5 6\n", False),
    (b"# c\n1 2 3\n", False),
    (b"1,2,3\n", False),
    (b"1 2 3\xc3\xa9\n", False),
    (b"LASF 1 2 3\n", False),
])
@pytest.mark.parametrize("strict", [False, True])
def test_xyz_file_route_and_outcome(tmp_path, monkeypatch, data, by_name, strict):
    path = tmp_path / "points.xyz"
    path.write_bytes(data)
    seen = _route_spy(monkeypatch)
    assert _outcome(_read_path(path), data, strict) == _outcome(read_points, data, strict)
    assert (str in seen) == by_name


def test_xyz_file_named_as_compressed_is_read_as_text(tmp_path, monkeypatch):
    path = tmp_path / "points.xyz.gz"  # plain text: numpy's datasource would gunzip it
    path.write_bytes(b"1 2 3\n4 5 6\n")
    seen = _route_spy(monkeypatch)
    assert read_points(path).xyz.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert str not in seen


def test_xyz_fifo_is_read_once(tmp_path, monkeypatch):
    fifo = tmp_path / "points.fifo"
    os.mkfifo(fifo)
    seen = _route_spy(monkeypatch)
    read = []
    # each open of a pipe waits for the other end, and a second open for
    # reading would wait for a writer forever
    reader = threading.Thread(target=lambda: read.append(read_points(str(fifo))), daemon=True)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"1 2 3\n4 5 6\n",), daemon=True)
    reader.start()
    writer.start()
    for thread in (writer, reader):
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert read[0].xyz.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert str not in seen


def test_cli_directory_input_exits_2(tmp_path, monkeypatch, capsys):
    from breakline_dtm.cli import main

    seen = _route_spy(monkeypatch)
    with pytest.raises(IsADirectoryError):
        read_points(tmp_path)
    assert main(["dtm", str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "input error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not seen
