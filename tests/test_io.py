import math
import struct

import numpy as np
import pytest

from nuclei3d import (
    Detection,
    LabelVolume,
    Volume,
    VoxelSize,
    read_detections,
    read_report,
    read_volume,
    write_detections,
    write_report,
    write_volume,
)
from nuclei3d.errors import (
    BadMagicError,
    ChannelCountError,
    FormatError,
    MalformedRowError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
)


def _dtype_tag(path):
    return struct.unpack_from("<I", path.read_bytes(), 8)[0]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
def test_volume_round_trip_all_dtypes(tmp_path, rng, dtype):
    data = (rng.random((2, 3, 4, 5)) * 100).astype(dtype)
    v = Volume(data, VoxelSize(0.122, 0.116, 0.116))
    path = tmp_path / "v.v3dr"
    write_volume(path, v)
    assert read_volume(path) == v
    assert _dtype_tag(path) == {np.uint8: 0, np.uint16: 1, np.float32: 3}[dtype]


def test_label_round_trip(tmp_path, rng):
    lab = rng.integers(0, 9, size=(4, 5, 6)).astype(np.int32)
    lv = LabelVolume(lab, VoxelSize(2.0, 1.0, 1.0))
    path = tmp_path / "l.v3dr"
    write_volume(path, lv)
    assert _dtype_tag(path) == 2
    got = read_volume(path)
    assert isinstance(got, LabelVolume)
    assert got == lv


def test_round_trip_bytes_are_identical(tmp_path, rng):
    v = Volume(rng.random((3, 2, 2, 2)).astype(np.float32))
    a, b = tmp_path / "a.v3dr", tmp_path / "b.v3dr"
    write_volume(a, v)
    write_volume(b, read_volume(a))
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic(tmp_path):
    v = Volume(np.zeros((1, 2, 2, 2), dtype=np.float32))
    path = tmp_path / "v.v3dr"
    write_volume(path, v)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_volume(path)


def test_bad_version(tmp_path):
    v = Volume(np.zeros((1, 2, 2, 2), dtype=np.float32))
    path = tmp_path / "v.v3dr"
    write_volume(path, v)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        read_volume(path)


def test_unknown_dtype_tag(tmp_path):
    v = Volume(np.zeros((1, 2, 2, 2), dtype=np.float32))
    path = tmp_path / "v.v3dr"
    write_volume(path, v)
    raw = bytearray(path.read_bytes())
    raw[8] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDtypeError):
        read_volume(path)


def test_truncated_payload(tmp_path):
    v = Volume(np.zeros((1, 2, 5, 10), dtype=np.float32))
    path = tmp_path / "v.v3dr"
    write_volume(path, v)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])  # one voxel short
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)
    path.write_bytes(raw + b"\x00\x00\x00\x00")  # one voxel too many
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)


@pytest.mark.parametrize("dtype", [np.uint8, np.float32])
@pytest.mark.parametrize("delta", [-1, 1])
def test_payload_one_byte_off_names_both_sizes(tmp_path, dtype, delta):
    path = tmp_path / "v.v3dr"
    write_volume(path, Volume(np.zeros((2, 3, 4, 5), dtype=dtype)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] if delta < 0 else raw + b"\x00")
    expected = 120 * np.dtype(dtype).itemsize
    message = f"payload has {expected + delta} bytes, header declares {expected}"
    with pytest.raises(TruncatedPayloadError, match=message):
        read_volume(path)


def test_huge_header_counts_refused_without_allocating(tmp_path):
    path = tmp_path / "v.v3dr"
    write_volume(path, Volume(np.zeros((1, 2, 2, 2), dtype=np.float32)))
    raw = bytearray(path.read_bytes())
    raw[12:28] = struct.pack("<4I", *(2**32 - 1,) * 4)
    path.write_bytes(bytes(raw))
    with pytest.raises(TruncatedPayloadError, match="payload has 32 bytes"):
        read_volume(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "v.v3dr"
    path.write_bytes(b"V3DR\x01")
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)


def test_i32_reserved_for_labels(tmp_path):
    v = Volume(np.zeros((1, 2, 2, 2), dtype=np.int32))
    with pytest.raises(UnsupportedDtypeError, match="i32 is reserved for label volumes"):
        write_volume(tmp_path / "v.v3dr", v)


def test_multichannel_i32_file_rejected(tmp_path, rng):
    # hand-build a header declaring 2-channel i32: not a legal label file
    v = Volume(rng.random((2, 2, 2, 2)).astype(np.float32))
    path = tmp_path / "v.v3dr"
    write_volume(path, v)
    raw = bytearray(path.read_bytes())
    raw[8] = 2  # dtype tag i32, same itemsize as f32
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_volume(path)


@pytest.mark.parametrize("volume", [np.zeros((1, 2, 2, 2), np.float32), None, "v"])
def test_write_volume_refuses_a_non_volume(tmp_path, volume):
    path = tmp_path / "v.v3dr"
    with pytest.raises(ChannelCountError) as info:
        write_volume(path, volume)
    assert str(info.value) == f"expected a scalar Volume, got {type(volume).__name__}"
    assert not path.exists()


@pytest.mark.parametrize("dtype", [">f4", "float64", "int64", "bool"])
def test_unsupported_volume_dtype_rejected(tmp_path, dtype):
    v = Volume(np.zeros((1, 2, 2, 2), dtype=dtype))
    with pytest.raises(UnsupportedDtypeError) as info:
        write_volume(tmp_path / "v.v3dr", v)
    assert str(info.value) == f"unsupported volume dtype {np.dtype(dtype)}"


@pytest.mark.parametrize(
    "volume,fmt,value,message",
    [
        (LabelVolume(np.zeros((2, 3, 4), np.int32)), "<i", -1, "labels must be non-negative"),
        (Volume(np.zeros((2, 3, 4), np.float32)), "<f", math.nan, "volume values must be finite"),
        (Volume(np.zeros((2, 3, 4), np.float32)), "<f", math.inf, "volume values must be finite"),
    ],
    ids=["label-negative", "f32-nan", "f32-inf"],
)
def test_payload_fault_is_format_error_naming_file(tmp_path, volume, fmt, value, message):
    path = tmp_path / "v.v3dr"
    write_volume(path, volume)
    raw = bytearray(path.read_bytes())
    raw[52:56] = struct.pack(fmt, value)  # the first voxel
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as info:
        read_volume(path)
    assert str(info.value) == f"{path}: {message}"


class TestDetections:
    def test_empty_list(self, tmp_path):
        path = tmp_path / "d.csv"
        write_detections(path, [])
        assert path.read_text() == "z,y,x,score\n"
        assert read_detections(path) == []

    def test_round_trip_exact(self, tmp_path):
        dets = [Detection(1.5, 2.0, 3.0, 0.9), Detection(0.1 + 0.2, 7.0, 1e-17, 0.95)]
        path = tmp_path / "d.csv"
        write_detections(path, dets)
        got = read_detections(path)
        # written sorted by descending score
        assert got == sorted(dets, key=lambda d: -d.score)

    def test_sorted_by_descending_score(self, tmp_path, rng):
        dets = [Detection(float(i), 0.0, 0.0, float(s)) for i, s in enumerate(rng.random(20))]
        path = tmp_path / "d.csv"
        write_detections(path, dets)
        scores = [d.score for d in read_detections(path)]
        assert scores == sorted(scores, reverse=True)

    def test_array_rows_write_the_csv_of_the_detection_list(self, tmp_path, rng):
        dets = [Detection(*map(float, rng.random(3) * 9), float(s)) for s in rng.random(8)]
        dets += [Detection(4.0, 5.0, 6.0, dets[2].score), Detection(0.1 + 0.2, -0.0, 1e-17, 0.5)]
        for path, value in (
            (tmp_path / "list.csv", dets),
            (tmp_path / "array.csv", np.array(dets)),
            (tmp_path / "tuples.csv", [tuple(d) for d in dets]),
        ):
            write_detections(path, value)
        want = (tmp_path / "list.csv").read_bytes()
        assert (tmp_path / "array.csv").read_bytes() == want
        assert (tmp_path / "tuples.csv").read_bytes() == want
        # stable order by descending score, 17 significant digits
        rows = sorted(dets, key=lambda d: -d.score)
        lines = [f"{d.z:.17g},{d.y:.17g},{d.x:.17g},{d.score:.17g}" for d in rows]
        assert want.decode() == "\n".join(["z,y,x,score", *lines, ""])

    @pytest.mark.parametrize("empty", [(), np.zeros((0, 4))], ids=["tuple", "array"])
    def test_empty_detections_write_the_header_alone(self, tmp_path, empty):
        path = tmp_path / "d.csv"
        write_detections(path, empty)
        assert path.read_text() == "z,y,x,score\n"

    @pytest.mark.parametrize(
        "value,message",
        [
            ([3, 3, 3, 1, 0, 0, 0, 1], "detections must be (z, y, x, score) rows, got shape (8,)"),
            (np.ones((1, 2, 4)), "detections must be (z, y, x, score) rows, got shape (1, 2, 4)"),
            ([(1.0, 2.0, 3.0)], "detections must be (z, y, x, score) rows, got shape (1, 3)"),
            (np.zeros((0, 3)), "detections must be (z, y, x, score) rows, got shape (0, 3)"),
            (5.0, "detections must be (z, y, x, score) rows, got shape ()"),
            # values numpy cannot turn into float64 rows
            ((d for d in [(1.0, 2.0, 3.0, 0.5)]), "detections must be (z, y, x, score) rows of real numbers"),
            ([[1, 2, 3, {}]], "detections must be (z, y, x, score) rows of real numbers"),
            ([[1, 2, 3, 0.5], [1, 2, 3]], "detections must be (z, y, x, score) rows of real numbers"),
            ("a", "detections must be (z, y, x, score) rows of real numbers"),
            ([[1, 2, 3, 1j]], "detections must be (z, y, x, score) rows of real numbers"),
            ([[10**400, 2, 3, 0.5]], "detections must be (z, y, x, score) rows of real numbers"),
        ],
        ids=[
            "flat", "3d", "3-columns", "empty-3-columns", "scalar", "generator", "dict-value",
            "ragged", "str", "complex", "huge-int",
        ],
    )
    def test_detections_of_other_shapes_refused_naming_it(self, tmp_path, value, message):
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError) as info:
            write_detections(path, value)
        assert str(info.value) == message
        assert not path.exists()

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("z,y,x,score\n1,2,3,0.5\n1,2,oops,0.5\n")
        with pytest.raises(MalformedRowError, match="line 3"):
            read_detections(path)

    # only "\n" ends a row: "\x1c" is a line break to str.splitlines, not to the writer
    @pytest.mark.parametrize("row", ["1,2,3", "1,2,3,4\x1c5,6,7,8"], ids=["short", "x1c"])
    def test_wrong_field_count(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(f"z,y,x,score\n{row}\n")
        with pytest.raises(MalformedRowError, match="line 2"):
            read_detections(path)

    def test_crlf_rows_read_like_lf_rows(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        rows = ["z,y,x,score", "1,2,3,0.5", "4.5,5,6,0.25", ""]
        lf.write_bytes("\n".join(rows).encode())
        crlf.write_bytes("\r\n".join(rows).encode())
        assert read_detections(crlf) == read_detections(lf) == [
            Detection(1.0, 2.0, 3.0, 0.5), Detection(4.5, 5.0, 6.0, 0.25)
        ]

    # "\r" ends a row only right before "\n": a lone one, or a second one, is refused
    @pytest.mark.parametrize(
        "text,line",
        [
            (b"z,y,x,score\n1,2,3,4\r5,6,7,8\n", 2),
            (b"z,y,x,score\r\n1,2,3,0.5\r\n1,2,3\r,4\r\n", 3),
            (b"z,y,x,score\n1,2,3,4\r\r\n", 2),
            (b"z,y,x,score\n1,2,3,4\r", 2),
        ],
        ids=["between-rows", "in-field", "doubled", "at-end"],
    )
    def test_carriage_return_inside_row_names_line(self, tmp_path, text, line):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(MalformedRowError) as info:
            read_detections(path)
        assert str(info.value) == f"{path}: line {line}: carriage return inside the row"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,z,score\n")
        with pytest.raises(MalformedRowError, match="line 1"):
            read_detections(path)


def test_report_round_trip_preserves_order(tmp_path):
    mapping = {"b_first": 1, "a_second": {"nested": [1, 2.5, "s"]}, "c": True}
    path = tmp_path / "r.yaml"
    write_report(path, mapping)
    text = path.read_text()
    assert text.index("b_first") < text.index("a_second") < text.index("c:")
    assert read_report(path) == mapping
