"""Round-trips and corruption detection for the binary containers."""

import errno
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

import cgdbm.io
from cgdbm.errors import FormatError, ShapeError
from cgdbm.io import (BLOCK_ROWS, RowBlocks, format_float, load_matrix,
                      load_model, read_pgm, row_slices, save_matrix,
                      save_model, write_csv, write_pgm)
from cgdbm.model import ModelParams, Offsets

from oracles import random_model


def test_model_round_trip(rng, tmp_path):
    p, c = random_model(rng, 3, 4, 2)
    path = tmp_path / "m.cgdbm"
    save_model(path, p, c)
    p2, c2 = load_model(path)
    for a, b in [(p.W, p2.W), (p.U, p2.U), (p.b_y, p2.b_y), (p.b_z, p2.b_z),
                 (p.sigma2, p2.sigma2), (c.c_x, c2.c_x), (c.c_y, c2.c_y),
                 (c.c_z, c2.c_z)]:
        np.testing.assert_array_equal(a, b)


def test_model_file_is_bit_identical_on_rewrite(rng, tmp_path):
    p, c = random_model(rng, 2, 3, 2)
    f1 = tmp_path / "a.cgdbm"
    f2 = tmp_path / "b.cgdbm"
    save_model(f1, p, c)
    save_model(f2, p, c)
    assert f1.read_bytes() == f2.read_bytes()


def test_model_checksum_detects_flip(rng, tmp_path):
    p, c = random_model(rng, 2, 2, 2)
    path = tmp_path / "m.cgdbm"
    save_model(path, p, c)
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0x01  # flip one payload bit
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_model(path)


def test_model_truncation_detected(rng, tmp_path):
    p, c = random_model(rng, 2, 2, 2)
    path = tmp_path / "m.cgdbm"
    save_model(path, p, c)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(FormatError):
        load_model(path)


def test_failed_checkpoint_write_keeps_the_previous_file(rng, tmp_path,
                                                         monkeypatch):
    p, c = random_model(rng, 3, 4, 2)
    path = tmp_path / "checkpoint.cgdbm"
    save_model(path, p, c)
    before = path.read_bytes()

    class DiskFullAfterHeader:
        """A file whose second write (the payload) fails."""

        def __init__(self, fh):
            self.fh = fh
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    opened = []

    def failing_open(*args, **kwargs):
        opened.append(DiskFullAfterHeader(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(cgdbm.io, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        save_model(path, ModelParams(W=p.W + 1.0, U=p.U, b_y=p.b_y,
                                     b_z=p.b_z, sigma2=p.sigma2), c)
    monkeypatch.undo()
    assert [f.writes for f in opened] == [2]
    assert path.read_bytes() == before
    np.testing.assert_array_equal(load_model(path)[0].W, p.W)
    assert sorted(tmp_path.iterdir()) == [path]


def test_model_wrong_magic_rejected(tmp_path):
    path = tmp_path / "m.cgdbm"
    for blob in [b"NOTME1\nL=1\n\n",
                 # a well-formed version-1 file: zero 1x1x1 model and its
                 # CRC-64 trailer
                 b"CGDBM1\nL=1\nM=1\nN=1\n\n" + bytes(64)
                 + bytes.fromhex("02243016a57a54de"),
                 # a well-formed version-2 file: the same model and the
                 # BLAKE2b-64 of its payload alone
                 b"CGDBM2\nL=1\nM=1\nN=1\n\n" + bytes(64)
                 + bytes.fromhex("88939ddc986e59dd"),
                 # a well-formed version-3 file: the same model and the
                 # BLAKE2b-64 of magic, header and payload
                 b"CGDBM3\nL=1\nM=1\nN=1\n\n" + bytes(64)
                 + bytes.fromhex("04ca6b35f5512a07")]:
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="bad magic"):
            load_model(path)


def test_model_golden_bytes(tmp_path):
    # a model is a kind=model matrix container: one row W, U, b_y, b_z,
    # sigma2, c_x, c_y, c_z with the dims in the header
    path = tmp_path / "g.cgdbm"
    one = np.ones((1, 1))
    save_model(path, ModelParams(W=0.5 * one, U=-one, b_y=[0.25], b_z=[2.0],
                                 sigma2=[1.5]),
               Offsets(c_x=[0.0], c_y=[0.75], c_z=[0.125]))
    assert path.read_bytes() == (
        b"CGMAT3\nL=1\nM=1\nN=1\ncols=8\nkind=model\nrows=1\n\n"
        + struct.pack("<8d", 0.5, -1.0, 0.25, 2.0, 1.5, 0.0, 0.75, 0.125)
        + bytes.fromhex("8745fbdf3fa4948d"))


@pytest.mark.parametrize("kind, cols, match", [
    ("whitener", 8, "not a model container"),
    ("model", 9, "payload does not match L=1 M=1 N=1")])
def test_model_container_kind_and_shape_checked(tmp_path, kind, cols, match):
    path = tmp_path / "m.cgdbm"
    save_matrix(path, np.ones((1, cols)),
                meta={"kind": kind, "L": "1", "M": "1", "N": "1"})
    with pytest.raises(FormatError, match=match):
        load_model(path)


def test_matrix_round_trip_with_meta(rng, tmp_path):
    a = rng.normal(size=(5, 7))
    path = tmp_path / "x.cgmat"
    save_matrix(path, a, meta={"kind": "frames", "alpha": "0.01"})
    b, meta = load_matrix(path)
    np.testing.assert_array_equal(a, b)
    assert meta["kind"] == "frames"
    assert meta["alpha"] == "0.01"
    np.testing.assert_array_equal(load_matrix(path, kind="frames")[0], a)
    with pytest.raises(FormatError, match=r"not a spontaneous container "
                                          r"\(kind=frames\)"):
        load_matrix(path, kind="spontaneous")


def test_matrix_load_holds_the_payload_once(tmp_path):
    # a desk-sized training set: 18000 x 100 float64, 14.4 MB
    a = np.arange(18000 * 100, dtype=np.float64).reshape(18000, 100)
    path = tmp_path / "x.cgmat"
    save_matrix(path, a)
    tracemalloc.start()
    try:
        b, _ = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(a, b)
    assert peak < 1.1 * a.nbytes, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                               2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS,
                               5 * BLOCK_ROWS + 3])
def test_row_slices_cover_the_rows_in_long_blocks(n):
    slices = row_slices(n)
    assert np.array_equal(np.concatenate([np.arange(n)[s] for s in slices]),
                          np.arange(n))
    lengths = [s.stop - s.start for s in slices]
    assert all(BLOCK_ROWS <= m < 2 * BLOCK_ROWS for m in lengths) \
        or lengths == [n]


@pytest.mark.parametrize("n", [0, 5, 3 * BLOCK_ROWS, 3 * BLOCK_ROWS + 7])
def test_matrix_from_blocks_has_the_array_bytes(rng, tmp_path, n):
    # one block, several whole blocks, and a last block that takes the
    # remainder: the bytes are those of the materialised array
    a = rng.normal(size=(n, 3))
    made = []
    blocks = RowBlocks((n, 3), lambda s: made.append(s) or a[s])
    assert np.size(blocks) == a.size
    meta = {"kind": "blocks"}
    save_matrix(tmp_path / "blocks.cgmat", blocks, meta=meta)
    save_matrix(tmp_path / "array.cgmat", a, meta=meta)
    assert made == row_slices(n)
    assert (tmp_path / "blocks.cgmat").read_bytes() == \
        (tmp_path / "array.cgmat").read_bytes()


@pytest.mark.parametrize("shape,match", [
    # the blocks run out before the header's rows, or give more of them
    ((BLOCK_ROWS + 1, 3), "blocks gave 1024 rows, the header says 1025"),
    ((BLOCK_ROWS - 1, 3), "blocks gave 1024 rows, the header says 1023"),
    ((BLOCK_ROWS, 2), r"block of shape \(1024, 3\) in a matrix of 2 columns"),
])
def test_matrix_blocks_that_miss_the_shape_leave_no_file(rng, tmp_path,
                                                         shape, match):
    a = rng.normal(size=(BLOCK_ROWS, 3))
    path = tmp_path / "x.cgmat"
    with pytest.raises(ShapeError, match=match):
        # every block is all of a, whatever rows it was asked for
        save_matrix(path, RowBlocks(shape, lambda s: a))
    assert list(tmp_path.iterdir()) == []


def test_matrix_golden_bytes(tmp_path):
    # pins the v3 framing: magic, sorted header, float64 payload, and the
    # BLAKE2b-64 of all three
    path = tmp_path / "g.cgmat"
    save_matrix(path, [[1.0, 2.0], [3.0, -0.5]], meta={"kind": "golden"})
    assert path.read_bytes() == (
        b"CGMAT3\ncols=2\nkind=golden\nrows=2\n\n"
        + struct.pack("<4d", 1.0, 2.0, 3.0, -0.5)
        + bytes.fromhex("8c394e9ca3ad3b5f"))


@pytest.mark.parametrize("old, new", [(b"mean_patch_norm=1.5",
                                       b"mean_patch_norm=7.5"),
                                      (b"CGMAT3\n", b"CGMAT3\nextra=1\n")])
def test_matrix_header_edit_detected(tmp_path, old, new):
    # the digest covers the header: an edited value, even one of the
    # same length, must not load
    path = tmp_path / "x.cgmat"
    save_matrix(path, np.zeros((2, 2)),
                meta={"kind": "golden", "mean_patch_norm": "1.5"})
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))
    with pytest.raises(FormatError, match="checksum mismatch"):
        load_matrix(path)


@pytest.mark.parametrize("meta", [{"note": "two\nlines"}, {"k": "v\n"},
                                  {"a=b": "c"}, {"a\nb": "c"},
                                  {"kind": "caf\u00e9"}, {"caf\u00e9": "x"}])
def test_matrix_unreadable_header_rejected(tmp_path, meta):
    path = tmp_path / "x.cgmat"
    with pytest.raises(ValueError, match="header entry"):
        save_matrix(path, np.zeros((2, 2)), meta=meta)
    assert not path.exists()


@pytest.mark.parametrize("old, new", [(b"kind=golden", b"kind=gold\xe9n"),
                                      (b"kind=golden", b"k\xe9nd=golden")])
def test_matrix_non_ascii_header_rejected(tmp_path, old, new):
    path = tmp_path / "x.cgmat"
    save_matrix(path, np.zeros((2, 2)), meta={"kind": "golden"})
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(FormatError, match="non-ascii"):
        load_matrix(path)


def test_matrix_reserved_keys_rejected(rng, tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.cgmat", np.zeros((2, 2)),
                    meta={"rows": "9"})


def test_matrix_header_corruption_detected(rng, tmp_path):
    a = rng.normal(size=(3, 3))
    path = tmp_path / "x.cgmat"
    save_matrix(path, a)
    raw = path.read_bytes()
    # enlarge the claimed row count without touching the payload
    bad = raw.replace(b"rows=3", b"rows=4", 1)
    path.write_bytes(bad)
    with pytest.raises(FormatError):
        load_matrix(path)


def write_negative_matrix(path):
    # rows=-2, cols=-3 imply 6 payload values; save_matrix cannot write
    # a negative shape, so the file is framed by hand
    body = b"CGMAT3\ncols=-3\nrows=-2\n\n" + bytes(8 * 6)
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())


def write_negative_model(path):
    # implies 16 + 4 - 18 = 2 payload values
    save_matrix(path, np.zeros((1, 2)),
                meta={"kind": "model", "L": "-4", "M": "-4", "N": "-1"})


@pytest.mark.parametrize("write, load", [
    (write_negative_matrix, load_matrix), (write_negative_model, load_model),
], ids=["matrix", "model"])
def test_negative_header_dimension_rejected(tmp_path, write, load):
    # the payload size the negative dimensions imply is positive and the
    # digest is valid, so only the header check can reject the file
    path = tmp_path / "neg"
    write(path)
    with pytest.raises(FormatError, match="is negative"):
        load(path)


def test_zero_rows_matrix_round_trip(tmp_path):
    path = tmp_path / "x.cgmat"
    save_matrix(path, np.zeros((0, 3)))
    a, _ = load_matrix(path)
    assert a.shape == (0, 3)


def test_pgm_p5_8bit_round_trip(tmp_path):
    img = np.linspace(0.0, 1.0, 48).reshape(6, 8)
    path = tmp_path / "g.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (6, 8)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_16bit_round_trip(tmp_path):
    img = np.linspace(0.0, 1.0, 30).reshape(5, 6)
    path = tmp_path / "g.pgm"
    write_pgm(path, img, maxval=65535)
    back = read_pgm(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12


def test_pgm_p2_ascii_read(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment line\n3 2\n255\n0 128 255\n64 32 16\n")
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img[0, 2] == pytest.approx(1.0)
    assert img[0, 1] == pytest.approx(128 / 255)


def test_pgm_p2_negative_sample_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n2 2\n255\n-5 3 4 5\n")
    with pytest.raises(FormatError, match="negative pixel"):
        read_pgm(path)


def test_pgm_truncated_raster_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(FormatError):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"P5\n-3 -4\n255\n",
                                    b"P2\n-3 -4\n255\n",
                                    b"P5\n-3 4\n255\n"])
def test_pgm_negative_size_rejected(tmp_path, header):
    path = tmp_path / "n.pgm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(FormatError, match="negative PGM size"):
        read_pgm(path)


def test_format_float_round_trips_doubles(rng):
    for x in rng.normal(size=20):
        assert float(format_float(float(x))) == float(x)


def test_write_csv_golden_bytes(tmp_path):
    # numeric cells are written exactly as format_float writes them
    path = tmp_path / "t.csv"
    row = ["s", 7, np.int64(-3), np.float64(2.5), True, False, np.inf,
           -np.inf, np.nan, -0.0, 5e-324, 1e16, 0.1]
    write_csv(path, [f"c{i}" for i in range(len(row))], [row])
    assert path.read_bytes() == (
        b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11,c12\n"
        b"s,7,-3,2.5,1,0,inf,-inf,nan,-0,4.9406564584124654e-324,"
        b"10000000000000000,0.10000000000000001\n")
    assert path.read_text().split("\n")[1].split(",")[1:] == [
        format_float(cell) for cell in row[1:]]


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1.5, 2.0], [3.25, -1.0]])
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1].startswith("1.5,")
