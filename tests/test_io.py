"""Round-trips and corruption detection for the binary containers."""

import struct

import numpy as np
import pytest

from cgdbm.errors import FormatError
from cgdbm.io import (format_float, load_matrix, load_model, read_pgm,
                      save_matrix, save_model, write_csv, write_pgm)
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
                 + bytes.fromhex("88939ddc986e59dd")]:
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="bad magic"):
            load_model(path)


def test_matrix_round_trip_with_meta(rng, tmp_path):
    a = rng.normal(size=(5, 7))
    path = tmp_path / "x.cgmat"
    save_matrix(path, a, meta={"kind": "frames", "alpha": "0.01"})
    b, meta = load_matrix(path)
    np.testing.assert_array_equal(a, b)
    assert meta["kind"] == "frames"
    assert meta["alpha"] == "0.01"


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


def test_pgm_truncated_raster_rejected(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(FormatError):
        read_pgm(path)


def test_format_float_round_trips_doubles(rng):
    for x in rng.normal(size=20):
        assert float(format_float(float(x))) == float(x)


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1.5, 2.0], [3.25, -1.0]])
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1].startswith("1.5,")
