"""Artifact files: model snapshots, matrix containers, PGM images, CSVs.

Both binary formats share one framing: an ascii magic line, ascii
``key=value`` header lines closed by one blank line, a little-endian
float64 payload, and a trailing 8-byte BLAKE2b digest of every byte
before it (magic, header and payload), so an edited header value is
caught like a flipped payload bit.  Model snapshots use magic ``CGDBM3``
and carry the parameter arrays in a fixed order; everything else
(datasets, frames, whiteners) travels in ``CGMAT3`` matrix containers
with free-form metadata keys.  Version-1 files (CRC-64 trailer) and
version-2 files (digest of the payload only) are rejected as bad magic.

Writers emit headers in sorted key order and never include timestamps, so
rewriting the same content produces byte-identical files.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import FormatError
from .model import ModelParams, Offsets

MODEL_MAGIC = b"CGDBM3\n"
MATRIX_MAGIC = b"CGMAT3\n"


def _write_framed(path, magic: bytes, header: dict[str, str],
                  payload: bytes) -> None:
    for k, v in header.items():
        if ("\n" in k or "=" in k or "\n" in v
                or not (k.isascii() and v.isascii())):
            raise ValueError(f"header entry {k!r}={v!r}: keys and values must "
                             "be ascii, keys may not contain '=' or a "
                             "newline, values may not contain a newline")
    head = magic + b"".join(f"{k}={header[k]}\n".encode("ascii")
                            for k in sorted(header)) + b"\n"
    # two updates, so the payload (many megabytes for a dataset) is
    # never copied to sit next to the header
    digest = hashlib.blake2b(head, digest_size=8)
    digest.update(payload)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
        fh.write(digest.digest())


def _read_framed(path, magic: bytes) -> tuple[dict[str, str], memoryview]:
    """Header and payload of a framed file.  The header is parsed before
    the digest is checked, so a malformed header reports what is wrong
    with it; the payload is a view into the file's bytes, not a copy."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        raise FormatError(f"{path}: bad magic, expected {magic!r}")
    pos = len(magic)
    header: dict[str, str] = {}
    while True:
        end = blob.find(b"\n", pos)
        if end < 0:
            raise FormatError(f"{path}: header never terminated")
        line = blob[pos:pos + (end - pos)]
        pos = end + 1
        if line == b"":
            break
        if b"=" not in line:
            raise FormatError(f"{path}: malformed header line {line!r}")
        if not line.isascii():
            raise FormatError(f"{path}: non-ascii header line {line!r}")
        k, v = line.split(b"=", 1)
        header[k.decode("ascii")] = v.decode("ascii")
    if len(blob) - pos < 8:
        raise FormatError(f"{path}: truncated, no checksum")
    view = memoryview(blob)
    if hashlib.blake2b(view[:-8], digest_size=8).digest() != blob[-8:]:
        raise FormatError(f"{path}: checksum mismatch")
    return header, view[pos:-8]


def _header_int(header: dict[str, str], key: str, path) -> int:
    try:
        return int(header[key])
    except KeyError:
        raise FormatError(f"{path}: missing header key {key!r}") from None
    except ValueError:
        raise FormatError(f"{path}: header key {key!r} is not an integer") from None


def save_model(path, p: ModelParams, c: Offsets) -> None:
    L, M, N = p.dims
    header = {"L": str(L), "M": str(M), "N": str(N)}
    parts = [p.W, p.U, p.b_y, p.b_z, p.sigma2, c.c_x, c.c_y, c.c_z]
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in parts)
    _write_framed(path, MODEL_MAGIC, header, payload)


def load_model(path) -> tuple[ModelParams, Offsets]:
    header, payload = _read_framed(path, MODEL_MAGIC)
    L = _header_int(header, "L", path)
    M = _header_int(header, "M", path)
    N = _header_int(header, "N", path)
    counts = [L * M, M * N, M, N, L, L, M, N]
    total = sum(counts)
    if len(payload) != total * 8:
        raise FormatError(f"{path}: dims ({L},{M},{N}) imply {total * 8} payload "
                          f"bytes, found {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8")
    out = []
    pos = 0
    for n in counts:
        out.append(flat[pos:pos + n].copy())
        pos += n
    W, U, b_y, b_z, sigma2, c_x, c_y, c_z = out
    p = ModelParams(W=W.reshape(L, M), U=U.reshape(M, N), b_y=b_y, b_z=b_z,
                    sigma2=sigma2)
    c = Offsets(c_x=c_x, c_y=c_y, c_z=c_z)
    return p, c


def save_matrix(path, array, meta: dict[str, str] | None = None) -> None:
    a = np.atleast_2d(np.asarray(array, dtype=np.float64))
    header = dict(meta or {})
    for key in ("rows", "cols"):
        if key in header:
            raise ValueError(f"meta must not override {key!r}")
    header["rows"] = str(a.shape[0])
    header["cols"] = str(a.shape[1])
    _write_framed(path, MATRIX_MAGIC, header,
                  np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_matrix(path) -> tuple[np.ndarray, dict[str, str]]:
    header, payload = _read_framed(path, MATRIX_MAGIC)
    rows = _header_int(header, "rows", path)
    cols = _header_int(header, "cols", path)
    if len(payload) != rows * cols * 8:
        raise FormatError(f"{path}: shape ({rows},{cols}) implies "
                          f"{rows * cols * 8} payload bytes, found {len(payload)}")
    a = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    meta = {k: v for k, v in header.items() if k not in ("rows", "cols")}
    return a, meta


# --- PGM images -----------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """P2 or P5 grayscale image as floats in [0, 1].  16-bit P5 files
    store the most significant byte first."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a P2/P5 PGM file")
    binary = blob[:2] == b"P5"

    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise FormatError(f"{path}: incomplete PGM header")
        ch = blob[pos:pos + 1]
        if ch == b"#":
            pos = blob.find(b"\n", pos)
            if pos < 0:
                raise FormatError(f"{path}: unterminated comment")
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(blob) and not blob[end:end + 1].isspace():
                end += 1
            tokens.append(blob[pos:end])
            pos = end
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"{path}: non-numeric PGM header") from None
    if not (0 < maxval < 65536):
        raise FormatError(f"{path}: maxval {maxval} out of range")

    if binary:
        pos += 1  # single whitespace byte after maxval
        dtype = ">u2" if maxval > 255 else "u1"
        count = width * height
        need = count * (2 if maxval > 255 else 1)
        if len(blob) - pos < need:
            raise FormatError(f"{path}: truncated pixel data")
        data = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    else:
        try:
            data = np.array(blob[pos:].split(), dtype=np.int64)
        except ValueError:
            raise FormatError(f"{path}: non-numeric pixel data") from None
        if data.size != width * height:
            raise FormatError(f"{path}: expected {width * height} pixels, "
                              f"found {data.size}")
    if data.size and int(data.max()) > maxval:
        raise FormatError(f"{path}: pixel value exceeds maxval")
    return data.reshape(height, width).astype(np.float64) / maxval


def write_pgm(path, image, maxval: int = 255) -> None:
    """Binary (P5) PGM from floats in [0, 1]; values are clipped."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2-d")
    if not (0 < maxval < 65536):
        raise ValueError("maxval out of range")
    q = np.rint(np.clip(img, 0.0, 1.0) * maxval)
    dtype = ">u2" if maxval > 255 else "u1"
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(q.astype(dtype).tobytes())


# --- CSV ------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any float64."""
    return format(float(x), ".17g")


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [cell if isinstance(cell, str) else format_float(cell)
                     for cell in row]
            fh.write(",".join(cells) + "\n")
