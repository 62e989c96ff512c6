"""Artifact files: matrix containers, PGM images, CSVs.

Every binary artifact is a ``CGMAT3`` matrix container: an ascii magic
line, ascii ``key=value`` header lines in sorted key order closed by one
blank line, a little-endian float64 payload of ``rows`` x ``cols``, and a
trailing 8-byte BLAKE2b digest of every byte before it (magic, header and
payload), so an edited header value is caught like a flipped payload bit.
The header key ``kind`` names the content.  A model snapshot is a
``kind=model`` container holding one row ``[W, U, b_y, b_z, sigma2, c_x,
c_y, c_z]`` with its dims in the ``L``, ``M`` and ``N`` keys.  Files of
older formats (magics ``CGMAT1``, ``CGMAT2`` and the model-only
``CGDBM1`` to ``CGDBM3``) are rejected as bad magic.

Writers never include timestamps, so rewriting the same content produces
byte-identical files.  `save_matrix` writes an array or a `RowBlocks`,
a matrix made block by block that is digested and written one block at
a time and never held whole; both give the same bytes.  Every artifact
writer goes through `open_atomic`: it writes ``<name>.tmp`` beside the
target and renames it into place, so a write that fails midway leaves
the previous file intact.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError
from .model import ModelParams, Offsets

MATRIX_MAGIC = b"CGMAT3\n"

# rows per block of a matrix made block by block.  On OpenBLAS a product
# over 100 rows or more had the bits of the one-shot product, and one
# over a few rows did not, so no block is shorter than this unless the
# whole matrix is
BLOCK_ROWS = 1024


def row_slices(n: int) -> list[slice]:
    """Slices covering rows 0..n in order, BLOCK_ROWS rows each except
    the last, which also takes the remainder (up to 2 * BLOCK_ROWS - 1
    rows).  Zero rows give one empty slice."""
    starts = range(0, max(n // BLOCK_ROWS, 1) * BLOCK_ROWS, BLOCK_ROWS)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


@dataclass(frozen=True)
class RowBlocks:
    """A (rows, cols) float64 matrix that `save_matrix` writes without
    ever holding it whole.  Iterating calls make(s) for each slice s of
    row_slices(rows), in order; each call returns those rows.  It has
    an array's `size`, so np.size measures either argument of
    save_matrix."""

    shape: tuple[int, int]
    make: Callable[[slice], np.ndarray]

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def __iter__(self):
        return (self.make(s) for s in row_slices(self.shape[0]))


@contextmanager
def open_atomic(path, mode: str = "w", **kwargs):
    """Open ``<path>.tmp`` for writing with a plain open (so it gets the
    permissions any new file gets) and, once the block succeeds, rename
    it onto path with os.replace.  If the block raises, the temporary
    file is removed and path is left as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _header_int(header: dict[str, str], key: str, path) -> int:
    """A dimension from the header: an integer, zero or more."""
    try:
        value = int(header[key])
    except KeyError:
        raise FormatError(f"{path}: missing header key {key!r}") from None
    except ValueError:
        raise FormatError(f"{path}: header key {key!r} is not an integer") from None
    if value < 0:
        raise FormatError(f"{path}: header key {key!r} is negative ({value})")
    return value


def save_matrix(path, array, meta: dict[str, str] | None = None) -> None:
    """A matrix container of array: a 2-D array (a 1-D one is one row)
    or a RowBlocks.  The header is written from the shape, then each
    block is digested and written as it comes; an array is one block.
    Blocks that do not add up to the shape raise ShapeError and leave
    no file."""
    if isinstance(array, RowBlocks):
        shape, blocks = array.shape, array
    else:
        a = np.atleast_2d(np.asarray(array, dtype=np.float64))
        shape, blocks = a.shape, (a,)
    header = dict(meta or {})
    for key in ("rows", "cols"):
        if key in header:
            raise ValueError(f"meta must not override {key!r}")
    header["rows"] = str(shape[0])
    header["cols"] = str(shape[1])
    for k, v in header.items():
        if ("\n" in k or "=" in k or "\n" in v
                or not (k.isascii() and v.isascii())):
            raise ValueError(f"header entry {k!r}={v!r}: keys and values must "
                             "be ascii, keys may not contain '=' or a "
                             "newline, values may not contain a newline")
    head = MATRIX_MAGIC + b"".join(f"{k}={header[k]}\n".encode("ascii")
                                   for k in sorted(header)) + b"\n"
    # one update per block, so the payload (many megabytes for a dataset)
    # is never copied to sit next to the header or its other blocks
    digest = hashlib.blake2b(head, digest_size=8)
    rows = 0
    with open_atomic(path, "wb") as fh:
        fh.write(head)
        for block in blocks:
            payload = np.ascontiguousarray(block, dtype="<f8")
            if payload.ndim != 2 or payload.shape[1] != shape[1]:
                raise ShapeError(f"{path}: block of shape {payload.shape} "
                                 f"in a matrix of {shape[1]} columns")
            rows += payload.shape[0]
            digest.update(payload)
            fh.write(payload)
        if rows != shape[0]:
            raise ShapeError(f"{path}: blocks gave {rows} rows, the header "
                             f"says {shape[0]}")
        fh.write(digest.digest())


def load_matrix(path, kind: str | None = None
                ) -> tuple[np.ndarray, dict[str, str]]:
    """The payload and the header without ``rows`` and ``cols``.  The
    header is parsed before the digest is checked, so a malformed header
    reports what is wrong with it.  The payload is read straight into one
    new array, so the file is held in memory once.  If kind is given, a
    container whose header names another kind raises FormatError."""
    with open(path, "rb") as fh:
        if fh.read(len(MATRIX_MAGIC)) != MATRIX_MAGIC:
            raise FormatError(f"{path}: bad magic, expected {MATRIX_MAGIC!r}")
        head = [MATRIX_MAGIC]
        header: dict[str, str] = {}
        while True:
            raw = fh.readline()
            if not raw.endswith(b"\n"):
                raise FormatError(f"{path}: header never terminated")
            head.append(raw)
            line = raw[:-1]
            if line == b"":
                break
            if b"=" not in line:
                raise FormatError(f"{path}: malformed header line {line!r}")
            if not line.isascii():
                raise FormatError(f"{path}: non-ascii header line {line!r}")
            k, v = line.split(b"=", 1)
            header[k.decode("ascii")] = v.decode("ascii")
        found = os.fstat(fh.fileno()).st_size - fh.tell() - 8
        if found < 0:
            raise FormatError(f"{path}: truncated, no checksum")
        rows = _header_int(header, "rows", path)
        cols = _header_int(header, "cols", path)
        if found != rows * cols * 8:
            raise FormatError(f"{path}: header implies {rows * cols * 8} "
                              f"payload bytes, found {found}")
        payload = np.empty((rows, cols), dtype="<f8")
        got = fh.readinto(payload)
        trailer = fh.read(9)
        if got != payload.nbytes or len(trailer) != 8:
            raise FormatError(f"{path}: changed while it was read")
    digest = hashlib.blake2b(b"".join(head), digest_size=8)
    digest.update(payload)
    if digest.digest() != trailer:
        raise FormatError(f"{path}: checksum mismatch")
    if kind is not None and header.get("kind") != kind:
        raise FormatError(f"{path}: not a {kind} container "
                          f"(kind={header.get('kind')})")
    del header["rows"], header["cols"]
    return payload, header


def save_model(path, p: ModelParams, c: Offsets) -> None:
    L, M, N = p.dims
    row = np.concatenate([np.ravel(a) for a in (p.W, p.U, p.b_y, p.b_z,
                                                p.sigma2, c.c_x, c.c_y,
                                                c.c_z)])
    save_matrix(path, row,
                meta={"kind": "model", "L": str(L), "M": str(M), "N": str(N)})


def load_model(path) -> tuple[ModelParams, Offsets]:
    flat, meta = load_matrix(path, kind="model")
    L, M, N = (_header_int(meta, key, path) for key in "LMN")
    if flat.shape != (1, L * M + M * N + 2 * (L + M + N)):
        raise FormatError(f"{path}: model payload does not match L={L} "
                          f"M={M} N={N}")
    W, U, b_y, b_z, sigma2, c_x, c_y, c_z = np.split(
        flat[0], np.cumsum([L * M, M * N, M, N, L, L, M]))
    p = ModelParams(W=W.reshape(L, M), U=U.reshape(M, N), b_y=b_y, b_z=b_z,
                    sigma2=sigma2)
    c = Offsets(c_x=c_x, c_y=c_y, c_z=c_z)
    return p, c


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
    if width < 0 or height < 0:
        raise FormatError(f"{path}: negative PGM size {width}x{height}")
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
        if data.size and int(data.min()) < 0:
            raise FormatError(f"{path}: negative pixel value")
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
    with open_atomic(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(q.astype(dtype).tobytes())


# --- CSV ------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any float64."""
    return format(float(x), ".17g")


def write_csv(path, header: list[str], rows) -> None:
    """Header and rows, comma-separated.  A numeric cell is written as
    format_float writes it: ``"%.17g" % cell`` gives the same text for
    ints, floats and bools, numpy's included, without a call per cell."""
    with open_atomic(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [cell if isinstance(cell, str) else "%.17g" % cell
                     for cell in row]
            fh.write(",".join(cells) + "\n")
