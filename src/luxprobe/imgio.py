"""Image file I/O: PFM (HDR), Radiance HDR read, and 8-bit PNG.

PFM layout on disk follows the standard: `PF\\n<width> <height>\\n<scale>\\n`
with rows bottom-to-top; negative scale marks little-endian floats. In-memory
arrays are top-row-first, so rows are flipped on both read and write.

The PNG codec is deliberately minimal (8-bit gray/RGB/RGBA, no interlace).
The writer is byte-deterministic: every row uses the Up filter (type 2), the
stream is deflated at zlib level 1, and an sRGB chunk is written. Up is one
vector subtraction and level 1 is zlib's fast deflate; the writer never uses
Avg or Paeth, so its own files take the reader's row-at-a-time path. The
reader undoes any mix of row filters exactly, in vector steps: one per row
when no row uses Avg or Paeth, else one per anti-diagonal of the image
(W + H - 1).
"""

import functools
import math
import os
import struct
import sys
import zlib

import numpy as np

from .envmap import row_blocks


# ---------------------------------------------------------------------------
# PFM

def read_pfm(path) -> np.ndarray:
    """Load a PFM file as C-ordered float32 (H, W, 3); grayscale is replicated to RGB.

    Raises ValueError when the header's scale takes a finite value past float32's range.
    """
    with open(path, "rb") as f:
        header = f.readline().rstrip()
        if header == b"PF":
            channels = 3
        elif header == b"Pf":
            channels = 1
        else:
            raise ValueError(f"not a PFM file (header {header!r})")
        dims = f.readline().split()
        if len(dims) != 2:
            raise ValueError("malformed PFM dimensions line")
        width, height = int(dims[0]), int(dims[1])
        if width <= 0 or height <= 0:
            raise ValueError(f"PFM dimensions must be positive, got {width}x{height}")
        scale = float(f.readline().rstrip())
        if not np.isfinite(scale):
            raise ValueError("PFM scale must be finite")
        endian = "<" if scale < 0 else ">"
        count = width * height * channels
        # check the size before reading: a huge header count must not allocate
        if 4 * count > os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError("truncated PFM payload")
        data = np.empty((height, width, channels), dtype=np.float32)
        for block in row_blocks(height, width):
            # rows run bottom to top on disk: each block is read into its place and flipped there
            rows = data[height - block.stop : height - block.start]
            if f.readinto(rows) != rows.nbytes:
                raise ValueError("truncated PFM payload")
            rows[:] = rows[::-1]  # overlapping, so numpy flips through a block-sized copy
    if (endian == "<") != (sys.byteorder == "little"):
        data.byteswap(inplace=True)
    if channels == 1:
        data = np.repeat(data, 3, axis=2)
    if abs(scale) not in (0.0, 1.0):
        finite = np.isfinite(data).all()
        # a scale past float32's range is inf there, and 0 * inf is NaN: both rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            data *= abs(scale)
        if finite and not np.isfinite(data).all():
            raise ValueError(f"PFM scale {abs(scale):g} overflows float32")
    return data


def write_pfm(path, image: np.ndarray) -> None:
    """Write non-empty (H, W, 3) float data as little-endian RGB PFM: the rows,
    bottom row first, go out as `<f4` in the row blocks of `row_blocks`, so no
    whole-map copy is made."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3 or 0 in arr.shape:
        raise ValueError(f"PFM writer expects non-empty (H, W, 3), got {arr.shape}")
    height, width = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(b"PF\n")
        f.write(f"{width} {height}\n".encode("ascii"))
        f.write(b"-1.0\n")
        for block in row_blocks(height, width):
            f.write(np.ascontiguousarray(arr[::-1][block], dtype="<f4"))


# ---------------------------------------------------------------------------
# Radiance HDR (RGBE), read-only

def read_hdr(path) -> np.ndarray:
    """Load a Radiance .hdr (RGBE) file as float32 (H, W, 3) radiance.

    `EXPOSURE=` and `COLORCORR=` header values are multipliers already applied
    to every stored pixel, cumulative over their lines (COLORCORR per channel),
    so radiance is the stored value divided by their product; a product so
    small that a texel overflows float32 raises ValueError.
    """
    applied = np.ones(3)  # product of the EXPOSURE and COLORCORR multipliers
    with open(path, "rb") as f:
        magic = f.readline()
        if not magic.startswith(b"#?"):
            raise ValueError("not a Radiance HDR file")
        while True:
            line = f.readline()
            if line in (b"\n", b"\r\n"):
                break
            if not line:
                raise ValueError("unexpected end of HDR header")
            if line.startswith(b"FORMAT=") and line.rstrip() != b"FORMAT=32-bit_rle_rgbe":
                raise ValueError(f"unsupported HDR {line.rstrip()!r}: RGBE only")
            for key, n in ((b"EXPOSURE=", 1), (b"COLORCORR=", 3)):
                if line.startswith(key):
                    with np.errstate(over="ignore"):  # an infinite product is rejected below
                        applied *= _header_multipliers(line, len(key), n)
        if not (np.isfinite(applied) & (applied > 0)).all():
            raise ValueError(f"HDR EXPOSURE/COLORCORR product {applied} is out of range")
        res = f.readline().split()
        if len(res) != 4 or res[0] not in (b"-Y", b"+Y") or res[2] != b"+X":
            raise ValueError(f"unsupported HDR resolution line {b' '.join(res)!r}")
        height, width = int(res[1]), int(res[3])
        if width <= 0 or height <= 0:
            raise ValueError(f"HDR dimensions must be positive, got {width}x{height}")
        payload = f.read()
    # the most compact scanline is flat (4 bytes a pixel) or RLE (a 4-byte
    # marker plus 2-byte runs of up to 127 pixels per channel); a header that
    # claims more scanlines than the payload can hold must not allocate them
    min_scanline = min(4 * width, 4 + 8 * -(-width // 127))
    if height * min_scanline > len(payload):
        raise ValueError("truncated HDR payload")
    rgbe = np.empty((height, width, 4), dtype=np.uint8)
    pos = 0
    for y in range(height):
        pos = _read_rgbe_scanline(payload, pos, rgbe[y])
    if res[0] == b"+Y":
        rgbe = rgbe[::-1]
    data = _rgbe_to_float(rgbe)
    with np.errstate(over="ignore"):  # an overflowing texel is rejected below
        data /= applied  # in float64, rounded once to float32; exact where a product is 1
    if not np.isfinite(data.max()):
        raise ValueError(f"HDR EXPOSURE/COLORCORR product {applied} overflows float32")
    return data


def _header_multipliers(line: bytes, start: int, n: int) -> list:
    """The `n` finite positive multipliers of an HDR header line after `start`."""
    try:
        values = [float(v) for v in line[start:].split()]
    except ValueError:
        values = []
    if len(values) != n or not all(0.0 < v < math.inf for v in values):
        raise ValueError(f"HDR {line.rstrip()!r} needs {n} finite positive value(s)")
    return values


def _read_rgbe_scanline(buf: bytes, pos: int, out: np.ndarray) -> int:
    width = out.shape[0]
    if pos + 4 > len(buf):
        raise ValueError("truncated HDR payload")
    hdr = buf[pos : pos + 4]
    if hdr[0] == 2 and hdr[1] == 2 and (hdr[2] << 8 | hdr[3]) == width and width >= 8:
        pos += 4
        for ch in range(4):
            x = 0
            while x < width:
                if pos >= len(buf):
                    raise ValueError("truncated HDR RLE scanline")
                count = buf[pos]
                pos += 1
                if count > 128:  # run
                    count -= 128
                    if pos >= len(buf):
                        raise ValueError("truncated HDR RLE scanline")
                    if x + count > width:
                        raise ValueError("HDR RLE run overruns its scanline")
                    out[x : x + count, ch] = buf[pos]
                    pos += 1
                    x += count
                else:  # literal
                    if x + count > width:
                        raise ValueError("HDR RLE literal overruns its scanline")
                    out[x : x + count, ch] = np.frombuffer(
                        buf, dtype=np.uint8, count=count, offset=pos
                    )
                    pos += count
                    x += count
        return pos
    # flat scanline; old-style RLE marks a run with an (1, 1, 1, n) pixel,
    # which a normalised RGBE encoder never writes, so reject it
    need = width * 4
    flat = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos).reshape(width, 4)
    if (flat[:, :3] == 1).all(axis=1).any():
        raise ValueError("old-style RLE HDR scanlines are not supported")
    out[:] = flat
    return pos + need


def _rgbe_to_float(rgbe: np.ndarray) -> np.ndarray:
    exp = rgbe[..., 3].astype(np.int32)
    scale = np.where(exp == 0, 0.0, np.ldexp(1.0, exp - 136))
    return (rgbe[..., :3].astype(np.float32) * scale[..., None].astype(np.float32))


# ---------------------------------------------------------------------------
# PNG (8-bit, non-interlaced)

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + tag
        + body
        + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
    )


def check_unit(values: np.ndarray, what: str) -> None:
    """Raise ValueError unless `values` lie in [0, 1], the range `codes8` codes:
    two reductions, no whole-array temporary; NaN fails both comparisons."""
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1] (NaN is rejected)")


def codes8(values) -> np.ndarray:
    """The 8-bit codes floor(x * 255 + 0.5) of [0,1] values, as float64: the
    package's one 8-bit rounding, shared with `tonemap.quantize8`. NaN or a
    value outside [0, 1] raises ValueError."""
    arr = np.asarray(values)
    check_unit(arr, "8-bit data")
    return np.floor(np.multiply(arr, 255.0, dtype=np.float64) + 0.5)


def write_png(path, image: np.ndarray, metadata: dict | None = None) -> None:
    """Write non-empty [0,1] float or uint8 data as an sRGB-tagged 8-bit RGB PNG.

    Float inputs are stored as their `codes8`. Optional metadata is stored
    as tEXt chunks (sorted by key for determinism).
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3 or 0 in arr.shape:
        raise ValueError(f"PNG writer expects non-empty (H, W, 3) data, got {arr.shape}")
    if arr.dtype != np.uint8:
        arr = codes8(arr).astype(np.uint8)
    height, width = arr.shape[:2]
    rows = arr.reshape(height, width * 3)
    # Up filter (type 2) on every row: each byte minus the one above it, mod
    # 256; the row above row 0 counts as zero, so row 0 is stored as it is
    raw = np.empty((height, 1 + width * 3), dtype=np.uint8)
    raw[:, 0] = 2
    raw[0, 1:] = rows[0]
    np.subtract(rows[1:], rows[:-1], out=raw[1:, 1:])
    out = [
        _PNG_SIG,
        _chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)),
        _chunk(b"sRGB", b"\x00"),
    ]
    for key in sorted(metadata or {}):
        text = f"{key}\x00{metadata[key]}".encode("latin-1")
        out.append(_chunk(b"tEXt", text))
    out.append(_chunk(b"IDAT", zlib.compress(raw, 1)))
    out.append(_chunk(b"IEND", b""))
    with open(path, "wb") as f:
        f.write(b"".join(out))


def read_png(path):
    """Read an 8-bit non-interlaced RGB/RGBA/gray PNG.

    Returns (C-ordered float01_array (H, W, 3), metadata dict from tEXt chunks).
    """
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(_PNG_SIG):
        raise ValueError("not a PNG file")
    pos = len(_PNG_SIG)
    idat = []
    meta = {}
    width = height = None
    color_type = None
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise ValueError("truncated PNG chunk")
        (length,) = struct.unpack_from(">I", blob, pos)
        end = pos + 12 + length
        if end > len(blob):
            raise ValueError("PNG chunk runs past the end of the file")
        tag = blob[pos + 4 : pos + 8]
        body = blob[pos + 8 : end - 4]
        if zlib.crc32(body, zlib.crc32(tag)) != struct.unpack_from(">I", blob, end - 4)[0]:
            raise ValueError(f"PNG chunk {tag.decode('latin-1')!r} fails its CRC check")
        pos = end
        if tag == b"IHDR":
            if len(body) != 13:
                raise ValueError(f"PNG IHDR chunk must be 13 bytes, got {len(body)}")
            width, height, depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if depth != 8 or interlace != 0 or color_type not in (0, 2, 6):
                raise ValueError("only 8-bit non-interlaced gray/RGB/RGBA PNGs supported")
            if width == 0 or height == 0:
                raise ValueError("PNG dimensions must be positive")
        elif tag == b"tEXt":
            key, _, val = body.partition(b"\x00")
            meta[key.decode("latin-1")] = val.decode("latin-1")
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if width is None:
        raise ValueError("PNG missing IHDR")
    channels = {0: 1, 2: 3, 6: 4}[color_type]
    stride = width * channels
    size = height * (stride + 1)
    # inflate one byte past the declared size at most, so a small stream
    # that expands hugely is rejected without being inflated in full
    inflater = zlib.decompressobj()
    try:
        decoded = inflater.decompress(b"".join(idat), min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"corrupt PNG data: {exc}") from exc
    if len(decoded) != size or not inflater.eof:
        raise ValueError("PNG payload size mismatch or truncated stream")
    payload = np.frombuffer(decoded, dtype=np.uint8).reshape(height, stride + 1)
    img = _unfilter(payload, channels)
    if channels == 1:
        img = img.repeat(3, axis=2)
    elif channels == 4:
        img = img[..., :3]
    # the wavefront unfilter's image is channel-planar; the float copy is not
    return img.astype(np.float64, order="C") / 255.0, meta


def _unfilter(payload: np.ndarray, bpp: int) -> np.ndarray:
    """Undo the PNG row filters of an (H, 1 + W * bpp) uint8 payload.

    Returns the (H, W, bpp) uint8 image. Predictions are added to the bytes
    in uint8, which wraps mod 256 exactly as the PNG filters do.
    """
    filters = payload[:, 0]
    top = filters.max()
    if top > 4:
        raise ValueError(f"unknown PNG filter type {filters[filters > 4][0]}")
    height = payload.shape[0]
    data = payload[:, 1:].reshape(height, -1, bpp)
    if top <= 2:
        return _unfilter_rows(data, filters.tolist())
    return _unfilter_wavefront(data, filters)


def _unfilter_rows(data: np.ndarray, filters: list) -> np.ndarray:
    """None, Sub and Up only: one vector operation per row."""
    img = data.copy()
    for y, ftype in enumerate(filters):
        if ftype == 1:
            np.cumsum(img[y], axis=0, dtype=np.uint8, out=img[y])
        elif ftype == 2 and y > 0:
            img[y] += img[y - 1]
    return img


@functools.cache
def _predictor_table() -> np.ndarray:
    """Filter f's prediction minus the up-left byte c, mod 256, as a flat
    table indexed by (f - 1, u + 255, v + 255), where u = a - c and v = b - c
    for the left byte a and the up byte b. Built once per process, on the
    first wavefront decode, and read-only.

    Sub predicts a = c + u, Up b = c + v, Avg floor((a + b) / 2) =
    c + floor((u + v) / 2), and Paeth (Paeth 1991, as the PNG specification
    gives it) whichever of a, b, c is nearest to a + b - c: the distances
    are |v|, |u| and |u + v|, ties going to a, then b.
    """
    u = np.arange(-255, 256, dtype=np.int16)[:, None]
    v = np.arange(-255, 256, dtype=np.int16)[None, :]
    paeth = np.where((np.abs(v) <= np.abs(u)) & (np.abs(v) <= np.abs(u + v)), u,
                     np.where(np.abs(u) <= np.abs(u + v), v, 0))
    table = np.stack(np.broadcast_arrays(u, v, (u + v) >> 1, paeth))
    table = table.astype(np.uint8).reshape(-1)
    table.flags.writeable = False
    return table


def _unfilter_wavefront(data: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Any mix of filters in W + H - 1 vector steps, one per anti-diagonal.

    Pixel (y, x) depends only on (y, x - 1), (y - 1, x) and (y - 1, x - 1),
    so all pixels with the same x + y decode together, each row with its
    own filter. Each channel plane sits in a buffer with a zero row above
    and a zero column to its left (the PNG edge rule); flattened, one
    diagonal and each of its three neighbours are slices with step W.
    """
    height, width, bpp = data.shape
    buf = np.zeros((bpp, height + 1, width + 1), dtype=np.uint8)
    body = buf[:, 1:, 1:]
    body[:] = data.transpose(2, 0, 1)
    # a None row holds its own bytes, which Sub-filtering them again makes a
    # Sub row, so every row's prediction is c + table[f, a - c, b - c]
    none = filters == 0
    body[:, none, 1:] = np.diff(body[:, none], axis=2)
    filters = np.where(none, 1, filters)
    # table index ((f - 1) * 511 + u + 255) * 511 + v + 255 = key + offset[y],
    # with key = u * 511 + v computed per diagonal
    side = 511
    offset =((filters.astype(np.int32) - 1) * side + 255) * side + 255
    table = _predictor_table()
    flat = buf.reshape(bpp, -1)
    for d in range(width + height - 1):
        y0, y1 = max(0, d - width + 1), min(height, d + 1)
        start = (y0 + 1) * (width + 1) + d - y0 + 1
        span = (y1 - y0 - 1) * width + 1
        out, a, b, c = (flat[:, i : i + span : width]
                        for i in (start, start - 1, start - width - 1, start - width - 2))
        key = np.subtract(a, c, dtype=np.int32)
        key *= side
        key += b
        key -= c
        key += offset[y0:y1]
        out += c
        out += table.take(key)
    return body.transpose(1, 2, 0)
