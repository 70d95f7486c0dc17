"""Image file I/O: PFM (HDR), Radiance HDR read, and 8-bit PNG.

PFM layout on disk follows the standard: `PF\\n<width> <height>\\n<scale>\\n`
with rows bottom-to-top; negative scale marks little-endian floats. In-memory
arrays are top-row-first, so rows are flipped on both read and write.

The PNG codec is deliberately minimal (8-bit RGB/gray, no interlace) and
byte-deterministic: fixed filter choice and zlib level, plus an sRGB chunk.
"""

import os
import struct
import zlib

import numpy as np


# ---------------------------------------------------------------------------
# PFM

def read_pfm(path) -> np.ndarray:
    """Load a PFM file as float32 (H, W, 3); grayscale is replicated to RGB."""
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
        data = np.fromfile(f, dtype=endian + "f4", count=count)
    data = data.reshape(height, width, channels)[::-1]  # bottom-to-top on disk
    if channels == 1:
        data = np.repeat(data, 3, axis=2)
    if abs(scale) not in (0.0, 1.0):
        data = data * abs(scale)
    return np.ascontiguousarray(data.astype(np.float32))


def write_pfm(path, image: np.ndarray) -> None:
    """Write (H, W, 3) float data as little-endian RGB PFM."""
    arr = np.asarray(image, dtype=np.float32)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PFM writer expects (H, W, 3), got {arr.shape}")
    height, width = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(b"PF\n")
        f.write(f"{width} {height}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(arr[::-1].astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# Radiance HDR (RGBE), read-only

def read_hdr(path) -> np.ndarray:
    """Load a Radiance .hdr (RGBE) file as float32 (H, W, 3)."""
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
    return _rgbe_to_float(rgbe)


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
    # flat scanline (old-style runs unsupported beyond repetition-free data)
    need = width * 4
    flat = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    out[:] = flat.reshape(width, 4)
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


def write_png(path, image: np.ndarray, metadata: dict | None = None) -> None:
    """Write [0,1] float or uint8 data as an sRGB-tagged 8-bit RGB PNG.

    Float inputs are quantized with round-half-away-from-zero. Optional
    metadata is stored as tEXt chunks (sorted by key for determinism).
    """
    arr = np.asarray(image)
    if arr.ndim == 2:
        arr = arr[..., None].repeat(3, axis=2)
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError(f"PNG writer expects (H, W[, 3]) data, got {arr.shape}")
    if arr.shape[2] == 1:
        arr = arr.repeat(3, axis=2)
    if arr.dtype != np.uint8:
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("float PNG data must lie in [0, 1]")
        arr = np.floor(arr.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
    height, width = arr.shape[:2]
    raw = np.concatenate(
        [np.zeros((height, 1), dtype=np.uint8), arr.reshape(height, width * 3)], axis=1
    ).tobytes()  # filter byte 0 per row
    out = [
        _PNG_SIG,
        _chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)),
        _chunk(b"sRGB", b"\x00"),
    ]
    for key in sorted(metadata or {}):
        text = f"{key}\x00{metadata[key]}".encode("latin-1")
        out.append(_chunk(b"tEXt", text))
    out.append(_chunk(b"IDAT", zlib.compress(raw, 6)))
    out.append(_chunk(b"IEND", b""))
    with open(path, "wb") as f:
        f.write(b"".join(out))


def read_png(path):
    """Read an 8-bit non-interlaced RGB/RGBA/gray PNG.

    Returns (float01_array (H, W, 3), metadata dict from tEXt chunks).
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
    try:
        decoded = zlib.decompress(b"".join(idat))
    except zlib.error as exc:
        raise ValueError(f"corrupt PNG data: {exc}") from exc
    stride = width * channels
    if len(decoded) != height * (stride + 1):
        raise ValueError("PNG payload size mismatch")
    img = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        ftype = decoded[y * (stride + 1)]
        line = np.frombuffer(
            decoded, dtype=np.uint8, count=stride, offset=y * (stride + 1) + 1
        ).copy()
        img[y] = _unfilter(ftype, line, prev, channels)
        prev = img[y]
    img = img.reshape(height, width, channels)
    if channels == 1:
        img = img.repeat(3, axis=2)
    elif channels == 4:
        img = img[..., :3]
    return img.astype(np.float64) / 255.0, meta


def _unfilter(ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    if ftype == 0:
        return line
    if ftype == 2:
        return line + prev
    out = line.astype(np.int32)
    if ftype == 1:
        for i in range(bpp, out.size):
            out[i] = (out[i] + out[i - bpp]) & 0xFF
    elif ftype == 3:
        up = prev.astype(np.int32)
        for i in range(out.size):
            left = out[i - bpp] if i >= bpp else 0
            out[i] = (out[i] + ((left + up[i]) >> 1)) & 0xFF
    elif ftype == 4:
        up = prev.astype(np.int32)
        for i in range(out.size):
            a = out[i - bpp] if i >= bpp else 0
            b = up[i]
            c = up[i - bpp] if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
            out[i] = (out[i] + pred) & 0xFF
    else:
        raise ValueError(f"unknown PNG filter type {ftype}")
    return out.astype(np.uint8)
