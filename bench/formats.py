"""The benchmark's own file codecs and float64 reference maths.

Nothing here imports luxprobe: the inputs the benchmark feeds the program
and the oracles its outputs are checked against must not change when the
code under test changes. Only numpy and the standard library are used.
"""

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# dual tonemap constants of the paper's lighting representation
M_LDR = 16.0
M_LOG = 10000.0
BLEND_LO, BLEND_HI = 8.0, 16.0
FUSION_WIDTHS = (6, 64, 64, 64, 64, 3)
LEAKY_SLOPE = 0.01


# ---------------------------------------------------------------------------
# PFM

def write_pfm(path, image) -> None:
    """Little-endian RGB PFM, rows stored bottom to top."""
    arr = np.asarray(image, dtype="<f4")
    height, width = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(b"PF\n%d %d\n-1.0\n" % (width, height))
        f.write(np.ascontiguousarray(arr[::-1]).tobytes())


def read_pfm(path) -> np.ndarray:
    """(H, W, 3) float32, top row first; only the RGB form the program writes."""
    with open(path, "rb") as f:
        if f.readline().rstrip() != b"PF":
            raise ValueError("not an RGB PFM")
        width, height = (int(tok) for tok in f.readline().split())
        scale = float(f.readline())
        data = np.frombuffer(f.read(), dtype="<f4" if scale < 0 else ">f4")
    if data.size != width * height * 3:
        raise ValueError(f"PFM payload holds {data.size} floats, expected {width * height * 3}")
    return data.reshape(height, width, 3)[::-1].astype(np.float32)


# ---------------------------------------------------------------------------
# PNG

def png_chunk(tag: bytes, body: bytes) -> bytes:
    crc = zlib.crc32(tag + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)


def encode_png(img_u8: np.ndarray, row_filters: np.ndarray) -> bytes:
    """8-bit RGB PNG whose row y uses filter type row_filters[y] (0-4).

    Filters are applied to the unfiltered bytes, so the whole image is
    filtered at once; this is how external encoders choose per row.
    """
    height, width, channels = img_u8.shape
    x = img_u8.reshape(height, width * channels).astype(np.int16)
    left = np.zeros_like(x)
    left[:, channels:] = x[:, :-channels]
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    upleft = np.zeros_like(x)
    upleft[1:, channels:] = x[:-1, :-channels]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    candidates = np.stack([x, x - left, x - up, x - ((left + up) >> 1), x - paeth])
    filtered = candidates[row_filters, np.arange(height)] & 0xFF
    raw = np.concatenate([row_filters[:, None], filtered], axis=1).astype(np.uint8)
    return b"".join([
        PNG_SIGNATURE,
        png_chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)),
        png_chunk(b"IDAT", zlib.compress(raw.tobytes(), 6)),
        png_chunk(b"IEND", b""),
    ])


def png_chunks(blob: bytes):
    """[(tag, body)] of a PNG, checking lengths and CRCs."""
    if not blob.startswith(PNG_SIGNATURE):
        raise ValueError("not a PNG")
    pos, chunks = len(PNG_SIGNATURE), []
    while pos < len(blob):
        if pos + 12 > len(blob):
            raise ValueError("truncated PNG chunk header")
        (length,) = struct.unpack_from(">I", blob, pos)
        end = pos + 12 + length
        if end > len(blob):
            raise ValueError("PNG chunk runs past the end of the file")
        tag, body = blob[pos + 4 : pos + 8], blob[pos + 8 : end - 4]
        if struct.unpack_from(">I", blob, end - 4)[0] != zlib.crc32(tag + body) & 0xFFFFFFFF:
            raise ValueError(f"PNG {tag!r} chunk CRC mismatch")
        chunks.append((tag, body))
        pos = end
        if tag == b"IEND":
            return chunks
    raise ValueError("PNG has no IEND chunk")


def decode_png(blob: bytes) -> np.ndarray:
    """(H, W, 3) uint8 of an 8-bit RGB non-interlaced PNG."""
    chunks = png_chunks(blob)
    width, height, depth, color, _, _, interlace = struct.unpack(">IIBBBBB", chunks[0][1])
    if chunks[0][0] != b"IHDR" or depth != 8 or color != 2 or interlace != 0:
        raise ValueError("expected an 8-bit RGB non-interlaced PNG")
    raw = np.frombuffer(zlib.decompress(b"".join(b for t, b in chunks if t == b"IDAT")),
                        dtype=np.uint8)
    stride = width * 3
    if raw.size != height * (stride + 1):
        raise ValueError("PNG payload size mismatch")
    rows = raw.reshape(height, stride + 1)
    out = np.zeros((height + 1, stride), dtype=np.int64)  # row 0: the zero row above
    for y in range(height):
        line, prev = rows[y, 1:].astype(np.int64), out[y]
        ftype = rows[y, 0]
        if ftype == 0:
            out[y + 1] = line
        elif ftype == 1:
            out[y + 1] = np.cumsum(line.reshape(width, 3), axis=0).ravel() & 0xFF
        elif ftype == 2:
            out[y + 1] = (line + prev) & 0xFF
        elif ftype in (3, 4):
            cur = out[y + 1]
            for i in range(stride):
                a = cur[i - 3] if i >= 3 else 0
                b = prev[i]
                if ftype == 3:
                    pred = (a + b) >> 1
                else:
                    c = prev[i - 3] if i >= 3 else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                cur[i] = (line[i] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {ftype}")
    return out[1:].astype(np.uint8).reshape(height, width, 3)


# ---------------------------------------------------------------------------
# Radiance HDR, new-style run-length encoded scanlines

def _rle_channel(values: np.ndarray) -> bytes:
    """Runs of 4 or more equal bytes become (128 + n, byte), the rest literals."""
    out = bytearray()
    starts = np.flatnonzero(np.diff(values.astype(np.int16), prepend=-1))
    lengths = np.diff(np.append(starts, values.size))
    literal = bytearray()
    for start, length in zip(starts.tolist(), lengths.tolist()):
        if length < 4:
            literal += values[start : start + length].tobytes()
            continue
        for i in range(0, len(literal), 128):
            piece = literal[i : i + 128]
            out += bytes([len(piece)]) + piece
        literal = bytearray()
        while length > 0:
            n = min(length, 127)
            out += bytes([128 + n, int(values[start])])
            length -= n
    for i in range(0, len(literal), 128):
        piece = literal[i : i + 128]
        out += bytes([len(piece)]) + piece
    return bytes(out)


def write_hdr_rle(path, image) -> np.ndarray:
    """Radiance RGBE file with every scanline run-length encoded; returns the texels."""
    arr = np.asarray(image, dtype=np.float64)
    height, width = arr.shape[:2]
    peak = arr.max(axis=2)
    mant, expo = np.frexp(peak)
    scale = np.where(peak > 1e-32, mant * 256.0 / np.maximum(peak, 1e-300), 0.0)
    rgbe = np.zeros((height, width, 4), dtype=np.uint8)
    rgbe[..., :3] = np.clip(np.floor(arr * scale[..., None]), 0, 255)
    rgbe[..., 3] = np.where(peak > 1e-32, expo + 128, 0)
    body = bytearray()
    for y in range(height):
        body += bytes([2, 2, width >> 8, width & 0xFF])
        for ch in range(4):
            body += _rle_channel(rgbe[y, :, ch])
    with open(path, "wb") as f:
        f.write(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n")
        f.write(b"-Y %d +X %d\n" % (height, width))
        f.write(bytes(body))
    return rgbe


def rgbe_bounds(rgbe: np.ndarray):
    """(low, high) radiance each texel stands for: [byte, byte + 1) * 2**(e - 136).

    Decoders differ on where in that interval they put the value.
    """
    scale = np.where(rgbe[..., 3] == 0, 0.0, np.ldexp(1.0, rgbe[..., 3].astype(np.int64) - 136))
    return rgbe[..., :3] * scale[..., None], (rgbe[..., :3] + 1.0) * scale[..., None]


# ---------------------------------------------------------------------------
# fusion net file: 16-byte header, flat little-endian float32 parameters,
# and a sidecar listing the layer widths

def write_fusion_net(path, weights, biases) -> None:
    header = b"LXFN" + struct.pack("<III", 1, len(weights), 0)
    body = b"".join(np.asarray(w, "<f4").tobytes() + np.asarray(b, "<f4").tobytes()
                    for w, b in zip(weights, biases))
    with open(path, "wb") as f:
        f.write(header + body)
    with open(str(path) + ".layers.txt", "w") as f:
        f.write(" ".join(map(str, FUSION_WIDTHS)) + "\n")


def read_fusion_net(path):
    """(weights, biases) as float32 arrays."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"LXFN" or struct.unpack_from("<II", blob, 4) != (1, len(FUSION_WIDTHS) - 1):
        raise ValueError("not a fusion net file")
    params = np.frombuffer(blob, dtype="<f4", offset=16)
    weights, biases, pos = [], [], 0
    for fi, fo in zip(FUSION_WIDTHS[:-1], FUSION_WIDTHS[1:]):
        weights.append(params[pos : pos + fi * fo].reshape(fi, fo))
        pos += fi * fo
        biases.append(params[pos : pos + fo])
        pos += fo
    if pos != params.size:
        raise ValueError(f"{params.size} parameters, expected {pos}")
    return weights, biases


# ---------------------------------------------------------------------------
# float64 reference maths

def dual_tonemap(e):
    """(ldr, log) channels in [0, 1] of linear radiance e."""
    e = np.asarray(e, dtype=np.float64)
    ldr = np.clip(e / (1.0 + e) * (1.0 + e / (M_LDR * M_LDR)), 0.0, 1.0)
    log = np.clip(np.log1p(e) / np.log1p(M_LOG), 0.0, 1.0)
    return ldr, log


def quantize_u8(x) -> np.ndarray:
    """[0, 1] floats to bytes, rounding half away from zero."""
    return np.floor(np.asarray(x, dtype=np.float64) * 255.0 + 0.5).astype(np.uint8)


def inverse_rule(ldr, log):
    """Closed-form inverse: Reinhard root below 8, log inverse above 16, blend between."""
    ldr = np.asarray(ldr, dtype=np.float64)
    log = np.asarray(log, dtype=np.float64)
    # positive root of E^2/M^2 + E(1 - ldr) - ldr = 0, written without cancellation
    b = 1.0 - ldr
    e_reinhard = 2.0 * ldr / (b + np.sqrt(b * b + 4.0 * ldr / (M_LDR * M_LDR)))
    e_log = np.expm1(log * np.log1p(M_LOG))
    w = np.clip((e_log - BLEND_LO) / (BLEND_HI - BLEND_LO), 0.0, 1.0)
    return (1.0 - w) * e_reinhard + w * e_log


def mlp_forward(weights, biases, x) -> np.ndarray:
    """6-64-64-64-64-3 forward pass in float64: LeakyReLU hidden, softplus out."""
    h = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ np.asarray(w, np.float64) + np.asarray(b, np.float64)
        h = np.where(z > 0, z, LEAKY_SLOPE * z) if i < len(weights) - 1 else np.logaddexp(0.0, z)
    return h


def huber(pred, target, delta: float = 1.0) -> float:
    ae = np.abs(np.asarray(pred, np.float64) - np.asarray(target, np.float64))
    return float(np.mean(np.where(ae <= delta, 0.5 * ae * ae, delta * (ae - 0.5 * delta))))


def unit_direction(azimuth_deg, elevation_deg) -> np.ndarray:
    """Camera forward axis: azimuth about +y from -z, elevation towards +y."""
    az, el = np.radians(azimuth_deg), np.radians(elevation_deg)
    return np.array([np.sin(az) * np.cos(el), np.sin(el), -np.cos(az) * np.cos(el)])
