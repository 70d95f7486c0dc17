import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from luxprobe.envmap import EnvironmentMap, _pixel_centres
from luxprobe.fusion import N_PARAMS, FusionNet, init_uniform
from luxprobe.metrics import evaluate_three_spheres, sequence_report


def hot_spot_env(height=64, row=None, col=None, value=100.0, base=0.01):
    """Map with a single bright texel on a dim background."""
    width = 2 * height
    data = np.full((height, width, 3), base)
    r = height // 2 if row is None else row
    c = width // 2 if col is None else col
    data[r, c] = value
    return EnvironmentMap(data)


def grid_directions(width: int, height: int) -> np.ndarray:
    """(H, W, 3) array of the pixel-centre directions of a width x height map."""
    return _pixel_centres(np.arange(width), np.arange(height)[:, None], width, height)


def evaluate_sequence(pred_envs, gt_envs, probe_size):
    """The report `eval-video` writes: each frame pair scored on its own, then
    the sequence report of the frames in order."""
    assert len(pred_envs) == len(gt_envs)
    return sequence_report([evaluate_three_spheres(p, g, probe_size=probe_size)
                            for p, g in zip(pred_envs, gt_envs)])


class allocation_peak:
    """The peak bytes allocated inside a `with` block, by tracemalloc:
    `with allocation_peak() as probe: ...`, then `probe.bytes`."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc_info):
        self.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def overflowing_net():
    """A finite float32 net whose layers overflow float32: parameters of +-1e38."""
    return FusionNet(np.resize(np.float32([1e38, -1e38]), N_PARAMS))


def overflowing_inside_net():
    """A finite float32 net whose output comes out finite from an overflow inside:
    layer-0 weights and biases of 1e38 and middle weights of 1 drive the hidden
    layers to +inf, last weights of -1 take the head to -inf, and softplus to 0."""
    net = init_uniform(0, np.float32)
    net.weights[0][:] = 1e38
    net.biases[0][:] = 1e38
    for w in net.weights[1:-1]:
        w[:] = 1.0
    net.weights[-1][:] = -1.0
    return net


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# the one-line tonemap expressions, the code's own form, kept here as a pinned
# copy that the code is checked against bit for bit (oracles)

def tonemap_ldr_expr(e):
    e = np.asarray(e, dtype=np.float64)
    return np.clip(e / (1.0 + e) * (1.0 + e / (16.0 * 16.0)), 0.0, 1.0)


def tonemap_log_expr(e):
    e = np.asarray(e, dtype=np.float64)
    return np.clip(np.log1p(e) / np.log1p(10000.0), 0.0, 1.0)


def quantize8_expr(img):
    img = np.asarray(img, dtype=np.float64)
    return np.floor(img * 255.0 + 0.5) / 255.0


def png_with_row_filters(img, filters) -> bytes:
    """An 8-bit RGB PNG of the uint8 (H, W, 3) `img`, hand-encoded with filter
    type filters[y] on row y, as other encoders choose per row."""
    height, width, _ = img.shape
    raw = bytearray()
    prev = np.zeros(width * 3, dtype=np.int32)
    for y, ftype in enumerate(filters):
        line = img[y].reshape(-1).astype(np.int32)
        left = np.concatenate([[0, 0, 0], line[:-3]])
        if ftype == 0:
            enc = line
        elif ftype == 1:
            enc = (line - left) % 256
        elif ftype == 2:
            enc = (line - prev) % 256
        elif ftype == 3:
            enc = (line - (left + prev) // 2) % 256
        else:
            upleft = np.concatenate([[0, 0, 0], prev[:-3]])
            pred = np.zeros_like(line)
            for i in range(line.size):
                a, b, c = left[i], prev[i], upleft[i]
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred[i] = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
            enc = (line - pred) % 256
        raw.append(int(ftype))
        raw.extend(int(v) for v in enc)
        prev = line

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b""))
