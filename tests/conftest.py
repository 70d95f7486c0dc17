import numpy as np
import pytest

from luxprobe.envmap import EnvironmentMap, _pixel_centres
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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# the one-line tonemap expressions that the in-place forms replaced (oracles)

def tonemap_ldr_expr(e):
    e = np.asarray(e, dtype=np.float64)
    return np.clip(e / (1.0 + e) * (1.0 + e / (16.0 * 16.0)), 0.0, 1.0)


def tonemap_log_expr(e):
    e = np.asarray(e, dtype=np.float64)
    return np.clip(np.log1p(e) / np.log1p(10000.0), 0.0, 1.0)


def quantize8_expr(img):
    img = np.asarray(img, dtype=np.float64)
    return np.floor(img * 255.0 + 0.5) / 255.0
