"""Evaluation-sphere rendering: mirror lookup plus diffuse/glossy prefilters.

The three standard probes are a white mirror ball, a gray 0.9-albedo sphere
with a normalized Phong lobe (exponent 64), and a 0.5-albedo Lambertian
sphere. Prefilters integrate the full input map by direct summation over a
coarse output grid (at most 64 rows) that is bilinearly upsampled at lookup
time; every output pixel accumulates input chunks in a fixed serial order,
so results do not depend on scheduling.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import EnvironmentMap, grid_directions, sample_equirect, solid_angle_rows

PREFILTER_MAX_ROWS = 64
_CHUNK = 4096


@dataclass
class Material:
    """Probe material: 'mirror', 'matte' (Phong lobe), or 'diffuse'."""

    kind: str
    albedo: tuple = (1.0, 1.0, 1.0)
    exponent: float = 64.0

    def __post_init__(self):
        if self.kind not in ("mirror", "matte", "diffuse"):
            raise ValueError(f"unknown material kind {self.kind!r}")
        if any(not 0.0 <= a <= 1.0 for a in self.albedo):
            raise ValueError("albedo components must lie in [0, 1]")
        if self.exponent <= 0:
            raise ValueError("glossy exponent must be positive")


MIRROR_BALL = Material("mirror", albedo=(1.0, 1.0, 1.0))
MATTE_SILVER = Material("matte", albedo=(0.9, 0.9, 0.9), exponent=64.0)
GRAY_DIFFUSE = Material("diffuse", albedo=(0.5, 0.5, 0.5))
STANDARD_MATERIALS = {"mirror": MIRROR_BALL, "matte": MATTE_SILVER, "diffuse": GRAY_DIFFUSE}


@dataclass
class ProbeImage:
    """Square probe render: linear RGB pixels plus the sphere-disc mask."""

    pixels: np.ndarray
    mask: np.ndarray

    @property
    def size(self) -> int:
        return self.pixels.shape[0]


def _pow_int(base: np.ndarray, exponent: int) -> np.ndarray:
    """base**exponent by binary squaring (fast path for integer lobes)."""
    result = None
    acc = base
    e = exponent
    while e > 0:
        if e & 1:
            result = acc.copy() if result is None else result * acc
        e >>= 1
        if e:
            acc = acc * acc
    return result


def _weighted_sums(env: EnvironmentMap, out_dirs: np.ndarray, exponent):
    """Sum of radiance*dOmega (and dOmega) against clamped-cosine^n kernels.

    Returns (numerator (M, 3), denominator (M,)). Chunked over input pixels
    in a fixed order.
    """
    in_dirs = grid_directions(env.width, env.height).reshape(-1, 3)
    omega = np.broadcast_to(
        solid_angle_rows(env.width, env.height)[:, None], (env.height, env.width)
    ).reshape(-1)
    radiance = env.data.reshape(-1, 3)
    flat_out = out_dirs.reshape(-1, 3)
    num = np.zeros((flat_out.shape[0], 3))
    den = np.zeros(flat_out.shape[0])
    for start in range(0, in_dirs.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        dots = flat_out @ in_dirs[sl].T
        np.maximum(dots, 0.0, out=dots)
        if exponent != 1:
            if float(exponent).is_integer():
                dots = _pow_int(dots, int(exponent))
            else:
                dots = dots ** exponent
        w = dots * omega[sl]
        num += w @ radiance[sl]
        den += w.sum(axis=1)
    return num.reshape(out_dirs.shape), den.reshape(out_dirs.shape[:-1])


def _out_rows(env: EnvironmentMap, out_height: int) -> int:
    return min(out_height, env.height, PREFILTER_MAX_ROWS)


def prefilter_diffuse(env: EnvironmentMap, out_height: int) -> EnvironmentMap:
    """Cosine-convolved irradiance map (steradian-integrated, not averaged)."""
    rows = _out_rows(env, out_height)
    dirs = grid_directions(2 * rows, rows)
    num, _ = _weighted_sums(env, dirs, exponent=1)
    return EnvironmentMap(num)


def prefilter_glossy(env: EnvironmentMap, exponent: float, out_height: int) -> EnvironmentMap:
    """Normalized Phong-lobe-weighted mean radiance per direction."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    rows = _out_rows(env, out_height)
    dirs = grid_directions(2 * rows, rows)
    num, den = _weighted_sums(env, dirs, exponent=exponent)
    return EnvironmentMap(num / den[..., None])


def _disc_geometry(size: int):
    coords = (2.0 * (np.arange(size) + 0.5) / size) - 1.0
    u, v = np.meshgrid(coords, -coords)  # v axis points up in the image
    r2 = u * u + v * v
    mask = r2 <= 1.0
    nz = np.sqrt(np.clip(1.0 - r2, 0.0, 1.0))
    normals = np.stack([u, v, nz], axis=-1)
    return mask, normals


def render_probe(env: EnvironmentMap, material: Material, size: int) -> ProbeImage:
    """Render a sphere probe under an environment map.

    Orthographic camera along -z; the mirror reflects the +z view direction,
    the diffuse sphere looks up (albedo/pi) * irradiance at the normal, and
    the matte sphere looks up the glossy prefilter at the reflection vector.
    """
    if size < 16:
        raise ValueError("probe size must be at least 16 pixels")
    mask, normals = _disc_geometry(size)
    albedo = np.asarray(material.albedo, dtype=np.float64)
    pixels = np.zeros((size, size, 3))
    n = normals[mask]
    if material.kind == "mirror":
        refl = 2.0 * n[:, 2:3] * n - np.array([0.0, 0.0, 1.0])
        pixels[mask] = albedo * sample_equirect(env.data, refl)
    elif material.kind == "diffuse":
        irr = prefilter_diffuse(env, out_height=env.height)
        pixels[mask] = (albedo / np.pi) * sample_equirect(irr.data, n)
    else:
        glossy = prefilter_glossy(env, material.exponent, out_height=env.height)
        refl = 2.0 * n[:, 2:3] * n - np.array([0.0, 0.0, 1.0])
        pixels[mask] = albedo * sample_equirect(glossy.data, refl)
    return ProbeImage(pixels=pixels, mask=mask)
