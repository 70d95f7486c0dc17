"""Evaluation-sphere rendering: mirror lookup plus diffuse/glossy prefilters.

The three standard probes are a white mirror ball, a gray 0.9-albedo sphere
with a normalized Phong lobe (exponent 64), and a 0.5-albedo Lambertian
sphere. Prefilters integrate the full input map over a coarse output grid
(at most 64 rows) that is bilinearly upsampled at lookup time.

The clamped-cosine lobe depends only on the two polar angles and the
azimuth difference, and the equirect grid is uniform in azimuth, so for one
output row and one input row the sum over input columns is a circular
convolution (the Driscoll & Healy 1994 structure on the sphere). The
prefilters evaluate it exactly with real FFTs along each input row, one
output row at a time; results are deterministic and equal the direct
double sum up to float64 round-off.

Nothing but the radiance FFT and the per-frequency products depends on the
map, so several maps of one shape are prefiltered together: each kernel and
its spectrum is built once and applied to every map, and the probe disc and
lookup geometry are likewise built once per call (`render_probe_pixels`).
Each map's bits are those of a one-map call.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import EnvironmentMap, apply_equirect, equirect_geometry, solid_angle_rows

PREFILTER_MAX_ROWS = 64


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


def _pow_int(base: np.ndarray, exponent: int) -> np.ndarray:
    """base**exponent by binary squaring (fast path for integer lobes).

    Squares `base` in place, so the caller hands over a scratch array.
    """
    result = None
    while True:
        if exponent & 1:
            result = base.copy() if result is None else np.multiply(result, base, out=result)
        exponent >>= 1
        if not exponent:
            return result
        np.multiply(base, base, out=base)


def _weighted_sums(maps, rows: int, exponent):
    """Sums of radiance*dOmega (and dOmega) against clamped-cosine^n kernels.

    `maps` is a sequence of (H, W, 3) arrays of one shape. The output grid is
    the (rows, 2*rows) pixel-center grid. Returns (one numerator
    (rows, 2*rows, 3) per map, the shared denominator (rows, 2*rows)).

    In units of input columns, output column i lies at azimuth q + t, where
    q, r = divmod(i*W, Wo) and t = (2r + W - Wo) / (2*Wo) depends only on
    the phase r. Each phase class therefore has one kernel per output row,
    sampled at azimuth differences m + t for m = 0..W-1, and its columns
    read the circular convolution of kernel and radiance at q. When Wo
    divides W (every power-of-two map) there is a single phase class. The
    kernel and its spectrum do not depend on the radiance, so each is built
    once and applied to every map.
    """
    height, width = maps[0].shape[:2]
    out_width = 2 * rows
    theta_in = np.pi * (np.arange(height) + 0.5) / height
    theta_out = np.pi * (np.arange(rows) + 0.5) / rows
    omega = solid_angle_rows(width, height)[:, None]
    q, r = np.divmod(np.arange(out_width) * width, out_width)
    phases, phase_of_col = np.unique(r, return_inverse=True)
    shifts = (2 * phases + width - out_width) / (2 * out_width)
    cos_dphi = np.cos(2.0 * np.pi * (np.arange(width) + shifts[:, None]) / width)
    # (frequency, input row, channel), so each frequency is one small matmul
    radiance_hats = [np.ascontiguousarray(np.fft.rfft(data, axis=1).transpose(1, 0, 2))
                     for data in maps]
    nums = [np.empty((rows, out_width, 3)) for _ in maps]
    den = np.empty((rows, out_width))
    for a in range(rows):
        sin_sin = (np.sin(theta_out[a]) * np.sin(theta_in))[:, None]
        cos_cos = (np.cos(theta_out[a]) * np.cos(theta_in))[:, None]
        for p, cos_row in enumerate(cos_dphi):
            kernel = sin_sin * cos_row + cos_cos
            np.maximum(kernel, 0.0, out=kernel)
            if exponent != 1:
                if float(exponent).is_integer():
                    kernel = _pow_int(kernel, int(exponent))
                else:
                    kernel = kernel ** exponent
            kernel *= omega
            cols = phase_of_col == p
            den[a, cols] = kernel.sum()
            kernel_hat = np.fft.rfft(kernel, axis=1).T[:, None, :]
            for num, radiance_hat in zip(nums, radiance_hats):
                spectrum = kernel_hat @ radiance_hat
                num[a, cols] = np.fft.irfft(spectrum[:, 0], n=width, axis=0)[q[cols]]
    # kernel and radiance are non-negative, so the exact sum is too; the
    # clamp removes FFT round-off (~-1e-17) where the true value is zero
    for num in nums:
        np.maximum(num, 0.0, out=num)
    return nums, den


def _out_rows(env: EnvironmentMap, out_height: int) -> int:
    return min(out_height, env.height, PREFILTER_MAX_ROWS)


def _diffuse_maps(maps, rows: int) -> list:
    nums, _ = _weighted_sums(maps, rows, exponent=1)
    return [EnvironmentMap(num) for num in nums]


def _glossy_maps(maps, exponent: float, rows: int) -> list:
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    nums, den = _weighted_sums(maps, rows, exponent=exponent)
    return [EnvironmentMap(num / den[..., None]) for num in nums]


def prefilter_diffuse(env: EnvironmentMap, out_height: int) -> EnvironmentMap:
    """Cosine-convolved irradiance map (steradian-integrated, not averaged)."""
    return _diffuse_maps([env.data], _out_rows(env, out_height))[0]


def prefilter_glossy(env: EnvironmentMap, exponent: float, out_height: int) -> EnvironmentMap:
    """Normalized Phong-lobe-weighted mean radiance per direction."""
    return _glossy_maps([env.data], exponent, _out_rows(env, out_height))[0]


def _disc_geometry(size: int):
    """The sphere disc of a size x size probe: its mask, and the unit normals
    (n, 3) of the pixels under it in row-major order."""
    coords = (2.0 * (np.arange(size) + 0.5) / size) - 1.0
    u, v = np.meshgrid(coords, -coords)  # v axis points up in the image
    r2 = u * u + v * v
    mask = r2 <= 1.0
    u, v, r2 = u[mask], v[mask], r2[mask]
    nz = np.sqrt(np.clip(1.0 - r2, 0.0, 1.0))
    return mask, np.stack([u, v, nz], axis=-1)


def render_probe_pixels(envs, material: Material, size: int):
    """Sphere-probe pixels under each of several environment maps.

    Returns (disc mask (size, size), one (n, 3) array per map of the pixels
    under the mask, in row-major order). Maps may differ in shape. The disc,
    its normals or reflection vectors, the prefilter kernels and the lookup
    geometry are built once per map shape and shared by its maps.
    """
    if size < 16:
        raise ValueError("probe size must be at least 16 pixels")
    mask, n = _disc_geometry(size)
    if material.kind == "diffuse":
        dirs = n
        weight = np.asarray(material.albedo, dtype=np.float64) / np.pi
    else:
        dirs = 2.0 * n[:, 2:3] * n - np.array([0.0, 0.0, 1.0])
        weight = np.asarray(material.albedo, dtype=np.float64)
    by_shape = {}
    for i, env in enumerate(envs):
        by_shape.setdefault(env.data.shape, []).append(i)
    pixels = [None] * len(envs)
    for (height, _, _), group in by_shape.items():
        maps = [envs[i].data for i in group]
        rows = min(height, PREFILTER_MAX_ROWS)
        if material.kind == "diffuse":
            maps = [e.data for e in _diffuse_maps(maps, rows)]
        elif material.kind == "matte":
            maps = [e.data for e in _glossy_maps(maps, material.exponent, rows)]
        geometry = equirect_geometry(dirs, *maps[0].shape[:2])
        for i, data in zip(group, maps):
            pixels[i] = weight * apply_equirect(data, geometry)
    return mask, pixels


def render_probe(env: EnvironmentMap, material: Material, size: int) -> ProbeImage:
    """Render a sphere probe under an environment map.

    Orthographic camera along -z; the mirror reflects the +z view direction,
    the diffuse sphere looks up (albedo/pi) * irradiance at the normal, and
    the matte sphere looks up the glossy prefilter at the reflection vector.
    """
    mask, (disc,) = render_probe_pixels([env], material, size)
    pixels = np.zeros((size, size, 3))
    pixels[mask] = disc
    return ProbeImage(pixels=pixels, mask=mask)
