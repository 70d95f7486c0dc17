"""Equirectangular environment maps and spherical geometry.

Conventions (fixed for the whole package):
  * maps are (height, width, 3) float arrays of linear RGB radiance,
    row 0 at the top of the panorama (polar angle -> 0), width == 2*height
  * directions are unit 3-vectors (x, y, z) in camera coordinates:
    +x right, +y up, -z forward
  * a pixel center (col, row) maps to azimuth phi = 2*pi*(col+0.5)/width - pi
    and polar theta = pi*(row+0.5)/height, with phi = 0 on the camera
    forward axis (0, 0, -1)
"""

from dataclasses import dataclass

import numpy as np

# Rec.709 luminance weights for linear RGB
LUMA_WEIGHTS = np.array([0.2126, 0.7152, 0.0722])


@dataclass
class EnvironmentMap:
    """Equirectangular grid of linear RGB radiance (relative units)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"environment map must be (H, W, 3), got {arr.shape}")
        if arr.shape[1] != 2 * arr.shape[0]:
            raise ValueError(f"width must equal 2*height, got {arr.shape[1]}x{arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise ValueError("environment map contains non-finite values")
        if (arr < 0).any():
            raise ValueError("environment map contains negative radiance")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @classmethod
    def constant(cls, value, height: int) -> "EnvironmentMap":
        """Uniform map; `value` is a scalar or an RGB triple."""
        rgb = np.broadcast_to(np.asarray(value, dtype=np.float64), (3,))
        data = np.tile(rgb, (height, 2 * height, 1))
        return cls(data)


def _pixel_centres(col, row, width: int, height: int) -> np.ndarray:
    """Unit directions (..., 3) of the pixel centres at (col, row); the
    integer indices broadcast, so scalars give one (3,) direction."""
    phi = 2.0 * np.pi * (np.asarray(col, dtype=np.float64) + 0.5) / width - np.pi
    theta = np.pi * (np.asarray(row, dtype=np.float64) + 0.5) / height
    theta, phi = np.broadcast_arrays(theta, phi)
    sin_t = np.sin(theta)
    return np.stack(
        [sin_t * np.sin(phi), np.cos(theta), -sin_t * np.cos(phi)], axis=-1
    )


def pixel_to_direction(col: int, row: int, width: int, height: int) -> np.ndarray:
    """Unit direction of the pixel center at (col, row)."""
    if width != 2 * height:
        raise ValueError("width must equal 2*height")
    if not (0 <= col < width and 0 <= row < height):
        raise ValueError(f"pixel ({col}, {row}) outside {width}x{height} map")
    return _pixel_centres(col, row, width, height)


def grid_directions(width: int, height: int) -> np.ndarray:
    """(H, W, 3) array of pixel-center directions."""
    return _pixel_centres(np.arange(width), np.arange(height)[:, None], width, height)


def direction_to_pixel(direction, width: int, height: int):
    """Continuous (col, row) for a unit direction; inverse of pixel_to_direction.

    Azimuth wraps, so col lies in [-0.5, width-0.5). Rows are clamped to
    [0, height-1] (pole clamp for bilinear lookups); at the exact poles the
    azimuth is undefined and col is fixed to width/2.
    """
    d = np.asarray(direction, dtype=np.float64)
    col, row = _directions_to_pixels(d[None, :], width, height)
    return float(col[0]), float(row[0])


def _directions_to_pixels(dirs, width, height):
    """Vectorized direction_to_pixel over (..., 3) arrays."""
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    theta = np.arccos(np.clip(y, -1.0, 1.0))
    phi = np.arctan2(x, -z)
    col = (phi + np.pi) * width / (2.0 * np.pi) - 0.5
    row = theta * height / np.pi - 0.5
    at_pole = np.hypot(x, z) < 1e-12
    col = np.where(at_pole, width / 2.0, col)
    row = np.clip(row, 0.0, height - 1.0)
    return col, row


def _polar_cosines(height: int) -> np.ndarray:
    """cos(pi*k/height) for k = 0..height, mirror-symmetric by construction.

    Built so that c[k] == -c[height-k] bit-exactly, which makes solid angles
    symmetric about the equator and the total solid angle telescope to 4*pi.
    """
    c = np.empty(height + 1, dtype=np.float64)
    half = height // 2
    k = np.arange(half + 1)
    c[: half + 1] = np.cos(np.pi * k / height)
    c[height - half :] = -c[: half + 1][::-1]
    if height % 2 == 0:
        c[half] = 0.0
    c[0] = 1.0
    c[height] = -1.0
    return c


def solid_angle_rows(width: int, height: int) -> np.ndarray:
    """Per-row pixel solid angles, shape (height,)."""
    c = _polar_cosines(height)
    return (2.0 * np.pi / width) * (c[:-1] - c[1:])


def luminance(rgb) -> np.ndarray:
    """Rec.709 luminance of linear RGB, over the trailing axis."""
    return np.asarray(rgb, dtype=np.float64) @ LUMA_WEIGHTS


def vector_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the trailing axis of a real (..., 3) array.

    The same sum, in the same order, and square root as
    `np.linalg.norm(x, axis=-1)`, without the `conj` copy it makes of a real array.
    """
    sq = x * x
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def equirect_geometry(dirs: np.ndarray, height: int, width: int):
    """The map-independent half of a bilinear lookup along directions (..., 3).

    Returns (texels, tc, tr): the flat texel indices (4, ...) of the
    top-left, top-right, bottom-left and bottom-right neighbours in a
    row-major height x width grid, and the column and row weights (..., 1).
    Wraps in azimuth and clamps rows at the poles. One geometry serves every
    map of that size (`apply_equirect`).
    """
    col, row = _directions_to_pixels(dirs, width, height)
    c0f = np.floor(col)
    r0f = np.floor(row)
    tc = (col - c0f)[..., None]
    tr = (row - r0f)[..., None]
    c0 = c0f.astype(np.int64) % width
    c1 = (c0 + 1) % width
    r0 = np.clip(r0f.astype(np.int64), 0, height - 1)
    r1 = np.clip(r0 + 1, 0, height - 1)
    r0 *= width
    r1 *= width
    return np.stack([r0 + c0, r0 + c1, r1 + c0, r1 + c1]), tc, tr


def apply_equirect(data: np.ndarray, geometry) -> np.ndarray:
    """Bilinear lookup of a (H, W, ...) map at an `equirect_geometry`.

    Lerps use the difference form a + t*(b - a) so constant maps sample
    back bit-exactly.
    """
    texels, tc, tr = geometry
    flat = data.reshape(data.shape[0] * data.shape[1], *data.shape[2:])
    top = flat.take(texels[0], axis=0)
    top = top + tc * (flat.take(texels[1], axis=0) - top)
    bot = flat.take(texels[2], axis=0)
    bot = bot + tc * (flat.take(texels[3], axis=0) - bot)
    return top + tr * (bot - top)


def sample_equirect(data: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Bilinear panorama lookup along unit directions (..., 3).

    Wraps in azimuth and clamps rows at the poles. Lerps use the difference
    form a + t*(b - a) so constant maps sample back bit-exactly.
    """
    return apply_equirect(data, equirect_geometry(dirs, data.shape[0], data.shape[1]))


def rotate_env(env: EnvironmentMap, yaw_deg: float) -> EnvironmentMap:
    """Shift panorama contents in azimuth by yaw_deg.

    Sampling the rotated map at azimuth phi reads the source at phi + yaw,
    so project(rotate_env(pano, d), az) == project(pano, az + d). Grid-aligned
    yaw is an exact column roll; otherwise columns are linearly resampled
    with wraparound.
    """
    width = env.width
    shift = yaw_deg * width / 360.0
    if not np.isfinite(shift):
        raise ValueError(f"yaw must be finite with a finite column shift, got {yaw_deg}")
    k = round(shift)
    if abs(shift - k) < 1e-9:
        return EnvironmentMap(np.roll(env.data, -int(k) % width, axis=1))
    pos = (np.arange(width, dtype=np.float64) + shift) % width
    i0 = np.floor(pos).astype(np.int64) % width
    i1 = (i0 + 1) % width
    t = (pos - np.floor(pos))[None, :, None]
    lo = env.data[:, i0]
    data = lo + t * (env.data[:, i1] - lo)
    return EnvironmentMap(data)


def peak_direction(env: EnvironmentMap, percentile: float = 0.999) -> np.ndarray:
    """Dominant-light direction of an environment map.

    Takes all pixels at or above the solid-angle-weighted luminance
    percentile and returns the normalized direction centroid weighted by
    luminance * solid angle. Raises if the map has no positive luminance.
    """
    if not 0.0 < percentile <= 1.0:
        raise ValueError("percentile must be in (0, 1]")
    lum = luminance(env.data)
    if lum.max() <= 0.0:
        raise ValueError("no peak: environment map has no positive luminance")
    sa = solid_angle_rows(env.width, env.height)
    flat_lum = lum.ravel()
    order = np.argsort(flat_lum, kind="stable")
    cum = np.cumsum(sa[order // env.width])
    idx = np.searchsorted(cum, percentile * cum[-1], side="left")
    threshold = flat_lum[order[min(idx, flat_lum.size - 1)]]
    del order, cum  # directions are built for the selected pixels alone
    rows, cols = np.divmod(np.flatnonzero(flat_lum >= threshold), env.width)
    weights = lum[rows, cols] * sa[rows]
    centroid = (weights[:, None] * _pixel_centres(cols, rows, env.width, env.height)).sum(axis=0)
    norm = np.linalg.norm(centroid)
    if norm < 1e-12 * weights.sum():
        raise ValueError("no peak: luminance distribution is directionless")
    return centroid / norm


def great_circle_deg(a, b) -> float:
    """Great-circle angle in degrees between two unit directions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
