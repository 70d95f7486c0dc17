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
# pixels per row block of a per-pixel stage: each block's temporaries stay in cache
BLOCK_PIXELS = 1 << 15


def row_blocks(rows: int, row_pixels: int, budget: int = BLOCK_PIXELS):
    """Slices of rows 0..rows-1, in order, each of at most `budget` pixels at
    `row_pixels` pixels a row; a row wider than the budget is a block alone."""
    step = max(1, budget // row_pixels)
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def map_rows(fn, *arrays, out):
    """Set out[b] = fn(*(a[b] for a in arrays)) for each b in `row_blocks(*out.shape[:2])`
    and return `out` (or a tuple of outputs, blocked as the first, for a tuple-valued
    `fn`): the one row-block rule. `fn` is per pixel, so any block gives its bits."""
    many = isinstance(out, tuple)
    for b in row_blocks(*(out[0] if many else out).shape[:2]):
        values = fn(*(a[b] for a in arrays))
        for o, v in zip(out, values) if many else [(out, values)]:
            o[b] = v
        del values, v  # no block is held while the next is made
    return out


def check_panorama(shape) -> None:
    """Raise ValueError unless `shape` is a panorama's: (H, W, 3), H >= 1, W == 2*H."""
    if len(shape) != 3 or shape[2] != 3 or shape[0] < 1:
        raise ValueError(f"environment map must be (H, W, 3) with H >= 1, got {shape}")
    if shape[1] != 2 * shape[0]:
        raise ValueError(f"width must equal 2*height, got {shape[1]}x{shape[0]}")


def check_radiance(values: np.ndarray, what: str) -> None:
    """Raise ValueError unless `values` are finite and non-negative: NaN, -inf
    and negatives show in the minimum, +inf in the maximum."""
    if not (values.min() >= 0.0 and np.isfinite(values.max())):
        raise ValueError(f"{what} must be finite and non-negative")


@dataclass
class EnvironmentMap:
    """Equirectangular grid of linear RGB radiance (relative units)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        check_panorama(arr.shape)
        check_radiance(arr, "environment map")
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
    integer indices broadcast, so scalars give one (3,) direction. Row r's
    polar angle is entry 2r+1 of `polar_cos_sin` at 2*height steps."""
    phi = 2.0 * np.pi * (np.asarray(col, dtype=np.float64) + 0.5) / width - np.pi
    cos_t, sin_t = polar_cos_sin(2 * np.asarray(row) + 1, 2 * height)
    cos_t, sin_t, phi = np.broadcast_arrays(cos_t, sin_t, phi)
    return np.stack([sin_t * np.sin(phi), cos_t, -sin_t * np.cos(phi)], axis=-1)


def pixel_to_direction(col: int, row: int, width: int, height: int) -> np.ndarray:
    """Unit direction of the pixel center at (col, row)."""
    check_panorama((height, width, 3))
    if not (0 <= col < width and 0 <= row < height):
        raise ValueError(f"pixel ({col}, {row}) outside {width}x{height} map")
    return _pixel_centres(col, row, width, height)


def direction_to_pixel(direction, width: int, height: int):
    """Continuous (col, row) for a unit direction; inverse of pixel_to_direction.

    Azimuth wraps, so col lies in [-0.5, width-0.5). Rows are clamped to
    [0, height-1] (pole clamp for bilinear lookups); at the exact poles the
    azimuth is undefined and col is fixed to width/2.
    """
    col, row = _directions_to_pixels(np.asarray(direction, dtype=np.float64), width, height)
    return col.item(), row.item()


def _directions_to_pixels(dirs, width, height):
    """Vectorized direction_to_pixel over (..., 3) arrays: flat (n,) col and row
    arrays, n the number of directions (1 for a single (3,) direction).

    Works in place on flat copies, in the operation order of the formulas,
    such as (theta * height) / pi, so the bits are those of the expressions
    written out.
    """
    dirs = np.reshape(dirs, (-1, 3))
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    row = np.clip(y, -1.0, 1.0)
    np.arccos(row, out=row)  # theta
    row *= height
    row /= np.pi
    row -= 0.5
    col = np.arctan2(x, -z)  # phi
    col += np.pi
    col *= width
    col /= 2.0 * np.pi
    col -= 0.5
    col[np.hypot(x, z) < 1e-12] = width / 2.0  # at the poles
    np.clip(row, 0.0, height - 1.0, out=row)
    return col, row


def polar_cos_sin(k, steps: int):
    """cos and sin of the polar angles pi*k/steps at integer indices k in
    [0, steps], mirror-exact: entry steps-k has the cos negated and the same
    sin bit for bit, and cos == 0 at the equator (2k == steps). Each index
    is folded to m = min(k, steps-k) before its angle pi*m/steps is taken.
    The row edges of an n-row map are k = 0..n at steps = n, its pixel
    centres the odd k at steps = 2n."""
    k = np.asarray(k)
    m = np.minimum(k, steps - k)
    theta = np.pi * m / steps
    c = np.cos(theta)
    return np.where(2 * k == steps, 0.0, np.where(m < k, -c, c)), np.sin(theta)


def solid_angle_rows(width: int, height: int) -> np.ndarray:
    """Per-row pixel solid angles, shape (height,)."""
    c, _ = polar_cos_sin(np.arange(height + 1), height)
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
    shape = np.shape(dirs)[:-1]
    col, row = _directions_to_pixels(dirs, width, height)
    c0 = np.floor(col)
    col -= c0  # tc
    c0 = c0.astype(np.int64)
    c0 %= width
    r0 = np.floor(row)
    row -= r0  # tr
    r0 = r0.astype(np.int64)
    np.clip(r0, 0, height - 1, out=r0)
    r1 = r0 + 1
    np.clip(r1, 0, height - 1, out=r1)
    r0 *= width
    r1 *= width
    texels = np.empty((4, col.size), dtype=np.int64)
    np.add(r0, c0, out=texels[0])
    np.add(r1, c0, out=texels[2])
    c0 += 1
    c0 %= width  # c1
    np.add(r0, c0, out=texels[1])
    np.add(r1, c0, out=texels[3])
    return texels.reshape(4, *shape), col.reshape(*shape, 1), row.reshape(*shape, 1)


def apply_equirect(data: np.ndarray, geometry) -> np.ndarray:
    """Bilinear lookup of a (H, W, ...) map at an `equirect_geometry`, in float64
    whatever the map's dtype: the taken texels are cast before any arithmetic,
    so a float32 map gives the bits of its float64 cast.

    Lerps use the difference form a + t*(b - a) so constant maps sample
    back bit-exactly; the weighted difference is formed in float64 and `a`
    added to it, which gives the same bits.
    """
    texels, tc, tr = geometry
    flat = data.reshape(data.shape[0] * data.shape[1], *data.shape[2:])
    a = flat.take(texels[0], axis=0)
    b = flat.take(texels[1], axis=0)
    top = np.subtract(b, a, dtype=np.float64)
    top *= tc
    top += a
    # the texels are in range by construction; mode "raise" would copy `out` first
    flat.take(texels[2], axis=0, out=a, mode="wrap")
    flat.take(texels[3], axis=0, out=b, mode="wrap")
    bot = np.subtract(b, a, dtype=np.float64)
    bot *= tc
    bot += a
    bot -= top
    bot *= tr
    bot += top
    return bot


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
    yaw is an exact column roll, at the map's dtype; otherwise columns are
    linearly resampled with wraparound, per row block into a float64 map: the
    two resampled columns are cast before they are lerped, so a float32 map
    gives the bits of its float64 cast.
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

    def lerp(rows):
        lo = rows[:, i0].astype(np.float64, copy=False)
        return lo + t * (rows[:, i1].astype(np.float64, copy=False) - lo)

    return EnvironmentMap(map_rows(lerp, env.data, out=np.empty(env.data.shape)))


def peak_direction(env: EnvironmentMap, percentile: float = 0.999) -> np.ndarray:
    """Dominant-light direction of an environment map.

    Takes all pixels at or above the solid-angle-weighted luminance
    percentile and returns the normalized direction centroid weighted by
    luminance * solid angle. Raises if the map has no positive luminance, or
    if the centroid cancels or underflows.
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
    norm = vector_norms(centroid)
    # a squared norm below the smallest normal float has lost its bits to underflow
    if norm * norm < np.finfo(np.float64).tiny or norm < 1e-12 * weights.sum():
        raise ValueError("no peak: luminance distribution is directionless")
    return centroid / norm


def angle_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angles (radians) between unit vectors over the trailing axis, in the
    half-angle form 2*atan2(|u - v|, |u + v|): exactly 0 for equal vectors,
    and accurate near 0 and pi, where arccos of a dot product is not."""
    return 2.0 * np.arctan2(vector_norms(u - v), vector_norms(u + v))


def great_circle_deg(a, b) -> float:
    """Great-circle angle in degrees between two directions (any nonzero length)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.degrees(angle_between(a / vector_norms(a), b / vector_norms(b))))
