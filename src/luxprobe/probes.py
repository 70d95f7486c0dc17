"""Evaluation-sphere rendering: mirror lookup plus diffuse/glossy prefilters.

The three standard probes are a white mirror ball, a gray 0.9-albedo sphere
with a normalized Phong lobe (exponent 64), and a 0.5-albedo Lambertian
sphere. Prefilters integrate the full input map over a coarse output grid
(at most 64 rows) that is bilinearly upsampled at lookup time.

The clamped-cosine lobe depends only on the two polar angles and the
azimuth difference, and the equirect grid is uniform in azimuth, so for one
output row and one input row the sum over input columns is a circular
convolution (the Driscoll & Healy 1994 structure on the sphere). The
prefilters evaluate it exactly with real FFTs along each input row;
results are deterministic and equal the direct double sum up to float64
round-off.

The pixel-centre polar angles are built mirror-exact about the equator, so
the kernel of output row rows-1-a is the kernel of row a with its input
rows reversed: one kernel and one spectrum serve both rows. Both lobes, the
diffuse cosine and the Phong power of it, are raised from one clamped-cosine
base, and each map's radiance spectrum is taken once per call. Nothing but
the radiance spectrum and the per-frequency products depends on the map,
so several maps of one shape are prefiltered together, each with its own
product, and a map's bits are those of a one-map call.

`render_probe_blocks` renders every probe of several maps from one such
pass. Every stage after the prefilter is per pixel and runs per block of
probe rows: the disc normals, the reflections, the lookup geometry, the
lookup and the albedo weight. Each material's block builds its own
geometry, and nothing is held between materials but the prefiltered maps.
`render_probe_pixels` gathers the blocks into whole-disc pixels, the form
the metrics score; `render-probes` writes each block into its images.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import (BLOCK_PIXELS, EnvironmentMap, apply_equirect, equirect_geometry,
                     map_rows, polar_cos_sin, row_blocks, solid_angle_rows)

PREFILTER_MAX_ROWS = 64
# probe pixels per row block of the per-pixel stages after the prefilter. A
# block peaks at about 175 bytes a pixel (normals, reflections, texels,
# weights and lerps), seven times its 24-byte output pixels; a quarter of
# BLOCK_PIXELS splits the 51 468-pixel disc of the default probe size 256
# into eight blocks, where BLOCK_PIXELS would make it two
PROBE_BLOCK_PIXELS = BLOCK_PIXELS // 4


def _check_exponent(exponent) -> None:
    """Raise ValueError unless the lobe exponent is positive and finite (NaN is not)."""
    if not 0.0 < exponent < np.inf:
        raise ValueError(f"lobe exponent must be positive and finite, got {exponent}")


@dataclass
class Material:
    """Probe material: 'mirror', 'matte' (Phong lobe), or 'diffuse', with an
    albedo of three (RGB) components in [0, 1]."""

    kind: str
    albedo: tuple = (1.0, 1.0, 1.0)
    exponent: float = 64.0

    def __post_init__(self):
        if self.kind not in ("mirror", "matte", "diffuse"):
            raise ValueError(f"unknown material kind {self.kind!r}")
        if len(self.albedo) != 3:
            raise ValueError(f"albedo must have 3 components, got {len(self.albedo)}")
        if any(not 0.0 <= a <= 1.0 for a in self.albedo):
            raise ValueError("albedo components must lie in [0, 1]")
        _check_exponent(self.exponent)


MIRROR_BALL = Material("mirror", albedo=(1.0, 1.0, 1.0))
MATTE_SILVER = Material("matte", albedo=(0.9, 0.9, 0.9), exponent=64.0)
GRAY_DIFFUSE = Material("diffuse", albedo=(0.5, 0.5, 0.5))
STANDARD_MATERIALS = {"mirror": MIRROR_BALL, "matte": MATTE_SILVER, "diffuse": GRAY_DIFFUSE}


@dataclass
class ProbeImage:
    """Square probe render: linear RGB pixels plus the sphere-disc mask."""

    pixels: np.ndarray
    mask: np.ndarray

    @classmethod
    def from_disc(cls, mask: np.ndarray, disc: np.ndarray) -> "ProbeImage":
        """The probe image with the (n, 3) `disc` pixels under `mask` and zeros elsewhere."""
        pixels = np.zeros((*mask.shape, 3))
        pixels[mask] = disc
        return cls(pixels=pixels, mask=mask)


def _pow_int(base: np.ndarray, exponent: int) -> np.ndarray:
    """base**exponent by binary squaring (fast path for integer lobes).

    Squares `base` in place, so the caller hands over a scratch array; it
    comes back as the result when it is the last factor alone.
    """
    result = None
    while True:
        if exponent & 1:
            if result is None:
                result = base if exponent == 1 else base.copy()
            else:
                np.multiply(result, base, out=result)
        exponent >>= 1
        if not exponent:
            return result
        np.multiply(base, base, out=base)


def _lobe(scratch: np.ndarray, exponent) -> np.ndarray:
    """The clamped cosine `scratch` raised to `exponent`, in place where it can be."""
    if float(exponent).is_integer():
        return _pow_int(scratch, int(exponent))
    return np.power(scratch, exponent, out=scratch)


def _weighted_sums(maps, out_height: int, exponents):
    """Sums of radiance*dOmega (and dOmega) against clamped-cosine^n kernels.

    `maps` is a sequence of (H, W, 3) arrays of one shape and `exponents` a
    sequence of positive, finite lobe exponents n. The output grid is the
    (rows, 2*rows) pixel-center grid, rows = min(out_height, H,
    PREFILTER_MAX_ROWS). Returns one (numerators, denominator) pair per
    exponent: a (rows, 2*rows, 3) numerator per map and the shared
    (rows, 2*rows) denominator.

    In units of input columns, output column i lies at azimuth q + t, where
    q, r = divmod(i*W, Wo) and t = (2r + W - Wo) / (2*Wo) depends only on
    the phase r. Each phase class therefore has one kernel per output row,
    sampled at azimuth differences m + t for m = 0..W-1, and its columns
    read the circular convolution of kernel and radiance at q. When Wo
    divides W (every power-of-two map) there is a single phase class.

    The polar cosines and sines are mirror-exact (`polar_cos_sin`) and the
    row solid angles symmetric, so the kernel of output row rows-1-a is, bit
    for bit, the kernel of row a with its input rows reversed. Its spectrum
    goes into slot 0 of one (frequency, 2, input row) buffer and, reversed
    over input rows, into slot 1; one product with a map's radiance spectrum
    gives rows a and rows-1-a, and both share one denominator. The clamped
    cosine is built once per (row pair, phase class) and a copy of it raised
    to each exponent, and each map's radiance spectrum is taken once per
    call. Each map has its own product, so a map's bits for an exponent do
    not depend on which maps or exponents share the call.

    A radiance spectrum is taken over the row blocks of `row_blocks`, each
    block cast to float64 and its spectrum stored straight into the map's
    (frequency, input row, channel) buffer, so a float32 map gives the bits
    of its float64 cast and no whole-map spectrum is copied.
    """
    if out_height < 1:
        raise ValueError(f"prefilter out_height must be at least 1, got {out_height}")
    for exponent in exponents:
        _check_exponent(exponent)
    height, width = maps[0].shape[:2]
    rows = min(out_height, height, PREFILTER_MAX_ROWS)
    out_width = 2 * rows
    cos_in, sin_in = polar_cos_sin(np.arange(1, 2 * height, 2), 2 * height)
    cos_out, sin_out = polar_cos_sin(np.arange(1, 2 * rows, 2), 2 * rows)
    omega = solid_angle_rows(width, height)[:, None]
    q, r = np.divmod(np.arange(out_width) * width, out_width)
    phases, phase_of_col = np.unique(r, return_inverse=True)
    shifts = (2 * phases + width - out_width) / (2 * out_width)
    cos_dphi = np.cos(2.0 * np.pi * (np.arange(width) + shifts[:, None]) / width)
    # (frequency, input row, channel), so each frequency is one small matmul
    radiance_hats = [np.empty((width // 2 + 1, height, 3), dtype=np.complex128) for _ in maps]
    for data, hat in zip(maps, radiance_hats):
        for block in row_blocks(height, width):
            hat[:, block] = np.fft.rfft(data[block].astype(np.float64), axis=1).transpose(1, 0, 2)
    sums = [([np.empty((rows, out_width, 3)) for _ in maps], np.empty((rows, out_width)))
            for _ in exponents]
    kernel_hats = np.empty((width // 2 + 1, 2, height), dtype=np.complex128)
    for a in range((rows + 1) // 2):
        mirror = rows - 1 - a
        out_rows = [a] if mirror == a else [a, mirror]  # the middle row of an odd count serves itself
        pair = kernel_hats[:, : len(out_rows)]
        sin_sin = (sin_out[a] * sin_in)[:, None]
        cos_cos = (cos_out[a] * cos_in)[:, None]
        for p, cos_row in enumerate(cos_dphi):
            base = sin_sin * cos_row + cos_cos
            np.maximum(base, 0.0, out=base)
            at = np.ix_(out_rows, phase_of_col == p)  # (output rows, this class's columns)
            starts = q[at[1][0]]
            for j, (exponent, (nums, den)) in enumerate(zip(exponents, sums)):
                kernel = _lobe(base if j == len(exponents) - 1 else base.copy(), exponent)
                kernel *= omega
                den[at] = kernel.sum()
                kernel_hats[:, 0] = np.fft.rfft(kernel, axis=1).T
                kernel_hats[:, 1] = kernel_hats[:, 0, ::-1]
                for num, radiance_hat in zip(nums, radiance_hats):
                    conv = np.fft.irfft(pair @ radiance_hat, n=width, axis=0)
                    num[at] = conv[starts].transpose(1, 0, 2)
    # kernel and radiance are non-negative, so the exact sum is too; the
    # clamp removes FFT round-off (~-1e-17) where the true value is zero
    for nums, _ in sums:
        for num in nums:
            np.maximum(num, 0.0, out=num)
    return sums


def prefilter_diffuse(env: EnvironmentMap, out_height: int) -> EnvironmentMap:
    """Cosine-convolved irradiance map (steradian-integrated, not averaged)."""
    [((num,), _)] = _weighted_sums([env.data], out_height, [1])
    return EnvironmentMap(num)


def prefilter_glossy(env: EnvironmentMap, exponent: float, out_height: int) -> EnvironmentMap:
    """Normalized Phong-lobe-weighted mean radiance per direction."""
    [((num,), den)] = _weighted_sums([env.data], out_height, [exponent])
    return EnvironmentMap(num / den[..., None])


def _disc_mask(size: int):
    """The pixel-centre coordinates (size,) of a size x size probe along either
    axis, in [-1, 1], and its sphere-disc mask (size, size), made per row block
    (`map_rows`) so that no whole-probe coordinate array exists. A size below
    16, or one past numpy's index range (its disc is empty), raises ValueError
    before the mask is allocated."""
    if size < 16:
        raise ValueError("probe size must be at least 16 pixels")
    coords = (2.0 * (np.arange(size) + 0.5) / size) - 1.0
    if not coords.size:  # np.arange(size) is empty past numpy's index range
        raise ValueError(f"probe size {size} is past numpy's index range")
    # u along the columns, v = -coords along the rows (the v axis points up in the image)
    mask = map_rows(lambda v: coords * coords + v * v <= 1.0, -coords[:, None],
                    out=np.empty((size, size), dtype=bool))
    return coords, mask


def _disc_normals(coords: np.ndarray, mask: np.ndarray, rows: slice) -> np.ndarray:
    """The unit normals (k, 3) of the k disc pixels in probe rows `rows`, in row-major order."""
    u, v = np.meshgrid(coords, -coords[rows])
    under = mask[rows]
    u, v = u[under], v[under]
    nz = np.sqrt(np.clip(1.0 - (u * u + v * v), 0.0, 1.0))
    return np.stack([u, v, nz], axis=-1)


def _reflect_view(normals: np.ndarray) -> np.ndarray:
    """Reflections of the +z view direction about unit normals (n, 3)."""
    return 2.0 * normals[:, 2:3] * normals - np.array([0.0, 0.0, 1.0])


def render_probe_blocks(envs, materials, size: int):
    """Sphere-probe pixels of several materials under several environment maps,
    in blocks of probe rows.

    Yields, for each material in order, (disc mask (size, size), blocks), where
    `blocks` iterates (rows, pixels) over `row_blocks(size, size,
    PROBE_BLOCK_PIXELS)`: `rows` is a slice of probe rows and `pixels` one
    (k, 3) float64 array per map of the k disc pixels in those rows, in
    row-major order. Maps may differ in shape. The size is checked (a size
    below 16, or one past numpy's index range, raises ValueError) and the mask
    made on the first step, before any prefilter runs; each map shape then
    takes one prefilter pass for every lobe the materials need. Every
    later stage is per pixel and runs per block: the disc normals, the
    reflections, the lookup geometry, the lookup and the albedo weight. So
    every per-pixel array is block-sized, each material's block builds its own
    geometry, and nothing but the prefiltered maps is held between materials.
    """
    materials = list(materials)
    coords, mask = _disc_mask(size)
    by_shape = {}
    for i, env in enumerate(envs):
        by_shape.setdefault(env.data.shape, []).append(i)
    # the diffuse probe reads the exponent-1 numerator, the matte probe num/den
    exponents = list(dict.fromkeys(1 if m.kind == "diffuse" else m.exponent
                                   for m in materials if m.kind != "mirror"))
    lobes = {}
    if exponents:
        for shape, group in by_shape.items():
            sums = _weighted_sums([envs[i].data for i in group], PREFILTER_MAX_ROWS, exponents)
            lobes[shape] = dict(zip(exponents, sums))
    for material in materials:
        diffuse = material.kind == "diffuse"
        weight = np.asarray(material.albedo, dtype=np.float64)
        if diffuse:
            weight = weight / np.pi
        grids = []  # (indices of the maps of one shape, the maps their lookups read)
        for shape, group in by_shape.items():
            if material.kind == "mirror":
                maps = [envs[i].data for i in group]
            else:
                nums, den = lobes[shape][1 if diffuse else material.exponent]
                maps = nums if diffuse else [num / den[..., None] for num in nums]
            grids.append((group, maps))
        yield mask, _material_blocks(coords, mask, grids, len(envs), diffuse, weight)


def _material_blocks(coords, mask, grids, count, diffuse, weight):
    """The (rows, pixels) blocks of one material for `render_probe_blocks`: the
    diffuse probe looks up at the normals, the others at the reflections."""
    for rows in row_blocks(*mask.shape, PROBE_BLOCK_PIXELS):
        dirs = _disc_normals(coords, mask, rows)
        if not diffuse:
            dirs = _reflect_view(dirs)
        pixels = [None] * count
        for group, maps in grids:
            geometry = equirect_geometry(dirs, *maps[0].shape[:2])
            for i, data in zip(group, maps):
                pixels[i] = apply_equirect(data, geometry)
                pixels[i] *= weight
        yield rows, pixels


def render_probe_pixels(envs, materials, size: int):
    """Sphere-probe pixels of several materials under several environment maps.

    Yields, for each material in order, (disc mask (size, size), one (n, 3)
    float64 array per map of the pixels under the mask, in row-major order),
    so a caller can use one material's pixels before the next is rendered.
    The pixels are rendered per block of probe rows (`render_probe_blocks`),
    each block stored at its disc offset, which the mask's row counts give;
    the outputs are allocated before the first block is made.
    """
    for mask, blocks in render_probe_blocks(envs, materials, size):
        starts = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        pixels = [np.empty((starts[-1], 3)) for _ in envs]
        for rows, block in blocks:
            at = slice(starts[rows.start], starts[rows.stop])
            for out, values in zip(pixels, block):
                out[at] = values
        yield mask, pixels
        del pixels  # so the next material's outputs are not made while these are held


def render_probe(env: EnvironmentMap, material: Material, size: int) -> ProbeImage:
    """Render a sphere probe under an environment map.

    Orthographic camera along -z; the mirror reflects the +z view direction,
    the diffuse sphere looks up (albedo/pi) * irradiance at the normal, and
    the matte sphere looks up the glossy prefilter at the reflection vector.
    """
    mask, (disc,) = next(render_probe_pixels([env], [material], size))
    return ProbeImage.from_disc(mask, disc)
