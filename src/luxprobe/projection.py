"""Perspective crops from panoramas: pinhole cameras, sampling, trajectories.

The pinhole field of view is horizontal; the vertical extent follows from
the output aspect ratio. Camera rotation order is pitch (elevation, about
the camera x axis) then yaw (azimuth, about the world up axis), so azimuth
indexes panorama columns directly.
"""

from __future__ import annotations  # `np.random.Generator` hints import no numpy.random

from dataclasses import dataclass

import numpy as np

from .envmap import (EnvironmentMap, check_panorama, great_circle_deg, map_rows,
                     sample_equirect, vector_norms)
from .imgio import codes8
from .tonemap import apply_display_tonemap, auto_expose, tonemap_ldr, tonemap_log, TONE_CURVES

DEFAULT_CROP_WIDTH = 720
DEFAULT_CROP_HEIGHT = 480

# uniform sampling ranges (degrees) of randomized cameras
AZIMUTH_RANGE = (0.0, 360.0)
ELEVATION_RANGE = (-10.0, 10.0)
FOV_RANGE = (45.0, 80.0)


@dataclass
class CameraSpec:
    """Pinhole camera orientation and output size. Any finite azimuth is
    stored wrapped into [0, 360): this is the one azimuth wrap rule."""

    azimuth: float  # degrees in [0, 360)
    elevation: float  # degrees, |elevation| < 90
    fov: float  # horizontal field of view, degrees
    width: int = DEFAULT_CROP_WIDTH
    height: int = DEFAULT_CROP_HEIGHT

    def __post_init__(self):
        if not 0.0 < self.fov < 180.0:
            raise ValueError(f"fov must be in (0, 180), got {self.fov}")
        if not abs(self.elevation) < 90.0:
            raise ValueError(f"|elevation| must be < 90, got {self.elevation}")
        if not np.isfinite(self.azimuth):
            raise ValueError(f"azimuth must be finite, got {self.azimuth}")
        self.azimuth = float(self.azimuth) % 360.0
        if self.azimuth == 360.0:  # a tiny negative azimuth rounds up to 360
            self.azimuth = 0.0
        _check_size(self.width, self.height)

    def forward(self) -> np.ndarray:
        """World-space unit view direction: the camera's -z axis."""
        return _rotation(self) @ (0.0, 0.0, -1.0)


def _check_size(width: int, height: int) -> None:
    """Raise ValueError, naming the size, unless a width x height view has pixels."""
    if width <= 0 or height <= 0:
        raise ValueError(f"output size must be positive, got {width}x{height}")


def _rotation(cam: CameraSpec) -> np.ndarray:
    """World-from-camera rotation: pitch about x, then yaw about world y."""
    el = np.deg2rad(cam.elevation)
    az = np.deg2rad(cam.azimuth)
    pitch = np.array(
        [[1, 0, 0], [0, np.cos(el), -np.sin(el)], [0, np.sin(el), np.cos(el)]]
    )
    yaw = np.array(
        [[np.cos(az), 0, -np.sin(az)], [0, 1, 0], [np.sin(az), 0, np.cos(az)]]
    )
    return yaw @ pitch


def pixel_ray(cam: CameraSpec, col, row) -> np.ndarray:
    """World-space unit ray(s) through continuous image coordinates.

    Pixel centers sit at integer + 0.5; (0, 0) is the top-left image corner,
    so col = 0 is the exact left edge of the view. `col` and `row` broadcast:
    scalars give one (3,) ray, arrays give rays of their broadcast shape + (3,).
    A scalar call, like a (1, 3) @ (3, 3) product, can differ from that
    pixel's ray in `camera_rays` in the last bits (99 of 600 rays of 30
    sampled 40x30 cameras); a row block of `_render` matches it bit for bit.
    """
    half = np.tan(np.deg2rad(cam.fov) / 2.0)
    u = (2.0 * col / cam.width - 1.0) * half
    v = (1.0 - 2.0 * row / cam.height) * half * cam.height / cam.width
    u, v = np.broadcast_arrays(u, v)
    rays = np.stack([u, v, -np.ones_like(u)], axis=-1) @ _rotation(cam).T
    rays /= vector_norms(rays)[..., None]
    return rays


def camera_rays(cam: CameraSpec) -> np.ndarray:
    """(H, W, 3) unit rays through every pixel center: the whole-image
    reference that `_render` matches row block by row block."""
    return pixel_ray(cam, np.arange(cam.width) + 0.5, (np.arange(cam.height) + 0.5)[:, None])


def _render(data: np.ndarray, cam: CameraSpec, out=None) -> np.ndarray:
    """The (cam.height, cam.width, 3) float64 view of the map `data`, written
    into `out` (a new array if None) per row block (`map_rows` over the pixel
    rows), from ray to lookup: each block is `sample_equirect` along its own
    `pixel_ray`s, so no whole-image ray or lookup array exists. Every stage is per pixel, so
    the bits are those of `sample_equirect(data, camera_rays(cam))`."""
    if out is None:
        out = np.empty((cam.height, cam.width, 3))
    cols = np.arange(cam.width) + 0.5
    rows = (np.arange(cam.height) + 0.5)[:, None]
    return map_rows(lambda r: sample_equirect(data, pixel_ray(cam, cols, r)), rows, out=out)


def project_perspective(pano: EnvironmentMap, cam: CameraSpec) -> np.ndarray:
    """The (cam.height, cam.width, 3) float64 pinhole view: the panorama
    sampled along each pixel's ray, rendered in row blocks (`_render`)."""
    return _render(pano.data, cam)


def _display_codes(view: np.ndarray, scale: float, curve: str) -> np.ndarray:
    """The (H, W, 3) uint8 8-bit codes of a float view, per row block
    (`map_rows`): each block is multiplied by `scale`, put through the display
    curve `curve` (a `TONE_CURVES` name) or, for curve "none" (an LDR source),
    clipped to [0, 1], and coded by `codes8`. `view` is not changed. Every
    stage is per pixel, so the codes are those of the same stages run on the
    whole view."""
    def codes(v):  # every curve returns [0, 1]
        v = v * scale
        return codes8(np.clip(v, 0.0, 1.0) if curve == "none" else apply_display_tonemap(v, curve))

    return map_rows(codes, view, out=np.empty(view.shape, dtype=np.uint8))


def sample_camera(rng: np.random.Generator, width: int = DEFAULT_CROP_WIDTH,
                  height: int = DEFAULT_CROP_HEIGHT) -> CameraSpec:
    """Uniformly sample a camera within the module's ranges."""
    az = rng.uniform(*AZIMUTH_RANGE)
    el = rng.uniform(*ELEVATION_RANGE)
    fov = rng.uniform(*FOV_RANGE)
    return CameraSpec(azimuth=az, elevation=el, fov=fov, width=width, height=height)


@dataclass
class Trajectory:
    """Per-frame camera sequence with a bounded orientation cone."""

    frames: list
    cone_limit: float = 15.0

    def __post_init__(self):
        if not self.frames:
            raise ValueError("trajectory needs at least one frame")
        f0 = self.frames[0].forward()
        for i, cam in enumerate(self.frames):
            dev = great_circle_deg(f0, cam.forward())
            if dev > self.cone_limit + 1e-6:
                raise ValueError(f"frame {i} deviates {dev:.3f} deg > cone {self.cone_limit}")


def gen_trajectory(rng: np.random.Generator, frame_count: int, cone_deg: float = 15.0, *,
                   start: CameraSpec) -> Trajectory:
    """Smooth camera path: an arc in the start camera's frame.

    The path turns the view of `start` by up to psi along one bearing, with
    cosine easing. psi is area-uniform in the spherical cap of radius cone_deg,
    the bearing uniform (0 toward the camera's left, 90 degrees toward its up),
    and the field of view held fixed, so every frame stays within cone_deg of
    frame 0. Frame 0 is `start` itself, in a video as in a still.
    """
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    if abs(start.elevation) + cone_deg >= 90.0:
        raise ValueError("start elevation too close to the pole for this cone")
    if frame_count == 1:
        return Trajectory([start], cone_limit=cone_deg)
    psi = np.deg2rad(cone_deg) * np.sqrt(rng.random())
    bearing = 2.0 * np.pi * rng.random()
    rot = _rotation(start)
    frames = [start]
    for k in range(1, frame_count):
        t = 0.5 * (1.0 - np.cos(np.pi * k / (frame_count - 1)))
        s = np.sin(t * psi)
        d = rot @ (-s * np.cos(bearing), s * np.sin(bearing), -np.cos(t * psi))
        az = np.degrees(np.arctan2(d[0], -d[2]))
        el = np.degrees(np.arcsin(np.clip(d[1], -1.0, 1.0)))
        frames.append(
            CameraSpec(azimuth=az, elevation=el, fov=start.fov,
                       width=start.width, height=start.height)
        )
    return Trajectory(frames, cone_limit=cone_deg)


# ---------------------------------------------------------------------------
# dataset generation

@dataclass
class PanoramaSource:
    """A source panorama: HDR radiance, or display-referred LDR in [0,1]."""

    data: np.ndarray
    hdr: bool = True

    def __post_init__(self):
        self.data = np.asarray(self.data)
        check_panorama(self.data.shape)

    def targets(self):
        """The supervised target of every sample of this source, computed anew on
        each call, per row block (`map_rows`): its float32 dual tonemaps (ldr, log),
        or (ldr, None) for an LDR source, whose [0,1] values count as linear
        radiance (no log-space intensity)."""
        def target(channel):
            return map_rows(channel, self.data, out=np.empty(self.data.shape, dtype=np.float32))

        return target(tonemap_ldr), (target(tonemap_log) if self.hdr else None)


@dataclass
class DatasetSample:
    """One supervised sample: LDR crop(s), each the (H, W, 3) uint8 8-bit codes
    a PNG stores. Its target is its source's: `PanoramaSource.targets()` of the
    source at `source_index`.
    """

    source_index: int
    cameras: list
    tone_curve: str
    exposure_scale: float
    crops: list


_CURVE_NAMES = sorted(TONE_CURVES)


def check_dataset_args(seed: int, count: int, frame_count: int, crop_width: int,
                       crop_height: int) -> None:
    """Raise ValueError, naming the value, unless `seed` >= 0, `count` >= 1,
    `frame_count` >= 1 and the crop size has pixels: the checks `dataset_gen`
    makes, which a caller can make before it reads any panorama."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    _check_size(crop_width, crop_height)


def dataset_gen(sources, seed: int, count: int, frame_count: int = 1,
                crop_width: int = DEFAULT_CROP_WIDTH, crop_height: int = DEFAULT_CROP_HEIGHT):
    """Generate `count` >= 1 supervised samples of `frame_count` >= 1 crops each.

    `sources` are `PanoramaSource`s. The arguments are checked when this is
    called (`check_dataset_args`, then `sources`); the iterator returned then
    draws one sample at a time, sample i from child i of `SeedSequence(seed)`,
    which is built only then: sample i is a function of (sources, seed, i)
    alone, and nothing is made up front. HDR sources
    get a random display tone curve plus auto-exposure (frame 0's p99 luminance
    -> 0.9) before 8-bit coding; LDR sources only get the exposure. Each frame is
    coded before the next one is rendered. A sample carries no target: the
    samples of one source share `PanoramaSource.targets()`.
    """
    check_dataset_args(seed, count, frame_count, crop_width, crop_height)
    if not sources:
        raise ValueError("no panoramas supplied")
    entropy = np.random.SeedSequence(seed).entropy
    return _samples(sources, entropy, count, frame_count, crop_width, crop_height)


def _samples(sources, entropy, count, frame_count, crop_width, crop_height):
    """The samples of `dataset_gen`, drawn as they are asked for: sample i from
    the stream of `SeedSequence(entropy, spawn_key=(i,))`. Each frame is
    rendered by `_render` into one float view that the sample reuses, and
    coded by `_display_codes`, both in row blocks; frame 0's whole view sets
    the exposure."""
    for i in range(count):
        child = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
        src_idx = int(child.integers(0, len(sources)))
        src = sources[src_idx]
        start = sample_camera(child, width=crop_width, height=crop_height)
        cams = gen_trajectory(child, frame_count, start=start).frames
        curve = _CURVE_NAMES[int(child.integers(0, len(_CURVE_NAMES)))] if src.hdr else "none"
        crops = []
        view = None  # one float view per sample, rendered anew for each frame
        for cam in cams:
            view = _render(src.data, cam, out=view)
            if not crops:  # frame 0 sets the exposure of every frame
                try:
                    scale = auto_expose(view, percentile=0.99, target=0.9)
                except ValueError:
                    scale = 1.0  # black or near-black first frame: leave exposure alone
            crops.append(_display_codes(view, scale, curve))
        yield DatasetSample(
            source_index=src_idx,
            cameras=cams,
            tone_curve=curve,
            exposure_scale=float(scale),
            crops=crops,
        )
