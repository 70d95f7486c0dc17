"""Perspective crops from panoramas: pinhole cameras, sampling, trajectories.

The pinhole field of view is horizontal; the vertical extent follows from
the output aspect ratio. Camera rotation order is pitch (elevation, about
the camera x axis) then yaw (azimuth, about the world up axis), so azimuth
indexes panorama columns directly.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import (EnvironmentMap, check_panorama, great_circle_deg, sample_equirect,
                     vector_norms)
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
    """Pinhole camera orientation and output size."""

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
        if self.width <= 0 or self.height <= 0:
            raise ValueError("output size must be positive")

    def forward(self) -> np.ndarray:
        """World-space unit view direction: the camera's -z axis."""
        return _rotation(self) @ (0.0, 0.0, -1.0)


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
    """
    half = np.tan(np.deg2rad(cam.fov) / 2.0)
    u = (2.0 * col / cam.width - 1.0) * half
    v = (1.0 - 2.0 * row / cam.height) * half * cam.height / cam.width
    u, v = np.broadcast_arrays(u, v)
    rays = np.stack([u, v, -np.ones_like(u)], axis=-1) @ _rotation(cam).T
    rays /= vector_norms(rays)[..., None]
    return rays


def camera_rays(cam: CameraSpec) -> np.ndarray:
    """(H, W, 3) unit rays through every pixel center."""
    return pixel_ray(cam, np.arange(cam.width) + 0.5, (np.arange(cam.height) + 0.5)[:, None])


def project_perspective(pano: EnvironmentMap, cam: CameraSpec) -> np.ndarray:
    """The (cam.height, cam.width, 3) pinhole view: the panorama sampled along each pixel's ray."""
    return sample_equirect(pano.data, camera_rays(cam))


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


def _slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    cos = np.clip(np.dot(a, b), -1.0, 1.0)
    ang = np.arccos(cos)
    if ang < 1e-9:
        return a
    return (np.sin((1.0 - t) * ang) * a + np.sin(t * ang) * b) / np.sin(ang)


def gen_trajectory(rng: np.random.Generator, frame_count: int, cone_deg: float = 15.0,
                   start: CameraSpec | None = None) -> Trajectory:
    """Smooth camera path: slerp toward a random endpoint inside the cone.

    The endpoint deviation is area-uniform in the spherical cap, the path
    follows the great circle with cosine easing, and the field of view is
    held fixed, so every frame stays within cone_deg of frame 0. Frame 0 is
    `start` itself, in a video as in a still.
    """
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    if start is None:
        start = sample_camera(rng)
    if abs(start.elevation) + cone_deg >= 90.0:
        raise ValueError("start elevation too close to the pole for this cone")
    if frame_count == 1:
        return Trajectory([start], cone_limit=cone_deg)
    psi = np.deg2rad(cone_deg) * np.sqrt(rng.random())
    bearing = 2.0 * np.pi * rng.random()
    f0 = start.forward()
    up = np.array([0.0, 1.0, 0.0])
    east = np.cross(up, f0)
    east /= np.linalg.norm(east)
    north = np.cross(f0, east)
    f1 = np.cos(psi) * f0 + np.sin(psi) * (np.cos(bearing) * east + np.sin(bearing) * north)
    frames = [start]
    for k in range(1, frame_count):
        t = 0.5 * (1.0 - np.cos(np.pi * k / (frame_count - 1)))
        d = _slerp(f0, f1, t)
        az = np.degrees(np.arctan2(d[0], -d[2])) % 360.0
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
        each call: its dual tonemaps (ldr, log), or (ldr, None) for an LDR source,
        whose [0,1] values count as linear radiance (no log-space intensity)."""
        return tonemap_ldr(self.data), (tonemap_log(self.data) if self.hdr else None)


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


def dataset_gen(sources, seed: int, count: int, frame_count: int = 1,
                crop_width: int = DEFAULT_CROP_WIDTH, crop_height: int = DEFAULT_CROP_HEIGHT):
    """Generate `count` >= 1 supervised samples of `frame_count` >= 1 crops each.

    `sources` are `PanoramaSource`s. The arguments, `seed` too, are checked when
    this is called; the iterator returned then draws one sample at a time, sample
    i from child i of `SeedSequence(seed)`, which is built only then: sample i is
    a function of (sources, seed, i) alone, and nothing is made up front. HDR sources
    get a random display tone curve plus auto-exposure (frame 0's p99 luminance
    -> 0.9) before 8-bit coding; LDR sources only get the exposure. Each frame is
    coded before the next one is rendered. A sample carries no target: the
    samples of one source share `PanoramaSource.targets()`.
    """
    entropy = np.random.SeedSequence(seed).entropy  # a negative seed raises here
    if not sources:
        raise ValueError("no panoramas supplied")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    return _samples(sources, entropy, count, frame_count, crop_width, crop_height)


def _samples(sources, entropy, count, frame_count, crop_width, crop_height):
    """The samples of `dataset_gen`, drawn as they are asked for: sample i from
    the stream of `SeedSequence(entropy, spawn_key=(i,))`."""
    for i in range(count):
        child = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
        src_idx = int(child.integers(0, len(sources)))
        src = sources[src_idx]
        start = sample_camera(child, width=crop_width, height=crop_height)
        cams = gen_trajectory(child, frame_count, start=start).frames
        curve = _CURVE_NAMES[int(child.integers(0, len(_CURVE_NAMES)))] if src.hdr else "none"
        crops = []
        for cam in cams:
            view = sample_equirect(src.data, camera_rays(cam))
            if not crops:  # frame 0 sets the exposure of every frame
                try:
                    scale = auto_expose(view, percentile=0.99, target=0.9)
                except ValueError:
                    scale = 1.0  # black or near-black first frame: leave exposure alone
            view *= scale
            if src.hdr:
                view = apply_display_tonemap(view, curve)  # every curve returns [0, 1]
            else:
                np.clip(view, 0.0, 1.0, out=view)
            crops.append(codes8(view).astype(np.uint8))
        yield DatasetSample(
            source_index=src_idx,
            cameras=cams,
            tone_curve=curve,
            exposure_scale=float(scale),
            crops=crops,
        )
