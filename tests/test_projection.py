import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luxprobe.envmap import (
    BLOCK_PIXELS,
    EnvironmentMap,
    equirect_geometry,
    great_circle_deg,
    rotate_env,
    sample_equirect,
)
from luxprobe.imgio import codes8
from luxprobe.projection import (
    CameraSpec,
    PanoramaSource,
    Trajectory,
    camera_rays,
    dataset_gen,
    gen_trajectory,
    pixel_ray,
    _render,
    _rotation,
    project_perspective,
    sample_camera,
)
from luxprobe.tonemap import (
    TONE_CURVES,
    apply_display_tonemap,
    auto_expose,
    quantize8,
    tonemap_ldr,
    tonemap_log,
)
from conftest import allocation_peak


def smooth_pano(height=64):
    width = 2 * height
    rows = np.arange(height)[:, None, None]
    cols = np.arange(width)[None, :, None]
    chans = np.arange(3)[None, None, :]
    data = 1.0 + 0.5 * np.sin(2 * np.pi * cols / width + chans) * np.sin(
        np.pi * (rows + 0.5) / height
    )
    return EnvironmentMap(data)


def forward_closed_form(cam):
    """The view direction written out in the camera angles (oracle)."""
    az = np.deg2rad(cam.azimuth)
    el = np.deg2rad(cam.elevation)
    return np.array([np.sin(az) * np.cos(el), np.sin(el), -np.cos(az) * np.cos(el)])


class TestCameraSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="fov"):
            CameraSpec(azimuth=0, elevation=0, fov=180)
        with pytest.raises(ValueError, match="elevation"):
            CameraSpec(azimuth=0, elevation=90, fov=60)
        for az in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="azimuth"):
                CameraSpec(azimuth=az, elevation=0, fov=60)

    def test_azimuth_normalized(self):
        assert CameraSpec(azimuth=370.0, elevation=0, fov=60).azimuth == 10.0

    @pytest.mark.parametrize("az", [-1e-20, -1e-14, -5e-15, -360.0, 720.0 - 1e-13,
                                    359.99999999999994])
    def test_azimuth_below_360(self, az):
        # x % 360.0 rounds a tiny negative x up to 360.0
        assert 0.0 <= CameraSpec(azimuth=az, elevation=0, fov=60).azimuth < 360.0

    def test_forward_axis(self):
        cam = CameraSpec(azimuth=0, elevation=0, fov=60)
        np.testing.assert_allclose(cam.forward(), [0, 0, -1], atol=1e-12)
        cam = CameraSpec(azimuth=90, elevation=0, fov=60)
        np.testing.assert_allclose(cam.forward(), [1, 0, 0], atol=1e-12)

    def test_forward_is_the_closed_form_bitwise(self):
        rng = np.random.default_rng(8)
        cams = [CameraSpec(azimuth=az, elevation=el, fov=60)
                for az, el in zip(rng.uniform(0, 360, 2000), rng.uniform(-89, 89, 2000))]
        cams += [CameraSpec(azimuth=az, elevation=el, fov=60)
                 for az in (0.0, 90.0, 180.0, 270.0) for el in (0.0, 45.0, -89.0)]
        for cam in cams:
            assert cam.forward().tobytes() == forward_closed_form(cam).tobytes(), cam


class TestRays:
    def test_center_ray_is_forward(self):
        for fov in (30.0, 60.0, 110.0):
            cam = CameraSpec(azimuth=0, elevation=0, fov=fov, width=720, height=480)
            ray = pixel_ray(cam, cam.width / 2, cam.height / 2)
            np.testing.assert_allclose(ray, [0, 0, -1], atol=1e-12)

    def test_fov90_left_edge_at_minus_45(self):
        cam = CameraSpec(azimuth=0, elevation=0, fov=90.0, width=720, height=480)
        ray = pixel_ray(cam, 0.0, cam.height / 2)
        azimuth = np.degrees(np.arctan2(ray[0], -ray[2]))
        assert azimuth == pytest.approx(-45.0, abs=1e-12)

    def test_rays_unit_norm(self):
        cam = CameraSpec(azimuth=33, elevation=-5, fov=70, width=90, height=60)
        rays = camera_rays(cam)
        np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-12)

    def test_elevation_tilts_up(self):
        cam = CameraSpec(azimuth=0, elevation=30, fov=60)
        np.testing.assert_allclose(
            pixel_ray(cam, cam.width / 2, cam.height / 2),
            [0, np.sin(np.radians(30)), -np.cos(np.radians(30))],
            atol=1e-12,
        )


def pixel_ray_by_linalg_norm(cam, col, row):
    """pixel_ray normalised by `np.linalg.norm`, as it was written before
    `vector_norms` (oracle)."""
    half = np.tan(np.deg2rad(cam.fov) / 2.0)
    u = (2.0 * col / cam.width - 1.0) * half
    v = (1.0 - 2.0 * row / cam.height) * half * cam.height / cam.width
    u, v = np.broadcast_arrays(u, v)
    rays = np.stack([u, v, -np.ones_like(u)], axis=-1) @ _rotation(cam).T
    return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


class TestRayParity:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-720.0, 720.0), st.floats(-89.9, 89.9), st.floats(1.0, 179.0),
           st.integers(1, 40), st.integers(1, 30))
    def test_camera_rays_equal_linalg_norm_form(self, az, el, fov, width, height):
        cam = CameraSpec(azimuth=az, elevation=el, fov=fov, width=width, height=height)
        want = pixel_ray_by_linalg_norm(cam, np.arange(width) + 0.5,
                                        (np.arange(height) + 0.5)[:, None])
        assert camera_rays(cam).tobytes() == want.tobytes()

    def test_scalar_ray_equals_linalg_norm_form(self):
        cam = CameraSpec(azimuth=33.0, elevation=-5.0, fov=70.0, width=90, height=60)
        got = pixel_ray(cam, 12.25, 40.5)
        assert got.shape == (3,)
        assert got.tobytes() == pixel_ray_by_linalg_norm(cam, 12.25, 40.5).tobytes()


class TestProjection:
    def test_constant_pano_projects_constant(self):
        env = EnvironmentMap.constant(3.25, height=32)
        cam = CameraSpec(azimuth=123, elevation=5, fov=70, width=64, height=48)
        view = project_perspective(env, cam)
        assert (view == 3.25).all()

    def test_center_pixel_samples_forward(self):
        env = smooth_pano(64)
        cam = CameraSpec(azimuth=0, elevation=0, fov=50, width=65, height=65)
        view = project_perspective(env, cam)
        from luxprobe.envmap import sample_equirect

        expected = sample_equirect(env.data, np.array([0.0, 0.0, -1.0]))
        np.testing.assert_allclose(view[32, 32], expected, rtol=1e-3)

    def test_rotation_equivariance(self):
        env = smooth_pano(64)
        cam_a = CameraSpec(azimuth=20, elevation=0, fov=60, width=80, height=60)
        cam_b = CameraSpec(azimuth=65, elevation=0, fov=60, width=80, height=60)
        via_rotation = project_perspective(rotate_env(env, 45.0), cam_a)
        direct = project_perspective(env, cam_b)
        rel = np.abs(via_rotation - direct) / direct
        assert rel.max() < 0.01


    def test_lookup_geometry_without_full_size_temporaries(self):
        # the float indices, weights and four index planes were each a new
        # (H, W) array, and np.stack copied the index planes once more
        cam = CameraSpec(azimuth=30, elevation=5, fov=60, width=160, height=120)
        rays = camera_rays(cam)
        with allocation_peak() as probe:
            equirect_geometry(rays, 32, 64)
        crop = 120 * 160 * 3 * 8  # one float64 crop
        assert probe.bytes < 4 * crop, probe.bytes / crop


def row_blocks(cam):
    """How many row blocks `_render` and `_display_codes` take for `cam`."""
    return -(-cam.height // max(1, BLOCK_PIXELS // cam.width))


class TestRenderParity:
    """`project_perspective` renders in row blocks; the oracle is the whole
    image at once, `sample_equirect(data, camera_rays(cam))`."""

    @pytest.mark.parametrize("az, el, fov, width, height, blocks", [
        (33.0, -5.0, 70.0, 1000, 70, 3),  # 32, 32 and a partial 6 rows
        (250.0, 8.0, 120.0, BLOCK_PIXELS + 7, 3, 3),  # wider than a block: one row each
        (0.0, 0.0, 60.0, 720, 480, 11),  # the default crop, 45-row blocks
        (359.0, 89.0, 10.0, 5, 4, 1),  # near a pole
    ])
    def test_blocks_equal_the_whole_image(self, az, el, fov, width, height, blocks):
        cam = CameraSpec(azimuth=az, elevation=el, fov=fov, width=width, height=height)
        assert row_blocks(cam) == blocks
        env = EnvironmentMap(np.random.default_rng(3).gamma(1.0, 2.0, (32, 64, 3)))
        want = sample_equirect(env.data, camera_rays(cam))
        got = project_perspective(env, cam)
        assert got.dtype == np.float64 and got.shape == (height, width, 3)
        assert got.tobytes() == want.tobytes()

    def test_channel_planar_map(self):
        # a library caller can pass this layout; the lookups copy it but give the same bits
        x = np.random.default_rng(4).random((32, 64, 3))
        planar = x.transpose(2, 0, 1).copy().transpose(1, 2, 0)
        assert not planar.flags.c_contiguous
        cam = CameraSpec(azimuth=100.0, elevation=3.0, fov=75.0, width=1000, height=70)
        want = sample_equirect(x, camera_rays(cam))
        assert project_perspective(EnvironmentMap(planar), cam).tobytes() == want.tobytes()

    def test_rendering_into_a_used_view(self):
        env = smooth_pano(32)
        cams = [CameraSpec(azimuth=a, elevation=0.0, fov=60.0, width=1000, height=70)
                for a in (10.0, 200.0)]
        view = _render(env.data, cams[0])
        assert _render(env.data, cams[1], out=view) is view
        assert view.tobytes() == sample_equirect(env.data, camera_rays(cams[1])).tobytes()


class TestSampleCamera:
    def test_ranges_and_mean(self):
        rng = np.random.default_rng(0)
        specs = [sample_camera(rng) for _ in range(10000)]
        az = np.array([s.azimuth for s in specs])
        el = np.array([s.elevation for s in specs])
        fov = np.array([s.fov for s in specs])
        assert az.min() >= 0 and az.max() < 360
        assert el.min() >= -10 and el.max() <= 10
        assert fov.min() >= 45 and fov.max() <= 80
        assert abs(az.mean() - 180.0) < 5.0

    def test_deterministic(self):
        a = [sample_camera(np.random.default_rng(3)) for _ in range(5)]
        b = [sample_camera(np.random.default_rng(3)) for _ in range(5)]
        assert a == b


class TestTrajectory:
    def test_single_frame(self):
        rng = np.random.default_rng(0)
        start = CameraSpec(azimuth=10, elevation=0, fov=60)
        traj = gen_trajectory(rng, 1, start=start)
        assert traj.frames == [start]

    def test_video_frame_0_is_start(self):
        # not recomputed: the arc at t = 0 and back through arctan2 and arcsin moves the last digits
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            start = sample_camera(rng)
            frame0 = gen_trajectory(rng, 3, start=start).frames[0]
            assert (frame0.azimuth, frame0.elevation) == (start.azimuth, start.elevation), seed

    def test_cone_bound_holds(self):
        start = CameraSpec(azimuth=200, elevation=5, fov=55)
        for seed in range(100):
            traj = gen_trajectory(np.random.default_rng(seed), 25, start=start)
            f0 = traj.frames[0].forward()
            devs = [great_circle_deg(f0, c.forward()) for c in traj.frames]
            assert max(devs) <= 15.0 + 1e-9

    def test_cosine_easing_step_profile(self):
        traj = gen_trajectory(np.random.default_rng(4), 25,
                              start=CameraSpec(azimuth=0, elevation=0, fov=60))
        steps = [
            great_circle_deg(a.forward(), b.forward())
            for a, b in zip(traj.frames, traj.frames[1:])
        ]
        assert steps[0] < steps[len(steps) // 2]

    def test_fov_held_fixed(self):
        traj = gen_trajectory(np.random.default_rng(9), 12,
                              start=CameraSpec(azimuth=0, elevation=3, fov=47.5))
        assert all(c.fov == 47.5 for c in traj.frames)

    def test_frames_on_one_arc_at_eased_angles(self):
        for seed in range(50):
            start = sample_camera(np.random.default_rng(1000 + seed))
            psi = np.deg2rad(15.0) * np.sqrt(np.random.default_rng(seed).random())
            frames = [c.forward() for c in
                      gen_trajectory(np.random.default_rng(seed), 9, start=start).frames]
            for k, f in enumerate(frames[1:], start=1):
                t = 0.5 * (1.0 - np.cos(np.pi * k / 8))
                assert great_circle_deg(frames[0], f) == pytest.approx(np.degrees(t * psi),
                                                                       rel=1e-9), (seed, k)
                assert abs(np.linalg.det([frames[0], f, frames[-1]])) < 1e-12, (seed, k)

    def test_tiny_turn_still_moves(self):
        # draws that make psi = 1e-8 rad: an arccos of a dot product reads such
        # a turn as 0, which leaves every frame at the start camera
        class Draws:
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        psi = 1e-8
        start = CameraSpec(azimuth=40, elevation=2, fov=60)
        frames = gen_trajectory(Draws([(psi / np.deg2rad(15.0)) ** 2, 0.3]), 5,
                                start=start).frames
        for k, cam in enumerate(frames[1:], start=1):
            t = 0.5 * (1.0 - np.cos(np.pi * k / 4))
            assert np.deg2rad(great_circle_deg(start.forward(), cam.forward())) == \
                pytest.approx(t * psi, rel=1e-6), k

    def test_start_is_required(self):
        with pytest.raises(TypeError):
            gen_trajectory(np.random.default_rng(0), 5)

    def test_frame_azimuths_below_360(self):
        # a start camera at azimuth 0 turns to negative azimuths half the time
        start = CameraSpec(azimuth=0.0, elevation=0.0, fov=60)
        for seed in range(200):
            for cam in gen_trajectory(np.random.default_rng(seed), 7, start=start).frames:
                assert 0.0 <= cam.azimuth < 360.0, (seed, cam)

    def test_pole_guard(self):
        with pytest.raises(ValueError, match="pole"):
            gen_trajectory(np.random.default_rng(0), 5,
                           start=CameraSpec(azimuth=0, elevation=80, fov=60))

    def test_invariant_enforced(self):
        good = CameraSpec(azimuth=0, elevation=0, fov=60)
        bad = CameraSpec(azimuth=40, elevation=0, fov=60)
        with pytest.raises(ValueError, match="deviates"):
            Trajectory([good, bad], cone_limit=15.0)


def crops_by_two_passes(sources, rng, count, frame_count, width, height):
    """The crops of `dataset_gen` made the two-pass way (oracle): every float
    frame rendered first and exposed by frame 0, snapped to the 8-bit grid
    with `quantize8`, then coded again as `write_png` codes float data."""
    curves = sorted(TONE_CURVES)
    samples = []
    for child in rng.spawn(count):
        src = sources[int(child.integers(0, len(sources)))]
        start = sample_camera(child, width=width, height=height)
        cams = gen_trajectory(child, frame_count, start=start).frames
        curve = curves[int(child.integers(0, len(curves)))] if src.hdr else None
        raw = [sample_equirect(src.data, camera_rays(c)) for c in cams]
        try:
            scale = auto_expose(raw[0], percentile=0.99, target=0.9)
        except ValueError:
            scale = 1.0
        views = [view * scale for view in raw]
        views = [apply_display_tonemap(v, curve) if src.hdr else np.clip(v, 0.0, 1.0)
                 for v in views]
        samples.append([codes8(quantize8(v)).astype(np.uint8) for v in views])
    return samples


class TestDatasetGen:
    def test_hdr_source_has_both_targets(self):
        env = PanoramaSource(smooth_pano(32).data)
        target_ldr, target_log = env.targets()
        assert target_ldr.shape == target_log.shape == env.data.shape
        samples = dataset_gen([env], 0, 3, crop_width=40, crop_height=30)
        for s in samples:
            assert s.source_index == 0
            assert s.tone_curve in ("aces", "agx", "filmic", "gamma24")

    def test_ldr_source_lacks_log(self):
        src = PanoramaSource(np.clip(smooth_pano(32).data / 2.0, 0, 1), hdr=False)
        assert src.targets()[1] is None
        samples = dataset_gen([src], 0, 2, crop_width=40, crop_height=30)
        for s in samples:
            assert s.tone_curve == "none"

    def test_targets_are_the_dual_tonemaps_of_each_source(self):
        hdr = PanoramaSource(smooth_pano(16).data)
        ldr = PanoramaSource(np.clip(smooth_pano(16).data / 3.0, 0, 1), hdr=False)
        samples = list(dataset_gen([hdr, ldr], 6, 5,
                                   crop_width=12, crop_height=8))
        assert {s.source_index for s in samples} == {0, 1}
        # a sample names its source; the target is the source's alone
        assert not {"target_ldr", "target_log"} & set(vars(samples[0]))
        for source in (hdr, ldr):
            target_ldr, target_log = source.targets()
            # float32, the values a target PFM stores
            assert target_ldr.tobytes() == tonemap_ldr(source.data).astype(np.float32).tobytes()
            if source.hdr:
                assert (target_log.tobytes()
                        == tonemap_log(source.data).astype(np.float32).tobytes())
            else:
                assert target_log is None

    @pytest.mark.parametrize("sources, frames, seed, count, size", [
        pytest.param([PanoramaSource(smooth_pano(32).data)], 1, 1, 2, (40, 30), id="hdr"),
        pytest.param([PanoramaSource(np.clip(smooth_pano(32).data / 2.0, 0, 1), hdr=False)],
                     1, 1, 2, (40, 30), id="ldr"),
        pytest.param([PanoramaSource(smooth_pano(32).data)], 7, 1, 2, (40, 30), id="hdr-video"),
        pytest.param([PanoramaSource(np.zeros((32, 64, 3)))], 2, 1, 2, (40, 30),
                     id="black"),  # exposure left alone
        # three row blocks (32, 32 and 6 rows); seed 67 draws each of the four
        # tone curves and the LDR source once
        pytest.param([PanoramaSource(smooth_pano(32).data),
                      PanoramaSource(np.clip(smooth_pano(32).data / 2.0, 0, 1), hdr=False)],
                     2, 67, 5, (1000, 70), id="blocks-every-curve"),
    ])
    def test_crops_are_the_codes_of_the_two_pass_pipeline(self, sources, frames, seed, count,
                                                          size):
        width, height = size
        got = list(dataset_gen(sources, seed, count, frame_count=frames,
                               crop_width=width, crop_height=height))
        expected = crops_by_two_passes(sources, np.random.default_rng(seed), count, frames,
                                       width, height)
        if len(sources) > 1:
            assert row_blocks(got[0].cameras[0]) == 3
            assert sorted(s.tone_curve for s in got) == sorted(TONE_CURVES) + ["none"]
        for sample, crops in zip(got, expected, strict=True):
            assert len(sample.crops) == frames
            for crop, want in zip(sample.crops, crops, strict=True):
                assert crop.dtype == np.uint8 and crop.shape == (height, width, 3)
                assert crop.tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_frames(self):
        # every float frame was kept, and a quantized float copy of each
        source = PanoramaSource(smooth_pano(32).data)

        def peak(frames):
            with allocation_peak() as probe:
                list(dataset_gen([source], 0, 1, frame_count=frames,
                                 crop_width=160, crop_height=120))
            return probe.bytes

        crop = 120 * 160 * 3 * 8  # one float64 crop
        growth = peak(8) - peak(2)
        assert growth < 2 * crop, growth / crop

    @staticmethod
    def still_peak(source, width, height):
        """`tracemalloc` peak of one still sample, in float64 crops."""
        with allocation_peak() as probe:
            list(dataset_gen([source], 0, 1, crop_width=width, crop_height=height))
        return probe.bytes / (height * width * 3 * 8)

    def test_still_sample_memory(self):
        # rays, lookup geometry, gathers, lerps and tone curve were each
        # whole-image float64 arrays: 7.0 crops
        source = PanoramaSource(np.random.default_rng(5).gamma(1.0, 2.0, (256, 512, 3)))
        assert self.still_peak(source, 720, 480) < 2.5

    def test_memory_per_crop_pixel_does_not_grow_with_crop_size(self):
        source = PanoramaSource(smooth_pano(64).data)
        small = self.still_peak(source, 720, 480)
        assert self.still_peak(source, 720, 960) <= 1.05 * small, small

    def test_video_mode_emits_trajectory(self):
        env = PanoramaSource(smooth_pano(32).data)
        samples = list(dataset_gen([env], 2, 1, frame_count=7,
                                   crop_width=40, crop_height=30))
        assert len(samples[0].cameras) == 7
        assert len(samples[0].crops) == 7

    def test_deterministic(self):
        env = PanoramaSource(smooth_pano(32).data)
        a = dataset_gen([env], 5, 3, crop_width=40, crop_height=30)
        b = dataset_gen([env], 5, 3, crop_width=40, crop_height=30)
        for sa, sb in zip(a, b):
            assert sa.cameras == sb.cameras
            assert sa.tone_curve == sb.tone_curve
            assert sa.exposure_scale == sb.exposure_scale
            for ca, cb in zip(sa.crops, sb.crops):
                assert (ca == cb).all()

    def test_draws_each_sample_on_demand(self):
        # the returned object is its own iterator, and drawing lazily gives the
        # samples an eager list does
        env = PanoramaSource(smooth_pano(16).data)
        lazy = dataset_gen([env], 3, 3, crop_width=12, crop_height=8)
        eager = list(dataset_gen([env], 3, 3, crop_width=12, crop_height=8))
        assert iter(lazy) is lazy
        got = list(lazy)
        assert len(got) == len(eager) == 3
        for a, b in zip(got, eager):
            assert a.cameras == b.cameras and a.exposure_scale == b.exposure_scale
            assert all(ca.tobytes() == cb.tobytes() for ca, cb in zip(a.crops, b.crops))

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_sample_i_draws_from_child_i_of_the_seed(self, seed):
        # oracle: the streams `default_rng(seed).spawn(count)` made up front
        sources = [PanoramaSource(smooth_pano(8).data), PanoramaSource(smooth_pano(8).data)]
        samples = dataset_gen(sources, seed, 5, crop_width=8, crop_height=6)
        for sample, child in zip(samples, np.random.default_rng(seed).spawn(5), strict=True):
            assert sample.source_index == int(child.integers(0, len(sources)))
            assert sample.cameras[0] == sample_camera(child, width=8, height=6)

    def test_sample_does_not_depend_on_count(self):
        sources = [PanoramaSource(smooth_pano(16).data),
                   PanoramaSource(np.clip(smooth_pano(16).data / 2.0, 0, 1), hdr=False)]
        six = list(dataset_gen(sources, 11, 6, frame_count=2, crop_width=12, crop_height=8))
        for i, sample in enumerate(six):
            last = list(dataset_gen(sources, 11, i + 1, frame_count=2,
                                    crop_width=12, crop_height=8))[-1]
            assert last.source_index == sample.source_index
            assert last.cameras == sample.cameras
            assert last.tone_curve == sample.tone_curve
            assert last.exposure_scale == sample.exposure_scale
            assert [c.tobytes() for c in last.crops] == [c.tobytes() for c in sample.crops]

    def test_nothing_is_spawned_up_front(self):
        # building one RNG stream per sample at the call peaked near 18 MB
        source = PanoramaSource(smooth_pano(8).data)
        with allocation_peak() as probe:
            samples = dataset_gen([source], 0, 20000, crop_width=8, crop_height=6)
            next(samples)
        assert probe.bytes < 1 << 20, probe.bytes

    def test_negative_seed_rejected_at_the_call(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            dataset_gen([PanoramaSource(smooth_pano(8).data)], -1, 1)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            dataset_gen([PanoramaSource(smooth_pano(8).data)], 0, count)

    @pytest.mark.parametrize("frames", [0, -1])
    def test_frame_count_below_one_rejected(self, frames):
        with pytest.raises(ValueError, match="frame_count must be >= 1"):
            dataset_gen([PanoramaSource(smooth_pano(8).data)], 0, 1, frame_count=frames,
                        crop_width=8, crop_height=6)

    def test_still_is_trajectory_start_without_draws(self):
        # one frame: the camera is the trajectory start and the tone curve is
        # the next draw, so stills keep the bits they had before trajectories
        samples = dataset_gen([PanoramaSource(smooth_pano(8).data)], 4, 3,
                              crop_width=8, crop_height=6)
        curves = sorted(TONE_CURVES)
        for sample, child in zip(samples, np.random.default_rng(4).spawn(3)):
            child.integers(0, 1)  # the source index
            assert sample.cameras == [sample_camera(child, width=8, height=6)]
            assert sample.tone_curve == curves[int(child.integers(0, len(curves)))]

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError, match="no panoramas"):
            dataset_gen([], 0, 1)
