import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from luxprobe.envmap import (
    BLOCK_PIXELS,
    EnvironmentMap,
    _directions_to_pixels,
    check_panorama,
    check_radiance,
    direction_to_pixel,
    equirect_geometry,
    great_circle_deg,
    luminance,
    peak_direction,
    pixel_to_direction,
    polar_cos_sin,
    rotate_env,
    row_blocks,
    sample_equirect,
    solid_angle_rows,
    vector_norms,
)
from luxprobe.projection import PanoramaSource
from luxprobe.tonemap import DualToneMaps
from conftest import allocation_peak, grid_directions, hot_spot_env


class TestEnvironmentMap:
    def test_rejects_bad_aspect(self):
        with pytest.raises(ValueError, match="2\\*height"):
            EnvironmentMap(np.zeros((4, 4, 3)))

    def test_rejects_negative_and_nonfinite(self):
        data = np.zeros((2, 4, 3))
        data[0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            EnvironmentMap(data)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EnvironmentMap(data)

    def test_constant_builder(self):
        env = EnvironmentMap.constant((1.0, 2.0, 3.0), height=4)
        assert env.width == 8 and env.height == 4
        assert (env.data[2, 5] == [1.0, 2.0, 3.0]).all()


PANORAMA_TYPES = {
    "EnvironmentMap": EnvironmentMap,
    "DualToneMaps": lambda data: DualToneMaps(ldr=data, log=data),
    "PanoramaSource": PanoramaSource,
}


class TestPanoramaRule:
    """`check_panorama` is the one shape rule of every panorama type."""

    @pytest.mark.parametrize("shape", [
        (5, 7, 3), (4, 4, 3), (8, 4, 3),  # not 2:1
        (4, 8), (4, 8, 1), (4, 8, 4), (1, 4, 8, 3),  # not (H, W, 3)
        (0, 0, 3), (0, 2, 3),  # no rows
    ])
    @pytest.mark.parametrize("kind", PANORAMA_TYPES)
    def test_every_type_rejects_with_one_message(self, kind, shape):
        with pytest.raises(ValueError) as owner:
            check_panorama(shape)
        with pytest.raises(ValueError) as typed:
            PANORAMA_TYPES[kind](np.zeros(shape))
        assert str(typed.value) == str(owner.value)
        rgb = len(shape) == 3 and shape[2] == 3
        assert ("2*height" if rgb and shape[0] else "(H, W, 3)") in str(owner.value)
        if rgb:
            with pytest.raises(ValueError) as direction:
                pixel_to_direction(0, 0, shape[1], shape[0])
            assert str(direction.value) == str(owner.value)

    @pytest.mark.parametrize("kind", PANORAMA_TYPES)
    @pytest.mark.parametrize("height", [1, 2, 7])
    def test_every_type_accepts_a_panorama(self, kind, height):
        PANORAMA_TYPES[kind](np.zeros((height, 2 * height, 3)))


# floats that bound the radiance rule: NaN, both infinities, both zeros, the
# subnormals, and negatives as small and as large as floats get
EDGE_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
               1e-300, -1e-300, 1.0, -1.0, np.finfo(np.float64).max, -np.finfo(np.float64).max]


def two_pass_radiance_fails(values) -> bool:
    """The radiance check as `EnvironmentMap` made it before `check_radiance` (oracle)."""
    return not np.isfinite(values).all() or (values < 0).any()


class TestRadianceRule:
    @settings(max_examples=300, deadline=None)
    @given(values=arrays(np.float64, st.integers(1, 40),
                         elements=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())),
           single=st.booleans())
    def test_raises_exactly_where_the_two_pass_check_did(self, values, single):
        if single:  # float32, as the decoders return: large values overflow to inf
            with np.errstate(over="ignore"):
                values = values.astype(np.float32)
        if two_pass_radiance_fails(values):
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                check_radiance(values, "radiance")
        else:
            check_radiance(values, "radiance")



class TestPixelToDirection:
    def test_small_map_corner(self):
        # phi = -3pi/4, theta = pi/4 at (0, 0) of a 4x2 map
        d = pixel_to_direction(0, 0, 4, 2)
        np.testing.assert_allclose(d, [-0.5, np.sqrt(0.5), 0.5], atol=1e-12)

    def test_center_columns_bracket_forward(self):
        # the bracketing pixels are diagonal neighbors of the forward point:
        # each angular component is within half a pixel pitch, the total
        # within sqrt(2) halves
        half_pitch = 0.5 * 2 * np.pi / 512
        for col, row in ((255, 127), (256, 128)):
            d = pixel_to_direction(col, row, 512, 256)
            azimuth = np.arctan2(d[0], -d[2])
            polar = np.arccos(d[1])
            assert abs(azimuth) <= half_pitch + 1e-12
            assert abs(polar - np.pi / 2) <= half_pitch + 1e-12
            total = great_circle_deg(d, [0, 0, -1])
            assert total <= np.degrees(np.sqrt(2.0) * half_pitch) + 1e-9

    def test_top_row_near_pole(self):
        for col in range(0, 512, 37):
            d = pixel_to_direction(col, 0, 512, 256)
            assert great_circle_deg(d, [0, 1, 0]) <= np.degrees(np.pi / 256) + 1e-9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            pixel_to_direction(8, 0, 8, 4)
        with pytest.raises(ValueError, match="outside"):
            pixel_to_direction(0, -1, 8, 4)

    def test_unit_norm_everywhere(self):
        dirs = grid_directions(256, 128)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-6)


def pixel_centres_by_theta(col, row, width, height):
    """`envmap._pixel_centres` as it was before it read `polar_cos_sin`
    (oracle): the polar angle theta = pi*(row + 0.5)/height taken directly."""
    phi = 2.0 * np.pi * (np.asarray(col, dtype=np.float64) + 0.5) / width - np.pi
    theta = np.pi * (np.asarray(row, dtype=np.float64) + 0.5) / height
    theta, phi = np.broadcast_arrays(theta, phi)
    sin_t = np.sin(theta)
    return np.stack(
        [sin_t * np.sin(phi), np.cos(theta), -sin_t * np.cos(phi)], axis=-1
    )


def polar_cos_sin_whole(steps: int):
    """`polar_cos_sin(steps)` as it was before it took indices (oracle).

    cos and sin of the polar angles pi*k/steps, k = 0..steps, mirror-exact:
    c[steps-k] == -c[k] and s[steps-k] == s[k] bit for bit, and c == 0 at the
    equator. The row edges of an n-row map are the entries at steps = n, its
    pixel centres the odd entries at steps = 2n."""
    half = steps // 2
    theta = np.pi * np.arange(half + 1) / steps
    c = np.empty(steps + 1)
    s = np.empty(steps + 1)
    c[: half + 1] = np.cos(theta)
    s[: half + 1] = np.sin(theta)
    c[steps - half :] = -c[half::-1]
    s[steps - half :] = s[half::-1]
    if steps % 2 == 0:
        c[half] = 0.0
    return c, s


def great_circle_deg_by_arccos(a, b) -> float:
    """`great_circle_deg` as it was before the half-angle form (oracle)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


# odd heights have a row on the equator
MAP_HEIGHTS = (3, 7, 33, 64, 100, 255, 512)


class TestPolarAngleRule:
    """Every pixel-centre polar angle comes from `polar_cos_sin`."""

    @pytest.mark.parametrize("height", MAP_HEIGHTS)
    def test_pixel_centres_are_mirror_exact(self, height):
        width = 2 * height
        one_by_one = np.array([[pixel_to_direction(col, row, width, height)
                                for col in (0, height // 3)] for row in range(height)])
        for dirs in (grid_directions(width, height), one_by_one):
            mirror = dirs[::-1]
            assert (mirror[..., 0] == dirs[..., 0]).all() and (mirror[..., 2] == dirs[..., 2]).all()
            assert (mirror[..., 1] == -dirs[..., 1]).all()
            if height % 2:
                assert (dirs[height // 2, :, 1] == 0.0).all()

    @pytest.mark.parametrize("height", MAP_HEIGHTS)
    def test_pixel_to_direction_reads_polar_cos_sin(self, height):
        for row in range(height):
            cos, _ = polar_cos_sin(2 * row + 1, 2 * height)
            assert pixel_to_direction(height // 3, row, 2 * height, height)[1] == cos

    def test_indices_match_the_whole_array_builder(self):
        for steps in [*range(1, 301), 4097]:
            got = polar_cos_sin(np.arange(steps + 1), steps)
            want = polar_cos_sin_whole(steps)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), steps
            for k in {0, steps // 3, steps // 2, (steps + 1) // 2, steps}:  # scalar indices
                for g, w in zip(polar_cos_sin(k, steps), want):
                    assert np.asarray(g).tobytes() == w[k].tobytes(), (steps, k)

    @pytest.mark.parametrize("height", MAP_HEIGHTS)
    def test_within_round_off_of_theta(self, height):
        width = 2 * height
        got = grid_directions(width, height)
        want = pixel_centres_by_theta(np.arange(width), np.arange(height)[:, None], width, height)
        assert np.abs(got[..., 1] - want[..., 1]).max() <= 4e-16
        assert np.abs(got - want).max() <= 3 * np.finfo(np.float64).eps

    def test_pixel_to_direction_memory_flat_in_map_height(self):
        with allocation_peak() as probe:
            d = pixel_to_direction(5, 7, 2 * 10**9, 10**9)
        assert probe.bytes < 2**20, probe.bytes
        assert d.shape == (3,) and d[1] > 0.999999


class TestAngleRule:
    """`great_circle_deg` and `angular_error` share the half-angle form."""

    def test_parallel_directions_of_any_length_are_zero(self, rng):
        dirs = rng.normal(size=(2000, 3))
        dirs /= vector_norms(dirs)[:, None]
        assert max(great_circle_deg(d, 3 * d) for d in dirs) < 1e-12

    def test_accurate_at_a_tenth_of_a_microradian(self, rng):
        angle = 1e-7
        for _ in range(200):
            a, p = rng.normal(size=(2, 3))
            a /= vector_norms(a)
            p -= (p @ a) * a
            p /= vector_norms(p)
            b = np.cos(angle) * a + np.sin(angle) * p
            assert abs(np.radians(great_circle_deg(a, b)) - angle) < 1e-8 * angle

    def test_matches_the_arccos_form_away_from_0_and_180(self, rng):
        pairs = rng.normal(size=(2000, 2, 3)) * rng.uniform(0.1, 10.0, size=(2000, 2, 1))
        checked = 0
        for a, b in pairs:
            want = great_circle_deg_by_arccos(a, b)
            if 5.0 <= want <= 175.0:  # where arccos of a dot product is accurate
                assert abs(great_circle_deg(a, b) - want) <= 1e-13
                checked += 1
        assert checked > 1900


class TestDirectionToPixel:
    def test_forward(self):
        assert direction_to_pixel([0, 0, -1], 512, 256) == (255.5, 127.5)

    def test_north_pole_clamps(self):
        col, row = direction_to_pixel([0, 1, 0], 512, 256)
        assert (col, row) == (256.0, 0.0)

    @pytest.mark.parametrize("direction", [[0, 0, -1], (0.6, 0.0, 0.8), np.array([0, -1.0, 0])])
    def test_returns_two_floats(self, direction):
        assert [type(v) for v in direction_to_pixel(direction, 512, 256)] == [float, float]

    def test_round_trip_8x4_exact(self):
        for row in range(4):
            for col in range(8):
                d = pixel_to_direction(col, row, 8, 4)
                c, r = direction_to_pixel(d, 8, 4)
                assert c == pytest.approx(col, abs=1e-9)
                assert r == pytest.approx(row, abs=1e-9)

    @given(
        height=st.sampled_from([2, 4, 16, 64, 128]),
        frac_col=st.floats(0, 1, exclude_max=True),
        frac_row=st.floats(0, 1, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, height, frac_col, frac_row):
        width = 2 * height
        col = int(frac_col * width)
        row = int(frac_row * height)
        d = pixel_to_direction(col, row, width, height)
        c, r = direction_to_pixel(d, width, height)
        assert abs(c - col) < 1e-7 and abs(r - row) < 1e-7


class TestSolidAngle:
    def test_closed_form_tiny_map(self):
        # (2pi/4) * (cos 0 - cos pi/2) = pi/2
        assert solid_angle_rows(4, 2)[0] == pytest.approx(np.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("height", [4, 64, 256])
    def test_total_is_sphere(self, height):
        width = 2 * height
        total = solid_angle_rows(width, height).sum() * width
        assert total == pytest.approx(4 * np.pi, rel=1e-6)

    def test_equator_symmetry_exact(self):
        for height in (7, 64, 255):
            rows = solid_angle_rows(2 * height, height)
            assert (rows == rows[::-1]).all()


class TestRotateEnv:
    def test_identity(self, rng):
        env = EnvironmentMap(rng.random((8, 16, 3)))
        assert (rotate_env(env, 0.0).data == env.data).all()

    @pytest.mark.parametrize("yaw", [float("nan"), float("inf"), float("-inf"), 1e308])
    def test_rejects_non_finite_yaw_or_shift(self, yaw):
        # 1e308 is finite, but 1e308 * 16 / 360 overflows to inf columns
        with pytest.raises(ValueError, match="yaw must be finite"):
            rotate_env(EnvironmentMap(np.ones((8, 16, 3))), yaw)

    def test_grid_aligned_is_roll(self, rng):
        env = EnvironmentMap(rng.random((8, 16, 3)))
        out = rotate_env(env, 360.0 * 3 / 16)
        assert (out.data == np.roll(env.data, -3, axis=1)).all()
        assert out.data.sum() == env.data.sum()

    def test_grid_aligned_inverts(self, rng):
        env = EnvironmentMap(rng.random((8, 16, 3)))
        back = rotate_env(rotate_env(env, 90.0), -90.0)
        assert (back.data == env.data).all()

    def test_fractional_round_trip(self):
        # width 214: a 90 degree yaw lands between columns; bilinear error is
        # curvature-limited, so use a smooth panorama
        height, width = 107, 214
        rows = np.arange(height)[:, None, None]
        cols = np.arange(width)[None, :, None]
        chans = np.arange(3)[None, None, :]
        data = 1.5 + 0.5 * np.sin(2 * np.pi * cols / width + chans) * np.cos(
            np.pi * rows / height
        )
        env = EnvironmentMap(data)
        back = rotate_env(rotate_env(env, 90.0), -90.0)
        interior = slice(10, 97)
        rel = np.abs(back.data[interior] - env.data[interior]) / env.data[interior]
        assert rel.max() < 1e-3


class TestLuminance:
    def test_white(self):
        assert luminance([1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_black(self):
        assert luminance([0.0, 0.0, 0.0]) == 0.0

    def test_red(self):
        assert luminance([1.0, 0.0, 0.0]) == pytest.approx(0.2126, abs=1e-12)


# zero, subnormal, ordinary and overflowing components (a square of 1e155 or
# more is infinite), of either sign
_norm_component = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-160, 1e155, -1e200, 1.7e308]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestVectorNorms:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.sampled_from([(3,), (1, 3), (7, 3), (2, 5, 3)]),
                  elements=_norm_component))
    def test_equals_linalg_norm(self, x):
        with np.errstate(over="ignore", under="ignore"):
            want = np.linalg.norm(x, axis=-1)
            got = vector_norms(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_rows(self):
        x = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [5e-324, 0.0, 0.0]])
        with np.errstate(over="ignore", under="ignore"):
            got = vector_norms(x)
        assert got[0] == 5.0 and got[1] == 0.0 and got[2] == np.inf and got[3] == 0.0


class TestPeakDirection:
    def test_single_hot_pixel(self):
        env = hot_spot_env(height=32, row=10, col=20, base=0.0)
        expected = pixel_to_direction(20, 10, 64, 32)
        np.testing.assert_allclose(peak_direction(env), expected, atol=1e-12)

    def test_rotation_equivariance(self):
        env = hot_spot_env(height=32, row=16, col=32, base=0.0)
        rotated = rotate_env(env, 90.0)
        angle = great_circle_deg(peak_direction(env), peak_direction(rotated))
        pixel_step = np.degrees(2 * np.pi / 64)
        assert abs(angle - 90.0) <= pixel_step

    def test_symmetric_pair_is_forward(self):
        data = np.zeros((32, 64, 3))
        data[15, 31] = 5.0  # straddle the equator symmetrically about forward
        data[16, 32] = 5.0
        data[15, 32] = 5.0
        data[16, 31] = 5.0
        env = EnvironmentMap(data)
        np.testing.assert_allclose(peak_direction(env), [0, 0, -1], atol=1e-6)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no peak"):
            peak_direction(EnvironmentMap(np.zeros((8, 16, 3))))

    def test_hot_region_with_background(self):
        env = hot_spot_env(height=64, row=40, col=9, value=1000.0, base=0.05)
        expected = pixel_to_direction(9, 40, 128, 64)
        assert great_circle_deg(peak_direction(env), expected) < np.degrees(
            2 * np.pi / 128
        )


def peak_direction_grid(env: EnvironmentMap, percentile: float) -> np.ndarray:
    """The whole-grid form of peak_direction (oracle): directions of every
    pixel centre built first, then the selected ones taken from them."""
    lum = luminance(env.data)
    if lum.max() <= 0.0:
        raise ValueError("no peak: environment map has no positive luminance")
    sa = np.broadcast_to(solid_angle_rows(env.width, env.height)[:, None], lum.shape)
    flat_lum = lum.ravel()
    flat_sa = sa.ravel()
    order = np.argsort(flat_lum, kind="stable")
    cum = np.cumsum(flat_sa[order])
    idx = np.searchsorted(cum, percentile * cum[-1], side="left")
    mask = flat_lum >= flat_lum[order[min(idx, flat_lum.size - 1)]]
    dirs = grid_directions(env.width, env.height).reshape(-1, 3)
    weights = flat_lum[mask] * flat_sa[mask]
    centroid = (weights[:, None] * dirs[mask]).sum(axis=0)
    norm = vector_norms(centroid)
    # a squared norm below the smallest normal float has lost its bits to underflow
    if norm * norm < np.finfo(np.float64).tiny or norm < 1e-12 * weights.sum():
        raise ValueError("no peak: luminance distribution is directionless")
    return centroid / norm


def _peak_or_error(fn, env, percentile):
    try:
        return fn(env, percentile).tobytes()
    except ValueError as exc:
        return str(exc)


_percentiles = st.one_of(st.sampled_from([1e-9, 0.5, 0.9, 0.999, 1.0]),
                         st.floats(1e-6, 1.0, exclude_min=True))


class TestPeakDirectionParity:
    """peak_direction builds directions for the selected pixels only; its bits
    are those of the whole-grid form."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.integers(1, 12).flatmap(lambda h: arrays(
               np.float64, (h, 2 * h, 3),
               elements=st.one_of(st.just(0.0), st.floats(0.0, 1e3)))),
           percentile=_percentiles)
    def test_hypothesis_maps(self, data, percentile):
        env = EnvironmentMap(data)
        assert (_peak_or_error(peak_direction, env, percentile)
                == _peak_or_error(peak_direction_grid, env, percentile))

    @pytest.mark.parametrize("height", [16, 100, 512])
    @pytest.mark.parametrize("percentile", [0.5, 0.9, 0.999, 1.0])
    def test_random_maps(self, rng, height, percentile):
        env = hot_spot_env(height=height, row=height // 3, col=height // 5, value=50.0)
        env = EnvironmentMap(env.data * rng.random(env.data.shape))
        assert (peak_direction(env, percentile).tobytes()
                == peak_direction_grid(env, percentile).tobytes())

    @pytest.mark.parametrize("peak", [peak_direction, peak_direction_grid])
    @pytest.mark.parametrize("value", [1e-320, 1e-160])
    def test_underflowing_centroid_rejected(self, peak, value):
        # one texel: at 1e-320 a zero norm divided into infinities; at 1e-160
        # the squared norm is subnormal and the direction came back 2e-4 too long
        data = np.zeros((4, 8, 3))
        data[1, 2] = value
        with np.errstate(divide="raise", invalid="raise"):
            with pytest.raises(ValueError, match="no peak"):
                peak(EnvironmentMap(data), 0.999)

    def test_memory_below_twice_the_map(self, rng):
        # the whole (H, W, 3) direction grid and its temporaries took about 3.5x
        env = EnvironmentMap(rng.random((512, 1024, 3)))
        with allocation_peak() as probe:
            peak_direction(env)
        assert probe.bytes < 2 * env.data.nbytes, probe.bytes / env.data.nbytes


class TestSampleEquirect:
    def test_constant_map_exact(self, rng):
        data = np.full((16, 32, 3), 0.7)
        dirs = grid_directions(64, 32)  # off-grid lookups
        out = sample_equirect(data, dirs)
        assert (out == 0.7).all()

    def test_pixel_centers_exact(self, rng):
        data = rng.random((8, 16, 3))
        dirs = grid_directions(16, 8)
        out = sample_equirect(data, dirs)
        np.testing.assert_allclose(out, data, atol=1e-12)


def sample_by_fancy_index(data, dirs):
    """The lookup before its split into geometry and apply steps (oracle):
    four fancy-indexed reads of data[row, col]."""
    height, width = data.shape[0], data.shape[1]
    col, row = (a.reshape(dirs.shape[:-1]) for a in _directions_to_pixels(dirs, width, height))
    c0f = np.floor(col)
    r0f = np.floor(row)
    tc = (col - c0f)[..., None]
    tr = (row - r0f)[..., None]
    c0 = c0f.astype(np.int64) % width
    c1 = (c0 + 1) % width
    r0 = np.clip(r0f.astype(np.int64), 0, height - 1)
    r1 = np.clip(r0 + 1, 0, height - 1)
    top = data[r0, c0]
    top = top + tc * (data[r0, c1] - top)
    bot = data[r1, c0]
    bot = bot + tc * (data[r1, c1] - bot)
    return top + tr * (bot - top)


# components that land lookups on the wrap column (x = -0.0 or a tiny x with
# z = 1 puts the azimuth at -pi or pi), on the pole rows (y = +-1) and on
# exact-pole directions, where hypot(x, z) < 1e-12
_SPECIAL_COMPONENTS = [0.0, -0.0, 1.0, -1.0, 1e-13, -1e-13, 1e-300, 0.5, -0.5]


class TestLookupShapes:
    """A lookup takes directions of any leading shape, (3,) included, and gives
    the bits of the same directions looked up as one flat (n, 3) array."""

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (7, 3), (4, 5, 3), (2, 1, 3, 3)])
    def test_any_shape_is_the_flat_lookup(self, rng, shape):
        height = 9
        data = rng.random((height, 2 * height, 3))
        dirs = rng.normal(size=shape)
        dirs /= vector_norms(dirs)[..., None]
        lead = shape[:-1]
        flat = dirs.reshape(-1, 3)
        texels, tc, tr = equirect_geometry(dirs, height, 2 * height)
        want = equirect_geometry(flat, height, 2 * height)
        assert texels.shape == (4, *lead) and tc.shape == tr.shape == (*lead, 1)
        for got, w in zip((texels, tc, tr), want):
            assert got.tobytes() == w.tobytes()
        got = sample_equirect(data, dirs)
        assert got.shape == (*lead, 3)
        assert got.tobytes() == sample_equirect(data, flat).tobytes()


class TestLookupParity:
    """sample_equirect (geometry, then apply) against the fancy-index lookup."""

    @given(
        height=st.integers(1, 40),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**32 - 1),
        dirs=st.lists(st.integers(1, 6), max_size=2).flatmap(
            lambda lead: arrays(
                np.float64, (*lead, 3),
                elements=st.sampled_from(_SPECIAL_COMPONENTS) | st.floats(-1.0, 1.0),
            )
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, height, dtype, seed, dirs):
        data = np.random.default_rng(seed).random((height, 2 * height, 3)).astype(dtype)
        fast = sample_equirect(data, dirs)
        oracle = sample_by_fancy_index(data.astype(np.float64), dirs)  # a lookup is float64
        assert fast.dtype == oracle.dtype and fast.shape == oracle.shape
        assert fast.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wrap_column_poles_and_every_texel(self, dtype, rng):
        # every pixel center of a 9x18 map and the centers of a twice finer
        # grid (between texels, the top and bottom ones above and below the
        # outer row centers), the two exact poles and both sides of the seam
        height = 9
        data = rng.random((height, 2 * height, 3)).astype(dtype)
        centers = grid_directions(2 * height, height)
        between = grid_directions(4 * height, 2 * height)
        seam = np.array([[0.0, 0.0, 1.0], [-0.0, 0.3, 1.0], [1e-13, -0.2, 1.0],
                         [-1e-13, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                         [1e-13, 1.0, -1e-13], [0.0, 1.0, 1e-300]])
        for dirs in (centers, between, seam, seam[0]):
            assert sample_equirect(data, dirs).tobytes() == sample_by_fancy_index(
                data.astype(np.float64), dirs).tobytes()


class TestRowBlocks:
    """One helper turns a pixel budget into row blocks for every per-pixel stage."""

    @given(rows=st.integers(1, 300), row_pixels=st.integers(1, 5000),
           budget=st.integers(1, 20000))
    @settings(max_examples=300, deadline=None)
    def test_each_row_once_in_order_within_the_budget(self, rows, row_pixels, budget):
        blocks = row_blocks(rows, row_pixels, budget)
        assert [r for block in blocks for r in range(rows)[block]] == list(range(rows))
        sizes = [len(range(rows)[block]) for block in blocks]
        assert all(n * row_pixels <= budget or n == 1 for n in sizes)
        # every block but the last holds as many rows as the budget allows
        assert all(n == max(1, budget // row_pixels) for n in sizes[:-1])

    def test_one_row(self):
        assert row_blocks(1, 2048) == [slice(0, 1)]

    def test_last_block_is_partial(self):
        # 32 rows of 1000 pixels fit in the default budget
        assert BLOCK_PIXELS == 1 << 15
        assert row_blocks(70, 1000) == [slice(0, 32), slice(32, 64), slice(64, 70)]

    def test_a_row_wider_than_the_budget_is_a_block_alone(self):
        assert row_blocks(3, BLOCK_PIXELS + 7) == [slice(0, 1), slice(1, 2), slice(2, 3)]


class TestFloat32Maps:
    """A map stays at its decoder's float32: each stage casts the values it
    takes to float64 before any arithmetic, so it gives the bytes of the same
    call on the map's float64 cast."""

    @given(height=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           dirs=arrays(np.float64, (7, 3), elements=st.floats(-1.0, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_lookup(self, height, seed, dirs):
        data = np.random.default_rng(seed).gamma(1.0, 2.0, (height, 2 * height, 3))
        data = data.astype(np.float32)
        got = sample_equirect(data, dirs)
        assert got.dtype == np.float64
        assert got.tobytes() == sample_equirect(data.astype(np.float64), dirs).tobytes()

    @given(height=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           columns=st.integers(-100, 100), fraction=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_rotate(self, height, seed, columns, fraction):
        data = np.random.default_rng(seed).gamma(1.0, 2.0, (height, 2 * height, 3))
        env = EnvironmentMap(data.astype(np.float32))
        wide = EnvironmentMap(env.data.astype(np.float64))
        # a grid yaw is a roll and keeps the map's dtype; any other resamples in float64
        for shift, dtype in ((columns, np.float32), (columns + fraction, np.float64)):
            yaw = 360.0 * shift / (2 * height)
            got, want = rotate_env(env, yaw).data, rotate_env(wide, yaw).data
            assert got.dtype == dtype
            assert got.astype(np.float64).tobytes() == want.tobytes()
