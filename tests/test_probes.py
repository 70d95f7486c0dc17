import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luxprobe import probes
from luxprobe.envmap import (
    EnvironmentMap,
    pixel_to_direction,
    polar_cos_sin,
    rotate_env,
    sample_equirect,
    solid_angle_rows,
)
from luxprobe.probes import (
    GRAY_DIFFUSE,
    MATTE_SILVER,
    MIRROR_BALL,
    PREFILTER_MAX_ROWS,
    STANDARD_MATERIALS,
    Material,
    _pow_int,
    _weighted_sums,
    prefilter_diffuse,
    prefilter_glossy,
    render_probe,
    render_probe_pixels,
)
from conftest import grid_directions


def polar_cosines(height: int) -> np.ndarray:
    """`envmap._polar_cosines` as it was before `polar_cos_sin` (oracle).

    cos(pi*k/height) for k = 0..height, mirror-symmetric by construction.

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


def centre_cos_sin(n: int):
    """`probes._centre_cos_sin` as it was before `polar_cos_sin` (oracle).

    cos and sin of the pixel-centre polar angles pi*(i + 0.5)/n.

    Mirror-exact, like `envmap._polar_cosines`: c[n-1-i] == -c[i] and
    s[n-1-i] == s[i] bit for bit, and the middle entry of an odd n has c == 0.
    """
    half = (n + 1) // 2
    theta = np.pi * (np.arange(half) + 0.5) / n
    c = np.empty(n)
    s = np.empty(n)
    c[:half] = np.cos(theta)
    s[:half] = np.sin(theta)
    c[n - half:] = -c[half - 1::-1]
    s[n - half:] = s[half - 1::-1]
    if n % 2:
        c[half - 1] = 0.0
    return c, s


def dense_weighted_sums(env: EnvironmentMap, rows: int, exponent):
    """Reference prefilter sums: every output direction against every texel.

    O(outputs x texels) direct summation over the (rows, 2*rows) output
    grid, accumulated over input chunks in a fixed order. Returns
    (numerator (rows, 2*rows, 3), denominator (rows, 2*rows)).
    """
    out_dirs = grid_directions(2 * rows, rows)
    in_dirs = grid_directions(env.width, env.height).reshape(-1, 3)
    omega = np.broadcast_to(
        solid_angle_rows(env.width, env.height)[:, None], (env.height, env.width)
    ).reshape(-1)
    radiance = env.data.reshape(-1, 3)
    flat_out = out_dirs.reshape(-1, 3)
    num = np.zeros((flat_out.shape[0], 3))
    den = np.zeros(flat_out.shape[0])
    for start in range(0, in_dirs.shape[0], 4096):
        sl = slice(start, start + 4096)
        dots = flat_out @ in_dirs[sl].T
        np.maximum(dots, 0.0, out=dots)
        w = dots ** exponent * omega[sl]
        num += w @ radiance[sl]
        den += w.sum(axis=1)
    return num.reshape(out_dirs.shape), den.reshape(out_dirs.shape[:-1])


def one_sided_weighted_sums(maps, out_height: int, exponent):
    """`_weighted_sums` for one exponent as it was before the mirror-symmetric
    rows (oracle): one kernel, one spectrum and one product per output row,
    each map's radiance spectrum taken once per exponent.

    Sums of radiance*dOmega (and dOmega) against clamped-cosine^n kernels.

    `maps` is a sequence of (H, W, 3) arrays of one shape. The output grid is
    the (rows, 2*rows) pixel-center grid, rows = min(out_height, H,
    PREFILTER_MAX_ROWS). Returns (one numerator (rows, 2*rows, 3) per map,
    the shared denominator (rows, 2*rows)).

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
    rows = min(out_height, height, PREFILTER_MAX_ROWS)
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


def assert_parity(fast, dense, rel=1e-12):
    """max |fast - dense| <= rel * max |dense|, per channel."""
    assert fast.shape == dense.shape
    err = np.abs(fast - dense).max(axis=(0, 1))
    scale = np.abs(dense).max(axis=(0, 1))
    assert (err <= rel * scale).all(), (err / scale).max()


def _test_env(height, rng):
    # per-channel scales so each channel's tolerance is checked on its own
    data = rng.random((height, 2 * height, 3)) ** 3 * np.array([1.0, 20.0, 0.05])
    data[height // 3, height // 2] *= 400.0  # one hot spot
    return EnvironmentMap(data)


class TestPrefilterParity:
    """Azimuthal-FFT prefilters against the dense double sum."""

    @pytest.mark.parametrize(
        "height, out_height, exponent",
        [
            (64, 64, 1),  # power of two, one phase class
            (64, 64, 64),
            (64, 64, 7.5),  # non-integer lobe
            (128, 128, 1),  # capped at 64 output rows
            (96, 96, 64),  # output width 128 does not divide 192
            (96, 96, 7.5),
            (72, 72, 1),  # eight phase classes
            (16, 12, 64),  # coarse output grid that does not divide the input
        ],
    )
    def test_matches_dense_sum(self, rng, height, out_height, exponent):
        env = _test_env(height, rng)
        rows = min(out_height, height, 64)
        num, den = dense_weighted_sums(env, rows, exponent)
        glossy = prefilter_glossy(env, exponent, out_height)
        assert_parity(glossy.data, num / den[..., None])
        if exponent == 1:
            assert_parity(prefilter_diffuse(env, out_height).data, num)

    @pytest.mark.parametrize("height", [64, 96])
    def test_doubling_radiance_doubles_output_exactly(self, rng, height):
        env = _test_env(height, rng)
        doubled = EnvironmentMap(2.0 * env.data)
        assert (
            prefilter_diffuse(doubled, height).data == 2.0 * prefilter_diffuse(env, height).data
        ).all()
        assert (
            prefilter_glossy(doubled, 64, height).data
            == 2.0 * prefilter_glossy(env, 64, height).data
        ).all()

    def test_memory_stays_near_input_size(self, rng):
        # the full (rows, H, W) kernel tensor would be 64*512*1024*8 bytes,
        # 21x the input; the row-at-a-time FFT needs a few input-sized buffers
        env = EnvironmentMap(rng.random((512, 1024, 3)))
        tracemalloc.start()
        try:
            prefilter_glossy(env, 64, out_height=512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * env.data.nbytes

    def test_memory_of_two_maps_stays_near_their_size(self, rng):
        # the kernels and their spectra are shared, so a second map adds its
        # own spectrum and numerator, not another set of kernel buffers
        maps = [rng.random((512, 1024, 3)) for _ in range(2)]
        tracemalloc.start()
        try:
            _weighted_sums(maps, 64, [64])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * sum(m.nbytes for m in maps)

    @pytest.mark.parametrize(
        "height, out_height, exponent",
        [(48, 48, 1), (48, 200, 64), (72, 72, 1), (72, 72, 7.5), (128, 96, 64), (16, 12, 7.5)],
    )
    def test_public_prefilters_are_one_map_weighted_sums(self, rng, height, out_height, exponent):
        env = _test_env(height, rng)
        [((num,), den)] = _weighted_sums([env.data], out_height, [exponent])
        assert num.shape[0] == min(height, out_height, 64)
        glossy = prefilter_glossy(env, exponent, out_height).data
        assert glossy.tobytes() == (num / den[..., None]).tobytes()
        if exponent == 1:
            assert prefilter_diffuse(env, out_height).data.tobytes() == num.tobytes()

    @pytest.mark.parametrize(
        "height, rows, exponent",
        [(48, 48, 1), (48, 48, 64), (72, 64, 1), (72, 64, 64), (72, 64, 7.5), (16, 12, 7.5)],
    )
    def test_several_maps_match_one_map_calls(self, rng, height, rows, exponent):
        maps = [_test_env(height, rng).data for _ in range(2)]
        [(nums, den)] = _weighted_sums(maps, rows, [exponent])
        for data, num in zip(maps, nums):
            [((alone,), alone_den)] = _weighted_sums([data], rows, [exponent])
            assert num.tobytes() == alone.tobytes()
            assert den.tobytes() == alone_den.tobytes()


def assert_rows_close(got, want, rel=1e-13):
    """|got - want| <= rel * (the output row's max |want|), per row and channel."""
    assert got.shape == want.shape
    err = np.abs(got - want).max(axis=1)  # over the columns of each row
    scale = np.abs(want).max(axis=1)
    assert (err <= rel * scale).all(), (err / scale).max()


class TestSymmetricRows:
    """Mirror-symmetric rows and one lobe base against the one-sided oracle."""

    EXPONENTS = (1, 64, 7.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 33, 64, 1024])
    def test_polar_angles_are_mirror_exact(self, n):
        c, s = polar_cos_sin(np.arange(1, 2 * n, 2), 2 * n)  # the pixel centres
        assert (c[::-1] == -c).all() and (s[::-1] == s).all()
        if n % 2:
            assert c[n // 2] == 0.0
        theta = np.pi * (np.arange(n) + 0.5) / n
        half = (n + 1) // 2
        assert (c[: n // 2] == np.cos(theta[: n // 2])).all()
        assert (s[:half] == np.sin(theta[:half])).all()
        np.testing.assert_allclose(c, np.cos(theta), rtol=0, atol=1e-15)
        np.testing.assert_allclose(s, np.sin(theta), rtol=0, atol=1e-15)

    def test_polar_angles_match_the_builders_they_replace(self):
        # every row count a map or a prefilter grid can plausibly have, bit for bit
        for n in range(1, 4101):
            edges_cos, edges_sin = polar_cos_sin(np.arange(n + 1), n)
            assert edges_cos.tobytes() == polar_cosines(n).tobytes(), n
            assert edges_sin.shape == (n + 1,) and (edges_sin[::-1] == edges_sin).all(), n
            centres = polar_cos_sin(np.arange(1, 2 * n, 2), 2 * n)
            for got, want in zip(centres, centre_cos_sin(n)):
                assert got.tobytes() == want.tobytes(), n
            old = (2.0 * np.pi / (2 * n)) * (polar_cosines(n)[:-1] - polar_cosines(n)[1:])
            assert solid_angle_rows(2 * n, n).tobytes() == old.tobytes(), n

    @pytest.mark.parametrize(
        "height, out_height",
        [(64, 64), (128, 128), (96, 96), (72, 72), (16, 12), (48, 200),
         (17, 17), (33, 33), (33, 15), (17, 15)],  # odd row counts in and out
    )
    def test_matches_one_sided_oracle(self, rng, height, out_height):
        maps = [_test_env(height, rng).data for _ in range(2)]
        sums = _weighted_sums(maps, out_height, self.EXPONENTS)
        for exponent, (nums, den) in zip(self.EXPONENTS, sums):
            want_nums, want_den = one_sided_weighted_sums(maps, out_height, exponent)
            assert_rows_close(den, want_den)
            for num, want in zip(nums, want_nums):
                assert_rows_close(num, want)

    @pytest.mark.parametrize("height, out_height", [(64, 64), (33, 33), (72, 15), (17, 17)])
    def test_row_flipped_map_gives_row_flipped_output(self, rng, height, out_height):
        # to round-off only: row a's slot-1 product rounds unlike row rows-1-a's slot 0
        data = _test_env(height, rng).data
        sums = _weighted_sums([data], out_height, self.EXPONENTS)
        flipped = _weighted_sums([data[::-1]], out_height, self.EXPONENTS)
        for ((num,), den), ((flip_num,), flip_den) in zip(sums, flipped):
            assert (flip_den == den[::-1]).all()
            assert_rows_close(flip_num, num[::-1])

    @pytest.mark.parametrize("height, out_height", [(64, 64), (33, 15), (72, 72)])
    def test_several_exponents_match_one_exponent_calls(self, rng, height, out_height):
        maps = [_test_env(height, rng).data for _ in range(2)]
        sums = _weighted_sums(maps, out_height, self.EXPONENTS)
        for exponent, (nums, den) in zip(self.EXPONENTS, sums):
            [(alone_nums, alone_den)] = _weighted_sums(maps, out_height, [exponent])
            assert den.tobytes() == alone_den.tobytes()
            for num, alone in zip(nums, alone_nums):
                assert num.tobytes() == alone.tobytes()


class TestBoundary:
    """Lobe exponents and output heights that cannot make a prefilter."""

    @pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_exponent_must_be_positive_and_finite(self, exponent):
        env = EnvironmentMap.constant(1.0, 8)
        with pytest.raises(ValueError, match="exponent"):
            Material("matte", exponent=exponent)
        with pytest.raises(ValueError, match="exponent"):
            prefilter_glossy(env, exponent, 4)

    @pytest.mark.parametrize("out_height", [0, -3])
    def test_out_height_must_be_positive(self, out_height):
        env = EnvironmentMap.constant(1.0, 8)
        with pytest.raises(ValueError, match="out_height"):
            prefilter_diffuse(env, out_height)
        with pytest.raises(ValueError, match="out_height"):
            prefilter_glossy(env, 64, out_height)


class TestMaterial:
    def test_presets(self):
        assert MIRROR_BALL.kind == "mirror"
        assert MATTE_SILVER.exponent == 64.0
        assert GRAY_DIFFUSE.albedo == (0.5, 0.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Material("chrome")
        with pytest.raises(ValueError, match="albedo"):
            Material("mirror", albedo=(1.5, 0, 0))
        with pytest.raises(ValueError, match="exponent"):
            Material("matte", exponent=0.0)


class TestPrefilterDiffuse:
    def test_constant_env_gives_pi_l(self):
        env = EnvironmentMap.constant(2.0, height=64)
        irr = prefilter_diffuse(env, out_height=64)
        np.testing.assert_allclose(irr.data, 2.0 * np.pi, rtol=5e-3)

    def test_single_hot_texel(self):
        height, width = 32, 64
        data = np.zeros((height, width, 3))
        row, col = 12, 40
        radiance = 50.0
        data[row, col] = radiance
        env = EnvironmentMap(data)
        irr = prefilter_diffuse(env, out_height=height)
        d = pixel_to_direction(col, row, width, height)
        omega = solid_angle_rows(width, height)[row]
        # at the texel direction: E = L * dOmega * 1
        at_d = sample_equirect(irr.data, np.asarray(d))
        np.testing.assert_allclose(at_d, radiance * omega, rtol=5e-3)
        # orthogonal direction: cosine term vanishes
        perp = np.array([-d[2], 0.0, d[0]])
        perp /= np.linalg.norm(perp)
        at_perp = sample_equirect(irr.data, perp)
        assert np.abs(at_perp).max() <= radiance * omega * 0.05

    def test_rotation_equivariance(self):
        height = 32
        rows = np.arange(height)[:, None, None]
        cols = np.arange(2 * height)[None, :, None]
        data = 1.0 + 0.8 * np.cos(2 * np.pi * cols / (2 * height)) * np.sin(
            np.pi * (rows + 0.5) / height
        ) * np.ones((1, 1, 3))
        env = EnvironmentMap(data)
        a = prefilter_diffuse(rotate_env(env, 45.0), out_height=height)
        b = rotate_env(prefilter_diffuse(env, out_height=height), 45.0)
        interior = slice(4, height - 4)
        rel = np.abs(a.data[interior] - b.data[interior]) / b.data[interior]
        assert rel.max() < 0.01

    def test_linearity(self, rng):
        e1 = EnvironmentMap(rng.random((16, 32, 3)))
        e2 = EnvironmentMap(rng.random((16, 32, 3)))
        combo = EnvironmentMap(2.0 * e1.data + 3.0 * e2.data)
        lhs = prefilter_diffuse(combo, 16).data
        rhs = 2.0 * prefilter_diffuse(e1, 16).data + 3.0 * prefilter_diffuse(e2, 16).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5)


class TestPrefilterGlossy:
    def test_constant_env_passthrough(self):
        env = EnvironmentMap.constant((1.5, 2.5, 0.5), height=32)
        out = prefilter_glossy(env, exponent=64, out_height=32)
        np.testing.assert_allclose(
            out.data, np.broadcast_to([1.5, 2.5, 0.5], out.data.shape), rtol=1e-12
        )

    def test_high_exponent_approaches_mirror_lookup(self):
        height, width = 32, 64
        data = np.full((height, width, 3), 0.1)
        row, col = 16, 40
        data[row, col] = 30.0
        env = EnvironmentMap(data)
        out = prefilter_glossy(env, exponent=4096, out_height=height)
        d = np.asarray(pixel_to_direction(col, row, width, height))
        sharp = sample_equirect(out.data, d)
        direct = sample_equirect(env.data, d)
        np.testing.assert_allclose(sharp, direct, rtol=0.25)

    def test_bounded_by_input_range(self, rng):
        env = EnvironmentMap(rng.random((16, 32, 3)) * 9 + 1)
        out = prefilter_glossy(env, exponent=8, out_height=16)
        assert out.data.min() >= env.data.min() - 1e-9
        assert out.data.max() <= env.data.max() + 1e-9

    def test_linearity_given_fixed_weights(self, rng):
        e1 = EnvironmentMap(rng.random((16, 32, 3)))
        e2 = EnvironmentMap(rng.random((16, 32, 3)))
        combo = EnvironmentMap(0.5 * e1.data + 2.0 * e2.data)
        lhs = prefilter_glossy(combo, 32, 16).data
        rhs = 0.5 * prefilter_glossy(e1, 32, 16).data + 2.0 * prefilter_glossy(e2, 32, 16).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5)

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            prefilter_glossy(EnvironmentMap.constant(1.0, 8), exponent=-1, out_height=8)


class TestRenderProbe:
    def test_constant_env_mirror_exact(self):
        env = EnvironmentMap.constant((0.25, 0.5, 0.75), height=16)
        probe = render_probe(env, MIRROR_BALL, size=32)
        assert (probe.pixels[probe.mask] == [0.25, 0.5, 0.75]).all()
        assert (probe.pixels[~probe.mask] == 0.0).all()

    def test_constant_env_diffuse_energy(self):
        env = EnvironmentMap.constant(2.0, height=64)
        probe = render_probe(env, GRAY_DIFFUSE, size=32)
        np.testing.assert_allclose(probe.pixels[probe.mask], 0.5 * 2.0, rtol=5e-3)

    def test_constant_env_glossy_exact(self):
        env = EnvironmentMap.constant(3.0, height=32)
        probe = render_probe(env, MATTE_SILVER, size=32)
        np.testing.assert_allclose(probe.pixels[probe.mask], 0.9 * 3.0, rtol=1e-12)

    def test_center_pixel_reflects_backward(self):
        # paint the hemisphere around +z (behind the camera) a distinctive color
        height, width = 64, 128
        dirs = grid_directions(width, height)
        data = np.where(dirs[..., 2:3] > 0.5, 7.0, 1.0) * np.ones(3)
        env = EnvironmentMap(data)
        probe = render_probe(env, MIRROR_BALL, size=64)
        center = probe.pixels[31:33, 31:33]
        np.testing.assert_allclose(center, 7.0, rtol=1e-6)

    def test_mirror_equivariant_under_rotation(self):
        # rendering a rotated env equals looking the original up along
        # azimuth-rotated reflection vectors
        height = 64
        rows = np.arange(height)[:, None, None]
        cols = np.arange(2 * height)[None, :, None]
        chans = np.arange(3)[None, None, :]
        env = EnvironmentMap(
            1.0 + 0.5 * np.sin(2 * np.pi * cols / (2 * height) + chans)
            * np.sin(np.pi * (rows + 0.5) / height)
        )
        delta = 37.0
        probe = render_probe(rotate_env(env, delta), MIRROR_BALL, size=48)
        coords = (2.0 * (np.arange(48) + 0.5) / 48.0) - 1.0
        u, v = np.meshgrid(coords, -coords)
        n = np.stack([u, v, np.sqrt(np.clip(1 - u * u - v * v, 0, 1))], axis=-1)
        refl = 2.0 * n[..., 2:3] * n - np.array([0.0, 0.0, 1.0])
        rad = np.deg2rad(delta)
        yaw = np.array([
            [np.cos(rad), 0.0, -np.sin(rad)],
            [0.0, 1.0, 0.0],
            [np.sin(rad), 0.0, np.cos(rad)],
        ])
        remapped = sample_equirect(env.data, refl @ yaw.T)
        mask = probe.mask
        rel = np.abs(probe.pixels[mask] - remapped[mask]) / remapped[mask]
        assert np.median(rel) < 0.01

    def test_mask_is_inscribed_disc(self):
        probe = render_probe(EnvironmentMap.constant(1.0, 8), MIRROR_BALL, size=64)
        coords = (2.0 * (np.arange(64) + 0.5) / 64.0) - 1.0
        u, v = np.meshgrid(coords, -coords)
        assert (probe.mask == (u * u + v * v <= 1.0)).all()

    def test_size_validated(self):
        with pytest.raises(ValueError, match="at least 16"):
            render_probe(EnvironmentMap.constant(1.0, 8), MIRROR_BALL, size=8)


class TestFloat32Maps:
    @given(height=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), size=st.integers(16, 24))
    @settings(max_examples=60, deadline=None)
    def test_probes_are_those_of_the_float64_cast(self, height, seed, size):
        # the radiance spectrum is taken of float64 row blocks and the mirror
        # lookup casts its texels, so a float32 map gives its float64 cast's bits
        data = np.random.default_rng(seed).gamma(1.0, 2.0, (height, 2 * height, 3))
        env = EnvironmentMap(data.astype(np.float32))
        wide = EnvironmentMap(env.data.astype(np.float64))
        materials = STANDARD_MATERIALS.values()
        for (mask, (got,)), (want_mask, (want,)) in zip(
                render_probe_pixels([env], materials, size),
                render_probe_pixels([wide], materials, size)):
            assert (mask == want_mask).all()
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_radiance_spectra_in_row_blocks_are_the_whole_map_ones(self, monkeypatch):
        # 200x400: three row blocks (81, 81 and 38 rows); one whole-map block is the oracle
        data = np.random.default_rng(5).gamma(1.0, 2.0, (200, 400, 3)).astype(np.float32)
        blocked = _weighted_sums([data], 16, [1, 64])
        monkeypatch.setattr(probes, "row_blocks", lambda rows, row_pixels: [slice(0, rows)])
        whole = _weighted_sums([data], 16, [1, 64])
        for ((num,), den), ((want_num,), want_den) in zip(blocked, whole):
            assert num.tobytes() == want_num.tobytes() and den.tobytes() == want_den.tobytes()
