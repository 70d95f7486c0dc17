import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from luxprobe.envmap import EnvironmentMap
from luxprobe.tonemap import (
    DualToneMaps,
    M_LDR,
    M_LOG,
    TONE_CURVES,
    apply_display_tonemap,
    auto_expose,
    inverse_rule,
    percentile_nearest_rank,
    quantize8,
    tonemap_dual,
    tonemap_ldr,
    tonemap_log,
)

from conftest import quantize8_expr, tonemap_ldr_expr, tonemap_log_expr


class TestDualForward:
    def test_zero(self):
        assert tonemap_ldr(0.0) == 0.0
        assert tonemap_log(0.0) == 0.0

    def test_saturation_points_exact(self):
        assert abs(tonemap_ldr(M_LDR) - 1.0) < 1e-12
        assert abs(tonemap_log(M_LOG) - 1.0) < 1e-12

    def test_unit_value(self):
        assert tonemap_ldr(1.0) == pytest.approx(0.501953125, abs=1e-12)
        # log(2) / log(1 + 10000)
        assert tonemap_log(1.0) == pytest.approx(np.log(2.0) / np.log(10001.0), abs=1e-12)

    def test_clipping_above_saturation(self):
        assert tonemap_ldr(50.0) == 1.0
        assert tonemap_log(20000.0) == 1.0

    @given(st.floats(0.0, M_LOG), st.floats(0.0, M_LOG))
    @settings(max_examples=300, deadline=None)
    def test_strictly_monotone(self, a, b):
        # non-decreasing everywhere; strictly increasing wherever float64
        # outputs resolve the gap: a relative gap above 1e-9, with hi in the
        # normal range (a=0, b=5e-324 both give 0.0 since the output underflows)
        lo, hi = min(a, b), max(a, b)
        resolved = hi - lo > 1e-9 * hi and hi > 1e-300
        assert tonemap_log(lo) <= tonemap_log(hi)
        if resolved:
            assert tonemap_log(lo) < tonemap_log(hi)
        if hi <= M_LDR:  # the ldr channel saturates at M_LDR
            assert tonemap_ldr(lo) <= tonemap_ldr(hi)
            if resolved:
                assert tonemap_ldr(lo) < tonemap_ldr(hi)

    def test_dual_maps_from_env(self, rng):
        env = EnvironmentMap(rng.random((8, 16, 3)) * 100)
        maps = tonemap_dual(env)
        assert maps.ldr.shape == maps.log.shape == (8, 16, 3)
        assert maps.ldr.min() >= 0 and maps.ldr.max() <= 1
        assert maps.log.min() >= 0 and maps.log.max() <= 1

    def test_mismatched_channels_rejected(self):
        with pytest.raises(ValueError, match="share dimensions"):
            DualToneMaps(ldr=np.zeros((4, 8, 3)), log=np.zeros((4, 4, 3)))

    @pytest.mark.parametrize("channel", ["ldr", "log"])
    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.25])
    def test_out_of_range_or_nan_channel_rejected(self, channel, bad):
        pair = {"ldr": np.full((4, 8, 3), 0.5), "log": np.full((4, 8, 3), 0.5)}
        pair[channel][1, 2, 0] = bad
        with pytest.raises(ValueError, match=f"{channel} channel"):
            DualToneMaps(**pair)


class TestInverseRule:
    def test_zero(self):
        assert inverse_rule(0.0, 0.0) == 0.0

    def test_round_trip_reinhard_region(self):
        rec = inverse_rule(tonemap_ldr(4.0), tonemap_log(4.0))
        assert rec == pytest.approx(4.0, rel=1e-6)

    def test_round_trip_log_region(self):
        rec = inverse_rule(tonemap_ldr(100.0), tonemap_log(100.0))
        assert rec == pytest.approx(100.0, rel=1e-6)

    def test_identity_over_full_range(self):
        e = np.logspace(-3, np.log10(M_LOG), 20001)
        rec = inverse_rule(tonemap_ldr(e), tonemap_log(e))
        assert (np.abs(rec - e) / e).max() < 1e-5

    def test_inconsistent_pair_takes_reinhard_branch(self):
        # ldr=1 with log=0: the log estimate is 0, so the blend weight selects
        # the Reinhard inverse, which saturates at M_LDR
        assert inverse_rule(1.0, 0.0) == pytest.approx(M_LDR, rel=1e-12)

    def test_quantized_median_error(self):
        e = np.logspace(np.log10(0.05), np.log10(5000.0), 10000)
        rec = inverse_rule(quantize8(tonemap_ldr(e)), quantize8(tonemap_log(e)))
        median = np.median(np.abs(rec - e) / e)
        assert median < 0.02

    def test_invert_dual_wrapper(self, rng):
        env = EnvironmentMap(rng.random((8, 16, 3)) * 50)
        maps = tonemap_dual(env)
        rec = EnvironmentMap(inverse_rule(maps.ldr, maps.log))
        np.testing.assert_allclose(rec.data, env.data, rtol=1e-5)


class TestDisplayCurves:
    def test_gamma_fixed_points(self):
        g = TONE_CURVES["gamma24"]
        assert g(np.float64(1.0)) == 1.0
        assert g(np.float64(0.5)) == pytest.approx(0.5 ** (1 / 2.4), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(TONE_CURVES))
    def test_zero_maps_to_zero(self, name):
        assert TONE_CURVES[name](np.float64(0.0)) == 0.0

    @pytest.mark.parametrize("name", sorted(TONE_CURVES))
    def test_monotone_on_thousand_points(self, name, rng):
        xs = np.sort(np.concatenate([
            [0.0], np.logspace(-6, 4, 600), rng.uniform(0, 10000, 400)
        ]))
        ys = TONE_CURVES[name](xs)
        assert (np.diff(ys) >= -1e-12).all()
        assert ys.min() >= 0.0 and ys.max() <= 1.0

    def test_apply_validates_curve_name(self):
        with pytest.raises(ValueError, match="unknown tone curve"):
            apply_display_tonemap(np.zeros((2, 2, 3)), "linear")

    @pytest.mark.parametrize("name", ["aces", "filmic"])
    def test_overflowing_input_gives_the_limit(self, name):
        # x * x overflows past ~1e154; inf/inf gave NaN where the curve's limit, 1, belongs
        xs = np.array([1e154, 1e200, 1e308, np.finfo(np.float64).max])
        with np.errstate(all="raise"):
            assert (TONE_CURVES[name](xs) == 1.0).all()
            assert TONE_CURVES[name](np.float64(1e300)) == 1.0
            assert (apply_display_tonemap(np.full((2, 2, 3), 1e300), name) == 1.0).all()
        assert np.isnan(TONE_CURVES[name](np.array([np.nan]))).all()

    def test_apply_rejects_negative(self):
        with pytest.raises(ValueError, match="finite"):
            apply_display_tonemap(np.full((2, 2, 3), -1.0), "gamma24")


class TestAutoExpose:
    def test_constant_image(self):
        img = np.full((4, 4, 3), 2.0)
        scale = auto_expose(img, percentile=0.99, target=0.9)
        assert scale == pytest.approx(0.45, abs=1e-12)
        assert img[0, 0, 0] * scale == pytest.approx(0.9, abs=1e-12)

    def test_fixed_point(self):
        img = np.full((4, 4, 3), 0.9)
        scale = auto_expose(img, percentile=0.99, target=0.9)
        assert scale == pytest.approx(1.0, abs=1e-12)

    def test_nearest_rank_median(self):
        # gray values 1..100: the 50th percentile by nearest rank is 50
        vals = np.arange(1.0, 101.0)
        img = np.stack([vals, vals, vals], axis=-1).reshape(10, 10, 3)
        scale = auto_expose(img, percentile=0.5, target=0.5)
        assert scale == pytest.approx(0.5 / 50.0, abs=1e-15)

    def test_degenerate_raises(self):
        img = np.zeros((4, 4, 3))
        img[3, 3] = 5.0
        with pytest.raises(ValueError, match="degenerate exposure"):
            auto_expose(img, percentile=0.5, target=0.9)

    def test_remeasure_hits_target(self, rng):
        from luxprobe.envmap import luminance

        img = rng.random((16, 16, 3)) * 7 + 0.01
        scale = auto_expose(img, percentile=0.99, target=0.9)
        assert percentile_nearest_rank(luminance(img * scale), 0.99) == pytest.approx(
            0.9, abs=1e-6
        )


    def test_nearest_rank_of_nothing_raises(self):
        with pytest.raises(ValueError, match="empty input"):
            percentile_nearest_rank([], 0.5)

    @pytest.mark.parametrize("fraction", [1.5, np.nan, -0.5, 0.0])
    def test_nearest_rank_fraction_outside_0_1_raises(self, fraction):
        # 1.5 raised IndexError, NaN failed to convert to an integer, -0.5
        # returned the minimum
        with pytest.raises(ValueError, match="fraction"):
            percentile_nearest_rank([1.0, 2.0, 3.0], fraction)

    def test_nearest_rank_is_the_sorted_value(self, rng):
        arrays = [rng.integers(0, 4, 101).astype(float),  # ties and zeros
                  np.zeros(7), np.r_[np.zeros(50), rng.random(49)], np.array([2.5]),
                  rng.random((12, 9))]
        for values in arrays:
            ordered = np.sort(values.ravel())
            for fraction in (1e-9, 0.01, 0.25, 0.5, 0.99, 0.999, 1.0):
                rank = int(np.ceil(fraction * ordered.size))
                assert percentile_nearest_rank(values, fraction) == ordered[rank - 1]


class TestQuantize8:
    def test_endpoints_fixed(self):
        assert quantize8(0.0) == 0.0
        assert quantize8(1.0) == 1.0

    def test_half_rounds_away_from_zero(self):
        assert quantize8(0.5) == pytest.approx(128.0 / 255.0, abs=1e-15)

    def test_idempotent_bit_exact(self, rng):
        x = rng.random((32, 32, 3))
        once = quantize8(x)
        assert (quantize8(once) == once).all()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantize8(np.array([1.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            quantize8(np.array([0.5, np.nan]))


def assert_same_result(got, want):
    """Same type, dtype, shape and bytes."""
    assert type(got) is type(want) and got.dtype == want.dtype
    assert np.shape(got) == np.shape(want) and got.tobytes() == want.tobytes()


class TestInPlaceParity:
    """The in-place tonemap channels and quantize8 against their one-line expressions."""

    CASES = [(tonemap_ldr, tonemap_ldr_expr), (tonemap_log, tonemap_log_expr)]

    @pytest.mark.parametrize("fn, oracle", CASES, ids=["ldr", "log"])
    @given(e=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                        elements=st.floats(allow_nan=True, allow_infinity=True)))
    @settings(max_examples=200, deadline=None)
    def test_channels_bit_identical(self, fn, oracle, e):
        with np.errstate(all="ignore"):
            assert_same_result(fn(e), oracle(e))
            assert_same_result(fn(e.T), oracle(e.T))

    @given(img=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                          elements=st.floats(0.0, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_quantize8_bit_identical(self, img):
        assert_same_result(quantize8(img), quantize8_expr(img))
        assert_same_result(quantize8(img.T), quantize8_expr(img.T))

    @pytest.mark.parametrize("fn, oracle", CASES + [(quantize8, quantize8_expr)],
                             ids=["ldr", "log", "quantize8"])
    @pytest.mark.parametrize("value", [0.0, 0.5, 1, np.float64(0.25), np.float32(0.75),
                                       np.asarray(1.0), np.asarray(0.0, dtype=np.float32),
                                       [0.125], [[1.0, 0.0]]])
    def test_scalars_and_0d_keep_their_return_type(self, fn, oracle, value):
        assert_same_result(fn(value), oracle(value))

    @pytest.mark.parametrize("fn", [tonemap_ldr, tonemap_log, quantize8])
    def test_input_is_not_written(self, rng, fn):
        x = rng.random((8, 16, 3))
        before = x.copy()
        fn(x)
        assert x.tobytes() == before.tobytes()
