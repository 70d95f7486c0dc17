import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from luxprobe.envmap import EnvironmentMap
from luxprobe.tonemap import (
    DualToneMaps,
    M_LDR,
    M_LOG,
    TONE_CURVES,
    apply_display_tonemap,
    auto_expose,
    inverse_rule,
    invert_dual,
    percentile_nearest_rank,
    quantize8,
    tonemap_dual,
    tonemap_ldr,
    tonemap_log,
)


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
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        assert tonemap_log(lo) < tonemap_log(hi)
        if hi <= M_LDR:  # the ldr channel saturates at M_LDR
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
        rec = invert_dual(tonemap_dual(env))
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

    def test_apply_rejects_negative(self):
        with pytest.raises(ValueError, match="finite"):
            apply_display_tonemap(np.full((2, 2, 3), -1.0), "gamma24")


class TestAutoExpose:
    def test_constant_image(self):
        img = np.full((4, 4, 3), 2.0)
        scale, scaled = auto_expose(img, percentile=0.99, target=0.9)
        assert scale == pytest.approx(0.45, abs=1e-12)
        assert scaled[0, 0, 0] == pytest.approx(0.9, abs=1e-12)

    def test_fixed_point(self):
        img = np.full((4, 4, 3), 0.9)
        scale, _ = auto_expose(img, percentile=0.99, target=0.9)
        assert scale == pytest.approx(1.0, abs=1e-12)

    def test_nearest_rank_median(self):
        # gray values 1..100: the 50th percentile by nearest rank is 50
        vals = np.arange(1.0, 101.0)
        img = np.stack([vals, vals, vals], axis=-1).reshape(10, 10, 3)
        scale, _ = auto_expose(img, percentile=0.5, target=0.5)
        assert scale == pytest.approx(0.5 / 50.0, abs=1e-15)

    def test_degenerate_raises(self):
        img = np.zeros((4, 4, 3))
        img[3, 3] = 5.0
        with pytest.raises(ValueError, match="degenerate exposure"):
            auto_expose(img, percentile=0.5, target=0.9)

    def test_remeasure_hits_target(self, rng):
        from luxprobe.envmap import luminance

        img = rng.random((16, 16, 3)) * 7 + 0.01
        scale, scaled = auto_expose(img, percentile=0.99, target=0.9)
        assert percentile_nearest_rank(luminance(scaled), 0.99) == pytest.approx(
            0.9, abs=1e-6
        )


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
