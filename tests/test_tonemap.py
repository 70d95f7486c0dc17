import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from luxprobe.envmap import EnvironmentMap
from luxprobe.tonemap import (
    _HABLE_EXPOSURE,
    _HABLE_WHITE,
    _SATURATED,
    _hable,
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
        # x * x would overflow past ~1e154 (and inf/inf give NaN where the curve's
        # limit, 1, belongs); the input is clamped to +-_SATURATED first, where the
        # curve is already 1 on either side
        big = np.finfo(np.float64).max
        xs = np.array([1e154, 1e200, 1e308, big, -1e300, -big, np.inf, -np.inf])
        with np.errstate(all="raise"):
            assert (TONE_CURVES[name](xs) == 1.0).all()
            for v in (1e300, -1e300, np.inf, -np.inf):
                assert TONE_CURVES[name](np.float64(v)) == 1.0
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
    """The tonemap channels and quantize8 against their pinned one-line expressions."""

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

    @pytest.mark.parametrize("fn", [tonemap_ldr, tonemap_log, *TONE_CURVES.values()],
                             ids=["ldr", "log", *TONE_CURVES])
    def test_0d_has_the_bits_of_a_one_element_array(self, fn):
        # numpy's scalar pow and its array loop differ in the last bit for about
        # 6% of uniform draws on [0, 1), so a 0-d value must take the array loop
        draws = np.random.default_rng(25).uniform(0.0, [[1.0], [20.0]], (2, 50000)).ravel()
        got = np.array([fn(np.float64(v)) for v in draws])
        want = np.array([fn(np.array([v]))[0] for v in draws])
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert not differ.any(), (differ.sum(), draws[differ][:5])

    @pytest.mark.parametrize("fn", [tonemap_ldr, tonemap_log, quantize8, *TONE_CURVES.values()])
    def test_input_is_not_written(self, rng, fn):
        x = rng.random((8, 16, 3))
        before = x.copy()
        fn(x)
        assert x.tobytes() == before.tobytes()


# The display curves as they were written before their input was clamped (oracles):
# x * x overflowed past ~1e154, and `_at_limit` put the limit 1 back in place of
# the inf/inf NaNs. Their power is `np.power`, the array loop, which a 0-d value
# takes too; `**` on a 0-d value is numpy's scalar pow, which can differ by an ulp.
def gamma24_srgb_oracle(x):
    """Pure gamma companding: clip to [0,1], then power 1/2.4."""
    return np.power(np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0), 1.0 / 2.4)


def _at_limit(x, y):
    """`y`, with the limit 1 of a rational curve where its x * x overflowed.

    Past x ~ 1e154 both quadratics overflow to inf and inf/inf is NaN; the
    ACES and Hable curves tend to values above 1 there, which clip to 1.
    """
    overflowed = np.isnan(y)
    if overflowed.any():
        y = np.where(overflowed & ~np.isnan(x), 1.0, y)
    return y


def aces_approx_oracle(x):
    """Rational ACES filmic fit (Narkowicz 2015), gamma-encoded.

    a=2.51, b=0.03, c=2.43, d=0.59, e=0.14.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        y = (x * (2.51 * x + 0.03)) / (x * (2.43 * x + 0.59) + 0.14)
    return np.power(np.clip(_at_limit(x, y), 0.0, 1.0), 1.0 / 2.4)


def filmic_approx_oracle(x):
    """Hable/Uncharted-2 filmic curve, white-normalized and gamma-encoded."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _hable(_HABLE_EXPOSURE * x) / _hable(_HABLE_WHITE)
    return np.power(np.clip(_at_limit(x, y), 0.0, 1.0), 1.0 / 2.4)


def _around(centre, n):
    """The 2n + 1 floats nearest `centre` (of one sign), from adjacent bit patterns."""
    return (np.float64(centre).view(np.int64) + np.arange(-n, n + 1)).view(np.float64)


# where each curve reaches 1: 0.08 x^2 - 0.56 x - 0.14 = 0 for ACES, 2x = white for filmic
_ACES_ONE = (0.56 + np.sqrt(0.56 ** 2 + 4 * 0.08 * 0.14)) / 0.16
_FILMIC_ONE = _HABLE_WHITE / _HABLE_EXPOSURE


def _curve_inputs():
    """About 1.3M float64 inputs: every binade of both signs, +-0, +-inf and NaN,
    dense bands around +-_SATURATED and each curve's saturation point, and
    uniform draws over the curves' knee and around the clamp."""
    rng = np.random.default_rng(24)
    exps = np.arange(-1074, 1024)
    binades = np.ldexp(rng.uniform(1.0, 2.0, (exps.size, 200)), exps[:, None]).ravel()
    binades = np.concatenate([binades, np.ldexp(1.0, exps), [np.finfo(np.float64).max]])
    bands = [_around(c, 20000) for c in (_SATURATED, _ACES_ONE, _FILMIC_ONE)]
    positive = np.concatenate([binades, *bands, rng.uniform(0.0, 20.0, 100000),
                               rng.uniform(0.5e6, 2e6, 100000)])
    return np.concatenate([positive, -positive, [0.0, -0.0, np.inf, -np.inf, np.nan]])


class TestDisplayCurveParity:
    """The clamped curves and the gamma encoder against the curves as they were
    written before (oracles), bit for bit."""

    CASES = [("gamma24", gamma24_srgb_oracle), ("aces", aces_approx_oracle),
             ("filmic", filmic_approx_oracle)]

    @pytest.fixture(scope="class")
    def inputs(self):
        return _curve_inputs()

    @pytest.mark.parametrize("name, oracle", CASES, ids=[c[0] for c in CASES])
    def test_bit_identical_over_every_binade(self, inputs, name, oracle):
        assert inputs.size >= 1_000_000
        got, want = TONE_CURVES[name](inputs), oracle(inputs)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert not differ.any(), (inputs[differ][:5], got[differ][:5], want[differ][:5])

    @pytest.mark.parametrize("name, oracle", CASES, ids=[c[0] for c in CASES])
    def test_images_c_order_and_channel_planar(self, inputs, name, oracle):
        img = np.random.default_rng(7).choice(inputs, 200 * 400 * 3).reshape(200, 400, 3)
        planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(img, -1, 0)), 0, -1)
        assert planar.strides[-1] == 200 * 400 * 8
        for x in (img, planar):
            assert_same_result(TONE_CURVES[name](x), oracle(x))

    @pytest.mark.parametrize("name, oracle", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("value", [0.0, 0.5, 1, 7.5, 1e300, -1e300, np.inf, np.nan,
                                       np.float64(0.25), np.float32(0.75), np.asarray(1e7),
                                       np.asarray(0.0, dtype=np.float32), [0.125], [[1.0, 0.0]]])
    def test_scalars_and_0d_keep_their_return_type(self, name, oracle, value):
        assert_same_result(TONE_CURVES[name](value), oracle(value))
