import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxprobe.envmap import EnvironmentMap, angle_between, rotate_env, vector_norms
from luxprobe.metrics import (
    MetricReport,
    _pair,
    angular_error,
    evaluate_three_spheres,
    n_rmse,
    peak_angular_error,
    sequence_report,
    si_rmse,
    temporal_stats,
)
from luxprobe.probes import PROBE_BLOCK_PIXELS, STANDARD_MATERIALS, _disc_mask, render_probe
from conftest import allocation_peak, evaluate_sequence, hot_spot_env


def img(*pixels):
    """Single-row RGB image from per-pixel triples."""
    return np.array([list(pixels)], dtype=np.float64)


class TestSiRmse:
    def test_identity_is_zero(self, rng):
        x = rng.random((8, 8, 3))
        assert si_rmse(x, x) == 0.0

    def test_scale_absorbed(self, rng):
        x = rng.random((8, 8, 3)) + 0.1
        assert si_rmse(2.0 * x, x) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance_exact(self, rng):
        pred = rng.random((8, 8, 3))
        gt = rng.random((8, 8, 3))
        base = si_rmse(pred, gt)
        for s in (0.01, 3.0, 1e4):
            assert si_rmse(s * pred, gt) == pytest.approx(base, abs=1e-6)

    def test_two_pixel_hand_value(self):
        pred = np.array([[[1.0], [0.0]]])
        gt = np.array([[[0.0], [1.0]]])
        assert si_rmse(pred, gt) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_degenerate_prediction(self):
        with pytest.raises(ValueError, match="degenerate"):
            si_rmse(np.zeros((4, 4, 3)), np.ones((4, 4, 3)))


class TestAngularError:
    def test_identity(self, rng):
        x = rng.random((4, 4, 3)) + 0.1
        assert angular_error(x, x) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_channels(self):
        red = np.zeros((2, 2, 3))
        red[..., 0] = 1.0
        green = np.zeros((2, 2, 3))
        green[..., 1] = 1.0
        assert angular_error(red, green) == pytest.approx(90.0, abs=1e-9)

    def test_45_degree_case(self):
        a = img([1.0, 1.0, 0.0])
        b = img([1.0, 0.0, 0.0])
        assert angular_error(a, b) == pytest.approx(45.0, abs=1e-6)

    def test_scale_invariant_per_image(self, rng):
        a = rng.random((4, 4, 3)) + 0.1
        b = rng.random((4, 4, 3)) + 0.1
        assert angular_error(3 * a, 0.2 * b) == pytest.approx(
            angular_error(a, b), abs=1e-9
        )
        # no absolute norm floor: only a squared norm that underflows excludes a pixel
        for scale in (2.0 ** -40, 1e-100):
            assert angular_error(scale * a, b) == pytest.approx(angular_error(a, b), abs=1e-9)
            assert angular_error(a, scale * b) == pytest.approx(angular_error(a, b), abs=1e-9)

    def test_symmetric(self, rng):
        a = rng.random((4, 4, 3)) + 0.1
        b = rng.random((4, 4, 3)) + 0.1
        assert angular_error(a, b) == pytest.approx(angular_error(b, a), abs=1e-12)

    def test_zero_pixels_excluded(self):
        a = img([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        b = img([1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
        assert angular_error(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError, match="nonzero"):
            angular_error(np.zeros((2, 2, 3)), np.ones((2, 2, 3)))


def angular_error_by_linalg_norm(pred, gt):
    """angular_error with `np.linalg.norm` and the `[ok]` selection always
    taken, as it was written before the row norms (oracle); a pixel counts
    when its squared norm is at least the smallest normal float in both images."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    g = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    pn = np.linalg.norm(p, axis=1)
    gn = np.linalg.norm(g, axis=1)
    tiny = np.finfo(np.float64).tiny
    ok = (pn * pn >= tiny) & (gn * gn >= tiny)
    if not ok.any():
        raise ValueError("no pixels with nonzero color in both images")
    u = p[ok] / pn[ok, None]
    v = g[ok] / gn[ok, None]
    angles = 2.0 * np.arctan2(
        np.linalg.norm(u - v, axis=1), np.linalg.norm(u + v, axis=1)
    )
    return float(np.degrees(angles).mean())


_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, 5e-9, 1e-154, 1.5e-154, 1e-300]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def pixel_pairs(draw):
    """(n, 3) pred and gt whose rows are independent, identical, opposite,
    scaled or zero in either image."""
    n = draw(st.integers(1, 12))
    pred = np.array(draw(st.lists(st.tuples(_component, _component, _component),
                                  min_size=n, max_size=n)), dtype=np.float64)
    gt = np.empty_like(pred)
    for i in range(n):
        kind = draw(st.sampled_from(["free", "same", "opposite", "scaled", "zero", "pred zero"]))
        if kind == "free":
            gt[i] = draw(st.tuples(_component, _component, _component))
        elif kind == "same":
            gt[i] = pred[i]
        elif kind == "opposite":
            gt[i] = -pred[i]
        elif kind == "scaled":
            gt[i] = pred[i] * draw(st.floats(1e-3, 1e3))
        elif kind == "zero":
            gt[i] = 0.0
        else:
            gt[i] = pred[i]
            pred[i] = 0.0
    return pred, gt


class TestAngularErrorParity:
    @settings(max_examples=300, deadline=None)
    @given(pixel_pairs())
    def test_equals_linalg_norm_form(self, pair):
        pred, gt = pair
        try:
            expected = angular_error_by_linalg_norm(pred, gt)
        except ValueError:
            with pytest.raises(ValueError, match="no pixels"):
                angular_error(pred, gt)
            return
        assert angular_error(pred, gt) == expected

    def test_equals_linalg_norm_form_on_a_probe(self):
        # every disc pixel qualifies, so no `[ok]` selection is taken
        env = hot_spot_env(height=32)
        probe = render_probe(env, STANDARD_MATERIALS["matte"], 48)
        other = render_probe(rotate_env(env, 40.0), STANDARD_MATERIALS["matte"], 48)
        pred, gt = probe.pixels[probe.mask], other.pixels[probe.mask]
        assert angular_error(pred, gt) == angular_error_by_linalg_norm(pred, gt)


class TestNRmse:
    def test_identity(self, rng):
        x = rng.random((4, 4, 3)) + 0.1
        assert n_rmse(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_global_scale_removed(self, rng):
        x = rng.random((4, 4, 3)) + 0.1
        for s in (0.5, 7.0):
            assert n_rmse(s * x, x) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        pred = np.array([[[2.0], [0.0]]])
        gt = np.array([[[1.0], [1.0]]])
        assert n_rmse(pred, gt) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mean_raises(self):
        with pytest.raises(ValueError, match="positive mean"):
            n_rmse(np.zeros((2, 2, 3)), np.ones((2, 2, 3)))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty input"):
            n_rmse(np.ones((0, 3)), np.ones((0, 3)))

    @pytest.mark.parametrize("metric", [si_rmse, angular_error, n_rmse])
    def test_shape_mismatch_raises(self, metric):
        with pytest.raises(ValueError, match="share dimensions"):
            metric(np.ones((4, 3)), np.ones((1, 4, 3)))


class TestPeakAngularError:
    def test_identity(self):
        env = hot_spot_env(height=32)
        assert peak_angular_error(env, env) == pytest.approx(0.0, abs=1e-9)

    def test_rotation_90(self):
        gt = hot_spot_env(height=32, row=16, col=32, base=0.0)
        pred = rotate_env(gt, 90.0)
        step = np.degrees(2 * np.pi / 64)
        assert peak_angular_error(pred, gt) == pytest.approx(90.0, abs=step)

    def test_antipodal(self):
        height, width = 32, 64
        a = np.zeros((height, width, 3))
        b = np.zeros((height, width, 3))
        a[16, 16] = 10.0
        b[15, 48] = 10.0  # antipode of (16, 16) straddles the equator row pair
        step = np.degrees(2 * np.pi / width)
        assert peak_angular_error(
            EnvironmentMap(a), EnvironmentMap(b)
        ) == pytest.approx(180.0, abs=step)

    def test_propagates_no_peak(self):
        dark = EnvironmentMap(np.zeros((8, 16, 3)))
        with pytest.raises(ValueError, match="no peak"):
            peak_angular_error(dark, hot_spot_env(8))


class TestTemporalStats:
    def test_constant_sequence(self):
        assert temporal_stats([4.2] * 10) == {"mean": 4.2, "std": 0.0}

    def test_two_values_population(self):
        out = temporal_stats([1.0, 3.0])
        assert out["mean"] == 2.0
        assert out["std"] == 1.0

    def test_single_frame(self):
        assert temporal_stats([5.0])["std"] == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            vals = rng.random(rng.integers(1, 40))
            out = temporal_stats(vals)
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / len(vals)
            assert out["mean"] == pytest.approx(mean, abs=1e-9)
            assert out["std"] == pytest.approx(np.sqrt(var), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            temporal_stats([])


class TestThreeSpheres:
    def test_perfect_prediction_all_zero(self):
        env = hot_spot_env(height=32, value=50.0, base=0.2)
        report = evaluate_three_spheres(env, env, probe_size=32)
        for mat in ("diffuse", "matte", "mirror"):
            for metric in ("si_rmse", "angular_deg", "n_rmse"):
                assert report.materials[mat][metric] == pytest.approx(0.0, abs=1e-6)
        assert report.pae_deg == pytest.approx(0.0, abs=1e-9)

    def test_global_scale_invariances(self):
        gt = hot_spot_env(height=32, value=50.0, base=0.2)
        pred = EnvironmentMap(3.0 * gt.data)
        report = evaluate_three_spheres(pred, gt, probe_size=32)
        for mat in ("diffuse", "matte", "mirror"):
            assert report.materials[mat]["si_rmse"] == pytest.approx(0.0, abs=1e-9)
            assert report.materials[mat]["n_rmse"] == pytest.approx(0.0, abs=1e-9)
            assert report.materials[mat]["angular_deg"] == pytest.approx(0.0, abs=1e-6)
        assert report.pae_deg == pytest.approx(0.0, abs=1e-9)

    def test_rotation_shows_in_pae_and_ordering(self):
        gt = hot_spot_env(height=32, row=16, col=32, value=100.0, base=0.05)
        pred = rotate_env(gt, 30.0)
        report = evaluate_three_spheres(pred, gt, probe_size=32)
        step = np.degrees(2 * np.pi / 64)
        assert report.pae_deg == pytest.approx(30.0, abs=max(step, 0.5))
        # the diffuse prefilter low-passes the rotation
        assert report.materials["mirror"]["si_rmse"] > report.materials["diffuse"]["si_rmse"]

    def test_report_dict_schema(self):
        env = hot_spot_env(height=16)
        d = evaluate_three_spheres(env, env, probe_size=32).to_dict()
        assert set(d["materials"]) == {"diffuse", "matte", "mirror"}
        assert set(d["materials"]["mirror"]) == {"si_rmse", "angular_deg", "n_rmse"}
        assert "pae_deg" in d


class TestEvaluateSequence:
    def test_constant_sequence_zero_std(self):
        env = hot_spot_env(height=16)
        report = evaluate_sequence([env, env, env], [env, env, env], probe_size=32)
        assert report.temporal["mirror.si_rmse"] == {"mean": 0.0, "std": 0.0}
        assert report.temporal["pae_deg"]["std"] == 0.0

    def test_varying_sequence_has_spread(self):
        gt = hot_spot_env(height=16, row=8, col=16, value=50.0, base=0.1)
        preds = [rotate_env(gt, yaw) for yaw in (0.0, 11.25, 22.5)]
        report = evaluate_sequence(preds, [gt] * 3, probe_size=32)
        assert report.temporal["pae_deg"]["std"] > 0.0
        assert report.pae_deg == report.temporal["pae_deg"]["mean"]

    def test_no_frames_raises(self):
        with pytest.raises(ValueError, match="empty sequence"):
            sequence_report([])


def evaluate_per_map(pred_env, gt_env, probe_size):
    """The three-sphere driver that renders each map's probes on their own
    and scores the disc pixels of the probe images (oracle)."""
    materials = {}
    for name, material in STANDARD_MATERIALS.items():
        pred_probe = render_probe(pred_env, material, probe_size)
        gt_probe = render_probe(gt_env, material, probe_size)
        pred, gt = pred_probe.pixels[gt_probe.mask], gt_probe.pixels[gt_probe.mask]
        materials[name] = {
            "si_rmse": si_rmse(pred, gt),
            "angular_deg": angular_error(pred, gt),
            "n_rmse": n_rmse(pred, gt),
        }
    return MetricReport(materials=materials, pae_deg=peak_angular_error(pred_env, gt_env))


class TestThreeSpheresParity:
    """evaluate_three_spheres, which renders both maps in one call, against
    the per-map driver: the same report, bit for bit."""

    @pytest.mark.parametrize("probe_size", [32, 57])
    @pytest.mark.parametrize(
        "pred_height, gt_height",
        [(64, 64), (96, 96), (72, 72), (32, 64)],  # 96 and 72: several phase classes
    )
    def test_report_equals_per_map_driver(self, rng, pred_height, gt_height, probe_size):
        def env(height):
            data = rng.random((height, 2 * height, 3)) ** 3 + 0.01
            data[rng.integers(height), rng.integers(2 * height)] = 300.0
            return EnvironmentMap(data)

        pred, gt = env(pred_height), env(gt_height)
        fast = evaluate_three_spheres(pred, gt, probe_size=probe_size).to_dict()
        assert fast == evaluate_per_map(pred, gt, probe_size).to_dict()

    def test_memory_of_one_pass_stays_at_one_probe(self, rng):
        # the three probes come from one pass, but each material's pixels are
        # scored before the next are rendered, and rendered per block of probe
        # rows. In units of its own disc, so the bound holds at any probe size:
        # measured 4.9 discs at probe size 256 and 3.1 at 1024, where whole-disc
        # lookups, or a probe's pixels held while the next one's are allocated,
        # peaked at 11.5 and 10.8
        def env():
            data = rng.random((64, 128, 3)) ** 3 + 0.01
            data[rng.integers(64), rng.integers(128)] = 300.0
            return EnvironmentMap(data)

        pred, gt = env(), env()
        for probe_size in (256, 1024):
            evaluate_three_spheres(pred, gt, probe_size=probe_size)  # lazy set-up outside
            with allocation_peak() as probe:
                evaluate_three_spheres(pred, gt, probe_size=probe_size)
            disc = _disc_mask(probe_size)[1].sum() * 3 * 8  # one map's (n, 3) float64 pixels
            assert probe.bytes <= 5.2 * disc, (probe_size, probe.bytes / disc)


def si_rmse_whole(pred, gt) -> float:
    """`si_rmse` as it was before it reused one temporary (oracle)."""
    p, g = _pair(pred, gt)
    denom = float((p * p).sum())
    if denom == 0.0:
        raise ValueError("degenerate prediction: all-zero")
    alpha = float((p * g).sum()) / denom
    return float(np.sqrt(np.mean((alpha * p - g) ** 2)))


def angular_error_whole(pred, gt) -> float:
    """`angular_error` as it was before it went per block of pixels (oracle)."""
    p, g = _pair(pred, gt)
    pn = vector_norms(p)
    gn = vector_norms(g)
    tiny = np.finfo(np.float64).tiny
    ok = (pn * pn >= tiny) & (gn * gn >= tiny)
    if not ok.all():
        if not ok.any():
            raise ValueError("no pixels with nonzero color in both images")
        p, pn, g, gn = p[ok], pn[ok], g[ok], gn[ok]
    angles = angle_between(p / pn[..., None], g / gn[..., None])
    return float(np.degrees(angles).mean())


def n_rmse_whole(pred, gt) -> float:
    """`n_rmse` as it was before it went per block of pixels (oracle)."""
    p, g = _pair(pred, gt)
    pm, gm = p.mean(), g.mean()
    if pm <= 0.0 or gm <= 0.0:
        raise ValueError("images must have positive mean")
    return float(np.sqrt(np.mean((p / pm - g / gm) ** 2)))


class TestBlockedMetricsParity:
    """Each probe metric against its whole-array form, bit for bit."""

    @pytest.mark.parametrize("case", ["one-block", "past-a-block", "dropped-at-the-boundary",
                                      "first-block-dropped", "image"])
    def test_metrics_are_the_whole_array_ones(self, case):
        rng = np.random.default_rng(len(case))
        n = {"one-block": 1000, "image": 97 * 130}.get(case, 2 * PROBE_BLOCK_PIXELS + 7)
        pred, gt = rng.gamma(1.0, 2.0, (2, n, 3))
        if case == "dropped-at-the-boundary":  # zero, and a squared norm below the normal floats
            pred[PROBE_BLOCK_PIXELS - 2 : PROBE_BLOCK_PIXELS + 3 : 2] = 0.0
            gt[PROBE_BLOCK_PIXELS - 1 : PROBE_BLOCK_PIXELS + 2 : 2] = 1e-160
        elif case == "first-block-dropped":
            gt[:PROBE_BLOCK_PIXELS] = 0.0
        elif case == "image":  # (H, W, 3), more than one block
            pred, gt = pred.reshape(97, 130, 3), gt.reshape(97, 130, 3)
        for metric, whole in ((si_rmse, si_rmse_whole), (angular_error, angular_error_whole),
                              (n_rmse, n_rmse_whole)):
            assert metric(pred, gt) == whole(pred, gt), metric.__name__
