import numpy as np
import pytest

from luxprobe.envmap import EnvironmentMap, rotate_env
from luxprobe.metrics import (
    angular_error,
    evaluate_sequence,
    evaluate_three_spheres,
    n_rmse,
    peak_angular_error,
    si_rmse,
    temporal_stats,
)
from conftest import hot_spot_env


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

    def test_mask_restricts_support(self, rng):
        pred = rng.random((4, 4, 3))
        gt = pred.copy()
        gt[0, 0] = 99.0  # excluded by the mask
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        assert si_rmse(pred, gt, mask) == pytest.approx(0.0, abs=1e-12)


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

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError, match="empty mask"):
            n_rmse(np.ones((2, 2, 3)), np.ones((2, 2, 3)), np.zeros((2, 2), dtype=bool))


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

    def test_length_mismatch(self):
        env = hot_spot_env(height=16)
        with pytest.raises(ValueError, match="equal length"):
            evaluate_sequence([env], [env, env])
