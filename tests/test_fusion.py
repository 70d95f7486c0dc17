import numpy as np
import pytest

from luxprobe.envmap import EnvironmentMap
from luxprobe.fusion import (
    FusionNet,
    TrainConfig,
    _backward,
    _forward,
    fuse_image,
    fusion_forward,
    huber_loss,
    init_structured,
    init_uniform,
    load_fusion_net,
    sample_training_pairs,
    save_fusion_net,
    train_fusion,
)
from luxprobe.tonemap import inverse_rule, tonemap_dual


def zero_net():
    net = init_uniform(0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


class TestForward:
    def test_zero_net_outputs_softplus_zero(self):
        out = fusion_forward(zero_net(), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(out, np.log(2.0), atol=1e-12)

    def test_constant_net_ignores_input(self, rng):
        net = zero_net()
        net.biases[-1][:] = [1.0, -2.0, 3.0]
        a = fusion_forward(net, rng.random(3), rng.random(3))
        b = fusion_forward(net, rng.random(3), rng.random(3))
        np.testing.assert_array_equal(a, b)

    def test_strictly_positive(self, rng):
        net = init_uniform(7)
        ldr, log, _ = sample_training_pairs(rng, 512)
        out = fusion_forward(net, ldr, log)
        assert (out > 0).all()

    def test_batched_matches_single(self, rng):
        net = init_uniform(3)
        ldr, log, _ = sample_training_pairs(rng, 4)
        batch = fusion_forward(net, ldr, log)
        for i in range(4):
            np.testing.assert_allclose(
                fusion_forward(net, ldr[i], log[i]), batch[i], atol=1e-12
            )

    def test_rejects_out_of_range_inputs(self):
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="\\[0, 1\\]"):
                fusion_forward(init_uniform(0), np.full(3, bad), np.zeros(3))

    def test_rejects_nonfinite_params(self):
        net = init_uniform(0)
        net.weights[2][0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FusionNet(net.weights, net.biases)


class TestHuber:
    def test_zero_error(self):
        assert huber_loss(1.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        assert huber_loss(0.5, 0.0, delta=1.0) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert huber_loss(2.0, 0.0, delta=1.0) == pytest.approx(1.5)

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            huber_loss(1.0, 0.0, delta=0.0)


class TestSampler:
    def test_analytic_inverse_recovers_unquantized(self):
        rng = np.random.default_rng(5)
        ldr, log, hdr = sample_training_pairs(rng, 20000, quantize=False)
        rel = np.abs(inverse_rule(ldr, log) - hdr) / hdr
        assert rel.max() < 1e-4

    def test_deterministic_stream(self):
        a = sample_training_pairs(np.random.default_rng(9), 1000)
        b = sample_training_pairs(np.random.default_rng(9), 1000)
        for x, y in zip(a, b):
            assert (x == y).all()

    def test_inputs_in_unit_interval(self, rng):
        ldr, log, _ = sample_training_pairs(rng, 5000)
        for arr in (ldr, log):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_count_validated(self, rng):
        with pytest.raises(ValueError):
            sample_training_pairs(rng, 0)


class TestGradients:
    def test_backprop_matches_central_differences(self):
        # small targets keep the finite-difference noise floor far below the
        # gradients that matter; parameters whose analytic and numeric
        # gradients are both below 1e-3 * max|grad| count as agreeing
        net = init_uniform(3, dtype=np.float64)
        rng = np.random.default_rng(11)
        ldr, log, hdr = sample_training_pairs(
            rng, 16, quantize=False, intensity_range=(1e-3, 10.0)
        )
        x = np.concatenate([ldr, log], axis=1)

        def loss():
            _, acts = _forward(net, x)
            return float(np.mean(huber_loss(acts[-1], hdr)))

        pre, acts = _forward(net, x)
        err = acts[-1] - hdr
        dout = np.clip(err, -1.0, 1.0) / err.size
        grads_w, grads_b = _backward(net, pre, acts, dout)
        gmax = max(
            max(np.abs(g).max() for g in grads_w),
            max(np.abs(g).max() for g in grads_b),
        )
        floor = 1e-3 * gmax
        h = 1e-4
        for layer in range(len(net.weights)):
            for param, grad in (
                (net.weights[layer], grads_w[layer]),
                (net.biases[layer], grads_b[layer]),
            ):
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + h
                    up = loss()
                    param[idx] = orig - h
                    down = loss()
                    param[idx] = orig
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(numeric), abs(grad[idx]), floor)
                    assert abs(numeric - grad[idx]) / denom < 1e-4, (
                        f"layer {layer} index {idx}: {numeric} vs {grad[idx]}"
                    )


class TestTraining:
    def test_constant_targets_converge(self, rng):
        n = 4096
        ldr = rng.random((n, 3))
        log = rng.random((n, 3))
        hdr = np.ones((n, 3))
        cfg = TrainConfig(steps=1500, batch_size=512, hold_steps=300,
                          warmup_steps=50, seed=2, init="uniform")
        net, loss = train_fusion(cfg, data=(ldr, log, hdr))
        probe = fusion_forward(net, rng.random((500, 3)), rng.random((500, 3)))
        assert np.abs(probe - 1.0).max() < 0.01
        assert loss < 1e-4

    def test_bit_identical_for_same_seed(self):
        cfg = TrainConfig(steps=120, batch_size=256, warmup_steps=20,
                          hold_steps=40, pool_size=4096, seed=5)
        net_a, loss_a = train_fusion(cfg)
        net_b, loss_b = train_fusion(cfg)
        assert loss_a == loss_b
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert (wa == wb).all()
        for ba, bb in zip(net_a.biases, net_b.biases):
            assert (ba == bb).all()

    def test_divergence_reports_step(self):
        n = 1024
        rng = np.random.default_rng(0)
        ldr = rng.random((n, 3))
        log = rng.random((n, 3))
        hdr = np.full((n, 3), np.inf)  # forces a non-finite loss
        cfg = TrainConfig(steps=600, batch_size=256, seed=1, init="uniform")
        with pytest.raises(RuntimeError, match="step 500"):
            train_fusion(cfg, data=(ldr, log, hdr))

    def test_structured_init_starts_in_range(self):
        net = init_structured(0)
        rng = np.random.default_rng(3)
        ldr, log, hdr = sample_training_pairs(rng, 10000)
        pred = fusion_forward(net, ldr, log)
        rmse = float(np.sqrt(np.mean((pred - hdr) ** 2)))
        base = float(np.sqrt(np.mean(hdr**2)))
        assert rmse < 0.5 * base  # far better than predicting zero


class TestFuseImage:
    def test_constant_maps_give_constant_output(self):
        net = init_uniform(1)
        from luxprobe.tonemap import DualToneMaps

        maps = DualToneMaps(ldr=np.full((4, 8, 3), 0.25), log=np.full((4, 8, 3), 0.5))
        out = fuse_image(net, maps)
        assert out.data.shape == (4, 8, 3)
        assert (out.data == out.data[0, 0]).all()

    def test_shape_preserved(self, rng):
        net = init_uniform(1)
        env = EnvironmentMap(rng.random((8, 16, 3)) * 10)
        out = fuse_image(net, tonemap_dual(env))
        assert out.data.shape == env.data.shape


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_structured(4, dtype=np.float32)
        path = tmp_path / "net.bin"
        save_fusion_net(net, path)
        loaded = load_fusion_net(path)
        for a, b in zip(net.weights, loaded.weights):
            assert (a == b).all()
        for a, b in zip(net.biases, loaded.biases):
            assert (a == b).all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="not a fusion net"):
            load_fusion_net(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="parameters"):
            load_fusion_net(path)
