import tracemalloc

import numpy as np
import pytest

from luxprobe.envmap import EnvironmentMap
from luxprobe.fusion import (
    N_PARAMS,
    WIDTHS,
    FusionNet,
    TrainConfig,
    _backward,
    _forward,
    _sigmoid,
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
from luxprobe.tonemap import DualToneMaps, inverse_rule, tonemap_dual


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_training_forward_bit_for_bit(self, rng, dtype):
        net = init_structured(2, dtype=dtype)
        ldr, log, _ = sample_training_pairs(rng, 300)
        x = np.concatenate([ldr, log], axis=1).astype(dtype)
        np.testing.assert_array_equal(fusion_forward(net, ldr, log), _forward(net, x)[1][-1])
        single = fusion_forward(net, ldr[7], log[7])
        assert single.shape == (3,) and single.dtype == dtype
        np.testing.assert_array_equal(single, _forward(net, x[7:8])[1][-1][0])

    def test_rejects_out_of_range_inputs(self):
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="\\[0, 1\\]"):
                fusion_forward(init_uniform(0), np.full(3, bad), np.zeros(3))

    def test_rejects_nonfinite_params(self):
        net = init_uniform(0)
        net.weights[2][0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FusionNet(net.params)


def init_uniform_by_layers(seed, dtype=np.float64):
    """The list-built uniform init that the vector-filling one replaced (oracle)."""
    rng = np.random.default_rng(seed)
    arrays = []
    for fi, fo in zip(WIDTHS[:-1], WIDTHS[1:]):
        s = 1.0 / np.sqrt(fi)
        arrays.append(rng.uniform(-s, s, size=(fi, fo)).astype(dtype).ravel())
        arrays.append(rng.uniform(-s, s, size=fo).astype(dtype))
    return np.concatenate(arrays)


def sigmoid_by_masks(z):
    """The boolean-indexed sigmoid that the np.where one replaced (oracle)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestParams:
    @pytest.mark.parametrize("params", [
        np.zeros(N_PARAMS - 1), np.zeros(N_PARAMS + 1), np.zeros((1, N_PARAMS)),
        np.zeros((N_PARAMS, 1)),
    ], ids=["short", "long", "row", "column"])
    def test_rejects_wrong_shape(self, params):
        with pytest.raises(ValueError, match=f"{N_PARAMS} parameters"):
            FusionNet(params)

    def test_layers_are_views_of_the_vector(self):
        params = np.zeros(N_PARAMS, dtype=np.float32)
        net = FusionNet(params)
        net.biases[-1][:] = 2.0
        assert net.params is params and (params[-3:] == 2.0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_init_uniform_matches_list_built(self, seed, dtype):
        net = init_uniform(seed, dtype=dtype)
        assert net.params.dtype == dtype
        assert net.params.tobytes() == init_uniform_by_layers(seed, dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_masked(self, rng, dtype):
        big = np.finfo(dtype).max
        z = np.concatenate([rng.normal(0, 30, 5000), [0.0, -0.0, 1e-30, -1e-30, 88.8, -88.8,
                                                      800.0, -800.0, big, -big]]).astype(dtype)
        got = _sigmoid(z)
        assert got.dtype == dtype and got.tobytes() == sigmoid_by_masks(z).tobytes()


class TestHuber:
    def test_zero_error(self):
        assert huber_loss(1.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        assert huber_loss(0.5, 0.0) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert huber_loss(2.0, 0.0) == pytest.approx(1.5)


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
        cfg = TrainConfig(steps=1500, batch_size=512, seed=2, init="uniform")
        net, loss = train_fusion(cfg, data=(ldr, log, hdr))
        probe = fusion_forward(net, rng.random((500, 3)), rng.random((500, 3)))
        assert np.abs(probe - 1.0).max() < 0.01
        assert loss < 1e-4

    def test_bit_identical_for_same_seed(self):
        cfg = TrainConfig(steps=120, batch_size=256, seed=5)
        pool = sample_training_pairs(np.random.default_rng(6), 4096)
        net_a, loss_a = train_fusion(cfg, data=pool)
        net_b, loss_b = train_fusion(cfg, data=pool)
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

    def test_zero_steps_returns_init_without_a_pool(self):
        # the default pool is POOL_SIZE x 9 float64 values (144 MB) and no step
        # reads it; the structured init's own 32768-row fit peaks near 53 MB
        tracemalloc.start()
        try:
            net, loss = train_fusion(TrainConfig(steps=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loss is None
        assert net.params.tobytes() == init_structured(0, dtype=np.float32).params.tobytes()
        assert peak < 72e6, f"peak {peak / 1e6:.0f} MB"

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("steps", -1), ("batch_size", 0), ("batch_size", -1),
    ])
    def test_config_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            TrainConfig(**{field: value})

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
        maps = DualToneMaps(ldr=np.full((4, 8, 3), 0.25), log=np.full((4, 8, 3), 0.5))
        out = fuse_image(net, maps)
        assert out.data.shape == (4, 8, 3)
        assert (out.data == out.data[0, 0]).all()

    def test_peak_memory_keeps_no_activations(self):
        # inference holds the current hidden activation and its temporaries,
        # not the per-layer pre-activations and activations backprop needs
        net = init_uniform(1, dtype=np.float32)
        h, w = 64, 128
        maps = DualToneMaps(ldr=np.full((h, w, 3), 0.25), log=np.full((h, w, 3), 0.5))
        hidden = h * w * WIDTHS[1] * 4  # bytes of one float32 hidden-layer array
        tracemalloc.start()
        try:
            fuse_image(net, maps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * hidden, f"peak {peak / hidden:.2f} hidden-layer arrays"

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

    def test_save_writes_no_sidecar(self, tmp_path):
        path = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), path)
        assert list(tmp_path.iterdir()) == [path]

    def test_older_file_with_stale_sidecar_loads(self, tmp_path):
        # files of earlier versions: the same bytes, plus a widths sidecar
        # that the loader no longer reads
        net = init_structured(4, dtype=np.float32)
        path = tmp_path / "net.bin"
        header = b"LXFN" + np.array([1, 5, 0], dtype="<u4").tobytes()
        body = b"".join(w.astype("<f4").tobytes() + b.astype("<f4").tobytes()
                        for w, b in zip(net.weights, net.biases))
        path.write_bytes(header + body)
        (tmp_path / "net.bin.layers.txt").write_text("6 32 3\n")
        loaded = load_fusion_net(path)
        assert loaded.params.tobytes() == net.params.tobytes()

    @pytest.mark.parametrize("version, n_layers", [(2, 5), (0, 5), (1, 4), (1, 6)])
    def test_wrong_version_or_layer_count_rejected(self, tmp_path, version, n_layers):
        path = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + np.array([version, n_layers], dtype="<u4").tobytes()
                         + blob[12:])
        with pytest.raises(ValueError, match="unsupported"):
            load_fusion_net(path)

    def test_trailing_parameters_rejected(self, tmp_path):
        path = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(ValueError, match="parameters"):
            load_fusion_net(path)

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
