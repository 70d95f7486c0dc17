import warnings

import numpy as np
import pytest

from luxprobe import fusion
from luxprobe.envmap import BLOCK_PIXELS, EnvironmentMap, row_blocks
from luxprobe.fusion import (
    BLOCK_ROWS,
    EXPOSURE_RANGE,
    INTENSITY_RANGE,
    LEAKY_SLOPE,
    N_PARAMS,
    POOL_SIZE,
    WIDTHS,
    FusionNet,
    TrainConfig,
    _backward,
    _forward,
    _gradient,
    _leaky,
    _lr_at,
    _sigmoid,
    _softplus,
    _softplus_inv,
    fuse_image,
    fusion_forward,
    huber_loss,
    init_structured,
    init_uniform,
    load_fusion_net,
    sample_training_pairs,
    save_fusion_net,
    train_fusion,
    training_pool,
)
from luxprobe.tonemap import DualToneMaps, inverse_rule, tonemap_dual

from conftest import (allocation_peak, overflowing_inside_net, overflowing_net, quantize8_expr,
                      tonemap_ldr_expr, tonemap_log_expr)


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

    @pytest.mark.parametrize("bad", [1.5, -1e-9, np.nan])
    def test_rejects_out_of_range_in_a_later_block(self, bad):
        ldr = np.full((2 * BLOCK_ROWS + 3, 3), 0.5)
        log = ldr.copy()
        log[-1, 2] = bad
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            fusion_forward(init_uniform(0, dtype=np.float32), ldr, log)

    def test_checks_the_cast_values(self):
        # 1 + 1e-9 rounds to 1.0 in float32, as the float32 net reads it
        ok = np.full((2, 3), 1.0 + 1e-9)
        assert fusion_forward(init_uniform(0, dtype=np.float32), ok, ok).shape == (2, 3)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            fusion_forward(init_uniform(0), ok, ok)

    @pytest.mark.parametrize("ldr_shape, log_shape", [
        ((4, 3), (5, 3)), ((1, 3), (4, 3)), ((4, 2), (4, 4)), ((2, 2, 3), (2, 2, 3)),
        ((3,), (1, 3)), ((), ()),
    ])
    def test_rejects_mismatched_shapes(self, ldr_shape, log_shape):
        with pytest.raises(ValueError, match="arrays of one shape"):
            fusion_forward(init_uniform(0), np.zeros(ldr_shape), np.zeros(log_shape))

    def test_rejects_nonfinite_params(self):
        net = init_uniform(0)
        net.weights[2][0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FusionNet(net.params)

    @pytest.mark.parametrize("entry", ["fusion_forward", "fuse_image"])
    def test_output_that_overflows_blames_the_net(self, entry):
        # a net whose output overflows, and one whose overflow inside gives
        # a finite output of zeros
        ldr = np.full((4, 8, 3), 0.5)
        for net in (overflowing_net(), overflowing_inside_net()):
            with warnings.catch_warnings(), \
                    pytest.raises(ValueError, match="net output is not finite"):
                warnings.simplefilter("error")  # one ValueError, not numpy's overflow warnings
                if entry == "fusion_forward":
                    fusion_forward(net, ldr.reshape(-1, 3), ldr.reshape(-1, 3))
                else:
                    fuse_image(net, DualToneMaps(ldr=ldr, log=ldr))


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


def hidden_unblocked(weights, biases, h):
    """The unblocked inference pass over the hidden layers that blocked
    `_forward` replaced (oracle): only the current activation stays live."""
    for w, b in zip(weights, biases):
        h = h @ w
        h += b
        h = _leaky(h)
    return h


def head_error_bound(net, h):
    """How far two summation orders of the 64-term head may differ.

    Each order's pre-activation is within K * eps * (|h| @ |w| + |b|) of the
    exact sum (K terms, the classic dot-product bound); softplus has slope
    sigmoid(z) <= 1 and rounds its own result to a few ulps.
    """
    eps = np.finfo(net.dtype).eps
    z = h @ net.weights[-1] + net.biases[-1]
    spread = np.abs(h) @ np.abs(net.weights[-1]) + np.abs(net.biases[-1])
    return 2 * h.shape[1] * eps * spread * _sigmoid(z) + 4 * eps * _softplus(z)


class TestBlockedForward:
    # an odd count that spans several blocks, and one that ends on a boundary
    ROWS = [3 * BLOCK_ROWS + 5, 2 * BLOCK_ROWS]

    def test_block_is_the_default_training_batch(self):
        assert BLOCK_ROWS == TrainConfig().batch_size

    @pytest.mark.parametrize("n", ROWS)
    def test_budget_of_block_rows_at_one_pixel_a_row(self, n):
        # the budget `_forward_blocks` and `init_structured` pass to `row_blocks`
        sizes = [len(range(n)[block]) for block in row_blocks(n, 1, BLOCK_ROWS)]
        full, rest = divmod(n, BLOCK_ROWS)
        assert sizes == [BLOCK_ROWS] * full + [rest] * (rest > 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", ROWS)
    def test_hidden_layers_bit_identical_to_unblocked(self, rng, dtype, n):
        net = init_structured(2, dtype=dtype)
        ldr, log, _ = sample_training_pairs(rng, n)
        x = np.concatenate([ldr, log], axis=1).astype(dtype)
        blocked = np.concatenate([_forward(net, x[i : i + BLOCK_ROWS])[1][-2]
                                  for i in range(0, n, BLOCK_ROWS)])
        oracle = hidden_unblocked(net.weights[:-1], net.biases[:-1], x)
        assert blocked.dtype == dtype and blocked.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", ROWS)
    def test_output_is_forward_per_block(self, rng, dtype, n):
        net = init_structured(2, dtype=dtype)
        ldr, log, _ = sample_training_pairs(rng, n)
        x = np.concatenate([ldr, log], axis=1).astype(dtype)
        out = fusion_forward(net, ldr, log)
        per_block = np.concatenate([_forward(net, x[i : i + BLOCK_ROWS])[1][-1]
                                    for i in range(0, n, BLOCK_ROWS)])
        assert out.dtype == dtype and out.tobytes() == per_block.tobytes()
        # the unblocked head sums in another order once it is large enough
        # for BLAS to leave its small-matrix kernel (about 5200 rows)
        h = hidden_unblocked(net.weights[:-1], net.biases[:-1], x)
        oracle = _softplus(h @ net.weights[-1] + net.biases[-1])
        assert (np.abs(out - oracle) <= head_error_bound(net, h)).all()

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_structured_init_matches_unblocked_fit(self, seed, quantize):
        # the oracle fits the head on the unblocked features of the same
        # hidden layers
        params = init_structured(seed, quantize=quantize).params
        oracle = FusionNet(params.copy())
        ldr, log, hdr = sample_training_pairs(np.random.default_rng(seed + 101), 32768,
                                              quantize=quantize)
        x = np.concatenate([ldr, log], axis=1)
        h = hidden_unblocked(oracle.weights[:-1], oracle.biases[:-1], x)
        phi = np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)
        lam = 1e-3 * phi.shape[0]
        gram = phi.T @ phi + lam * np.eye(phi.shape[1])
        sol = np.linalg.solve(gram, phi.T @ _softplus_inv(hdr))
        oracle.weights[-1][:] = sol[:-1]
        oracle.biases[-1][:] = sol[-1]
        assert params.tobytes() == oracle.params.tobytes()
        assert (init_structured(seed, dtype=np.float32, quantize=quantize).params.tobytes()
                == oracle.params.astype(np.float32).tobytes())

    def test_inference_memory_flat_in_map_size(self):
        # 2**15 and 2**17 rows: beyond the (N, 3) inputs and the (N, 3) output,
        # inference holds the same few block-sized arrays at both sizes; the
        # inputs are cast, joined and checked a block at a time, and a layer's
        # arrays go once the next layer's are made (4.1 blocks; 8.3 when each
        # block kept every layer)
        net = init_uniform(1, dtype=np.float32)
        block = BLOCK_ROWS * WIDTHS[1] * 4  # bytes of one float32 hidden block
        rng = np.random.default_rng(0)
        for n in (2**15, 2**17):
            ldr = rng.random((n, 3), dtype=np.float32)
            log = rng.random((n, 3), dtype=np.float32)
            with allocation_peak() as probe:
                fusion_forward(net, ldr, log)
            rest = probe.bytes - n * 3 * 4
            assert rest < 5 * block, f"{n} rows: {rest / block:.2f} hidden blocks"


def forward_by_sum(net, x):
    """The forward pass that adds the bias into a second array (oracle)."""
    pre, acts = [], [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        h = _leaky(z) if i < last else _softplus(z)
        acts.append(h)
    return pre, acts


def gradient_by_where(net, pre, acts, dout):
    """The gradient with the np.where LeakyReLU derivative (oracle)."""
    grad = np.empty_like(net.params)
    grads_w, grads_b = fusion._layer_views(grad)
    g = dout * _sigmoid(pre[-1])
    for i in range(len(grads_w) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads_w[i])
        np.sum(g, axis=0, out=grads_b[i])
        if i > 0:
            g = g @ net.weights[i].T
            one, slope = pre[i - 1].dtype.type(1.0), pre[i - 1].dtype.type(LEAKY_SLOPE)
            g *= np.where(pre[i - 1] > 0, one, slope)
    return grad


def sample_pairs_expr(rng, count, quantize):
    """The sampler as one expression per array, with the tonemap expressions (oracle)."""
    lo, hi = INTENSITY_RANGE
    base = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))
    jitter = 2.0 ** rng.uniform(-1.0, 1.0, size=(count, 3))
    exposure = np.exp(
        rng.uniform(np.log(EXPOSURE_RANGE[0]), np.log(EXPOSURE_RANGE[1]), size=count)
    )
    hdr = np.clip(base[:, None] * jitter * exposure[:, None], lo, hi)
    ldr, log = tonemap_ldr_expr(hdr), tonemap_log_expr(hdr)
    if quantize:
        ldr, log = quantize8_expr(ldr), quantize8_expr(log)
    return ldr, log, hdr


class TestTrainerParity:
    """The in-place trainer step against the expressions it replaced, and the
    sampler and the given pool against the pinned sampler expression."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_matches_bias_sum(self, rng, dtype):
        net = init_structured(2, dtype=dtype)
        ldr, log, _ = sample_training_pairs(rng, 3000)
        x = np.concatenate([ldr, log], axis=1).astype(dtype)
        pre, acts = _forward(net, x)
        pre_o, acts_o = forward_by_sum(net, x)
        for got, want in zip(pre + acts, pre_o + acts_o):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_matches_where_derivative(self, rng, dtype):
        net = init_structured(2, dtype=dtype)
        ldr, log, hdr = sample_training_pairs(rng, 2048)
        x = np.concatenate([ldr, log], axis=1).astype(dtype)
        pre, acts = _forward(net, x)
        for z in pre[:-1]:  # rows at exactly +0.0 and -0.0 take the slope
            z[:100] = 0.0
            z[100:200] = -0.0
        err = acts[-1] - hdr.astype(dtype)
        dout = np.clip(err, dtype(-1.0), dtype(1.0)) / dtype(err.size)
        got = _gradient(net, pre, acts, dout)
        want = gradient_by_where(net, pre, acts, dout)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sampler_matches_expression(self, seed, quantize):
        got = sample_training_pairs(np.random.default_rng(seed), 20000, quantize=quantize)
        want = sample_pairs_expr(np.random.default_rng(seed), 20000, quantize)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_pool_matches_concatenated_cast(self, monkeypatch):
        # four 256-row steps read the 1024-pair pool once, in order
        ldr, log, hdr = sample_training_pairs(np.random.default_rng(3), 1024, quantize=False)
        seen = []

        def recording(net, x):
            seen.append(x.copy())
            return _forward(net, x)

        monkeypatch.setattr(fusion, "_forward", recording)
        train_fusion(TrainConfig(steps=4, batch_size=256, init="uniform"), data=(ldr, log, hdr))
        want = np.ascontiguousarray(np.concatenate([ldr, log], axis=1), dtype=fusion.TRAIN_DTYPE)
        got = np.concatenate(seen)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def train_by_whole_pool(cfg: TrainConfig):
    """Training over the whole default pool, made before the first step, with
    batches cut by an offset that cycles back to row 0 (oracle)."""
    dtype = fusion.TRAIN_DTYPE
    if cfg.init == "structured":
        net = init_structured(cfg.seed, dtype=dtype, quantize=cfg.quantize)
    else:
        net = init_uniform(cfg.seed, dtype=dtype)
    x_pool, y_pool = training_pool(np.random.default_rng(cfg.seed + 1), fusion.POOL_SIZE,
                                   cfg.quantize)
    pool = x_pool.shape[0]
    if pool < cfg.batch_size:
        reps = -(-cfg.batch_size // pool)
        x_pool = np.tile(x_pool, (reps, 1))
        y_pool = np.tile(y_pool, (reps, 1))
        pool = x_pool.shape[0]
    m = np.zeros_like(net.params)
    v = np.zeros_like(net.params)
    beta1, beta2, eps = 0.9, 0.999, dtype(1e-8)
    delta = dtype(fusion.HUBER_DELTA)
    offset = 0
    loss = None
    for t in range(1, cfg.steps + 1):
        lr_t = dtype(_lr_at(cfg, t) * np.sqrt(1.0 - beta2 ** t) / (1.0 - beta1 ** t))
        if offset + cfg.batch_size > pool:
            offset = 0
        x = x_pool[offset : offset + cfg.batch_size]
        y = y_pool[offset : offset + cfg.batch_size]
        offset += cfg.batch_size
        pre, acts = _forward(net, x)
        err = acts[-1] - y
        dout = np.clip(err, -delta, delta) / dtype(err.size)
        g = _gradient(net, pre, acts, dout)
        m *= dtype(beta1)
        m += dtype(1.0 - beta1) * g
        v *= dtype(beta2)
        v += dtype(1.0 - beta2) * g * g
        net.params -= lr_t * m / (np.sqrt(v) + eps)
        if t == cfg.steps or t % 500 == 0:
            loss = float(np.mean(huber_loss(err, 0.0)))
    return net, loss


# rows per block of the pool build: the stage's outputs are (count, 3)
POOL_BLOCK = BLOCK_PIXELS // 3


class TestTrainingPool:
    """The float32 pool is drawn and built per row block, from three streams of
    the caller's generator that give exactly the whole draws' values."""

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("count", [2 * POOL_BLOCK, 2 * POOL_BLOCK + 777])
    def test_pool_is_the_cast_of_the_expression(self, count, quantize):
        x, y = training_pool(np.random.default_rng(4), count, quantize)
        ldr, log, hdr = sample_pairs_expr(np.random.default_rng(4), count, quantize)
        want_x = np.concatenate([ldr, log], axis=1).astype(np.float32)
        assert x.dtype == np.float32 and x.tobytes() == want_x.tobytes()
        assert y.dtype == np.float32 and y.tobytes() == hdr.astype(np.float32).tobytes()

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM])
    @pytest.mark.parametrize("quantize", [True, False])
    def test_streams_are_the_whole_draws(self, bits, quantize):
        # 2 blocks and 777 pairs: the last block is short; the generator ends
        # where the whole draws leave it, so its next values are theirs
        count = 2 * POOL_BLOCK + 777
        got_rng, want_rng = np.random.Generator(bits(8)), np.random.Generator(bits(8))
        got = sample_training_pairs(got_rng, count, quantize)
        want = sample_pairs_expr(want_rng, count, quantize)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got_rng.random(3).tobytes() == want_rng.random(3).tobytes()

    def test_buffered_32_bit_half_survives(self):
        # PCG64 keeps the unused half of an output after a 32-bit draw; doubles
        # never read it, so the draw after the pairs still takes it
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        for r in (got_rng, want_rng):
            r.integers(0, 1 << 20, dtype=np.uint32)
        sample_training_pairs(got_rng, 1000)
        sample_pairs_expr(want_rng, 1000, True)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert (got_rng.integers(0, 1 << 20, 4, dtype=np.uint32).tolist()
                == want_rng.integers(0, 1 << 20, 4, dtype=np.uint32).tolist())

    def test_other_bit_generators_are_named(self):
        with pytest.raises(TypeError, match="MT19937"):
            sample_training_pairs(np.random.Generator(np.random.MT19937(0)), 1000)

    def test_train_fusion_reads_the_pool(self, monkeypatch):
        # three 1000-row steps read a 3000-pair default pool once, in order
        seen = []

        def recording(net, x):
            seen.append(x.copy())
            return _forward(net, x)

        monkeypatch.setattr(fusion, "POOL_SIZE", 3000)
        monkeypatch.setattr(fusion, "_forward", recording)
        train_fusion(TrainConfig(steps=3, batch_size=1000, seed=5, init="uniform"))
        ldr, log, _ = sample_pairs_expr(np.random.default_rng(6), 3000, True)
        want = np.concatenate([ldr, log], axis=1).astype(np.float32)
        assert np.concatenate(seen).tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps, batch, options", [
        (4, 1000, {}),  # below the pool
        (5, 1000, {}),  # exactly the pool
        (9, 700, {}),  # past it: 5000 % 700 = 100 rows are skipped before the wrap
        (3, 6000, {}),  # a batch larger than the pool: the tiled pool
        (7, 700, {"quantize": False}),
        (4, 1000, {"init": "uniform"}),
        (9, 700, {"init": "uniform", "quantize": False}),
    ])
    def test_train_fusion_matches_whole_pool_loop(self, monkeypatch, steps, batch, options):
        monkeypatch.setattr(fusion, "POOL_SIZE", 5000)
        cfg = TrainConfig(steps=steps, batch_size=batch, seed=3, **options)
        net, loss = train_fusion(cfg)
        want_net, want_loss = train_by_whole_pool(cfg)
        assert loss == want_loss and np.isfinite(loss)
        assert net.params.tobytes() == want_net.params.tobytes()

    def test_memory_flat_in_step_count(self):
        # no pair is read twice, so no pool is held: 40 steps peak as 4 do,
        # far below the 36-bytes-a-pair default pool (72 MB)
        train_fusion(TrainConfig(steps=1, batch_size=8, init="uniform"))  # warm up
        peaks = {}
        for steps in (4, 40):
            with allocation_peak() as probe:
                train_fusion(TrainConfig(steps=steps, init="uniform"))
            peaks[steps] = probe.bytes
        assert abs(peaks[40] - peaks[4]) < 64 << 10, peaks
        assert peaks[40] < 36 * POOL_SIZE / 4, peaks

    def test_wrapping_run_holds_its_pool(self, monkeypatch):
        # 196 steps of 2048 pairs read past a 400 000-pair pool and wrap: the run
        # holds the float32 pool (36 bytes a pair) over what 4 steps hold
        monkeypatch.setattr(fusion, "POOL_SIZE", 400_000)
        peaks = {}
        for steps in (4, 196):
            with allocation_peak() as probe:
                train_fusion(TrainConfig(steps=steps, init="uniform"))
            peaks[steps] = probe.bytes
        pool = 36 * 400_000
        assert 0.9 * pool < peaks[196] - peaks[4] < pool + (1 << 20), peaks

    def test_memory_holds_no_float64_pool(self):
        # beyond the float32 pool (36 bytes a pair) the build holds a fixed
        # number of blocks (7.7 when written) at counts 5x apart; a whole float64
        # draw of the base alone (8 bytes a pair) would not fit at either
        block = POOL_BLOCK * 3 * 8
        training_pool(np.random.default_rng(0), 1000)  # warm up
        for count in (80_000, 400_000):
            with allocation_peak() as probe:
                training_pool(np.random.default_rng(0), count)
            rest = probe.bytes - 36 * count
            assert rest < 9 * block, f"{count} pairs: {rest / block:.2f} blocks"


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

    def test_pool_smaller_than_batch_is_tiled(self):
        # a 3-row pool under a 7-row batch trains as the pool repeated to 9 rows
        ldr, log, hdr = sample_training_pairs(np.random.default_rng(7), 3)
        cfg = TrainConfig(steps=3, batch_size=7, seed=4, init="uniform")
        net, loss = train_fusion(cfg, data=(ldr, log, hdr))
        tiled = tuple(np.tile(a, (3, 1)) for a in (ldr, log, hdr))
        net_tiled, loss_tiled = train_fusion(cfg, data=tiled)
        assert loss == loss_tiled and np.isfinite(loss)
        assert net.params.tobytes() == net_tiled.params.tobytes()

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
        # a run holds a pool only when it reads a pair twice, and no step reads
        # any: the structured init's own 32768-row fit (about 30 MB) is the peak,
        # where the default pool alone is POOL_SIZE x 9 float32 values (72 MB)
        with allocation_peak() as probe:
            net, loss = train_fusion(TrainConfig(steps=0))
        assert loss is None
        assert net.params.tobytes() == init_structured(0, dtype=np.float32).params.tobytes()
        assert probe.bytes < 72e6, f"peak {probe.bytes / 1e6:.0f} MB"

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("steps", -1), ("batch_size", 0), ("batch_size", -1),
        ("seed", -1),
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
        # inference keeps the activations of one BLOCK_ROWS-row block at a
        # time, not the per-layer activations of every pixel
        net = init_uniform(1, dtype=np.float32)
        h, w = 64, 128
        maps = DualToneMaps(ldr=np.full((h, w, 3), 0.25), log=np.full((h, w, 3), 0.5))
        hidden = h * w * WIDTHS[1] * 4  # bytes of one float32 hidden-layer array
        with allocation_peak() as probe:
            fuse_image(net, maps)
        assert probe.bytes < 3 * hidden, f"peak {probe.bytes / hidden:.2f} hidden-layer arrays"

    def test_shape_preserved(self, rng):
        net = init_uniform(1)
        env = EnvironmentMap(rng.random((8, 16, 3)) * 10)
        out = fuse_image(net, tonemap_dual(env))
        assert out.data.shape == env.data.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_takes_the_net_dtype(self, rng, dtype):
        net = init_uniform(2, dtype=dtype)
        maps = DualToneMaps(ldr=rng.random((8, 16, 3)), log=rng.random((8, 16, 3)))
        out = fuse_image(net, maps).data
        want = fusion_forward(net, maps.ldr.reshape(-1, 3), maps.log.reshape(-1, 3))
        assert out.dtype == dtype and out.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("dtype, value", [
        (np.float32, np.inf), (np.float32, np.nan),
        (np.float64, 1e39),  # finite, but infinite as the float32 the file holds
    ])
    def test_save_refuses_what_the_loader_refuses(self, tmp_path, dtype, value):
        net = init_uniform(0, dtype=dtype)
        net.params[-1] = value  # as a diverged training step leaves it
        with warnings.catch_warnings(), pytest.raises(ValueError, match="non-finite"):
            warnings.simplefilter("error")
            save_fusion_net(net, tmp_path / "net.bin")
        assert list(tmp_path.iterdir()) == []

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
