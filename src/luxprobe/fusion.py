"""Per-pixel HDR fusion MLP: dual tonemapped pair in, linear radiance out.

The network is fixed at 5 affine layers (widths 6-64-64-64-64-3) with
LeakyReLU(0.01) hidden activations and a softplus output, so predictions are
strictly positive. Training minimizes mean Huber loss (delta = 1) against
linear-radiance targets with Adam-style per-parameter step scaling. One
forward pass, `_forward`, serves training, inference and the structured init;
the last two run it over consecutive BLOCK_ROWS-row blocks, so their memory
is a fixed number of block-sized arrays plus the input and output. The
training pool is drawn and built per row block straight into float32
(`training_pool`), so a run holds its pool and a few blocks besides.

Inputs are the six [0,1] values (ldr RGB, log RGB); see tonemap.inverse_rule
for the analytic oracle the trained network is benchmarked against.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .envmap import EnvironmentMap, map_rows, row_blocks
from .imgio import check_unit
from .tonemap import DualToneMaps, tonemap_ldr, tonemap_log, quantize8

WIDTHS = (6, 64, 64, 64, 64, 3)
N_PARAMS = sum(fi * fo + fo for fi, fo in zip(WIDTHS[:-1], WIDTHS[1:]))
LEAKY_SLOPE = 0.01

# training constants (no command or workload varies them)
HUBER_DELTA = 1.0
WARMUP_STEPS = 500  # linear warmup to the learning rate
HOLD_STEPS = 4000  # held there up to this step, then the cosine decay
LR_MIN = 1e-5  # end of the cosine decay
POOL_SIZE = 2_000_000  # synthetic pairs drawn for a training run
INTENSITY_RANGE = (1e-3, 1e4)  # radiance range of the synthetic training pairs
EXPOSURE_RANGE = (0.25, 4.0)
TRAIN_DTYPE = np.float32
BLOCK_ROWS = 2048  # rows per inference block: the default training batch

# structured init: hinge kinks per input channel; the log channels carry the
# exponential branch and get the denser basis
_KINKS_PER_INPUT = (6, 6, 6, 14, 14, 14)
_KINK_GAIN = 8.0


def _layer_views(params: np.ndarray):
    """(weights, biases) as views into a parameter vector in file order."""
    weights, biases = [], []
    pos = 0
    for fi, fo in zip(WIDTHS[:-1], WIDTHS[1:]):
        weights.append(params[pos : pos + fi * fo].reshape(fi, fo))
        pos += fi * fo
        biases.append(params[pos : pos + fo])
        pos += fo
    return weights, biases


class FusionNet:
    """The fusion MLP as one parameter vector `params` in file order: w0, b0, ..., w4, b4.

    The net keeps the vector it is given, not a copy. `weights` and `biases`
    are views into it: writing a layer writes `params`.
    """

    def __init__(self, params: np.ndarray):
        if params.shape != (N_PARAMS,):
            raise ValueError(f"expected a vector of {N_PARAMS} parameters, "
                             f"got shape {params.shape}")
        if not np.isfinite(params).all():
            raise ValueError("fusion net contains non-finite parameters")
        self.params = params
        self.weights, self.biases = _layer_views(params)

    @property
    def dtype(self):
        return self.params.dtype


def _leaky(z):
    t = z.dtype.type(LEAKY_SLOPE) * z
    return np.maximum(z, t, out=t)


def _softplus(z):
    return np.logaddexp(np.asarray(0.0, dtype=z.dtype), z)


def _sigmoid(z):
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1 / (1 + e), e / (1 + e))


def init_uniform(seed: int, dtype=np.float64) -> FusionNet:
    """Fan-in-scaled uniform initialization."""
    rng = np.random.default_rng(seed)
    params = np.empty(N_PARAMS, dtype=dtype)
    for w, b in zip(*_layer_views(params)):
        s = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-s, s, size=w.shape)
        b[:] = rng.uniform(-s, s, size=b.shape)
    return FusionNet(params)


def _softplus_inv(y):
    y = np.maximum(y, 1e-12)
    return y + np.log1p(-np.exp(-y))


def init_structured(seed: int, dtype=np.float64, quantize: bool = True) -> FusionNet:
    """Hinge-basis initialization with a least-squares output head.

    Layer 1 places ReLU-style kinks at fixed positions along each input
    channel, the middle layers start as near-identities, and the output
    layer is ridge-fit on the softplus preimage of sampled radiance targets.
    This skips the long output-range warm-up a random init needs and leaves
    training to refine kink placement.
    """
    rng = np.random.default_rng(seed)
    params = np.zeros(N_PARAMS)  # float64 for the fit; cast at the end
    weights, biases = _layer_views(params)
    w1, b1 = weights[0], biases[0]
    unit = 0
    for i, n_kinks in enumerate(_KINKS_PER_INPUT):
        for c in np.linspace(0.0, 0.92, n_kinks):
            w1[i, unit] = _KINK_GAIN
            b1[unit] = -_KINK_GAIN * c
            unit += 1
    s = 1.0 / np.sqrt(WIDTHS[0])
    w1[:, unit:] = rng.uniform(-s, s, size=(WIDTHS[0], WIDTHS[1] - unit))
    b1[unit:] = rng.uniform(-s, s, size=WIDTHS[1] - unit)
    for w in weights[1:-1]:
        w[:] = np.eye(*w.shape)
        w += rng.uniform(-1e-3, 1e-3, size=w.shape)

    design_rng = np.random.default_rng(seed + 101)
    ldr, log, hdr = sample_training_pairs(design_rng, 32768, quantize=quantize)
    x = np.concatenate([ldr, log], axis=1)
    net = FusionNet(params)  # its head is still zero; the fit reads the last hidden layer
    phi = np.ones((x.shape[0], WIDTHS[-2] + 1))
    for block in row_blocks(x.shape[0], 1, BLOCK_ROWS):
        phi[block, :-1] = _forward(net, x[block])[1][-2]
    lam = 1e-3 * phi.shape[0]
    gram = phi.T @ phi + lam * np.eye(phi.shape[1])
    rhs = phi.T @ _softplus_inv(hdr)
    sol = np.linalg.solve(gram, rhs)
    weights[-1][:] = sol[:-1]
    biases[-1][:] = sol[-1]
    return FusionNet(params.astype(dtype))


def _forward(net: FusionNet, x: np.ndarray):
    """Forward pass returning (pre-activations, activations) for backprop."""
    pre, acts = [], [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w
        z += b
        pre.append(z)
        h = _leaky(z) if i < last else _softplus(z)
        acts.append(h)
    return pre, acts


def _forward_blocks(net: FusionNet, ldr: np.ndarray, log: np.ndarray, out: np.ndarray):
    """Inference on (N, 3) input pairs into `out` (N, 3), in the BLOCK_ROWS-row
    blocks of `row_blocks` (a budget of BLOCK_ROWS at one pixel a row): each
    block is cast to `net.dtype`, joined and range-checked in one reused
    (BLOCK_ROWS, 6) buffer, so no (N, 6) input exists, and its output is
    stored into `out`, cast to out's dtype. A block whose head pre-activation
    is not finite raises ValueError: the net, not its input, is at fault. An
    overflow anywhere in the net reaches the head as +-inf or NaN, and a
    finite head gives a finite softplus."""
    n = ldr.shape[0]
    x = np.empty((min(n, BLOCK_ROWS), WIDTHS[0]), dtype=net.dtype)
    for block in row_blocks(n, 1, BLOCK_ROWS):
        xb = x[: block.stop - block.start]
        xb[:, :3] = ldr[block]
        xb[:, 3:] = log[block]
        check_unit(xb, "fusion inputs")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite head is refused below
            pre, acts = _forward(net, xb)
        head, yb = pre[-1], acts[-1]
        del pre, acts  # the hidden layers of this block go before the next block's come
        if not (np.isfinite(head.min()) and np.isfinite(head.max())):
            raise ValueError("fusion net output is not finite")
        out[block] = yb
    return out


def fusion_forward(net: FusionNet, ldr_rgb, log_rgb) -> np.ndarray:
    """Predict HDR RGB from a dual-tonemapped pair; accepts (3,) or (N, 3).
    Inputs outside [0, 1] and an output that is not finite raise ValueError."""
    ldr = np.asarray(ldr_rgb)
    log = np.asarray(log_rgb)
    if ldr.shape != log.shape or ldr.shape[-1:] != (3,) or ldr.ndim > 2:
        raise ValueError(f"fusion inputs must be (3,) or (N, 3) arrays of one shape, "
                         f"got {ldr.shape} and {log.shape}")
    single = ldr.ndim == 1
    ldr, log = np.atleast_2d(ldr), np.atleast_2d(log)
    out = _forward_blocks(net, ldr, log, np.empty((ldr.shape[0], WIDTHS[-1]), dtype=net.dtype))
    return out[0] if single else out


def _gradient(net: FusionNet, pre, acts, dout) -> np.ndarray:
    """Exact gradient of the loss as one vector in `params` order."""
    grad = np.empty_like(net.params)
    grads_w, grads_b = _layer_views(grad)
    g = dout * _sigmoid(pre[-1])
    for i in range(len(grads_w) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads_w[i])
        np.sum(g, axis=0, out=grads_b[i])
        if i > 0:
            g = g @ net.weights[i].T
            # the LeakyReLU derivative: the mask True/False becomes 1.0/slope
            g *= np.maximum(pre[i - 1] > 0, pre[i - 1].dtype.type(LEAKY_SLOPE))
    return grad


def _backward(net: FusionNet, pre, acts, dout):
    """The gradient as (per-layer weight views, per-layer bias views)."""
    return _layer_views(_gradient(net, pre, acts, dout))


def huber_loss(pred, target):
    """Elementwise Huber loss: quadratic inside HUBER_DELTA, linear outside."""
    e = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    ae = np.abs(e)
    return np.where(ae <= HUBER_DELTA, 0.5 * e * e, HUBER_DELTA * (ae - 0.5 * HUBER_DELTA))


def _draw_streams(rng: np.random.Generator, count: int):
    """Three generators that yield, front to back, the doubles that whole draws of
    base (count), jitter (count x 3) and exposure (count) would take from `rng`;
    `rng` itself is moved past all 5 * count of them, as those draws would leave it.

    PCG64 and PCG64DXSM spend one 64-bit output on each uniform double and can
    `advance` over n outputs in O(log n) steps; other bit generators raise TypeError.
    """
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise TypeError(f"training draws need a PCG64 or PCG64DXSM bit generator, "
                        f"got {type(bits).__name__}")
    streams = [np.random.Generator(copy.deepcopy(bits).advance(skip))
               for skip in (0, count, 4 * count)]
    state = bits.state
    bits.advance(5 * count)
    # advance drops the buffered 32-bit half of an output, which no double reads
    bits.state = {**bits.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return streams


def sample_training_pairs(rng: np.random.Generator, count: int, quantize: bool = True,
                          intensity_range=INTENSITY_RANGE, out=None):
    """Synthetic supervised pairs: ((ldr, log) inputs, hdr targets), as new
    float64 (count, 3) arrays or, cast, into `out`, a triple of (count, 3) arrays.

    Radiance is drawn log-uniformly over the intensity range as a shared
    per-sample scale with a +/-1 octave per-channel hue jitter, then scaled
    by a random exposure and clipped back into the invertible range (so the
    analytic inverse recovers every unquantized pair exactly). The [0,1]
    inputs are optionally snapped to the 8-bit grid, matching the precision
    of PNG-decoded inputs at inference time. Draws and stage run per row
    block (`map_rows`), each block's draws read from three streams of `rng`
    (`_draw_streams`): the values, and `rng`'s state after, are those of
    whole draws of base, jitter and exposure in turn.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    lo, hi = intensity_range
    base_rng, jitter_rng, exposure_rng = _draw_streams(rng, count)

    def stage(rows):  # called on the blocks in order, so each stream is read front to back
        n = len(rows)
        base = np.exp(base_rng.uniform(np.log(lo), np.log(hi), size=n))
        jitter = jitter_rng.uniform(-1.0, 1.0, size=(n, 3))
        exposure = np.exp(
            exposure_rng.uniform(np.log(EXPOSURE_RANGE[0]), np.log(EXPOSURE_RANGE[1]), size=n)
        )
        hdr = np.clip(base[:, None] * 2.0 ** jitter * exposure[:, None], lo, hi)
        ldr, log = tonemap_ldr(hdr), tonemap_log(hdr)
        return (quantize8(ldr), quantize8(log), hdr) if quantize else (ldr, log, hdr)

    out = tuple(np.empty((count, 3)) for _ in range(3)) if out is None else out
    return map_rows(stage, range(count), out=out)


def training_pool(rng: np.random.Generator, count: int, quantize: bool = True):
    """The TRAIN_DTYPE cast of `sample_training_pairs(rng, count, quantize)` as
    inputs (count, 6) and targets (count, 3): drawn and built per row block, so
    no whole-pool float64 array, draws included, is made."""
    x = np.empty((count, WIDTHS[0]), dtype=TRAIN_DTYPE)
    y = np.empty((count, WIDTHS[-1]), dtype=TRAIN_DTYPE)
    sample_training_pairs(rng, count, quantize, out=(x[:, :3], x[:, 3:], y))
    return x, y


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    batch_size: int = 2048
    steps: int = 25000
    seed: int = 0
    quantize: bool = True
    init: str = "structured"  # or "uniform"

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.init not in ("structured", "uniform"):
            raise ValueError(f"unknown init {self.init!r}")


def _lr_at(cfg: TrainConfig, t: int) -> float:
    """Warmup, hold, then cosine decay to LR_MIN."""
    if t <= WARMUP_STEPS:
        return cfg.learning_rate * t / WARMUP_STEPS
    if t <= HOLD_STEPS:
        return cfg.learning_rate
    f = (t - HOLD_STEPS) / max(cfg.steps - HOLD_STEPS, 1)
    return LR_MIN + 0.5 * (cfg.learning_rate - LR_MIN) * (1.0 + np.cos(np.pi * f))


def train_fusion(cfg: TrainConfig, data=None):
    """Train a fusion net; returns (net, final mean Huber loss or None if no step ran).

    `data` may supply a fixed (ldr, log, hdr) pool; by default the `training_pool`
    of POOL_SIZE pairs is drawn from cfg.seed + 1, unless no step runs
    (cfg.steps == 0), which returns the initial net. Batches cycle
    through the pool in order, so identical configs give bit-identical nets.
    Raises RuntimeError with the step index if the loss goes non-finite.
    """
    dtype = TRAIN_DTYPE
    if cfg.init == "structured":
        net = init_structured(cfg.seed, dtype=dtype, quantize=cfg.quantize)
    else:
        net = init_uniform(cfg.seed, dtype=dtype)
    if cfg.steps == 0:
        return net, None
    if data is None:
        x_pool, y_pool = training_pool(np.random.default_rng(cfg.seed + 1), POOL_SIZE, cfg.quantize)
    else:
        x_pool = np.concatenate(data[:2], axis=1, dtype=dtype)
        y_pool = np.ascontiguousarray(data[2], dtype=dtype)
    pool = x_pool.shape[0]
    if pool < cfg.batch_size:
        reps = -(-cfg.batch_size // pool)
        x_pool = np.tile(x_pool, (reps, 1))
        y_pool = np.tile(y_pool, (reps, 1))
        pool = x_pool.shape[0]

    m = np.zeros_like(net.params)
    v = np.zeros_like(net.params)
    beta1, beta2, eps = 0.9, 0.999, dtype(1e-8)
    delta = dtype(HUBER_DELTA)
    offset = 0
    loss = None
    for t in range(1, cfg.steps + 1):
        # fold bias correction into the step size
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
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged at step {t} (loss {loss})")
    return net, loss


def fuse_image(net: FusionNet, maps: DualToneMaps) -> EnvironmentMap:
    """Per-pixel fusion of a dual-tonemapped environment map back to HDR, at
    `net.dtype`: each block's output goes straight into the map."""
    h, w = maps.ldr.shape[:2]
    ldr = maps.ldr.reshape(-1, 3)
    log = maps.log.reshape(-1, 3)
    out = _forward_blocks(net, ldr, log, np.empty((h * w, WIDTHS[-1]), dtype=net.dtype))
    return EnvironmentMap(out.reshape(h, w, 3))


# ---------------------------------------------------------------------------
# serialization: a 16-byte header (magic, version, layer count, 0), then
# `params` as little-endian float32; the widths are WIDTHS, so a
# `.layers.txt` sidecar left by older versions is ignored

_MAGIC = b"LXFN"
_VERSION = 1


def save_fusion_net(net: FusionNet, path) -> None:
    """Write `net` as float32. A parameter that is not finite there raises
    ValueError before `path` is opened, as `load_fusion_net` would refuse it."""
    with np.errstate(over="ignore"):  # a float64 value past float32's range is refused below
        params = net.params.astype("<f4")
    if not np.isfinite(params).all():
        raise ValueError("fusion net contains non-finite parameters")
    header = _MAGIC + np.array([_VERSION, len(WIDTHS) - 1, 0], dtype="<u4").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(params.tobytes())


def load_fusion_net(path) -> FusionNet:
    with open(path, "rb") as f:
        header = f.read(16)
        body = f.read(4 * N_PARAMS + 1)  # one byte past the end shows trailing data
    if len(header) < 16 or header[:4] != _MAGIC:
        raise ValueError("not a fusion net file")
    version, n_layers, _ = np.frombuffer(header[4:], dtype="<u4")
    if version != _VERSION or n_layers != len(WIDTHS) - 1:
        raise ValueError(f"unsupported fusion net file (v{version}, {n_layers} layers)")
    if len(body) != 4 * N_PARAMS:
        raise ValueError(f"fusion net file has trailing or missing parameters "
                         f"({len(body)} bytes, expected {4 * N_PARAMS})")
    params = np.frombuffer(body, dtype="<f4").astype(np.float32)
    return FusionNet(params)
