"""Per-pixel HDR fusion MLP: dual tonemapped pair in, linear radiance out.

The network is fixed at 5 affine layers (widths 6-64-64-64-64-3) with
LeakyReLU(0.01) hidden activations and a softplus output, so predictions are
strictly positive. Training minimizes mean Huber loss (delta = 1) against
linear-radiance targets with Adam-style per-parameter step scaling.

Inputs are the six [0,1] values (ldr RGB, log RGB); see tonemap.inverse_rule
for the analytic oracle the trained network is benchmarked against.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import EnvironmentMap
from .tonemap import DualToneMaps, tonemap_ldr, tonemap_log, quantize8

WIDTHS = (6, 64, 64, 64, 64, 3)
LEAKY_SLOPE = 0.01

# training constants (no command or workload varies them)
HUBER_DELTA = 1.0
LR_MIN = 1e-5  # end of the cosine decay
INTENSITY_RANGE = (1e-3, 1e4)  # radiance range of the synthetic training pairs
EXPOSURE_RANGE = (0.25, 4.0)
TRAIN_DTYPE = np.float32

# structured init: hinge kinks per input channel; the log channels carry the
# exponential branch and get the denser basis
_KINKS_PER_INPUT = (6, 6, 6, 14, 14, 14)
_KINK_GAIN = 8.0


@dataclass
class FusionNet:
    """Weights and biases of the fusion MLP (5 affine layers)."""

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(WIDTHS) - 1 or len(self.biases) != len(WIDTHS) - 1:
            raise ValueError(f"expected {len(WIDTHS) - 1} layers")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (WIDTHS[i], WIDTHS[i + 1]) or b.shape != (WIDTHS[i + 1],):
                raise ValueError(f"layer {i} has shape {w.shape}/{b.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} contains non-finite parameters")

    @property
    def widths(self):
        return WIDTHS

    @property
    def dtype(self):
        return self.weights[0].dtype


def _leaky(z):
    return np.maximum(z, z.dtype.type(LEAKY_SLOPE) * z)


def _softplus(z):
    return np.logaddexp(np.asarray(0.0, dtype=z.dtype), z)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_uniform(seed: int, dtype=np.float64) -> FusionNet:
    """Fan-in-scaled uniform initialization."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fi, fo in zip(WIDTHS[:-1], WIDTHS[1:]):
        s = 1.0 / np.sqrt(fi)
        weights.append(rng.uniform(-s, s, size=(fi, fo)).astype(dtype))
        biases.append(rng.uniform(-s, s, size=fo).astype(dtype))
    return FusionNet(weights, biases)


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
    n_hidden = WIDTHS[1]
    w1 = np.zeros((WIDTHS[0], n_hidden))
    b1 = np.zeros(n_hidden)
    unit = 0
    for i, n_kinks in enumerate(_KINKS_PER_INPUT):
        for c in np.linspace(0.0, 0.92, n_kinks):
            w1[i, unit] = _KINK_GAIN
            b1[unit] = -_KINK_GAIN * c
            unit += 1
    s = 1.0 / np.sqrt(WIDTHS[0])
    w1[:, unit:] = rng.uniform(-s, s, size=(WIDTHS[0], n_hidden - unit))
    b1[unit:] = rng.uniform(-s, s, size=n_hidden - unit)
    weights, biases = [w1], [b1]
    for li in range(1, len(WIDTHS) - 2):
        w = np.eye(WIDTHS[li], WIDTHS[li + 1])
        w += rng.uniform(-1e-3, 1e-3, size=w.shape)
        weights.append(w)
        biases.append(np.zeros(WIDTHS[li + 1]))

    design_rng = np.random.default_rng(seed + 101)
    ldr, log, hdr = sample_training_pairs(design_rng, 32768, quantize=quantize)
    h = np.concatenate([ldr, log], axis=1)
    for w, b in zip(weights, biases):
        h = _leaky(h @ w + b)
    phi = np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)
    lam = 1e-3 * phi.shape[0]
    gram = phi.T @ phi + lam * np.eye(phi.shape[1])
    rhs = phi.T @ _softplus_inv(hdr)
    sol = np.linalg.solve(gram, rhs)
    weights.append(sol[:-1])
    biases.append(sol[-1])
    return FusionNet([w.astype(dtype) for w in weights], [b.astype(dtype) for b in biases])


def _forward(net: FusionNet, x: np.ndarray):
    """Forward pass returning (pre-activations, activations) for backprop."""
    pre, acts = [], [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        h = _leaky(z) if i < last else _softplus(z)
        acts.append(h)
    return pre, acts


def fusion_forward(net: FusionNet, ldr_rgb, log_rgb) -> np.ndarray:
    """Predict HDR RGB from a dual-tonemapped pair; accepts (3,) or (N, 3)."""
    ldr = np.asarray(ldr_rgb, dtype=net.dtype)
    log = np.asarray(log_rgb, dtype=net.dtype)
    single = ldr.ndim == 1
    x = np.concatenate([np.atleast_2d(ldr), np.atleast_2d(log)], axis=1)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError("fusion inputs must lie in [0, 1] (NaN is rejected)")
    _, acts = _forward(net, x)
    out = acts[-1]
    return out[0] if single else out


def _backward(net: FusionNet, pre, acts, dout):
    """Exact gradients of the loss wrt every weight and bias."""
    n_layers = len(net.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    g = dout * _sigmoid(pre[-1])
    for i in range(n_layers - 1, -1, -1):
        grads_w[i] = acts[i].T @ g
        grads_b[i] = g.sum(axis=0)
        if i > 0:
            g = g @ net.weights[i].T
            slope = pre[i - 1].dtype.type(LEAKY_SLOPE)
            g = g * np.where(pre[i - 1] > 0, pre[i - 1].dtype.type(1.0), slope)
    return grads_w, grads_b


def huber_loss(pred, target, delta: float = HUBER_DELTA):
    """Elementwise Huber loss: quadratic inside delta, linear outside."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    e = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    ae = np.abs(e)
    return np.where(ae <= delta, 0.5 * e * e, delta * (ae - 0.5 * delta))


def sample_training_pairs(rng: np.random.Generator, count: int, quantize: bool = True,
                          intensity_range=INTENSITY_RANGE, exposure_range=EXPOSURE_RANGE):
    """Synthetic supervised pairs: ((ldr, log) inputs, hdr targets).

    Radiance is drawn log-uniformly over the intensity range as a shared
    per-sample scale with a +/-1 octave per-channel hue jitter, then scaled
    by a random exposure and clipped back into the invertible range (so the
    analytic inverse recovers every unquantized pair exactly). The [0,1]
    inputs are optionally snapped to the 8-bit grid, matching the precision
    of PNG-decoded inputs at inference time.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    lo, hi = intensity_range
    base = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))
    jitter = 2.0 ** rng.uniform(-1.0, 1.0, size=(count, 3))
    exposure = np.exp(
        rng.uniform(np.log(exposure_range[0]), np.log(exposure_range[1]), size=count)
    )
    hdr = np.clip(base[:, None] * jitter * exposure[:, None], lo, hi)
    ldr = tonemap_ldr(hdr)
    log = tonemap_log(hdr)
    if quantize:
        ldr = quantize8(ldr)
        log = quantize8(log)
    return ldr, log, hdr


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    batch_size: int = 2048
    steps: int = 25000
    seed: int = 0
    warmup_steps: int = 500
    hold_steps: int = 4000
    pool_size: int = 2_000_000
    quantize: bool = True
    init: str = "structured"  # or "uniform"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.init not in ("structured", "uniform"):
            raise ValueError(f"unknown init {self.init!r}")


def _lr_at(cfg: TrainConfig, t: int) -> float:
    """Warmup, hold, then cosine decay to LR_MIN."""
    if t <= cfg.warmup_steps:
        return cfg.learning_rate * t / max(cfg.warmup_steps, 1)
    if t <= cfg.hold_steps:
        return cfg.learning_rate
    f = (t - cfg.hold_steps) / max(cfg.steps - cfg.hold_steps, 1)
    return LR_MIN + 0.5 * (cfg.learning_rate - LR_MIN) * (1.0 + np.cos(np.pi * f))


def train_fusion(cfg: TrainConfig, data=None):
    """Train a fusion net; returns (net, final mean Huber loss or None if no step ran).

    `data` may supply a fixed (ldr, log, hdr) pool; by default a pool of
    cfg.pool_size synthetic pairs is drawn from cfg.seed + 1. Batches cycle
    through the pool in order, so identical configs give bit-identical nets.
    Raises RuntimeError with the step index if the loss goes non-finite.
    """
    dtype = TRAIN_DTYPE
    if cfg.init == "structured":
        net = init_structured(cfg.seed, dtype=dtype, quantize=cfg.quantize)
    else:
        net = init_uniform(cfg.seed, dtype=dtype)
    if data is None:
        rng = np.random.default_rng(cfg.seed + 1)
        data = sample_training_pairs(rng, cfg.pool_size, quantize=cfg.quantize)
    ldr, log, hdr = data
    x_pool = np.ascontiguousarray(np.concatenate([ldr, log], axis=1), dtype=dtype)
    y_pool = np.ascontiguousarray(hdr, dtype=dtype)
    pool = x_pool.shape[0]
    if pool < cfg.batch_size:
        reps = -(-cfg.batch_size // pool)
        x_pool = np.tile(x_pool, (reps, 1))
        y_pool = np.tile(y_pool, (reps, 1))
        pool = x_pool.shape[0]

    m_w = [np.zeros_like(w) for w in net.weights]
    v_w = [np.zeros_like(w) for w in net.weights]
    m_b = [np.zeros_like(b) for b in net.biases]
    v_b = [np.zeros_like(b) for b in net.biases]
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
        grads_w, grads_b = _backward(net, pre, acts, dout)
        for i in range(len(net.weights)):
            for g, p, m, v in (
                (grads_w[i], net.weights[i], m_w[i], v_w[i]),
                (grads_b[i], net.biases[i], m_b[i], v_b[i]),
            ):
                m *= dtype(beta1)
                m += dtype(1.0 - beta1) * g
                v *= dtype(beta2)
                v += dtype(1.0 - beta2) * g * g
                p -= lr_t * m / (np.sqrt(v) + eps)
        if t == cfg.steps or t % 500 == 0:
            loss = float(np.mean(huber_loss(err, 0.0)))
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged at step {t} (loss {loss})")
    return net, loss


def fuse_image(net: FusionNet, maps: DualToneMaps) -> EnvironmentMap:
    """Per-pixel fusion of a dual-tonemapped environment map back to HDR."""
    h, w = maps.ldr.shape[:2]
    ldr = maps.ldr.reshape(-1, 3)
    log = maps.log.reshape(-1, 3)
    out = fusion_forward(net, ldr, log)
    return EnvironmentMap(out.reshape(h, w, 3).astype(np.float64))


# ---------------------------------------------------------------------------
# serialization: 16-byte header + flat little-endian float32 params, plus a
# sidecar text manifest of layer widths

_MAGIC = b"LXFN"
_VERSION = 1


def save_fusion_net(net: FusionNet, path) -> None:
    path = str(path)
    blobs = []
    for w, b in zip(net.weights, net.biases):
        blobs.append(w.astype("<f4").tobytes())
        blobs.append(b.astype("<f4").tobytes())
    header = _MAGIC + np.array([_VERSION, len(net.weights), 0], dtype="<u4").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(b"".join(blobs))
    with open(path + ".layers.txt", "w") as f:
        f.write(" ".join(str(w) for w in net.widths) + "\n")


def load_fusion_net(path) -> FusionNet:
    path = str(path)
    with open(path + ".layers.txt") as f:
        widths = tuple(int(tok) for tok in f.read().split())
    if widths != WIDTHS:
        raise ValueError(f"unsupported layer widths {widths}")
    with open(path, "rb") as f:
        header = f.read(16)
        if header[:4] != _MAGIC:
            raise ValueError("not a fusion net file")
        version, n_layers, _ = np.frombuffer(header[4:], dtype="<u4")
        if version != _VERSION or n_layers != len(WIDTHS) - 1:
            raise ValueError(f"unsupported fusion net file (v{version}, {n_layers} layers)")
        params = np.frombuffer(f.read(), dtype="<f4")
    weights, biases = [], []
    pos = 0
    for fi, fo in zip(WIDTHS[:-1], WIDTHS[1:]):
        weights.append(params[pos : pos + fi * fo].reshape(fi, fo).astype(np.float32))
        pos += fi * fo
        biases.append(params[pos : pos + fo].astype(np.float32))
        pos += fo
    if pos != params.size:
        raise ValueError("fusion net file has trailing or missing parameters")
    return FusionNet(weights, biases)
