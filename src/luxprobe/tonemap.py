"""Dual HDR tonemapping, its rule-based inverse, and display tone curves.

The dual representation encodes linear radiance E as two [0,1] channels:

    ldr = E / (1 + E) * (1 + E / M_LDR**2)      (extended Reinhard)
    log = log(1 + E) / log(1 + M_LOG)           (normalized log intensity)

with M_LDR = 16 and M_LOG = 10000, both clipped to [0,1]. The ldr channel
reaches exactly 1 at E = M_LDR and the log channel at E = M_LOG.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import EnvironmentMap, luminance
from .imgio import codes8

M_LDR = 16.0
M_LOG = 10000.0
_LOG_DEN = np.log1p(M_LOG)

# rule-based inverse: pure Reinhard below, pure log above, linear blend between
BLEND_LO = 8.0
BLEND_HI = 16.0


@dataclass
class DualToneMaps:
    """The (ldr, log) pair of [0,1] images, the model-facing lighting encoding."""

    ldr: np.ndarray
    log: np.ndarray

    def __post_init__(self):
        self.ldr = np.asarray(self.ldr)
        self.log = np.asarray(self.log)
        if self.ldr.shape != self.log.shape:
            raise ValueError("ldr and log channels must share dimensions")
        for name, arr in (("ldr", self.ldr), ("log", self.log)):
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
                raise ValueError(f"{name} channel must lie in [0, 1] (NaN is rejected)")


def _value(t: np.ndarray):
    """`t`, or its value as a numpy scalar when 0-d: what an expression of
    ufuncs returns for a 0-d input, which the in-place forms here keep."""
    return t if t.ndim else t[()]


def tonemap_ldr(e):
    """Extended Reinhard channel, clipped to [0,1]."""
    e = np.asarray(e, dtype=np.float64)
    # e / (1 + e) * (1 + e / M_LDR**2) in place, in that order of operations
    t = np.add(1.0, e, out=np.empty_like(e))
    np.divide(e, t, out=t)
    u = e / (M_LDR * M_LDR)
    u += 1.0
    t *= u
    return _value(np.clip(t, 0.0, 1.0, out=t))


def tonemap_log(e):
    """Normalized log-intensity channel, clipped to [0,1]."""
    e = np.asarray(e, dtype=np.float64)
    t = np.log1p(e, out=np.empty_like(e))
    t /= _LOG_DEN
    return _value(np.clip(t, 0.0, 1.0, out=t))


def tonemap_dual(env: EnvironmentMap) -> DualToneMaps:
    """Per-channel dual tonemapping of an environment map."""
    return DualToneMaps(ldr=tonemap_ldr(env.data), log=tonemap_log(env.data))


def inverse_rule(ldr, log):
    """Analytic inverse of the dual tonemapping, applied per value.

    The Reinhard-channel estimate is the positive root of
    E^2/M_LDR^2 + E*(1-ldr) - ldr = 0 (evaluated in the cancellation-free
    form); the log-channel estimate is (1+M_LOG)**log - 1. Intensities are
    taken from the Reinhard inverse below 8, the log inverse above 16, and
    linearly blended between, with the blend weight driven by the
    log-channel estimate. Inconsistent pairs (e.g. ldr=1, log=0) fall
    through the same blend without raising: the weight from the log
    estimate selects the Reinhard branch.
    """
    ldr = np.asarray(ldr, dtype=np.float64)
    log = np.asarray(log, dtype=np.float64)
    b = 1.0 - ldr
    e_reinhard = 2.0 * ldr / (b + np.sqrt(b * b + 4.0 * ldr / (M_LDR * M_LDR)))
    e_log = np.expm1(log * _LOG_DEN)
    w = np.clip((e_log - BLEND_LO) / (BLEND_HI - BLEND_LO), 0.0, 1.0)
    return (1.0 - w) * e_reinhard + w * e_log


# ---------------------------------------------------------------------------
# Display tone curves (for LDR crop generation, not for the dual encoding).
# Each curve is monotone non-decreasing on [0, inf), maps 0 -> 0, and returns
# values in [0, 1].

def gamma24_srgb(x):
    """Pure gamma companding: clip to [0,1], then power 1/2.4."""
    return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0) ** (1.0 / 2.4)


def aces_approx(x):
    """Rational ACES filmic fit (Narkowicz 2015), gamma-encoded.

    a=2.51, b=0.03, c=2.43, d=0.59, e=0.14.
    """
    x = np.asarray(x, dtype=np.float64)
    y = (x * (2.51 * x + 0.03)) / (x * (2.43 * x + 0.59) + 0.14)
    return np.clip(y, 0.0, 1.0) ** (1.0 / 2.4)


_HABLE = dict(A=0.15, B=0.50, C=0.10, D=0.20, E=0.02, F=0.30)
_HABLE_WHITE = 11.2
_HABLE_EXPOSURE = 2.0


def _hable(x):
    A, B, C, D, E, F = (_HABLE[k] for k in "ABCDEF")
    return (x * (A * x + C * B) + D * E) / (x * (A * x + B) + D * F) - E / F


def filmic_approx(x):
    """Hable/Uncharted-2 filmic curve, white-normalized and gamma-encoded."""
    x = np.asarray(x, dtype=np.float64)
    y = _hable(_HABLE_EXPOSURE * x) / _hable(_HABLE_WHITE)
    return np.clip(y, 0.0, 1.0) ** (1.0 / 2.4)


# AgX sigmoid fit (Wrensch's 6th-order approximation of the Blender AgX
# base contrast) over a log2 encoding spanning [-12.474, 4.026] EV.
_AGX_MIN_EV = -12.47393
_AGX_MAX_EV = 4.026069


def agx_approx(x):
    """Per-channel AgX-style log-space sigmoid; approximate by design."""
    x = np.asarray(x, dtype=np.float64)
    t = np.log2(np.maximum(x, 2.0 ** _AGX_MIN_EV))
    t = np.clip((t - _AGX_MIN_EV) / (_AGX_MAX_EV - _AGX_MIN_EV), 0.0, 1.0)
    t2 = t * t
    t4 = t2 * t2
    y = (
        15.5 * t4 * t2
        - 40.14 * t4 * t
        + 31.96 * t4
        - 6.868 * t2 * t
        + 0.4298 * t2
        + 0.1191 * t
        - 0.00232
    )
    return np.clip(y, 0.0, 1.0)


TONE_CURVES = {
    "gamma24": gamma24_srgb,
    "aces": aces_approx,
    "filmic": filmic_approx,
    "agx": agx_approx,
}


def apply_display_tonemap(img, curve: str) -> np.ndarray:
    """Apply a named display curve per channel; every curve returns values in [0,1]."""
    if curve not in TONE_CURVES:
        raise ValueError(f"unknown tone curve {curve!r}, expected one of {sorted(TONE_CURVES)}")
    img = np.asarray(img, dtype=np.float64)
    if img.min() < 0.0 or not np.isfinite(img).all():
        raise ValueError("display tonemap input must be finite and >= 0")
    return TONE_CURVES[curve](img)


# ---------------------------------------------------------------------------
# exposure + quantization

def percentile_nearest_rank(values, fraction: float) -> float:
    """Nearest-rank percentile on sorted values: rank = ceil(fraction * N)."""
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if flat.size == 0:
        raise ValueError("empty input")
    rank = int(np.ceil(fraction * flat.size))
    return float(flat[max(rank, 1) - 1])


def auto_expose(img, percentile: float = 0.99, target: float = 0.9):
    """The scale that takes a luminance percentile of an HDR image to the target.

    Raises if the percentile luminance is 0.
    """
    ref = percentile_nearest_rank(luminance(img), percentile)
    if ref <= 0.0:
        raise ValueError("degenerate exposure: percentile luminance is zero")
    return target / ref


def quantize8(img):
    """Snap [0,1] values to the 8-bit grid: the PNG codes (`imgio.codes8`) / 255."""
    t = codes8(img)
    t /= 255.0
    return _value(t)
