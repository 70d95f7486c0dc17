"""Lighting-estimation metrics and the three-sphere evaluation driver.

All image metrics score linear-radiance pixels (not display-tonemapped):
pred and gt are (..., 3) RGB arrays of one shape. The three-sphere driver
renders mirror, matte, and diffuse probes from predicted and ground-truth
environment maps and scores the disc pixels of each with si-RMSE, mean
angular error (degrees), and normalized RMSE, plus the peak angular error
between the raw maps.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import (EnvironmentMap, angle_between, great_circle_deg, peak_direction,
                     row_blocks, vector_norms)
from .probes import PROBE_BLOCK_PIXELS, STANDARD_MATERIALS, render_probe_pixels


def _pair(pred, gt):
    """Both inputs as float64 arrays; raises if their shapes differ or they are empty."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("pred and gt must share dimensions")
    if p.size == 0:
        raise ValueError("empty input")
    return p, g


def _blocks(count: int):
    """Slices of 0..count-1, in order, of at most PROBE_BLOCK_PIXELS entries each."""
    return row_blocks(count, 1, PROBE_BLOCK_PIXELS)


def si_rmse(pred, gt) -> float:
    """Scale-invariant RMSE: best single positive scale on pred, then RMSE.

    alpha = sum(pred*gt) / sum(pred^2) over all pixels and channels jointly;
    raises for an all-zero prediction. One temporary of the inputs' shape
    serves each product and then the squared residuals.
    """
    p, g = _pair(pred, gt)
    t = p * p
    denom = float(t.sum())
    if denom == 0.0:
        raise ValueError("degenerate prediction: all-zero")
    alpha = float(np.multiply(p, g, out=t).sum()) / denom
    np.multiply(p, alpha, out=t)
    t -= g
    return float(np.sqrt(np.mean(np.square(t, out=t))))


def angular_error(pred, gt) -> float:
    """Mean per-pixel angle (degrees) between RGB vectors treated as 3-vectors.

    A pixel counts when its squared norm is at least the smallest normal
    float in both images (`peak_direction`'s underflow rule), so the metric
    does not depend on either image's scale; raises if no pixel counts. The
    angles are taken per block of pixels, the pixels that do not count
    dropped before any division, into one array of degrees in pixel order,
    whose mean is the metric.
    """
    p, g = _pair(pred, gt)
    p, g = p.reshape(-1, 3), g.reshape(-1, 3)
    tiny = np.finfo(np.float64).tiny
    degrees = np.empty(len(p))
    counted = 0
    for block in _blocks(len(p)):
        pb, gb = p[block], g[block]
        pn, gn = vector_norms(pb), vector_norms(gb)
        ok = (pn * pn >= tiny) & (gn * gn >= tiny)
        if not ok.all():
            pb, pn, gb, gn = pb[ok], pn[ok], gb[ok], gn[ok]
        angles = angle_between(pb / pn[:, None], gb / gn[:, None])
        np.degrees(angles, out=degrees[counted:counted + len(angles)])
        counted += len(angles)
    if not counted:
        raise ValueError("no pixels with nonzero color in both images")
    return float(degrees[:counted].mean())


def n_rmse(pred, gt) -> float:
    """RMSE after normalizing each image to unit mean intensity. One
    temporary of the inputs' shape holds the residuals, which are made per
    block of values."""
    p, g = _pair(pred, gt)
    pm, gm = p.mean(), g.mean()
    if pm <= 0.0 or gm <= 0.0:
        raise ValueError("images must have positive mean")
    t = p / pm
    flat, g = t.reshape(-1), g.reshape(-1)
    for block in _blocks(flat.size):
        flat[block] -= g[block] / gm
    return float(np.sqrt(np.mean(np.square(t, out=t))))


def peak_angular_error(pred_env: EnvironmentMap, gt_env: EnvironmentMap,
                       percentile: float = 0.999) -> float:
    """Great-circle angle (degrees) between the two maps' peak directions."""
    return great_circle_deg(
        peak_direction(pred_env, percentile), peak_direction(gt_env, percentile)
    )


def temporal_stats(values) -> dict:
    """Mean and population standard deviation of per-frame scalars.

    A constant sequence reports exactly (value, 0.0), untouched by float
    summation rounding.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty sequence")
    if arr.min() == arr.max():
        return {"mean": float(arr[0]), "std": 0.0}
    return {"mean": float(arr.mean()), "std": float(arr.std())}


# report key -> probe metric, looked up at call time so a rebound name (bench/tracer.py) is called
_PROBE_METRICS = {"si_rmse": lambda p, g: si_rmse(p, g),
                  "angular_deg": lambda p, g: angular_error(p, g),
                  "n_rmse": lambda p, g: n_rmse(p, g)}


def _probe_scores(pred, gt) -> dict:
    """Every probe metric of one material's (n, 3) disc pixels."""
    return {key: metric(pred, gt) for key, metric in _PROBE_METRICS.items()}


@dataclass
class MetricReport:
    """Per-material metric table, PAE, and optional temporal statistics."""

    materials: dict
    pae_deg: float
    temporal: dict | None = None

    def to_dict(self) -> dict:
        out = {"materials": self.materials, "pae_deg": self.pae_deg}
        if self.temporal is not None:
            out["temporal"] = self.temporal
        return out


def evaluate_three_spheres(pred_env: EnvironmentMap, gt_env: EnvironmentMap,
                           probe_size: int) -> MetricReport:
    """Score a predicted map against ground truth with the standard probes,
    each rendered at `probe_size` x `probe_size` (the CLI's default is 256).

    The three probes of both maps come from one pass, which shares the
    map-independent work, and each probe is scored over its (n, 3) disc
    pixels as it arrives, before the next one is rendered.
    """
    rendered = render_probe_pixels([pred_env, gt_env], STANDARD_MATERIALS.values(), probe_size)
    # no name outlives a probe's scoring, so its pixels are freed before the next is rendered
    materials = {name: _probe_scores(*next(rendered)[1]) for name in STANDARD_MATERIALS}
    return MetricReport(materials=materials, pae_deg=peak_angular_error(pred_env, gt_env))


def sequence_report(frames) -> MetricReport:
    """The report of a sequence from its per-frame three-sphere reports.

    Each metric is the mean over the frames, in frame order. The temporal
    table keys are "<material>.<metric>" and "pae_deg", each holding the mean
    and population std of the per-frame values. Raises for no frames.
    """
    materials = {}
    temporal = {}
    for mat in STANDARD_MATERIALS:
        materials[mat] = {}
        for metric in _PROBE_METRICS:
            series = [f.materials[mat][metric] for f in frames]
            stats = temporal_stats(series)
            materials[mat][metric] = stats["mean"]
            temporal[f"{mat}.{metric}"] = stats
    pae = temporal_stats([f.pae_deg for f in frames])
    temporal["pae_deg"] = pae
    return MetricReport(materials=materials, pae_deg=pae["mean"], temporal=temporal)
