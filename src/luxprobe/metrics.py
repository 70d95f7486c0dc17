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
                     vector_norms)
from .probes import STANDARD_MATERIALS, render_probe_pixels

_ZERO_NORM_EPS = 1e-8


def _pair(pred, gt):
    """Both inputs as float64 arrays; raises if their shapes differ or they are empty."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("pred and gt must share dimensions")
    if p.size == 0:
        raise ValueError("empty input")
    return p, g


def si_rmse(pred, gt) -> float:
    """Scale-invariant RMSE: best single positive scale on pred, then RMSE.

    alpha = sum(pred*gt) / sum(pred^2) over all pixels and channels jointly;
    raises for an all-zero prediction.
    """
    p, g = _pair(pred, gt)
    denom = float((p * p).sum())
    if denom == 0.0:
        raise ValueError("degenerate prediction: all-zero")
    alpha = float((p * g).sum()) / denom
    return float(np.sqrt(np.mean((alpha * p - g) ** 2)))


def angular_error(pred, gt) -> float:
    """Mean per-pixel angle (degrees) between RGB vectors treated as 3-vectors.

    Pixels where either norm is below 1e-8 are excluded; raises if none
    qualify.
    """
    p, g = _pair(pred, gt)
    pn = vector_norms(p)
    gn = vector_norms(g)
    ok = (pn > _ZERO_NORM_EPS) & (gn > _ZERO_NORM_EPS)
    if not ok.all():
        if not ok.any():
            raise ValueError("no pixels with nonzero color in both images")
        p, pn, g, gn = p[ok], pn[ok], g[ok], gn[ok]
    angles = angle_between(p / pn[..., None], g / gn[..., None])
    return float(np.degrees(angles).mean())


def n_rmse(pred, gt) -> float:
    """RMSE after normalizing each image to unit mean intensity."""
    p, g = _pair(pred, gt)
    pm, gm = p.mean(), g.mean()
    if pm <= 0.0 or gm <= 0.0:
        raise ValueError("images must have positive mean")
    return float(np.sqrt(np.mean((p / pm - g / gm) ** 2)))


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
                           probe_size: int = 128) -> MetricReport:
    """Score a predicted map against ground truth with the standard probes.

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
