"""Lighting-estimation metrics and the three-sphere evaluation driver.

All image metrics operate on linear-radiance renders (not display-tonemapped)
over an optional pixel mask. The three-sphere driver renders mirror, matte,
and diffuse probes from predicted and ground-truth environment maps and
scores each with si-RMSE, mean angular error (degrees), and normalized RMSE,
plus the peak angular error between the raw maps.
"""

from dataclasses import dataclass

import numpy as np

from .envmap import EnvironmentMap, great_circle_deg, peak_direction
from .probes import STANDARD_MATERIALS, render_probe

_ZERO_NORM_EPS = 1e-8


def _masked(img, mask):
    img = np.asarray(img, dtype=np.float64)
    if mask is None:
        return img.reshape(-1, img.shape[-1]) if img.ndim == 3 else img.reshape(-1, 1)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != img.shape[:2]:
        raise ValueError("mask shape must match image height/width")
    sel = img[mask]
    return sel if sel.ndim == 2 else sel[:, None]


def _masked_pair(pred, gt, mask):
    """Both images flattened to (pixels, channels) over the mask.

    Raises if the two selections differ in shape or select nothing.
    """
    p = _masked(pred, mask)
    g = _masked(gt, mask)
    if p.shape != g.shape:
        raise ValueError("pred and gt must share dimensions")
    if p.size == 0:
        raise ValueError("empty mask")
    return p, g


def si_rmse(pred, gt, mask=None) -> float:
    """Scale-invariant RMSE: best single positive scale on pred, then RMSE.

    alpha = sum(pred*gt) / sum(pred^2) over masked pixels and channels
    jointly; raises for an all-zero prediction under the mask.
    """
    p, g = _masked_pair(pred, gt, mask)
    denom = float((p * p).sum())
    if denom == 0.0:
        raise ValueError("degenerate prediction: all-zero under mask")
    alpha = float((p * g).sum()) / denom
    return float(np.sqrt(np.mean((alpha * p - g) ** 2)))


def angular_error(pred, gt, mask=None) -> float:
    """Mean per-pixel angle (degrees) between RGB vectors treated as 3-vectors.

    Pixels where either norm is below 1e-8 are excluded; raises if none
    qualify.
    """
    p, g = _masked_pair(pred, gt, mask)
    pn = np.linalg.norm(p, axis=1)
    gn = np.linalg.norm(g, axis=1)
    ok = (pn > _ZERO_NORM_EPS) & (gn > _ZERO_NORM_EPS)
    if not ok.any():
        raise ValueError("no pixels with nonzero color in both images")
    u = p[ok] / pn[ok, None]
    v = g[ok] / gn[ok, None]
    # atan2 half-angle form: exact 0 for identical pixels, stable near 0/180
    angles = 2.0 * np.arctan2(
        np.linalg.norm(u - v, axis=1), np.linalg.norm(u + v, axis=1)
    )
    return float(np.degrees(angles).mean())


def n_rmse(pred, gt, mask=None) -> float:
    """RMSE after normalizing each image to unit mean intensity over the mask."""
    p, g = _masked_pair(pred, gt, mask)
    pm, gm = p.mean(), g.mean()
    if pm <= 0.0 or gm <= 0.0:
        raise ValueError("images must have positive mean under the mask")
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
    """Score a predicted map against ground truth with the standard probes."""
    materials = {}
    for name, material in STANDARD_MATERIALS.items():
        pred_probe = render_probe(pred_env, material, probe_size)
        gt_probe = render_probe(gt_env, material, probe_size)
        mask = gt_probe.mask
        materials[name] = {
            "si_rmse": si_rmse(pred_probe.pixels, gt_probe.pixels, mask),
            "angular_deg": angular_error(pred_probe.pixels, gt_probe.pixels, mask),
            "n_rmse": n_rmse(pred_probe.pixels, gt_probe.pixels, mask),
        }
    return MetricReport(materials=materials, pae_deg=peak_angular_error(pred_env, gt_env))


def evaluate_sequence(pred_envs, gt_envs, probe_size: int = 128,
                      map=map) -> MetricReport:
    """Per-frame three-sphere metrics plus temporal mean/std per metric.

    The temporal table keys are "<material>.<metric>" and "pae_deg", each
    holding the mean and population std of the per-frame values. `map` runs
    the per-frame evaluations (a thread pool's map evaluates frames in
    parallel); results are taken in frame order, so the report does not
    depend on it.
    """
    if len(pred_envs) != len(gt_envs) or not pred_envs:
        raise ValueError("sequences must be non-empty and equal length")
    frames = list(map(
        lambda p, g: evaluate_three_spheres(p, g, probe_size=probe_size),
        pred_envs, gt_envs,
    ))
    materials = {}
    temporal = {}
    for mat in STANDARD_MATERIALS:
        materials[mat] = {}
        for metric in ("si_rmse", "angular_deg", "n_rmse"):
            series = [f.materials[mat][metric] for f in frames]
            stats = temporal_stats(series)
            materials[mat][metric] = stats["mean"]
            temporal[f"{mat}.{metric}"] = stats
    pae = temporal_stats([f.pae_deg for f in frames])
    temporal["pae_deg"] = pae
    return MetricReport(materials=materials, pae_deg=pae["mean"], temporal=temporal)
