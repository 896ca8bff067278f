"""Bounding-box size statistics for the synthetic DAC-SDC dataset.

Figure 6 of the paper shows the distribution of *relative bounding-box
size* (box area / image area) in the DAC-SDC training set: 91% of objects
occupy less than 9% of the image and 31% less than 1%.  We model that
distribution as a log-normal whose two parameters are solved exactly from
those two quantiles, so the synthetic data matches the paper's published
statistics by construction.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import default_rng

__all__ = [
    "AREA_RATIO_MU",
    "AREA_RATIO_SIGMA",
    "sample_area_ratio",
    "sample_aspect_ratio",
    "relative_size_histogram",
    "cumulative_fraction_below",
]

# Solve mu, sigma of ln(area_ratio) from the two published quantiles:
#   P(ratio < 0.01) = 0.31  and  P(ratio < 0.09) = 0.91.
# z = scipy.stats.norm.ppf(0.31), norm.ppf(0.91), written out: importing
# scipy.stats costs ~1 s in every process that imports repro.detection.
_Z1 = -0.4958503473474533
_Z2 = 1.3407550336902165
AREA_RATIO_SIGMA: float = float((np.log(0.09) - np.log(0.01)) / (_Z2 - _Z1))
AREA_RATIO_MU: float = float(np.log(0.01) - AREA_RATIO_SIGMA * _Z1)

# Keep samples physically plausible: never smaller than ~0.04% of the
# image (a couple of pixels at contest resolution) nor above half of it.
MIN_AREA_RATIO = 4e-4
MAX_AREA_RATIO = 0.5


def sample_area_ratio(
    n: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Draw ``n`` relative box areas from the Fig. 6 distribution."""
    rng = default_rng(rng)
    ratios = np.exp(rng.normal(AREA_RATIO_MU, AREA_RATIO_SIGMA, size=n))
    return np.clip(ratios, MIN_AREA_RATIO, MAX_AREA_RATIO)


def sample_aspect_ratio(
    n: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Draw width/height aspect ratios (log-normal around square-ish)."""
    rng = default_rng(rng)
    return np.exp(rng.normal(0.1, 0.35, size=n))


def relative_size_histogram(
    ratios: np.ndarray, bins: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram + cumulative curve of relative sizes, as in Fig. 6.

    Returns
    -------
    edges:
        Bin edges (fractions of image area).
    frac:
        Fraction of boxes per bin (the green bars).
    cum:
        Cumulative fraction at each bin's right edge (the blue curve).
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    if bins is None:
        bins = np.arange(0.0, 0.205, 0.01)
    counts, edges = np.histogram(ratios, bins=bins)
    frac = counts / max(len(ratios), 1)
    cum = np.cumsum(frac)
    return edges, frac, cum


def cumulative_fraction_below(ratios: np.ndarray, threshold: float) -> float:
    """Fraction of boxes whose relative size is below ``threshold``."""
    ratios = np.asarray(ratios, dtype=np.float64)
    return float((ratios < threshold).mean())
