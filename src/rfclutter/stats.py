"""Statistical machinery for validating the synthesized channels.

Spatial correlation of spun spectra across nearby transceiver positions,
azimuth autocorrelation of spectra, exponential-decay fitting of delay
profiles, and the room-survey prediction report.
The correlations take arrays of dB spectra whose last axis is the pointing
sweep, and normalize each spectrum along that axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .antennas import _wrap_deg
from .core import (
    CarrierSpec,
    ConfigurationError,
    average_backscatter_ratio,
    material_reflectivity,
    read_csv_rows,
    to_db,
)

BEST_FIT_REFLECTIVITIES = (1.0, 0.25)  # metal / dielectric surroundings


def _normalize_db_rows(rows_db: np.ndarray) -> np.ndarray:
    """Mean-removed, unit-variance dB spectra along the last (pointing) axis."""
    centered = rows_db - rows_db.mean(axis=-1, keepdims=True)
    scale = np.sqrt((centered**2).mean(axis=-1, keepdims=True))
    if np.any(scale <= 0):
        raise ValueError("constant spectrum has degenerate variance")
    return centered / scale


def spatial_correlation(power_db, positions_m):
    """Correlation of dB spun spectra versus transceiver separation.

    ``power_db`` is (n_positions, n_pointings), row i seen at ``positions_m[i]``.
    Rows are normalized, each pair's product is averaged over the pointing
    axis, then over the pairs at one separation |d_j - d_i| (rounded to
    1e-9 m).  Returns (separations_m, rho) sorted by separation.
    """
    p = np.asarray(power_db, dtype=float)
    pos = np.asarray(positions_m, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2 or pos.shape != (p.shape[0],):
        raise ValueError("need an (n_positions >= 2, n_pointings) array with matching positions")
    p = _normalize_db_rows(p)
    i, j = np.triu_indices(pos.size, k=1)
    pair_rho = np.mean(p[i] * p[j], axis=1)
    seps, bucket = np.unique(np.round(np.abs(pos[j] - pos[i]), 9), return_inverse=True)
    # one np.mean per bucket keeps the pairwise summation order of each mean
    rho = np.array([np.mean(pair_rho[bucket == k]) for k in range(seps.size)])
    return seps, rho


def azimuth_autocorrelation(power_db):
    """Circular autocorrelation of normalized dB spectra versus azimuth lag.

    ``power_db`` is a (..., n_pointings) array of spectra on one uniform
    pointing sweep; the correlation is averaged over all leading axes.
    Returns (lags_deg in [-180, 180), rho).
    """
    p = np.asarray(power_db, dtype=float)
    if p.size == 0:
        raise ValueError("need at least one spectrum")
    n = p.shape[-1]
    p = _normalize_db_rows(p.reshape(-1, n))
    corr = np.fft.irfft(np.abs(np.fft.rfft(p, axis=1)) ** 2, n=n, axis=1).mean(axis=0) / n
    lags = _wrap_deg(np.arange(n) * (360.0 / n))
    order = np.argsort(lags, kind="stable")
    return lags[order], corr[order]


def correlation_half_width(lags_deg, rho) -> float:
    """Lag (degrees) where the main lobe first falls to half of rho(0)."""
    lags = np.asarray(lags_deg, dtype=float)
    r = np.asarray(rho, dtype=float)
    pos = lags >= 0
    lags, r = lags[pos], r[pos]
    order = np.argsort(lags)
    lags, r = lags[order], r[order]
    half = 0.5 * r[0]
    below = np.nonzero(r < half)[0]
    if below.size == 0:
        raise ValueError("correlation never falls below half maximum")
    k = below[0]
    if k == 0:
        return 0.0
    # linear interpolation between the straddling lags
    frac = (r[k - 1] - half) / (r[k - 1] - r[k])
    return float(lags[k - 1] + frac * (lags[k] - lags[k - 1]))


def fit_reverberation(delays_s, power, onset_s: float) -> float:
    """Reverberation time from an exponentially decaying delay profile.

    Least-squares line on dB power versus delay beyond the profile peak,
    down to a -30 dB fit floor; the decay time is -10 log10(e) / slope.
    """
    tau = np.asarray(delays_s, dtype=float)
    p = np.asarray(power, dtype=float)
    if tau.shape != p.shape or tau.ndim != 1:
        raise ValueError("need matching 1-D delay and power arrays")
    after = tau >= onset_s
    if not np.any(after):
        raise ValueError("no samples beyond onset")
    peak_idx = int(np.argmax(p))
    floor = p[peak_idx] * 1e-3
    mask = (tau > tau[peak_idx]) & (p > floor)
    if np.count_nonzero(mask) < 10:
        raise ValueError("too few samples beyond the peak above the fit floor")
    slope, _ = np.polyfit(tau[mask], to_db(p[mask]), 1)
    if slope >= 0:
        raise ValueError("profile does not decay; cannot fit a reverberation time")
    return float(-10.0 * math.log10(math.e) / slope)


@dataclass(frozen=True)
class SurveyRow:
    """One surveyed room with its measured median backscatter ratio."""

    label: str
    n_links: int
    dim_a_m: float
    dim_b_m: float
    d_s_m: float
    measured_median_db: float
    gamma_sq: float | None  # the material's reflectivity; None for "bestfit"
    source: str = "survey row"  # "<file>:<line>" for a row read from a file


def _survey_data_path() -> Path:
    return Path(resources.files("rfclutter").joinpath("data/room_survey.csv"))


_SURVEY_HEADER = "label,n_links,dim_a_m,dim_b_m,d_s_m,measured_median_db,material".split(",")


def load_room_survey(path=None) -> list[SurveyRow]:
    """Read the shipped room-survey CSV (or another file of the same schema).

    A malformed row raises a ConfigurationError naming ``<file>:<line>``.
    """
    src = Path(path) if path is not None else _survey_data_path()
    rows = []
    for line, (label, n_links, *numbers, material) in read_csv_rows(src, _SURVEY_HEADER):
        try:
            gamma_sq = None if material == "bestfit" else material_reflectivity(material)
            row = SurveyRow(label, int(n_links), *map(float, numbers), gamma_sq, f"{src}:{line}")
            if not (0.0 < row.d_s_m < math.inf and math.isfinite(row.measured_median_db)):
                raise ValueError("d_s_m must be finite and positive, measured_median_db finite")
            if gamma_sq == 0.0:
                raise ValueError(f"material {material}: zero reflectivity has no finite dB")
        except ValueError as exc:
            raise ConfigurationError(f"{src}:{line}: {exc}") from None
        rows.append(row)
    if not rows:
        raise ConfigurationError(f"{src}: no survey rows")
    return rows


@dataclass(frozen=True, eq=False)
class SurveyReport:
    """Each surveyed room's chosen reflectivity, predicted average ratio
    p0_db and prediction - measured error, and the errors' RMS."""

    rows: list[SurveyRow]
    gamma_sq: np.ndarray
    p0_db: np.ndarray
    errors_db: np.ndarray
    rms_db: float


def survey_report(
    rows: list[SurveyRow], carrier: CarrierSpec, force_best_fit: bool = False
) -> SurveyReport:
    """Predict every surveyed room and report prediction - measured errors.

    Rows tagged ``bestfit``, with no ``gamma_sq`` (or all rows, when
    ``force_best_fit``), pick the reflectivity from {1, 0.25} that minimizes
    the absolute error.  A row whose p0 is out of range (see
    :func:`average_backscatter_ratio`) raises a ConfigurationError naming its
    ``source``.
    """
    if not rows:
        raise ValueError("no survey rows")
    chosen = []
    for row in rows:
        best_fit = force_best_fit or row.gamma_sq is None
        candidates = BEST_FIT_REFLECTIVITIES if best_fit else (row.gamma_sq,)
        try:
            predicted = [
                (g, float(to_db(average_backscatter_ratio(row.d_s_m, carrier.wavelength_m, g))))
                for g in candidates
            ]
        except ValueError as exc:
            raise ConfigurationError(f"{row.source}: {exc}") from None
        # the first of equally close candidates wins
        g, p0_db = min(predicted, key=lambda c: abs(c[1] - row.measured_median_db))
        chosen.append((g, p0_db, p0_db - row.measured_median_db))
    gamma_sq, p0_db, errors = map(np.asarray, zip(*chosen))
    return SurveyReport(rows, gamma_sq, p0_db, errors, float(np.sqrt(np.mean(errors**2))))
