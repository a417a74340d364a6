"""Azimuth antenna patterns: a Gaussian horn, omni, or tabulated from
measured gain samples (a config's ``csv`` kind).

Field patterns are kept on the simulator's azimuth grid, normalized so the
discrete power integral sum(|f|^2) * dphi_rad equals 1.  A pattern can also
be evaluated off-grid, which lets the spinning receiver point anywhere.
Horn and omni patterns are memoized by their arguments and read-only; a
tabulated pattern is built anew from its file on every load.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .core import ConfigurationError, read_csv_rows
from .randomfields import AzimuthGrid

HPBW_TO_RMS = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))  # power-pattern RMS / HPBW


# Below this magnitude of y = x + 180, y / 360 never rounds across an
# integer (a step of y moves y / 360 by more than half an ulp there), so
# floor(y / 360) is exact, and so is 360 * floor(y / 360).  Then
# y - 360 * floor(y / 360) rounds the same exact value as numpy's floored
# remainder y % 360 (fmod, plus 360 when the signs differ), bit for bit, at
# about a third of its cost.
_WRAP_EXACT_BELOW = 2.0**53


def _wrap_deg(offset_deg):
    """Wrap angles to [-180, 180], bitwise equal to ``(x + 180) % 360 - 180``.

    Only ``nextafter(-180 - 360 k, -inf)`` maps to +180: the remainder of
    ``x + 180`` rounds up to 360.  NaN and +-inf give NaN.
    """
    y = np.asarray(offset_deg, dtype=float) + 180.0
    lo, hi = np.min(y, initial=0.0), np.max(y, initial=0.0)
    if not -_WRAP_EXACT_BELOW < lo <= hi < _WRAP_EXACT_BELOW:  # NaN and inf fail too
        return y % 360.0 - 180.0
    y -= 360.0 * np.floor(y / 360.0)
    y -= 180.0
    return y


def _gaussian_wrapped_power(distance_deg, rms_deg):
    """Wrapped Gaussian power lobe versus circular distance d in [0, 180]
    from boresight: the sum over k = -4..4 of exp(-0.5 ((d + 360 k) / rms)^2).

    A term k != 0 is skipped when it is exactly 0 at the smallest |d + 360 k|
    (d = 0 for k > 0, d = 180 for k < 0) under the same operations, so it
    is 0 everywhere and adding it would change no bit.  The first kept term
    is written straight into the output: 0 + t == t.
    """
    d = np.asarray(distance_deg, dtype=float)
    ks = np.arange(-4, 5)
    nearest = np.add(np.where(ks > 0, 0.0, 180.0), 360.0 * ks)
    edge = np.exp(np.multiply(np.square(np.divide(nearest, rms_deg)), -0.5))
    out, term = None, np.empty_like(d)
    for k in ks[(edge != 0.0) | (ks == 0)]:  # in place: large temporaries make the heap churn
        np.square(np.divide(np.add(d, 360.0 * k, out=term), rms_deg, out=term), out=term)
        np.multiply(term, -0.5, out=term)
        if out is None:
            out = np.exp(term, out=np.empty_like(d))
        else:
            out += np.exp(term, out=term)
    return out


@dataclass(frozen=True, eq=False)
class AntennaPattern:
    """Azimuth field pattern |f(phi)| with unit total power.

    ``kind`` is one of ``gaussian`` (horn main lobe), ``omni`` or
    ``tabulated`` (from gain samples).
    """

    grid: AzimuthGrid
    kind: str
    field: np.ndarray
    hpbw_deg: float | None = None
    _scale: float = 1.0
    _tab_az_deg: np.ndarray | None = dc_field(default=None, repr=False)
    _tab_gain_db: np.ndarray | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("gaussian", "omni", "tabulated"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")

    @property
    def power(self) -> np.ndarray:
        return self.field**2

    def _raw_power(self, offset_deg) -> np.ndarray:
        """Unnormalized power at azimuth offsets (degrees) from boresight."""
        d = _wrap_deg(offset_deg)
        if self.kind == "gaussian":
            return _gaussian_wrapped_power(np.abs(d), self.hpbw_deg * HPBW_TO_RMS)
        if self.kind == "omni":
            return np.ones_like(d)
        az = self._tab_az_deg
        gain = self._tab_gain_db
        ext_az = np.concatenate([az, [az[0] + 360.0]])
        ext_gain = np.concatenate([gain, [gain[0]]])
        # offsets below the first sample wrap past the last: [az[0], az[0] + 360)
        x = np.asarray(offset_deg, dtype=float) % 360.0
        db = np.interp(np.where(x < az[0], x + 360.0, x), ext_az, ext_gain)
        return 10.0 ** (db / 10.0)

    def field_at(self, offset_deg) -> np.ndarray:
        """|f| at arbitrary azimuth offsets (degrees) from boresight."""
        return np.sqrt(self._raw_power(offset_deg) * self._scale)

    @property
    def peak_directivity(self) -> float:
        """Peak power gain over isotropic, used for point-target links.

        The Gaussian horn assumes the same beamwidth in elevation, giving
        2 / rms^2; omni is unity; tabulated patterns carry absolute dBi and
        are used verbatim.
        """
        if self.kind == "gaussian":
            s_rad = math.radians(self.hpbw_deg * HPBW_TO_RMS)
            return 2.0 / s_rad**2
        if self.kind == "omni":
            return 1.0
        return float(10.0 ** (np.max(self._tab_gain_db) / 10.0))

    def gain_at(self, offset_deg) -> np.ndarray:
        """Power gain at azimuth offsets, scaled so the peak equals
        :attr:`peak_directivity`."""
        raw = self._raw_power(offset_deg)
        if self.kind == "tabulated":
            return raw  # already absolute gain
        return self.peak_directivity * raw / float(self._raw_power(0.0))


def _normalize(grid: AzimuthGrid, raw_power_on_grid: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # a total out of range is rejected below
        total = float(np.sum(raw_power_on_grid) * grid.delta_phi_rad)
    if not 0.0 < total < math.inf:  # also rejects NaN
        raise ValueError(f"pattern power must total a positive finite value, got {total}")
    return 1.0 / total


def _shared(field: np.ndarray) -> np.ndarray:
    field.flags.writeable = False  # one pattern serves every caller
    return field


@functools.lru_cache(maxsize=16)
def gaussian_horn(hpbw_deg: float, grid: AzimuthGrid) -> AntennaPattern:
    """Gaussian main-lobe horn with the given half-power beamwidth.

    Memoized by value, like :func:`omni`: equal arguments return the same
    read-only pattern, so spin operators keyed on it are found again."""
    if not 0.0 < hpbw_deg < 180.0:
        raise ValueError(f"hpbw must be in (0, 180) degrees, got {hpbw_deg}")
    if hpbw_deg < grid.delta_phi_deg:  # the grid cannot resolve the beam
        raise ValueError(
            f"hpbw {hpbw_deg} deg is narrower than one grid bin ({grid.delta_phi_deg} deg)"
        )
    # integer circular bin distances keep mirror bins bit-identical
    j = np.arange(grid.n_bins)
    dist = np.minimum(j, grid.n_bins - j) * grid.delta_phi_deg
    raw = _gaussian_wrapped_power(dist, hpbw_deg * HPBW_TO_RMS)
    scale = _normalize(grid, raw)
    return AntennaPattern(
        grid=grid,
        kind="gaussian",
        field=_shared(np.sqrt(raw * scale)),
        hpbw_deg=hpbw_deg,
        _scale=scale,
    )


@functools.lru_cache(maxsize=16)
def omni(grid: AzimuthGrid) -> AntennaPattern:
    """Isotropic azimuth pattern, |f|^2 = 1/(2 pi) per radian."""
    raw = np.ones(grid.n_bins)
    scale = _normalize(grid, raw)
    field = _shared(np.sqrt(raw * scale))
    return AntennaPattern(grid=grid, kind="omni", field=field, _scale=scale)


def tabulated(azimuth_deg, gain_db, grid: AzimuthGrid) -> AntennaPattern:
    """Pattern from (azimuth, gain) samples, interpolated linearly in dB.

    Azimuth samples must be strictly increasing within [0, 360).
    """
    az = np.asarray(azimuth_deg, dtype=float)
    gain = np.asarray(gain_db, dtype=float)
    if az.ndim != 1 or az.size < 2 or gain.shape != az.shape:
        raise ValueError("need matching 1-D azimuth and gain arrays with >= 2 samples")
    if not (np.all(np.isfinite(az)) and np.all(np.isfinite(gain))):
        raise ValueError("azimuth and gain samples must be finite")
    with np.errstate(over="ignore"):
        if not 10.0 ** (np.max(gain) / 10.0) < math.inf:
            raise ValueError(f"gain {np.max(gain)} dB has no finite linear power")
    if np.any(np.diff(az) <= 0) or az[0] < 0 or az[-1] >= 360.0:
        raise ValueError("azimuth samples must be strictly increasing in [0, 360)")
    p = AntennaPattern(grid, "tabulated", np.empty(0), _tab_az_deg=az, _tab_gain_db=gain)
    raw = p._raw_power(grid.centers_deg)
    scale = _normalize(grid, raw)
    return replace(p, field=np.sqrt(raw * scale), _scale=scale)


def load_pattern_csv(path, grid: AzimuthGrid) -> AntennaPattern:
    """Read a two-column CSV with header ``azimuth_deg,gain_db``.

    A malformed row raises a ConfigurationError naming ``<file>:<line>``.
    """
    az, gain = [], []
    for line, (az_text, gain_text) in read_csv_rows(path, ("azimuth_deg", "gain_db")):
        try:
            az.append(float(az_text))
            gain.append(float(gain_text))
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{line}: {exc}") from None
    return tabulated(az, gain, grid)


def pattern_autocorrelation(pattern: AntennaPattern):
    """Circular autocorrelation of the mean-removed power pattern.

    Returns (lags_deg, rho) with lags in [-180, 180) sorted ascending and
    rho normalized to 1 at zero lag.  Constant patterns (omni) have no
    variance to normalize and raise ValueError.
    """
    power = pattern.power
    x = power - power.mean()
    denom = float(np.sum(x * x))
    if denom <= 1e-15 * float(np.sum(power**2)):
        raise ValueError("constant pattern has degenerate variance")
    corr = np.fft.irfft(np.abs(np.fft.rfft(x)) ** 2, n=x.size) / denom
    lags = _wrap_deg(pattern.grid.centers_deg)
    order = np.argsort(lags, kind="stable")
    return lags[order], corr[order]
