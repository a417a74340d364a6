"""Room-level average backscatter model.

The average monostatic clutter return of an indoor scene is abstracted to a
single distance-to-wall and a single surface power reflectivity.  A room is
:class:`RoomSpec`: those two numbers and the reverberation time of the delay
model.  This module holds the closed form, :func:`material_reflectivity`
(the one parser of a material tag, which maps a dielectric onto its
angle-averaged Fresnel reflectivity), and a numerical-quadrature cross-check
of the closed form.  It also holds what the other modules share: the dB
conversions (with :func:`power_db` for powers that may be 0) and the CSV
reader :func:`read_csv_rows`.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8
"""Propagation speed in m/s.  Fixed, never configurable."""

FOUR_PI = 4.0 * math.pi


class ConfigurationError(ValueError):
    """An input the run cannot use (a config key or keys, an input file or row,
    a command-line option); the message names it, and the CLI exits 2."""


def to_db(x):
    """Linear power ratio -> dB."""
    return 10.0 * np.log10(x)


def power_db(x):
    """Linear power -> dB, where an exact 0 is -inf without a warning."""
    with np.errstate(divide="ignore"):
        return to_db(x)


def read_csv_rows(path, header):
    """Yield (line number, fields) for each nonblank row of the UTF-8 CSV file
    ``path`` after its ``header``; ``#`` lines are skipped but counted.  An
    unreadable file, another header or a row of another field count raises a
    ConfigurationError naming ``<file>`` or ``<file>:<line>``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            numbered = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    reader = csv.reader(line for _, line in numbered)
    if [h.strip() for h in next(reader, [])] != list(header):
        raise ConfigurationError(f"{path}: expected header {','.join(header)}")
    for fields in filter(None, reader):  # blank rows are empty lists
        line = numbered[reader.line_num - 1][0]
        if len(fields) != len(header):
            raise ConfigurationError(
                f"{path}:{line}: expected {len(header)} fields, got {len(fields)}"
            )
        yield line, fields


def from_db(x):
    """dB -> linear power ratio."""
    return 10.0 ** (np.asarray(x) / 10.0) if np.ndim(x) else 10.0 ** (x / 10.0)


@dataclass(frozen=True)
class CarrierSpec:
    """Carrier frequency with derived wavelength."""

    frequency_hz: float

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz


def material_reflectivity(material) -> float:
    """The power reflectivity gamma_sq of a room material: 1 for ``metal``,
    the angle-averaged Fresnel reflectivity for ``dielectric:<eps_r>`` or
    ``{"eps_r": x}``, and the value itself for ``gamma:<gamma_sq>`` or
    ``{"gamma_sq": x}``.  Anything else, an eps_r outside [1, inf) or a
    gamma_sq outside [0, 1] raises ValueError."""
    if material == "metal":
        return 1.0
    tag = material
    if isinstance(tag, str):
        name, _, text = tag.partition(":")
        key = {"dielectric": "eps_r", "gamma": "gamma_sq"}.get(name)
        tag = {key: float(text)} if key else tag
    if isinstance(tag, dict) and len(tag) == 1:
        [(key, value)] = tag.items()
        number = type(value) in (int, float)
        if key == "eps_r" and number and 1.0 <= value <= sys.float_info.max:
            return fresnel_average_reflectivity(float(value))
        if key == "gamma_sq" and number and 0.0 <= value <= 1.0:
            return float(value)
    raise ValueError(
        f"material {material!r}: expected metal, an eps_r in [1, inf) or a gamma_sq in [0, 1]"
    )


@dataclass(frozen=True)
class RoomSpec:
    """A room as the model sees it: the distance to the nearest illuminated
    wall, that wall's power reflectivity, and the reverberation time of the
    diffuse echo decay."""

    distance_to_wall_m: float
    gamma_sq: float
    t_rev_s: float

    def __post_init__(self):
        if not 0.0 < self.distance_to_wall_m < math.inf:
            raise ValueError(
                f"distance to wall must be positive and finite, got {self.distance_to_wall_m}"
            )
        if not 0.0 <= self.gamma_sq <= 1.0:
            raise ValueError(f"gamma_sq must be in [0, 1], got {self.gamma_sq}")
        if not self.t_rev_s > 0.0:
            raise ValueError(f"reverberation time must be positive, got {self.t_rev_s}")

    @property
    def onset_s(self) -> float:
        """Round-trip delay to the nearest wall."""
        return 2.0 * self.distance_to_wall_m / SPEED_OF_LIGHT


def average_backscatter_ratio(d_s_m: float, wavelength_m: float, gamma_sq: float) -> float:
    """Average clutter backscatter power ratio (received / transmitted).

    gamma_sq * (wavelength / (4 pi d_s))**2 -- the single-distance,
    single-reflectivity room abstraction.  Independent of the antenna
    patterns as long as the receive beam is narrow enough that the clutter
    fills it.  A p0 that overflows, or that is below the normal doubles for
    a nonzero gamma_sq, raises ValueError; gamma_sq = 0 gives 0 (-inf dB).
    """
    if d_s_m <= 0:
        raise ValueError(f"d_s must be positive, got {d_s_m}")
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    if not 0.0 <= gamma_sq <= 1.0:
        raise ValueError(f"gamma_sq must be in [0, 1], got {gamma_sq}")
    try:
        p0 = gamma_sq * (wavelength_m / (FOUR_PI * d_s_m)) ** 2
    except OverflowError:  # a float ** 2 out of range
        p0 = math.inf
    if not p0 < math.inf or gamma_sq > 0.0 and p0 < sys.float_info.min:
        raise ValueError(
            f"p0 = gamma_sq (wavelength / (4 pi d_s))^2 = {p0} is not a positive normal double "
            f"for d_s = {d_s_m} m, wavelength = {wavelength_m} m, gamma_sq = {gamma_sq}"
        )
    return p0


def fresnel_average_reflectivity(eps_r: float) -> float:
    """TE Fresnel power reflectivity of an air-dielectric interface, averaged
    over incidence angles uniform on [0, 90] degrees.

    Only the perpendicular (TE) component is modelled: with vertically
    polarized antennas and vertical wall surfaces, the field is
    perpendicular to the horizontal plane of incidence.  The TE average for
    eps_r = 3 is 0.255, matching the 0.25 conventionally assigned to
    drywall/wood surroundings.
    """
    if eps_r < 1.0:
        raise ValueError(f"relative permittivity must be >= 1, got {eps_r}")
    if eps_r == 1.0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(256)
    theta = 0.25 * math.pi * (nodes + 1.0)  # map [-1, 1] -> [0, pi/2]
    cos_t = np.cos(theta)
    root = np.sqrt(eps_r - np.sin(theta) ** 2)
    r = (cos_t - root) / (cos_t + root)
    # mean over theta: integral / (pi/2), with the affine-map Jacobi factor
    return float(np.sum(weights * (r * r)) * 0.25 * math.pi / (0.5 * math.pi))


def clutter_integral_quadrature(
    d_s_m: float,
    wavelength_m: float,
    gamma_sq: float,
    phi_rms_rad: float,
    theta_rms_rad: float,
    g_t: float = 1.0,
) -> float:
    """Numerical evaluation of the beamspot-weighted clutter power integral.

    Cross-check of :func:`average_backscatter_ratio`, integrating the
    received power over the clutter shell at range ``d_s`` instead of using
    the closed form.  The integrand combines a Gaussian receive gain of the
    given RMS widths (peak gain 2 / (phi_rms * theta_rms)), a flat transmit
    gain ``g_t``, the exact spherical surface element
    ``d_s^2 cos(theta) dtheta dphi`` (not its small-angle form), the
    round-trip spreading ``1/d_s^4``, and the diffuse-scattering projection
    ``cos^2`` of the incidence angle -- which is identically 1 on the
    constant-range shell, where the monostatic return travels along the
    surface normal.  Limits are theta in [-pi/2, pi/2], phi in [-pi, pi].

    The trapezoid grid is refined until the result changes by less than
    0.1%; failure to converge raises ``RuntimeError``.
    """
    if d_s_m <= 0 or wavelength_m <= 0:
        raise ValueError("d_s and wavelength must be positive")
    if not 0.0 <= gamma_sq <= 1.0:
        raise ValueError(f"gamma_sq must be in [0, 1], got {gamma_sq}")
    if phi_rms_rad <= 0 or theta_rms_rad <= 0:
        raise ValueError("beam RMS widths must be positive")

    prefactor = (
        wavelength_m**2 * gamma_sq * g_t / (FOUR_PI**3 * d_s_m**2)
    ) * (2.0 / (phi_rms_rad * theta_rms_rad))

    def evaluate(n: int) -> float:
        theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n)
        phi = np.linspace(-math.pi, math.pi, 2 * n - 1)
        # separable integrand: elevation carries the cos(theta) area factor
        el = np.exp(-(theta**2) / (2.0 * theta_rms_rad**2)) * np.cos(theta)
        az = np.exp(-(phi**2) / (2.0 * phi_rms_rad**2))
        return prefactor * float(np.trapezoid(el, theta) * np.trapezoid(az, phi))

    prev = evaluate(129)
    for n in (257, 513, 1025, 2049, 4097):
        cur = evaluate(n)
        if cur == prev == 0.0:
            return 0.0
        if cur != 0.0 and abs(cur - prev) <= 1e-3 * abs(cur):
            return cur
        prev = cur
    raise RuntimeError("clutter quadrature did not converge to 0.1%")
