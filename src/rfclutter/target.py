"""Fluctuating moving target and scene composition.

A point target on a waypoint trajectory contributes a radar-equation echo
whose cross-section fluctuates with exponentially distributed power
(Swerling I) at a configurable coherence time.  The scene combines the
static clutter channel with the target echo coherently, as sampled by a
spinning receive antenna.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antennas import AntennaPattern
from .clutter import ClutterParams, gen_azimuth_channels, spin_operator, spun_channels
from .core import CarrierSpec, RoomSpec, power_db
from .randomfields import RandomStream, check_coherence_resolved, complex_gaussian_series

FOUR_PI_CUBED = (4.0 * math.pi) ** 3


@dataclass(frozen=True)
class TargetSpec:
    """Mean radar cross-section and fluctuation model of the target."""

    sigma0_dbsm: float
    coherence_time_s: float
    model: str  # "swerling1" or "constant"

    def __post_init__(self):
        if self.coherence_time_s <= 0:
            raise ValueError("coherence time must be positive")
        if self.model not in ("swerling1", "constant"):
            raise ValueError(f"unknown fluctuation model {self.model!r}")

    @property
    def sigma0_m2(self) -> float:
        return 10.0 ** (self.sigma0_dbsm / 10.0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Piecewise-linear waypoint path; the radar sits at the origin."""

    times_s: np.ndarray
    positions_m: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        p = np.asarray(self.positions_m, dtype=float)
        if t.ndim != 1 or t.size < 1 or p.shape != (t.size, 2):
            raise ValueError("need matching times (n,) and positions (n, 2)")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise ValueError("waypoint times and positions must be finite")
        if np.any(np.hypot(p[:, 0], p[:, 1]) == 0.0):
            raise ValueError("waypoints must not sit on the radar (origin)")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "positions_m", p)

    @classmethod
    def from_waypoints(cls, waypoints) -> "Trajectory":
        """Build from [(t, x, y), ...] tuples; other input raises ValueError naming it."""
        try:
            times, pos = [], []
            for t, x, y in waypoints:
                times.append(float(t))
                pos.append((float(x), float(y)))
            return cls(np.asarray(times), np.asarray(pos))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"waypoints {waypoints!r}: {exc}") from None

    @property
    def span_s(self) -> tuple[float, float]:
        return float(self.times_s[0]), float(self.times_s[-1])

    def positions_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        t0, t1 = self.span_s
        if np.any(t < t0) or np.any(t > t1):
            raise ValueError(f"time outside trajectory span [{t0}, {t1}]")
        x = np.interp(t, self.times_s, self.positions_m[:, 0])
        y = np.interp(t, self.times_s, self.positions_m[:, 1])
        return np.stack([x, y], axis=-1)


def trajectory_state(traj: Trajectory, t):
    """Range (m) and bearing (degrees) of the target at time t: two floats
    for a scalar t, two arrays of its shape for an array of times."""
    pos = traj.positions_at(t)
    r = np.hypot(pos[..., 0], pos[..., 1])
    phi = np.degrees(np.arctan2(pos[..., 1], pos[..., 0]))
    return (float(r), float(phi)) if np.ndim(t) == 0 else (r, phi)


def target_response(
    r_m,
    bearing_deg,
    spec: TargetSpec,
    carrier: CarrierSpec,
    rx: AntennaPattern,
    tx: AntennaPattern,
    pointing_deg,
    tx_pointing_deg: float,
):
    """Mean target echo power ratio P/P_T.

    lambda^2 * sigma0 * G_T * G_R / ((4 pi)^3 R^4), with antenna gains read
    from the patterns at the target bearing.  The instantaneous echo power
    is this mean scaled by |xi|^2, the fluctuation's power, which the
    constant model fixes at 1.  Range, bearing and pointing may be arrays
    that broadcast together, giving an array; scalars give a float.
    """
    if np.any(np.asarray(r_m) <= 0):
        raise ValueError("target range must be positive")
    g_r = rx.gain_at(bearing_deg - pointing_deg)
    g_t = tx.gain_at(bearing_deg - tx_pointing_deg)
    wl = carrier.wavelength_m
    p = wl**2 * spec.sigma0_m2 * g_t * g_r / (FOUR_PI_CUBED * r_m**4)
    return float(p) if np.ndim(p) == 0 else p


def _distance_from_radar(a, b, ca, cb) -> float:
    """Distance from the origin to the part ca -> cb of the segment a -> b:
    an end's, or inside, |a x b| / |b - a|, exact for a segment through or
    near the origin; a product that overflows gives the ends'."""
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    ends = min(math.hypot(*ca), math.hypot(*cb))
    if ca[0] * dx + ca[1] * dy < 0.0 < cb[0] * dx + cb[1] * dy:
        inside = abs(ax * by - ay * bx) / math.hypot(dx, dy)
        return inside if inside < ends else ends
    return ends


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Everything needed to render a moving target against room clutter."""

    room: RoomSpec
    clutter: ClutterParams
    target: TargetSpec
    trajectory: Trajectory
    rx: AntennaPattern
    tx: AntennaPattern
    spin_period_s: float
    sample_rate_hz: float
    duration_s: float
    tx_pointing_deg: float
    regenerate_clutter_per_rotation: bool

    def __post_init__(self):
        if self.spin_period_s <= 0 or self.sample_rate_hz <= 0 or self.duration_s <= 0:
            raise ValueError("spin period, sample rate and duration must be positive")
        if not 1.5 <= self.duration_s * self.sample_rate_hz < math.inf:  # rounds to >= 2
            raise ValueError("scene needs a finite duration of at least two samples")
        t0, t1 = self.trajectory.span_s
        if t0 > 0.0 or t1 < self.duration_s:
            raise ValueError("trajectory must cover the scene duration")
        # the path must not pass through the radar (the origin) within the
        # scene, nor so near it that the echo lambda^2 sigma0 G_T G_R /
        # ((4 pi)^3 R^4), at the patterns' peak gains, overflows
        t, p = self.trajectory.times_s, self.trajectory.positions_m
        tc = np.clip(t, 0.0, self.duration_s)
        q = list(zip(np.interp(tc, t, p[:, 0]).tolist(), np.interp(tc, t, p[:, 1]).tolist()))
        p = p.tolist()
        nearest = np.float64(min(map(_distance_from_radar, p[:-1], p[1:], q[:-1], q[1:])))
        gains = self.rx.peak_directivity * self.tx.peak_directivity
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            wl_sq = np.float64(self.clutter.carrier.wavelength_m) ** 2
            echo = wl_sq * self.target.sigma0_m2 * gains / (FOUR_PI_CUBED * nearest**4)
        if not echo < math.inf:
            raise ValueError(
                f"the target path passes through the radar (origin), or so near it that its echo "
                f"at the peak gains overflows, in the scene: it comes within {nearest:.4g} m"
            )
        # the length of the fluctuation series, which only Swerling I draws
        n = self.duration_s * self.sample_rate_hz if self.target.model == "swerling1" else None
        check_coherence_resolved(self.target.coherence_time_s, self.sample_rate_hz, n)

    @property
    def _rotation_samples(self) -> float:
        return self.spin_period_s * self.sample_rate_hz

    @property
    def samples_per_rotation(self) -> int | None:
        """The samples in one rotation if a whole number (to 1e-9) of at least one, else None."""
        spr = float(np.rint(self._rotation_samples))  # not round(): inf if the product overflows
        return int(spr) if spr >= 1 and abs(self._rotation_samples - spr) <= 1e-9 else None


@dataclass(frozen=True, eq=False)
class TimeAzimuthMap:
    """Power ratio sampled by the spinning receiver over time.

    One pointing per time sample; :meth:`folded` reshapes complete rotations
    into a (rotation, pointing) image.
    """

    times_s: np.ndarray
    pointing_deg: np.ndarray
    power: np.ndarray
    samples_per_rotation: int | None  # that of the SceneSpec

    @property
    def power_db(self) -> np.ndarray:
        return power_db(self.power)

    def folded(self):
        """(rotation start times, pointing bins, power image) of the complete
        rotations; empty unless a rotation is a whole number of samples, as
        rows would drift off the first rotation's pointings, and one fits."""
        spr = self.samples_per_rotation
        if spr is None or spr > self.power.size:
            return np.empty(0), np.empty(0), np.empty((0, 0))
        n_rot = self.power.size // spr
        image = self.power[: n_rot * spr].reshape(n_rot, spr)
        return self.times_s[::spr][:n_rot], self.pointing_deg[:spr], image


def compose_scene(spec: SceneSpec, stream: RandomStream) -> TimeAzimuthMap:
    """Render the spinning-antenna power map of clutter plus moving target.

    The clutter channel is drawn on the receive pattern's grid and held
    static for the scene unless regenerated per rotation.  When a rotation
    is a whole number of samples, :func:`~rfclutter.clutter.spun_channels`
    spins every draw over the first rotation's pointings, and sample i reads
    row rotation(i), column i % samples-per-rotation; otherwise each draw is
    spun over its own samples' pointings.  The target echo,
    sqrt(:func:`target_response`) times the fluctuation xi (1 for the
    constant model), is added coherently with the two-way geometric phase
    -2 (2 pi / lambda) R(t); |.|^2 is recorded per sample.
    """
    n = int(round(spec.duration_s * spec.sample_rate_hz))
    times = np.arange(n) / spec.sample_rate_hz
    # i % samples-per-rotation (exact, in floats: past int64 too) keeps
    # pointings in [0, 360) and, for a whole number, bitwise the same in every rotation
    spr = spec.samples_per_rotation
    per_rotation = float(spr or spec._rotation_samples)
    column = np.arange(n) % per_rotation
    pointings = column / per_rotation * 360.0

    grid = spec.rx.grid
    clutter_stream = stream.child("clutter")
    # static clutter is one draw for the whole scene; regenerated
    # clutter is drawn anew wherever the rotation index changes
    regenerate = spec.regenerate_clutter_per_rotation
    rotation = np.floor(np.arange(n) / per_rotation) if regenerate else np.zeros(n)
    starts = np.flatnonzero(np.diff(rotation, prepend=-1.0)).tolist()
    subs = (clutter_stream.child(f"rotation/{r}") for r in range(len(starts)))
    streams = list(subs) if regenerate else [clutter_stream]
    if spr:  # row r is rotation r's draw
        spin = spin_operator(grid, spec.rx, spec.tx, pointings[:spr], spec.tx_pointing_deg)
        blocks = spun_channels(spec.room, spec.clutter, grid, streams, spin)
        y_clut = np.concatenate([y for y, _, _ in blocks])[rotation.astype(int), column.astype(int)]
    else:
        amplitudes, _, _ = gen_azimuth_channels(spec.room, spec.clutter, grid, streams)
        y_clut = np.concatenate([
            spin_operator(grid, spec.rx, spec.tx, pointings[a:b], spec.tx_pointing_deg)(row)
            for row, a, b in zip(amplitudes, starts, [*starts[1:], n])
        ])

    # the fluctuation has a child stream of its own, so skipping it for the
    # constant model moves no other draw
    xi = 1.0
    if spec.target.model == "swerling1":
        xi = complex_gaussian_series(
            n, spec.sample_rate_hz, spec.target.coherence_time_s, stream.child("target/fluctuation")
        )

    r, bearing = trajectory_state(spec.trajectory, times)
    carrier = spec.clutter.carrier
    amp_sq = target_response(
        r, bearing, spec.target, carrier, spec.rx, spec.tx, pointings, spec.tx_pointing_deg
    )
    geom_phase = -2.0 * (2.0 * math.pi / carrier.wavelength_m) * r
    y_target = np.sqrt(amp_sq) * xi * np.exp(1j * geom_phase)

    power = np.abs(y_clut + y_target) ** 2
    return TimeAzimuthMap(
        times_s=times,
        pointing_deg=pointings,
        power=power,
        samples_per_rotation=spr,
    )
