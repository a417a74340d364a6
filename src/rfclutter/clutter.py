"""Clutter channel synthesis.

Instantiates the stochastic backscatter channel: complex arrival amplitudes
on an azimuth grid (optionally extended over delay with a reverberant decay
envelope), the spun-antenna response, and band-limited probing of the
delay-azimuth map.  Every spin is one linear operator, :func:`spin_operator`:
Y(p) = dphi * sum_i h_i f_R(phi_i - p) f_T(phi_i - tx_pointing) over the last
axis of the amplitudes.  It is computed as a circular FFT convolution when
the pointings are the bin centers 0, d, 2d, ... of a sweep that steps d >= 1
bins around the whole grid, and otherwise as one weight matrix with one row
per pointing, in the order given.  The matrix rows of pointings that sit the
same sub-bin offset off the grid are rolls of one another, so f_R is
evaluated once per distinct offset.  Every spin runs on one OpenBLAS thread,
whatever path and thread it runs on.  A spin's last bits depend on how many
pointings its operator has, so a scene spins one rotation and reads every
sample off it.

Channel draws
-------------
Every draw and every spin runs on blocks of about 2^15 entries,
``max(1, 2^15 // n_bins)`` rows (:func:`_row_blocks`): 18 on the 0.2 degree
grid, 91 on the 1 degree grid.  :func:`_amplitudes` turns a block's white
noise and uniforms into complex amplitudes: field rows filtered by
:func:`~rfclutter.randomfields.filter_field_rows`, their magnitudes and the
phasors of :func:`_unit_phasors`.  A drawn row is the same bits in any
block and on any thread, but the block is part of the data contract: it
keys a delay map's chunk streams, and an off-grid spin's last bits follow
the row count of its matrix product.

Azimuth channels are drawn and spun by :func:`spun_channels`, one
:func:`gen_azimuth_channels` call and one spin per block of streams.
:func:`gen_azimuth_channel` and :func:`spin_response` are the one-stream
case, kept for library use.

A delay-azimuth map, drawn by :func:`_draw_rows`, has one P_v, the first
draw of its stream.  Its rows from the echo onset on are drawn a block (a
chunk) at a time, each chunk's noise, then its phases, from its own child
stream ``rows/<first row>``, rows counted from the onset.  So a chunk's
values depend on nothing but the map's stream, P_v and the chunk's rows:
not on the map's size or the worker count.  Rows before the onset are
never drawn: they are exact zeros in the map and stay exact zeros through
the spin and the direct delay convolution.

A map is probed with a pulse of duration T = 1/bandwidth, sampled on the
delay grid itself (:meth:`ProbeWaveform.taps`): its taps are the pulse at
0, dtau, ... up to T, so no pulse is built at a rate of its own or
resampled, and the probed map runs floor(T/dtau) rows past the drawn one.

A map runs as a pipeline over its chunks, on the process's thread pool
(:mod:`rfclutter.pool`): a worker draws, filters and phases a chunk and
spins it, at most ``_IN_FLIGHT`` chunks ahead of the calling thread, which
carries the delay convolution of :func:`_probe_rows` (the last
``len(taps) - 1`` spun rows, from chunk to chunk), then |.|^2, dB and the
profile, in chunk order.  Each chunk is dropped once it has been read.  On
one worker, or when the map itself is drawn on a pool thread (the
reverberation check's maps), every chunk runs inline, with the same bytes.
:func:`probe_delay_map` streams the pipeline into float32 dB rows and the
mean profile; :func:`gen_delay_azimuth_channel` (its chunks not spun) and
:func:`band_limit` are its held case, with the same values.

Discretization normalization
----------------------------
The arrival phases are i.i.d. per bin, so the mean power of the discrete
convolution sum scales with the bin width.  Per-bin amplitudes therefore
carry a calibration factor sqrt(2*pi / dphi_rad) (and sqrt(1 / dtau) in
delay), chosen so that the spun power, averaged over a uniform pointing
sweep and over the phase ensemble, equals the room's average backscatter
ratio p0 * 10^(p_v/10) for unit-total-power patterns.  This anchors the
synthesized spectra to the closed-form room average.
"""

from __future__ import annotations

import collections
import math
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from .antennas import AntennaPattern, _wrap_deg
from .core import (
    SPEED_OF_LIGHT,
    CarrierSpec,
    ConfigurationError,
    RoomSpec,
    average_backscatter_ratio,
    power_db,
)
from .pool import in_order, one_blas_thread
from .randomfields import (
    LN10_OVER_20,
    AzimuthGrid,
    LognormalFieldParams,
    RandomStream,
    filter_field_rows,
    lognormal_mean_offset,
)

TWO_PI = 2.0 * math.pi

# the entries of every block of rows, drawn or spun: part of the data contract
_BLOCK_ENTRIES = 1 << 15
# arrays of up to 2^22 entries are held whole, a spin operator's weights;
# larger ones are rebuilt block by block where they are used.  The kept spin
# operators hold at most as many entries in all.
_HELD_ENTRIES = 1 << 22
# a map's chunks drawn and spun ahead of the delay convolution that reads them
_IN_FLIGHT = 3


def _row_blocks(n_rows: int, n_cols: int) -> list:
    """Row slices of max(1, 2^15 // n_cols) rows, the last one perhaps fewer."""
    step = max(1, _BLOCK_ENTRIES // n_cols)
    return [slice(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]


# exp(2j pi u) as a table of exp(2j pi n / 4096) times a small-angle series.
# The step 2 pi / 4096 is _STEP_HI (40 bits, so n * _STEP_HI is exact for
# n <= 4096) plus _STEP_LO, which carries 2 pi - float(2 pi) = 2.449e-16.
_PHASOR_STEPS = 4096
_STEP_MANT, _STEP_EXP = math.frexp(TWO_PI / _PHASOR_STEPS)
_STEP_HI = math.ldexp(math.floor(math.ldexp(_STEP_MANT, 40)), _STEP_EXP - 40)
_STEP_LO = (TWO_PI / _PHASOR_STEPS - _STEP_HI) + 2.4492935982947064e-16 / _PHASOR_STEPS
_QUARTER = np.exp(1j * (np.arange(_PHASOR_STEPS // 4) * (TWO_PI / _PHASOR_STEPS)))
_PHASOR_TABLE = np.concatenate([_QUARTER, 1j * _QUARTER, -_QUARTER, -1j * _QUARTER])


def _unit_phasors(u: np.ndarray) -> np.ndarray:
    """exp(1j * 2 pi u) for u in [0, 1), within about 4e-16 of np.exp.

    The angle is rounded as 2 pi u, like ``uniform(0, 2 pi)`` draws it, then
    reduced exactly to the nearest table step: the series residual is below
    2e-21 for the reduced angle |r| <= pi / 4096.
    """
    theta = u * TWO_PI
    n = np.rint(theta * (_PHASOR_STEPS / TWO_PI))
    r = theta - n * _STEP_HI  # exact
    r -= n * _STEP_LO
    r2 = r * r
    series = np.empty(u.shape, dtype=complex)
    series.real = 1.0 + r2 * (-0.5 + r2 * (1.0 / 24.0))
    series.imag = r * (1.0 + r2 * (-1.0 / 6.0 + r2 * (1.0 / 120.0)))
    out = _PHASOR_TABLE[n.astype(np.intp) & (_PHASOR_STEPS - 1)]
    out *= series
    return out


@dataclass(frozen=True)
class ClutterParams:
    """Statistical parameters of the clutter channel; ``field_params`` is built once, here."""

    carrier: CarrierSpec
    sigma_v_db: float  # location-level spread of the local average
    sigma_db: float  # azimuthal spread about the local average
    phi_rms_deg: float  # azimuth correlation scale
    field_params: LognormalFieldParams = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma_v_db < 0:
            raise ValueError("sigma_v_db must be nonnegative")
        field_params = LognormalFieldParams(self.sigma_db, self.phi_rms_deg)  # checks the two
        object.__setattr__(self, "field_params", field_params)


def location_phase(grid: AzimuthGrid, wavelength_m: float, move_m) -> np.ndarray:
    """exp(2j k (dx cos phi + dy sin phi)) over the grid: the phase each
    arrival gains when the transceiver moves by ``move_m`` = (dx, dy)."""
    phi = np.deg2rad(grid.centers_deg)
    k = TWO_PI / wavelength_m
    return np.exp(2j * k * (move_m[0] * np.cos(phi) + move_m[1] * np.sin(phi)))


@dataclass(frozen=True, eq=False)
class AzimuthField:
    """Complex backscatter arrival amplitudes on an azimuth grid.

    The same draw seen from a transceiver moved by (dx, dy) is ``amplitudes *
    location_phase(grid, wavelength_m, (dx, dy))``: moving changes only
    phases, never per-bin magnitudes.
    """

    grid: AzimuthGrid
    amplitudes: np.ndarray
    p_v_db: float
    p0: float


@dataclass(frozen=True, eq=False)
class SpunSpectrum:
    """Backscattered power ratio versus receive pointing angle."""

    pointings_deg: np.ndarray
    power: np.ndarray

    @property
    def power_db(self) -> np.ndarray:
        return power_db(self.power)


def _backscatter_ratio(room, params) -> float:
    """p0, the room's average backscatter ratio at the clutter's carrier."""
    return average_backscatter_ratio(
        room.distance_to_wall_m, params.carrier.wavelength_m, room.gamma_sq
    )


def _location_level_db(params, rng) -> float:
    """P_v, the first draw of a stream: the location-level dB offset."""
    return lognormal_mean_offset(params.sigma_v_db) + params.sigma_v_db * rng.standard_normal()


def _row_log(params, p_v_db, power):
    """log |h| - c sigma z per row, for rows of mean power ``power`` (scale,
    p0 and envelope) at the location level ``p_v_db``.

    |h| = exp(c z + row_log) with field_dB = mu + sigma z and c = ln(10)/20;
    a zero power gives row_log = -inf and exact zeros.
    """
    with np.errstate(divide="ignore"):
        return LN10_OVER_20 * (p_v_db + params.field_params.mu_db) + 0.5 * np.log(power)


def _amplitudes(white, u, params, corr_bins, row_log):
    """A block's complex amplitudes from its white noise rows and its
    uniforms ``u`` in [0, 1): the noise filtered into unit field rows z,
    magnitudes exp(c sigma z + row_log) and phases 2 pi u."""
    z = filter_field_rows(white, corr_bins)
    z *= LN10_OVER_20 * params.sigma_db
    z += row_log[:, None]
    return _unit_phasors(u) * np.exp(z, out=z)


def _draw_rows(room, params, grid, stream, scale_sq, envelope, spin=None):
    """Draw rows r of magnitude sqrt(scale_sq p0 envelope_r 10^((P_v + field_dB)/10))
    and uniform phases; return (P_v, p0, chunks), where ``chunks`` yields
    (rows, complex rows) in row order, in the blocks of :func:`_row_blocks`,
    each chunk spun by ``spin`` when one is given.

    P_v is the first draw of ``stream``; each chunk draws its white noise,
    then its phases, from ``stream.child(f"rows/{first row}")``, on the pool,
    at most ``_IN_FLIGHT`` ahead of the reader.
    """
    corr_bins = params.field_params.corr_bins(grid)
    p_v_db = _location_level_db(params, stream.generator())
    p0 = _backscatter_ratio(room, params)
    row_log = _row_log(params, p_v_db, scale_sq * p0 * envelope)

    def drawn(rows):
        rng = stream.child(f"rows/{rows.start}").generator()
        shape = (rows.stop - rows.start, grid.n_bins)
        white = rng.standard_normal(shape)  # the noise first, then the phases
        a = _amplitudes(white, rng.random(shape), params, corr_bins, row_log[rows])
        return rows, a if spin is None else spin(a)

    return p_v_db, p0, in_order(drawn, _row_blocks(envelope.size, grid.n_bins), ahead=_IN_FLIGHT)


def gen_azimuth_channels(
    room: RoomSpec,
    params: ClutterParams,
    grid: AzimuthGrid,
    streams,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Draw one azimuth-only clutter channel at the origin from each of
    ``streams``: return (amplitudes of shape (n_streams, n_bins), P_v of
    shape (n_streams,), p0).  Per-bin magnitudes are
    sqrt(2*pi/dphi) * sqrt(p0 * 10^(P_v/10) * 10^(P(phi)/10)).

    Each stream's generator draws P_v, its noise row and its phase row, in
    that order; :func:`_amplitudes` then turns the stacked rows into
    amplitudes in one pass.  Row i is the bits that ``streams[i]`` drawn
    alone gives.
    """
    corr_bins = params.field_params.corr_bins(grid)
    p0 = _backscatter_ratio(room, params)
    n = len(streams)
    p_v_db = np.empty(n)
    white, u = np.empty((n, grid.n_bins)), np.empty((n, grid.n_bins))
    for i, stream in enumerate(streams):
        rng = stream.generator()
        p_v_db[i] = _location_level_db(params, rng)
        rng.standard_normal(out=white[i])
        rng.random(out=u[i])  # uniform(0, 2 pi) / 2 pi
    # one row of unit envelope: the power a one-row map would have
    scale_sq = TWO_PI / grid.delta_phi_rad
    row_log = _row_log(params, p_v_db, scale_sq * p0 * np.ones(1))
    return _amplitudes(white, u, params, corr_bins, row_log), p_v_db, p0


def spun_channels(room, params, grid, streams, spin):
    """Draw ``streams`` (any iterable) in the blocks of :func:`_row_blocks`,
    one :func:`gen_azimuth_channels` call each, and yield (spin(amplitudes),
    P_v, p0) per block; ``spin`` is a :func:`spin_operator` or ends in one."""
    streams = list(streams)
    for rows in _row_blocks(len(streams), grid.n_bins):
        amplitudes, p_v_db, p0 = gen_azimuth_channels(room, params, grid, streams[rows])
        yield spin(amplitudes), p_v_db, p0


def gen_azimuth_channel(
    room: RoomSpec,
    params: ClutterParams,
    grid: AzimuthGrid,
    stream: RandomStream,
) -> AzimuthField:
    """Draw one azimuth-only clutter channel instantiation at the origin: the
    one-stream case of :func:`gen_azimuth_channels`."""
    amplitudes, p_v_db, p0 = gen_azimuth_channels(room, params, grid, [stream])
    return AzimuthField(grid, amplitudes[0], float(p_v_db[0]), p0)


# spin operators by their arguments, least recently used first, each with
# the number of array entries it holds
_SPIN_OPERATORS = collections.OrderedDict()
_SPIN_OPERATORS_LOCK = threading.Lock()  # the reverberation check spins on two threads


def clear_spin_operators() -> None:
    """Drop every kept spin operator and the memory it holds."""
    with _SPIN_OPERATORS_LOCK:
        _SPIN_OPERATORS.clear()


def spin_operator(
    grid: AzimuthGrid,
    rx: AntennaPattern,
    tx: AntennaPattern,
    pointings_deg,
    tx_pointing_deg: float,
):
    """The spin as a function from (..., n_bins) amplitudes on ``grid`` to
    (..., n_pointings) complex spun amplitudes (see the module docstring).

    Patterns are evaluated analytically at the grid.  Operators are kept by
    the values of their arguments (a pattern by identity, which the memoized
    :func:`~rfclutter.antennas.gaussian_horn` and
    :func:`~rfclutter.antennas.omni` turn into a value), within 2^22 array
    entries in all: the least recently used go first, and
    :func:`clear_spin_operators` drops them all.  An operator applies itself
    to the rows it is given in one matrix product or FFT pass, on one
    OpenBLAS thread (:func:`~rfclutter.pool.one_blas_thread` says why).

    The sweep of bin centers 0, d, 2d, ... around the whole grid, in that
    order, with d >= 1 dividing n_bins, is one FFT read: the product
    spectrum is folded to n_bins / d bins before the inverse FFT.  Its error
    is about machine epsilon times the largest spun amplitude, so pointings
    where both beams miss the clutter read as that rounding noise.  Any
    other pointings, a shifted or repeated set of bin centers too, get one
    weight row each, with f_T folded in, and the error is relative rounding;
    rows too many to hold are built once per call.

    A pointing p = phi_m + f has its sub-bin offset f in [-dphi/2, dphi/2].
    Rows whose f agree to 1e-9 deg are exact rolls of one kernel, the f_R row
    of the first of them.  Building costs one f_R evaluation per grid bin
    and distinct offset: 148 pointings on 1800 bins have 37 offsets and
    build in about 3 ms (one Xeon core, NumPy 2.4), 1440 have 5.  Kernels
    written twice over are held within the same 2^22 entries as a weight
    matrix; pointings that share no offset, or have too many offsets to hold,
    are evaluated row by row.  The FFT sweep builds in under 1 ms.
    """
    pointings = np.asarray(pointings_deg, dtype=float).ravel()
    if pointings.size == 0:
        raise ValueError("at least one pointing angle is required")
    tx_pointing_deg = float(tx_pointing_deg)
    key = (grid, rx, tx, pointings.tobytes(), tx_pointing_deg)
    with _SPIN_OPERATORS_LOCK:
        if key in _SPIN_OPERATORS:
            _SPIN_OPERATORS.move_to_end(key)
            return _SPIN_OPERATORS[key][0]
        _SPIN_OPERATORS[key] = _build_spin_operator(grid, rx, tx, pointings, tx_pointing_deg)
        held = sum(entries for _, entries in _SPIN_OPERATORS.values())
        while held > _HELD_ENTRIES and len(_SPIN_OPERATORS) > 1:
            held -= _SPIN_OPERATORS.popitem(last=False)[1][1]
        return _SPIN_OPERATORS[key][0]


def _build_spin_operator(grid, rx, tx, pointings, tx_pointing_deg):
    """The spin function and the number of array entries it holds."""
    centers = grid.centers_deg
    txf = tx.field_at(centers - tx_pointing_deg)
    idx = np.rint(pointings / grid.delta_phi_deg).astype(int) % grid.n_bins
    mismatch = _wrap_deg(pointings - centers[idx])
    d = grid.n_bins // pointings.size  # 0 for more pointings than bins
    sweep = d >= 1 and np.array_equal(idx, np.arange(0, grid.n_bins, d))
    if sweep and np.all(np.abs(mismatch) < 1e-9):
        # the sweep of bin centers 0, d, 2d, ...: a circular convolution with
        # dphi f_R(-phi_j), whose values at every d-th bin are the inverse FFT
        # of its spectrum folded to n_bins / d bins, divided by d
        kernel = np.fft.fft(np.roll(rx.field_at(centers)[::-1], 1) * grid.delta_phi_rad)
        def spin_rows(a, out):
            spectrum = np.fft.fft(a * txf, axis=-1) * kernel
            spectrum = spectrum.reshape(-1, d, pointings.size).sum(axis=1)
            out[:] = np.fft.ifft(spectrum, axis=-1) / d
        return _on_rows(spin_rows, grid.n_bins, pointings.size), txf.size + kernel.size

    # one row dphi f_R(phi_i - p) f_T(phi_i - tx_pointing) per pointing p, in
    # the order given, built in blocks of 128 rows, held up to 32 MB and
    # otherwise rebuilt once per call
    blocks = [slice(s, s + 128) for s in range(0, pointings.size, 128)]
    # pointings p = phi_m + f that share the sub-bin offset f (to 1e-9 deg)
    # share one f_R evaluation: row p is the kernel row of the first of them,
    # p_g = phi_g + f, rolled by m - g, read as a window of that kernel
    # written twice over
    _, lead, group = np.unique(np.round(mismatch, 9), return_index=True, return_inverse=True)
    windows = None
    if lead.size < pointings.size and 2 * lead.size * grid.n_bins <= _HELD_ENTRIES:
        kernels = np.concatenate([
            rx.field_at(centers[None, :] - pointings[lead[s : s + 128], None])
            for s in range(0, lead.size, 128)
        ])
        windows = np.lib.stride_tricks.sliding_window_view(
            np.tile(kernels, 2), grid.n_bins, axis=1
        )
        starts = grid.n_bins - (idx - idx[lead][group]) % grid.n_bins
    def weights(block):
        if windows is None:
            f_r = rx.field_at(centers[None, :] - pointings[block, None])
        else:
            f_r = windows[group[block], starts[block]]
        f_r *= txf * grid.delta_phi_rad
        return f_r
    held = None
    if pointings.size * grid.n_bins <= _HELD_ENTRIES:
        held = np.empty((pointings.size, grid.n_bins))
        for block in blocks:
            held[block] = weights(block)
        windows = None  # the held rows replace the kernels
    def spin_rows(a, out):
        # real and imaginary parts stacked: one real product with w
        stacked, n = np.concatenate([a.real, a.imag]), a.shape[0]
        for block in [slice(None)] if held is not None else blocks:
            w = held if held is not None else weights(block)
            parts = stacked @ w.T
            out.real[:, block] = parts[:n]
            out.imag[:, block] = parts[n:]
    entries = txf.size
    if held is not None:
        entries += held.size
    elif windows is not None:
        entries += 2 * lead.size * grid.n_bins  # the kernels written twice over
    return _on_rows(spin_rows, grid.n_bins, pointings.size), entries


def _on_rows(spin_rows, n_bins, n_pointings):
    """spin_rows(a, out) on (rows, n_bins), lifted to (..., n_bins) and run on one BLAS thread."""
    def spin(amplitudes):
        amplitudes = np.asarray(amplitudes)
        out = np.empty(amplitudes.shape[:-1] + (n_pointings,), dtype=complex)
        with one_blas_thread():
            spin_rows(amplitudes.reshape(-1, n_bins), out.reshape(-1, n_pointings))
        return out
    return spin


def spin_amplitudes(
    field: AzimuthField,
    rx: AntennaPattern,
    tx: AntennaPattern,
    pointings_deg,
    tx_pointing_deg: float,
) -> np.ndarray:
    """Complex spun response Y at each receive pointing; see :func:`spin_operator`."""
    return spin_operator(field.grid, rx, tx, pointings_deg, tx_pointing_deg)(field.amplitudes)


def spin_response(
    field: AzimuthField,
    rx: AntennaPattern,
    tx: AntennaPattern,
    pointings_deg,
    tx_pointing_deg: float,
) -> SpunSpectrum:
    """Spun power spectrum |Y|^2 / P_T over the given pointing angles."""
    pointings = np.atleast_1d(np.asarray(pointings_deg, dtype=float))
    y = spin_amplitudes(field, rx, tx, pointings, tx_pointing_deg)
    return SpunSpectrum(pointings_deg=pointings, power=np.abs(y) ** 2)


def uniform_pointings(n: int) -> np.ndarray:
    """n uniformly spaced pointing angles covering a full rotation."""
    return np.arange(n) * (360.0 / n)


def pdp_envelope(tau_s, d_s_m: float, t_rev_s: float):
    """Reverberant average delay envelope, peak-normalized.

    exp(-(tau - onset)/t_rev) for tau >= onset = 2 d_s / c, zero before.
    """
    if d_s_m <= 0 or t_rev_s <= 0:
        raise ValueError("d_s and t_rev must be positive")
    tau = np.asarray(tau_s, dtype=float)
    onset = 2.0 * d_s_m / SPEED_OF_LIGHT
    out = np.where(tau >= onset, np.exp(-np.maximum(tau - onset, 0.0) / t_rev_s), 0.0)
    return float(out) if np.ndim(tau_s) == 0 else out


@dataclass(frozen=True)
class DelayGrid:
    """Uniform delay grid from zero to tau_max with the echo onset marked."""

    delta_tau_s: float
    tau_max_s: float
    onset_s: float

    def __post_init__(self):
        if self.delta_tau_s <= 0:
            raise ValueError("delay bin width must be positive")
        if self.tau_max_s <= self.onset_s:
            raise ValueError("tau_max must exceed the onset delay")

    @property
    def n_bins(self) -> int:
        return int(math.ceil(self.tau_max_s / self.delta_tau_s))

    @property
    def taus_s(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.delta_tau_s

    @property
    def onset_bin(self) -> int:
        """The first bin at or after the onset (``n_bins`` if none is)."""
        return int(np.searchsorted(self.taus_s, self.onset_s))

    @classmethod
    def for_room(
        cls,
        room: RoomSpec,
        delta_tau_s: float,
        span_after_onset_s: float | None,
    ) -> "DelayGrid":
        """Bins of ``delta_tau_s`` from 0 to ``span_after_onset_s`` past the
        onset, or to the -40 dB point of the decay when that is None."""
        onset = room.onset_s
        span = 9.21 * room.t_rev_s if span_after_onset_s is None else span_after_onset_s
        return cls(delta_tau_s=delta_tau_s, tau_max_s=onset + span, onset_s=onset)


@dataclass(frozen=True, eq=False)
class DelayAzimuthField:
    """Complex clutter map over (delay, azimuth); zero before the onset."""

    dgrid: DelayGrid
    agrid: AzimuthGrid
    amplitudes: np.ndarray  # shape (n_delay, n_azimuth)
    p_v_db: float
    p0: float


def _delay_rows(room, params, dgrid, agrid, stream, spin=None):
    """The draw of :func:`gen_delay_azimuth_channel` as (onset row, P_v, p0,
    chunks of :func:`_draw_rows` over the rows from the onset row on, spun
    by ``spin`` when one is given)."""
    if abs(dgrid.onset_s - room.onset_s) > 1e-15:
        raise ConfigurationError("delay grid onset is inconsistent with the room")
    onset = dgrid.onset_bin
    envelope = pdp_envelope(dgrid.taus_s[onset:], room.distance_to_wall_m, room.t_rev_s)
    scale_sq = TWO_PI / agrid.delta_phi_rad / dgrid.delta_tau_s
    return onset, *_draw_rows(room, params, agrid, stream, scale_sq, envelope, spin)


def gen_delay_azimuth_channel(
    room: RoomSpec,
    params: ClutterParams,
    dgrid: DelayGrid,
    agrid: AzimuthGrid,
    stream: RandomStream,
) -> DelayAzimuthField:
    """Draw one delay-azimuth clutter map.

    One P_v for the whole map; every delay bin at or beyond the onset gets an
    independent azimuth-correlated dB field and i.i.d. phases, with the bin
    power following the reverberant decay envelope.  Delay bins are
    independent: delay correlation enters physically through the probing
    waveform.  This is the held case of the draw that :func:`probe_delay_map`
    streams: its complex chunks fill a zero map.  The streams, the draw
    order and the chunks are in the module docstring.
    """
    amplitudes = np.zeros((dgrid.n_bins, agrid.n_bins), dtype=complex)
    onset, p_v_db, p0, blocks = _delay_rows(room, params, dgrid, agrid, stream)
    for rows, a in blocks:
        amplitudes[onset + rows.start : onset + rows.stop] = a
    return DelayAzimuthField(
        dgrid=dgrid, agrid=agrid, amplitudes=amplitudes, p_v_db=p_v_db, p0=p0
    )


@dataclass(frozen=True)
class ProbeWaveform:
    """Probing pulse of duration T = 1/bandwidth, ``hamming`` or ``rect``."""

    bandwidth_hz: float
    shape: str

    def __post_init__(self):
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_hz} Hz")
        if self.shape not in ("hamming", "rect"):
            raise ValueError(f"unknown waveform shape {self.shape!r}")

    def taps(self, dgrid: DelayGrid) -> np.ndarray:
        """The delay convolution's taps on ``dgrid``: the pulse sampled at
        t = k dtau for k = 0 ... floor(T/dtau), scaled to unit energy on that
        grid (sum x^2 dtau = 1) and multiplied by dtau.  A pulse longer than
        the grid raises ConfigurationError."""
        duration, dtau = 1.0 / self.bandwidth_hz, dgrid.delta_tau_s
        if duration > dgrid.tau_max_s:
            raise ConfigurationError(
                f"pulse of 1/bandwidth = {duration * 1e9:g} ns is longer than the delay "
                f"grid's {dgrid.tau_max_s * 1e9:g} ns"
            )
        t = np.arange(int(duration / dtau + 1e-9) + 1) * dtau
        if self.shape == "hamming":
            x = 0.54 - 0.46 * np.cos(TWO_PI * t * self.bandwidth_hz)
        else:
            x = np.ones(t.size)
        return x / math.sqrt(float(np.sum(x**2) * dtau)) * dtau


@dataclass(frozen=True, eq=False)
class DelayAzimuthResponse:
    """Band-limited backscatter power over (delay, pointing)."""

    delays_s: np.ndarray
    pointings_deg: np.ndarray
    power: np.ndarray  # shape (n_delay, n_pointing)

    @property
    def power_db(self) -> np.ndarray:
        return power_db(self.power)

    def mean_profile(self) -> np.ndarray:
        """Pointing-averaged delay profile, linear power."""
        return self.power.mean(axis=1)


def _probe(dgrid, agrid, waveform, rx, tx, pointings_deg, tx_pointing_deg):
    """Probing a map on (dgrid, agrid): return (pointings, output delays,
    spin, taps): the :func:`spin_operator`, which spins each block on one
    BLAS thread whichever thread runs it, and the pulse sampled on the delay
    grid, :meth:`ProbeWaveform.taps`, for :func:`_probe_rows`."""
    pointings = np.atleast_1d(np.asarray(pointings_deg, dtype=float))
    spin = spin_operator(agrid, rx, tx, pointings, tx_pointing_deg)
    taps = waveform.taps(dgrid)
    delays = np.arange(dgrid.n_bins + taps.size - 1) * dgrid.delta_tau_s
    return pointings, delays, spin, taps


def _probe_rows(blocks, taps):
    """Convolve spun delay rows, given as (rows, spun rows) blocks in row
    order from row 0, in delay with ``taps`` and yield (rows, |.|^2) for the
    output rows, which run len(taps) - 1 rows past the input.

    Output row t is sum_k taps[k] y[t - k] over the spun rows y that exist,
    added in k order into zeros.  Each block yields the output rows it ends;
    the last len(taps) - 1 spun rows are carried to the next block, and
    after the last block they yield the tail.
    """
    y, y0 = None, 0  # spun rows y0, y0 + 1, ... that later output rows need
    for rows, spun in blocks:
        y = spun if y is None else np.concatenate([y, spun])
        yield rows, _tap_power(y, y0, rows, taps)
        keep = min(y.shape[0], taps.size - 1)
        y, y0 = y[y.shape[0] - keep :], rows.stop - keep
    if y is not None:
        tail = slice(y0 + y.shape[0], y0 + y.shape[0] + taps.size - 1)
        yield tail, _tap_power(y, y0, tail, taps)


def _tap_power(y, y0, rows, taps):
    """|sum_k taps[k] y[t - k]|^2 for output rows t in ``rows``, where ``y``
    holds the spun rows y0, y0 + 1, ..."""
    out = np.zeros((rows.stop - rows.start, y.shape[1]), dtype=complex)
    for k, tap in enumerate(taps):
        lo, hi = max(rows.start - k, y0), min(rows.stop - k, y0 + y.shape[0])
        if lo < hi:
            out[lo + k - rows.start : hi + k - rows.start] += tap * y[lo - y0 : hi - y0]
    return np.abs(out) ** 2


def band_limit(
    field: DelayAzimuthField,
    waveform: ProbeWaveform,
    rx: AntennaPattern,
    tx: AntennaPattern,
    pointings_deg,
    tx_pointing_deg: float,
) -> DelayAzimuthResponse:
    """Probe the clutter map: convolve in angle with the antenna patterns and
    in delay with the waveform, returning |.|^2 per (delay, pointing).

    This is the held case of the pipeline that :func:`probe_delay_map`
    streams.  The map's rows from its grid's onset bin on go, in the chunks
    a map is drawn in, through one :func:`spin_operator` and a direct, not
    FFT, delay convolution: each waveform tap adds its multiple of the spun
    rows into zeros, and the last ``len(taps) - 1`` spun rows of a chunk are
    carried into the next.  The map must be zero before the onset
    bin, as a drawn map is; those bins are never computed and stay exactly 0.
    """
    pointings, delays, spin, taps = _probe(
        field.dgrid, field.agrid, waveform, rx, tx, pointings_deg, tx_pointing_deg
    )
    lead = field.dgrid.onset_bin
    live = field.amplitudes[lead:]
    blocks = ((rows, spin(live[rows])) for rows in _row_blocks(live.shape[0], field.agrid.n_bins))
    power = np.zeros((delays.size, pointings.size))
    for rows, p in _probe_rows(blocks, taps):
        power[lead + rows.start : lead + rows.stop] = p
    return DelayAzimuthResponse(delays_s=delays, pointings_deg=pointings, power=power)


def probe_delay_map(
    room: RoomSpec,
    params: ClutterParams,
    dgrid: DelayGrid,
    agrid: AzimuthGrid,
    stream: RandomStream,
    waveform: ProbeWaveform,
    rx: AntennaPattern,
    tx: AntennaPattern,
    pointings_deg,
    tx_pointing_deg: float,
):
    """Draw a delay-azimuth map and probe it, streamed: return (delays_s,
    power dB as float32 of shape (n_delay, n_pointing), mean profile).

    The values are those of ``band_limit(gen_delay_azimuth_channel(...))``:
    its ``power_db`` cast to float32 and its ``mean_profile()``, byte for
    byte, for any worker count.  The map is drawn, spun and convolved one
    chunk at a time, on the pipeline of the module docstring, so neither the
    complex map nor the complex output is held whole; what is held is the
    float32 map, the profile and up to ``_IN_FLIGHT`` chunks in flight.
    """
    pointings, delays, spin, taps = _probe(
        dgrid, agrid, waveform, rx, tx, pointings_deg, tx_pointing_deg
    )
    onset, _, _, blocks = _delay_rows(room, params, dgrid, agrid, stream, spin)
    map_db = np.full((delays.size, pointings.size), -np.inf, dtype=np.float32)
    profile = np.zeros(delays.size)
    for rows, power in _probe_rows(blocks, taps):
        out = slice(onset + rows.start, onset + rows.stop)
        profile[out] = power.mean(axis=1)
        map_db[out] = power_db(power)
    return delays, map_db, profile
