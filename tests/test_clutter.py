import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from rfclutter import (
    AzimuthGrid,
    CarrierSpec,
    ConfigurationError,
    DelayGrid,
    ProbeWaveform,
    band_limit,
    derive_stream,
    gaussian_horn,
    gen_azimuth_channel,
    gen_delay_azimuth_channel,
    location_phase,
    omni,
    pdp_envelope,
    spin_response,
    uniform_pointings,
)
from rfclutter import clutter, pool
from rfclutter.antennas import AntennaPattern
from rfclutter.clutter import AzimuthField, DelayAzimuthField, spin_operator
from rfclutter.config import load_config_tree, resolve_config
from rfclutter.core import SPEED_OF_LIGHT, average_backscatter_ratio
from rfclutter.randomfields import gaussian_field_rows, lognormal_mean_offset

DEFAULTS = resolve_config(load_config_tree(None))
CARRIER = CarrierSpec(28e9)
ROOM = DEFAULTS.room  # 3 m x 3 m, metal, 10 ns
GRID = AzimuthGrid(1800)
# the delay bin width these tests were written at: 0.1e-9 is one ulp below
# DEFAULTS.delay_grid's 0.1 * 1e-9, and their row counts depend on it
DELTA_TAU_S = 0.1e-9


def _params(**kw):
    return replace(DEFAULTS.clutter, **kw)


def _unit_energy_taps(samples, delta_tau_s):
    """Delay taps of a pulse of arbitrary complex samples on bins of
    ``delta_tau_s``, as ProbeWaveform.taps scales its pulse: unit energy,
    times the bin width."""
    x = np.asarray(samples, dtype=complex)
    return x / math.sqrt(float(np.sum(np.abs(x) ** 2) * delta_tau_s)) * delta_tau_s


def _probed_power(field, taps, rx, tx, pointings, tx_pointing):
    """band_limit's power with any taps: the field's rows from its onset bin
    on, spun in the chunks a map is drawn in, through _probe_rows."""
    spin = spin_operator(field.agrid, rx, tx, pointings, tx_pointing)
    lead = field.dgrid.onset_bin
    live = field.amplitudes[lead:]
    chunks = clutter._row_blocks(live.shape[0], field.agrid.n_bins, clutter._CHUNK_ENTRIES)
    power = np.zeros((field.dgrid.n_bins + taps.size - 1, pointings.size))
    for rows, p in clutter._probe_rows(((rows, spin(live[rows])) for rows in chunks), taps):
        power[lead + rows.start : lead + rows.stop] = p
    return power


def test_channel_without_variation_has_flat_magnitude():
    params = _params(sigma_v_db=0.0, sigma_db=0.0)
    field = gen_azimuth_channel(ROOM, params, GRID, derive_stream(1, "flat"))
    mags = np.abs(field.amplitudes)
    assert np.allclose(mags, mags[0], rtol=1e-12)


def test_relocation_changes_phases_only():
    field = gen_azimuth_channel(ROOM, _params(), GRID, derive_stream(2, "loc"))
    wl = CARRIER.wavelength_m
    moved = field.amplitudes * location_phase(GRID, wl, (0.05, 0.0))
    assert np.allclose(np.abs(moved), np.abs(field.amplitudes), rtol=1e-12)
    assert not np.allclose(moved, field.amplitudes)
    # no move is the identity, and two moves compose into their sum
    assert np.all(location_phase(GRID, wl, (0.0, 0.0)) == 1.0)
    twice = moved * location_phase(GRID, wl, (-0.02, 0.03))
    assert np.allclose(twice, field.amplitudes * location_phase(GRID, wl, (0.03, 0.03)), rtol=1e-12)


def test_channel_magnitude_autocorrelation_inherits_field_target():
    params = _params()
    lag = 5  # 1 degree on the default grid
    s_xx = s_lag = 0.0
    for i in range(1000):
        field = gen_azimuth_channel(ROOM, params, GRID, derive_stream(3, f"m/{i}"))
        db = 20.0 * np.log10(np.abs(field.amplitudes))
        db = db - db.mean()  # removes the location-level offset per draw
        s_xx += (db**2).sum()
        s_lag += (db * np.roll(db, -lag)).sum()
    rho = s_lag / s_xx
    assert rho == pytest.approx(math.exp(-0.5), abs=0.03)


def test_channel_is_deterministic_per_seed():
    a = gen_azimuth_channel(ROOM, _params(), GRID, derive_stream(4, "det"))
    b = gen_azimuth_channel(ROOM, _params(), GRID, derive_stream(4, "det"))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.p_v_db == b.p_v_db


def test_channel_rejects_coarse_grid():
    with pytest.raises(ConfigurationError):
        gen_azimuth_channel(ROOM, _params(), AzimuthGrid(90), derive_stream(1, "x"))


def test_spin_single_arrival_traces_product_pattern():
    rx = gaussian_horn(10.0, GRID)
    tx = gaussian_horn(40.0, GRID)
    amplitudes = np.zeros(GRID.n_bins, dtype=complex)
    bin_idx = 450  # 90 degrees
    amplitudes[bin_idx] = 2.0 + 1.0j
    field = AzimuthField(grid=GRID, amplitudes=amplitudes, p_v_db=0.0, p0=1.0)
    pointings = uniform_pointings(360)
    spec = spin_response(field, rx, tx, pointings, 0.0)
    phi0 = GRID.centers_deg[bin_idx]
    expected = (
        abs(amplitudes[bin_idx]) ** 2
        * rx.field_at(phi0 - pointings) ** 2
        * tx.field_at(phi0) ** 2
        * GRID.delta_phi_rad**2
    )
    assert np.allclose(spec.power, expected, rtol=1e-12)


@pytest.mark.parametrize(
    "pointings",
    [
        uniform_pointings(360),  # bins 0, 5, 10, ... of the 0.2 deg grid: FFT convolution
        uniform_pointings(148),  # off the grid: weight matrix
        np.tile(uniform_pointings(148), 2),  # repeated off-grid pointings
        # a second rotation whose timestamp-derived angles differ in the last bit
        np.concatenate([uniform_pointings(148), np.nextafter(uniform_pointings(148), 360.0)]),
        # bin centers that are no sweep from bin 0: weight matrix
        uniform_pointings(360) + 0.2,
        # 3600 bin centers on 1800 bins, more than one per bin: weight matrix
        np.tile(uniform_pointings(360), 10),
    ],
    ids=[
        "on-grid-360", "off-grid-148", "off-grid-repeated", "off-grid-last-bit",
        "on-grid-shifted", "on-grid-beyond-grid",
    ],
)
def test_spin_operator_matches_rows_and_explicit_sum(pointings):
    rx, tx = gaussian_horn(10.0, GRID), gaussian_horn(40.0, GRID)
    tx_pointing = 37.3
    amplitudes = np.stack([
        gen_azimuth_channel(
            ROOM, _params(), GRID, derive_stream(14, f"op/{i}")
        ).amplitudes
        for i in range(3)
    ])
    spin = spin_operator(GRID, rx, tx, pointings, tx_pointing)
    batch = spin(amplitudes)
    assert batch.shape == (3, pointings.size)

    rows = np.stack([spin(a) for a in amplitudes])
    phi = GRID.centers_deg
    w = rx.field_at(phi[None, :] - pointings[:, None]) * tx.field_at(phi - tx_pointing)
    explicit = GRID.delta_phi_rad * (amplitudes @ w.T)
    # relative to the largest value: far from both beams the FFT's absolute
    # rounding dominates the tiny spun amplitudes
    scale = np.max(np.abs(explicit))
    assert np.max(np.abs(batch - rows)) <= 1e-12 * scale
    assert np.max(np.abs(batch - explicit)) <= 1e-12 * scale


def test_dense_off_grid_sweep_matches_its_parts():
    # 12000 x 360 weights exceed what an operator holds, so this sweep
    # rebuilds its weight blocks per call; each part below is held
    grid = AzimuthGrid(360)
    rx, tx = gaussian_horn(10.0, grid), gaussian_horn(40.0, grid)
    pointings = np.arange(12000) * 0.03 + 0.013
    amplitudes = np.stack([
        gen_azimuth_channel(
            ROOM, _params(), grid, derive_stream(15, f"dense/{i}")
        ).amplitudes
        for i in range(3)
    ])
    tracemalloc.start()
    try:
        spin = spin_operator(grid, rx, tx, pointings, 12.0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4e6  # the held matrix would be 35 MB
    dense = spin(amplitudes)
    parts = np.concatenate(
        [spin_operator(grid, rx, tx, part, 12.0)(amplitudes) for part in np.split(pointings, 12)],
        axis=-1,
    )
    assert np.max(np.abs(dense - parts)) <= 1e-12 * np.max(np.abs(parts))


@pytest.mark.parametrize("n_pointings, n_offsets", [(148, 37), (1440, 5)])
def test_off_grid_build_evaluates_rx_once_per_sub_bin_offset(monkeypatch, n_pointings, n_offsets):
    # uniform pointings on 1800 bins repeat n_offsets sub-bin offsets; the
    # one extra grid's worth of samples is f_T
    grid = AzimuthGrid(1800)
    rx, tx = gaussian_horn(10.0, grid), omni(grid)
    samples = []
    field_at = AntennaPattern.field_at
    def counted(self, offset_deg):
        samples.append(np.size(offset_deg))
        return field_at(self, offset_deg)
    monkeypatch.setattr(AntennaPattern, "field_at", counted)
    spin_operator(grid, rx, tx, uniform_pointings(n_pointings), 0.0)
    assert sum(samples) <= (n_offsets + 1) * grid.n_bins


@pytest.mark.parametrize(
    "n_offsets, repeats",
    [(250, 1), (250, 4), (2400, 1)],
    # 2400 x 1800 weights are more than an operator holds: streamed
    ids=["no-shared-offset", "offsets-at-4-bins", "no-shared-offset-streamed"],
)
def test_random_off_grid_pointings_match_explicit_sum(n_offsets, repeats):
    rx, tx = gaussian_horn(10.0, GRID), gaussian_horn(40.0, GRID)
    rng = np.random.default_rng(22)
    base = rng.uniform(0.0, 360.0, n_offsets)
    shifts = GRID.delta_phi_deg * rng.integers(-900, 900, repeats)
    pointings = np.concatenate([base + shift for shift in shifts])
    offsets = pointings / GRID.delta_phi_deg - np.rint(pointings / GRID.delta_phi_deg)
    assert np.unique(np.round(offsets, 9)).size == base.size  # each offset at `repeats` bins
    amplitudes = np.stack([
        gen_azimuth_channel(
            ROOM, _params(), GRID, derive_stream(23, f"rand/{i}")
        ).amplitudes
        for i in range(3)
    ])
    spun = spin_operator(GRID, rx, tx, pointings, 20.0)(amplitudes)
    phi = GRID.centers_deg
    w = rx.field_at(phi[None, :] - pointings[:, None]) * tx.field_at(phi - 20.0)
    explicit = GRID.delta_phi_rad * (amplitudes @ w.T)
    assert np.max(np.abs(spun - explicit)) <= 1e-12 * np.max(np.abs(explicit))


def test_spin_operators_are_kept_within_the_entry_budget(monkeypatch):
    # an on-grid operator holds 2 x n_bins entries (f_T and the kernel
    # spectrum): a budget of three such keeps three, the latest used
    grid = AzimuthGrid(72)
    rx, tx = gaussian_horn(30.0, grid), omni(grid)
    def operator(n_pointings):
        return spin_operator(grid, rx, tx, uniform_pointings(n_pointings), 0.0)
    monkeypatch.setattr(clutter, "_HELD_ENTRIES", 3 * 2 * grid.n_bins)
    clutter.clear_spin_operators()
    kept = {n: operator(n) for n in (8, 12, 24)}
    assert operator(8) is kept[8]
    operator(36)  # over the budget: drops 12, the least recently used
    assert (operator(8), operator(24)) == (kept[8], kept[24])
    assert operator(12) is not kept[12]


def test_spin_operator_cache_is_shared_safely_between_threads(monkeypatch):
    # two operators' worth of budget for three in turn: every call past the
    # first few builds, inserts and evicts while other threads look up
    grid = AzimuthGrid(72)
    rx, tx = gaussian_horn(30.0, grid), omni(grid)
    amplitudes = np.random.default_rng(35).standard_normal((3, 2 * grid.n_bins)).view(complex)
    monkeypatch.setattr(clutter, "_HELD_ENTRIES", 2 * 2 * grid.n_bins)
    clutter.clear_spin_operators()
    def spin_many(_):
        return [
            spin_operator(grid, rx, tx, uniform_pointings(n), 0.0)(amplitudes)
            for n in (8, 12, 24) * 40
        ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(spin_many, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(
        np.array_equal(a, b) for result in results[1:] for a, b in zip(result, results[0])
    )
    held = sum(entries for _, entries in clutter._SPIN_OPERATORS.values())
    assert 0 < held <= clutter._HELD_ENTRIES


def test_spin_requires_pointings():
    field = gen_azimuth_channel(ROOM, _params(), GRID, derive_stream(5, "p"))
    with pytest.raises(ValueError):
        spin_response(field, gaussian_horn(10.0, GRID), omni(GRID), [], 0.0)


def test_spin_calibration_monte_carlo():
    params = _params()
    rx, tx = gaussian_horn(10.0, GRID), omni(GRID)
    pointings = uniform_pointings(360)
    ratios = []
    for i in range(600):
        field = gen_azimuth_channel(ROOM, params, GRID, derive_stream(6, f"cal/{i}"))
        spec = spin_response(field, rx, tx, pointings, 0.0)
        ratios.append(spec.power.mean() / (field.p0 * 10.0 ** (field.p_v_db / 10.0)))
    assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)


def test_spun_db_spread_is_below_raw_sigma():
    params = _params()
    rx, tx = gaussian_horn(10.0, GRID), omni(GRID)
    pointings = uniform_pointings(148)
    stds = []
    for i in range(60):
        field = gen_azimuth_channel(ROOM, params, GRID, derive_stream(7, f"s/{i}"))
        stds.append(spin_response(field, rx, tx, pointings, 0.0).power_db.std())
    assert np.mean(stds) < params.sigma_db


def test_spin_calibration_stable_under_grid_refinement():
    params = _params()
    pointings = uniform_pointings(148)
    means = []
    for n_bins in (1800, 3600):
        grid = AzimuthGrid(n_bins)
        rx, tx = gaussian_horn(10.0, grid), omni(grid)
        ratios = []
        for i in range(250):
            field = gen_azimuth_channel(ROOM, params, grid, derive_stream(12, f"g/{i}"))
            spec = spin_response(field, rx, tx, pointings, 0.0)
            ratios.append(spec.power.mean() / (field.p0 * 10.0 ** (field.p_v_db / 10.0)))
        means.append(np.mean(ratios))
    assert means[0] == pytest.approx(1.0, abs=0.08)
    assert means[1] == pytest.approx(means[0], abs=0.08)


def test_reverberation_fit_stable_under_delay_refinement():
    agrid = AzimuthGrid(360)
    probe = DEFAULTS.probe
    rx, tx = gaussian_horn(10.0, agrid), omni(agrid)
    for delta_tau in (0.1e-9, 0.05e-9):
        dgrid = DelayGrid.for_room(ROOM, delta_tau, None)
        estimates = []
        for i in range(10):
            field = gen_delay_azimuth_channel(ROOM, _params(), dgrid, agrid, derive_stream(13, f"r/{i}"))
            resp = band_limit(field, probe, rx, tx, uniform_pointings(72), 0.0)
            from rfclutter import fit_reverberation

            estimates.append(fit_reverberation(resp.delays_s, resp.mean_profile(), dgrid.onset_s))
        assert np.mean(estimates) == pytest.approx(ROOM.t_rev_s, rel=0.05)


def test_pdp_envelope_reference_points():
    onset = 2.0 * 1.5 / SPEED_OF_LIGHT
    assert pdp_envelope(onset, 1.5, 10e-9) == 1.0
    assert pdp_envelope(onset + 10e-9, 1.5, 10e-9) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert pdp_envelope(onset - 1e-12, 1.5, 10e-9) == 0.0


def test_delay_grid_onset():
    room = replace(ROOM, distance_to_wall_m=3.0)
    dgrid = DelayGrid.for_room(room, DELTA_TAU_S, None)
    assert dgrid.onset_s == pytest.approx(20.01e-9, abs=5e-12)
    assert dgrid.tau_max_s == pytest.approx(dgrid.onset_s + 9.21 * 10e-9, rel=1e-12)
    with pytest.raises(ValueError):
        DelayGrid(0.1e-9, 5e-9, onset_s=10e-9)


def test_delay_map_is_causal_and_decays():
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, None)
    params = _params()
    pre = dgrid.taus_s < dgrid.onset_s
    live = ~pre
    taus = dgrid.taus_s[live]
    n_draws = 400

    def profile(i):
        field = gen_delay_azimuth_channel(ROOM, params, dgrid, agrid, derive_stream(8, f"d/{i}"))
        assert np.all(field.amplitudes[pre] == 0)
        return (np.abs(field.amplitudes[live]) ** 2).mean(axis=1)

    # each map owns its stream; the profiles are added in map order
    with ThreadPoolExecutor(2) as pool:
        profiles = pool.map(profile, range(n_draws), timeout=120)
        total = next(profiles)
        for p in profiles:
            total = total + p
    mean_profile = total / n_draws
    # log-slope of the ensemble-mean profile recovers the decay time
    sel = mean_profile > mean_profile[0] * 1e-3
    slope, _ = np.polyfit(taus[sel], np.log(mean_profile[sel]), 1)
    assert -1.0 / slope == pytest.approx(ROOM.t_rev_s, rel=0.03)
    # window-averaged level one decay time in matches exp(-1) within 3%
    window = (taus >= dgrid.onset_s + 0.9 * ROOM.t_rev_s) & (
        taus <= dgrid.onset_s + 1.1 * ROOM.t_rev_s
    )
    measured = mean_profile[window].mean()
    expected = mean_profile[0] * np.mean(
        np.exp(-(taus[window] - dgrid.onset_s) / ROOM.t_rev_s)
    )
    assert measured == pytest.approx(expected, rel=0.03)


def test_delay_map_checks_onset_consistency():
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid(0.1e-9, 50e-9, onset_s=1e-9)  # wrong onset for ROOM
    with pytest.raises(ConfigurationError):
        gen_delay_azimuth_channel(ROOM, _params(), dgrid, agrid, derive_stream(1, "x"))


def test_probe_waveform_normalization():
    dtau = DEFAULTS.delay_grid.delta_tau_s
    x = DEFAULTS.probe.taps(DEFAULTS.delay_grid) / dtau
    # the 1 ns pulse on 0.1 ns bins, both ends included
    assert x.size == 11 and x.dtype == float
    assert np.sum(x**2) * dtau == pytest.approx(1.0, rel=1e-12)
    assert x[[0, 10]] / x[5] == pytest.approx([0.08, 0.08], rel=1e-12)


def test_probe_waveform_scale_invariant_and_guarded():
    dgrid = DelayGrid(0.1e-9, 5e-9, onset_s=1e-9)
    for shape in ("hamming", "rect"):
        # a pulse as long as the grid is sampled on all of it, one past the
        # last bin; a longer one is not
        assert ProbeWaveform(0.2e9, shape).taps(dgrid).size == dgrid.n_bins + 1
        with pytest.raises(ConfigurationError, match="longer than the delay grid"):
            ProbeWaveform(0.19e9, shape).taps(dgrid)
    # unit energy on any grid: n rect taps of dtau / sqrt(n dtau)
    for dtau, n in ((0.1e-9, 11), (0.05e-9, 21)):
        taps = ProbeWaveform(1e9, "rect").taps(DelayGrid(dtau, 5e-9, onset_s=1e-9))
        assert taps == pytest.approx(np.full(n, dtau / math.sqrt(n * dtau)), rel=1e-12)
    for bandwidth_hz in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="bandwidth"):
            ProbeWaveform(bandwidth_hz, "hamming")
    with pytest.raises(ValueError, match="shape"):
        ProbeWaveform(1e9, "gauss")


@pytest.mark.parametrize("shape", ["hamming", "rect"])
@pytest.mark.parametrize(
    "bandwidth_hz, n_taps",
    # 0.7 GHz is off the 0.1 ns lattice; at 1.5 and 3.7 GHz the pulse ends
    # past the middle of a bin, which adds no tap past its end; a pulse far
    # shorter than a bin is one tap
    [(1e9, 11), (4e9, 3), (0.25e9, 41), (0.7e9, 15), (1.5e9, 7), (3.7e9, 3), (0.6e9, 17),
     (1e308, 1)],
)
def test_probe_taps_sample_the_pulse_on_the_delay_grid(bandwidth_hz, n_taps, shape):
    dgrid = DEFAULTS.delay_grid
    dtau = dgrid.delta_tau_s
    taps = ProbeWaveform(bandwidth_hz, shape).taps(dgrid)
    assert taps.size == n_taps
    t = np.arange(n_taps) * dtau
    assert t[-1] <= 1.0 / bandwidth_hz * (1 + 1e-9) < t[-1] + dtau
    pulse = 0.54 - 0.46 * np.cos(2 * np.pi * t * bandwidth_hz) if shape == "hamming" else 1.0
    x = taps / dtau
    assert x == pytest.approx(pulse * x.max() / np.max(pulse), rel=1e-12)
    assert np.sum(x**2) * dtau == pytest.approx(1.0, rel=1e-12)


def test_band_limit_impulse_reproduces_waveform():
    from rfclutter.clutter import DelayAzimuthField

    agrid = AzimuthGrid(360)
    dgrid = DelayGrid(0.1e-9, 40e-9, onset_s=10e-9)
    amplitudes = np.zeros((dgrid.n_bins, agrid.n_bins), dtype=complex)
    k_tau, k_phi = 150, 90
    amplitudes[k_tau, k_phi] = 1.0
    field = DelayAzimuthField(
        dgrid=dgrid, agrid=agrid, amplitudes=amplitudes, p_v_db=0.0, p0=1.0
    )
    probe = ProbeWaveform(1e9, "hamming")
    taps = probe.taps(dgrid)
    rx, tx = omni(agrid), omni(agrid)
    resp = band_limit(field, probe, rx, tx, [agrid.centers_deg[k_phi]], 0.0)
    profile = resp.power[:, 0]
    expected = np.zeros_like(profile)
    expected[k_tau : k_tau + taps.size] = taps**2
    scale = profile.max() / expected.max()
    assert np.allclose(profile, expected * scale, rtol=1e-9, atol=profile.max() * 1e-12)
    # peak lands at the impulse delay plus the waveform center
    center_s = 0.5 * (taps.size - 1) * dgrid.delta_tau_s
    peak_delay = resp.delays_s[np.argmax(profile)]
    assert abs(peak_delay - (dgrid.taus_s[k_tau] + center_s)) <= dgrid.delta_tau_s


def test_band_limit_profile_peaks_at_onset_and_decays():
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, None)
    probe = DEFAULTS.probe
    rx, tx = gaussian_horn(10.0, agrid), omni(agrid)
    profile = None
    for i in range(5):  # average a few draws to beat single-map speckle
        field = gen_delay_azimuth_channel(ROOM, _params(), dgrid, agrid, derive_stream(9, f"bl/{i}"))
        resp = band_limit(field, probe, rx, tx, uniform_pointings(72), 0.0)
        assert np.all(resp.power[resp.delays_s < dgrid.onset_s] == 0.0)
        profile = resp.mean_profile() if profile is None else profile + resp.mean_profile()
    # the ideal averaged profile peaks one waveform duration past onset
    # (where the window first covers the decay start), so allow two durations
    peak_delay = resp.delays_s[np.argmax(profile)]
    assert dgrid.onset_s <= peak_delay <= dgrid.onset_s + 2.0 / probe.bandwidth_hz


def test_clutter_params_build_their_field_params_once():
    params = DEFAULTS.clutter
    assert params.field_params is params.field_params
    assert (params.field_params.sigma_db, params.field_params.phi_rms_deg) == (7.0, 1.0)
    with pytest.raises(ValueError, match="sigma_db"):
        replace(params, sigma_db=-1.0)


def _reference_delay_map(room, params, dgrid, agrid, stream):
    """The delay-azimuth draw written out chunk by chunk: P_v is the first
    draw of ``stream``; each chunk of max(1, 2^15 // n_bins) live rows draws
    its field rows, then its uniform(0, 2 pi) phases, from the child stream
    ``rows/<its first live row>``."""
    p_v_db = (
        lognormal_mean_offset(params.sigma_v_db)
        + params.sigma_v_db * stream.generator().standard_normal()
    )
    live = dgrid.taus_s >= dgrid.onset_s
    n_live = int(np.count_nonzero(live))
    step = max(1, 2**15 // agrid.n_bins)
    fp = params.field_params
    fields, phases = [], []
    for start in range(0, n_live, step):
        rng = stream.child(f"rows/{start}").generator()
        n_rows = min(step, n_live - start)
        fields.append(gaussian_field_rows(
            rng, n_rows, agrid.n_bins, fp.phi_rms_deg / agrid.delta_phi_deg
        ))
        phases.append(rng.uniform(0.0, 2.0 * math.pi, (n_rows, agrid.n_bins)))
    fields_db = fp.mu_db + fp.sigma_db * np.concatenate(fields)
    phases = np.concatenate(phases)
    p0 = average_backscatter_ratio(
        room.distance_to_wall_m, params.carrier.wavelength_m, room.gamma_sq
    )
    envelope = pdp_envelope(dgrid.taus_s[live], room.distance_to_wall_m, room.t_rev_s)
    scale = math.sqrt(2.0 * math.pi / agrid.delta_phi_rad / dgrid.delta_tau_s)
    mag = scale * np.sqrt(p0 * envelope[:, None] * 10.0 ** ((p_v_db + fields_db) / 10.0))
    amplitudes = np.zeros((dgrid.n_bins, agrid.n_bins), dtype=complex)
    amplitudes[live] = mag * np.exp(1j * phases)
    return amplitudes, p_v_db


def test_delay_map_draws_match_whole_map_reference():
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, None)
    n_live = int(np.count_nonzero(dgrid.taus_s >= dgrid.onset_s))
    assert n_live % 91 != 0  # 91-row chunks of 360 bins, the last one partial
    stream = derive_stream(17, "pin")
    field = gen_delay_azimuth_channel(ROOM, _params(), dgrid, agrid, stream)
    expected, p_v_db = _reference_delay_map(ROOM, _params(), dgrid, agrid, stream)
    assert field.p_v_db == p_v_db
    live = expected != 0
    assert np.array_equal(field.amplitudes != 0, live)
    rel = np.abs(field.amplitudes[live] - expected[live]) / np.abs(expected[live])
    assert np.max(rel) <= 1e-12


def test_unit_phasors_match_exp():
    k = np.arange(4097) / 4096.0
    u = np.concatenate([
        [0.0, 1.0 - 2.0**-53],
        np.nextafter(k[:-1], 1.0),  # k/4096 + 1 ulp
        np.nextafter(k[1:], 0.0),  # k/4096 - 1 ulp
        k[:-1],
        np.random.default_rng(18).random(100000),
    ])
    z = clutter._unit_phasors(u)
    assert np.max(np.abs(z - np.exp(2j * np.pi * u))) <= 1e-15
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15


def _explicit_band_limit(field, taps, rx, tx, pointings, tx_pointing):
    """Explicit field_at spin sum, then one np.convolve per pointing."""
    phi = field.agrid.centers_deg
    w = rx.field_at(phi[None, :] - pointings[:, None]) * tx.field_at(phi - tx_pointing)
    y = field.agrid.delta_phi_rad * (field.amplitudes @ w.T)
    y_bl = np.stack([np.convolve(y[:, j], taps) for j in range(pointings.size)], axis=1)
    return np.abs(y_bl) ** 2


@pytest.mark.parametrize(
    "pointings",
    [uniform_pointings(72), uniform_pointings(72) + 0.3],
    ids=["on-grid", "off-grid"],
)
def test_band_limit_matches_explicit_reference(pointings):
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, None)
    field = gen_delay_azimuth_channel(ROOM, _params(), dgrid, agrid, derive_stream(19, "bl"))
    # an asymmetric complex chirp on the delay grid, which no ProbeWaveform
    # makes, so its taps go to _probe_rows directly
    t = np.linspace(-1.0, 1.0, 11)
    taps = _unit_energy_taps(
        np.hamming(11) * (1.0 + 0.3 * t) * np.exp(2j * np.pi * (0.7 * t**2 + 0.2 * t)),
        dgrid.delta_tau_s,
    )
    rx, tx = gaussian_horn(10.0, agrid), gaussian_horn(60.0, agrid)
    power = _probed_power(field, taps, rx, tx, pointings, 20.0)
    expected = _explicit_band_limit(field, taps, rx, tx, pointings, 20.0)
    assert power.shape == expected.shape
    assert np.max(np.abs(power - expected)) <= 1e-12 * np.max(expected)
    assert np.all(power[: dgrid.onset_bin] == 0.0)


def test_band_limit_builds_streamed_weights_once(monkeypatch):
    # 2400 x 1800 weights exceed what an operator holds, and 150 delay rows
    # are 9 row blocks: the weights must still be built once per call
    agrid = AzimuthGrid(1800)
    pointings = np.arange(2400) * 0.15 + 0.01
    assert pointings.size * agrid.n_bins > 1 << 22
    dgrid = DelayGrid(0.1e-9, 15e-9, onset_s=10e-9)
    rng = np.random.default_rng(20)
    amplitudes = rng.standard_normal((dgrid.n_bins, 2 * agrid.n_bins)).view(complex)
    amplitudes[dgrid.taus_s < dgrid.onset_s] = 0.0
    field = DelayAzimuthField(dgrid=dgrid, agrid=agrid, amplitudes=amplitudes, p_v_db=0.0, p0=1.0)
    probe = DEFAULTS.probe
    rx, tx = gaussian_horn(10.0, agrid), gaussian_horn(40.0, agrid)
    held = np.concatenate(
        [band_limit(field, probe, rx, tx, part, 12.0).power for part in np.split(pointings, 2)],
        axis=1,
    )
    calls = []
    field_at = AntennaPattern.field_at
    def counted(self, offset_deg):
        calls.append(1)
        return field_at(self, offset_deg)
    monkeypatch.setattr(AntennaPattern, "field_at", counted)
    streamed = band_limit(field, probe, rx, tx, pointings, 12.0).power
    assert len(calls) <= math.ceil(pointings.size / 128) + 1
    assert np.max(np.abs(streamed - held)) <= 1e-12 * np.max(held)


def _reference_azimuth_channel(room, params, grid, location_m, stream):
    """The azimuth draw as one whole-row recipe: P_v, the field row, then
    uniform(0, 2 pi) phases, with the phase of a move to ``location_m``
    added to them."""
    rng = stream.generator()
    p_v_db = (
        lognormal_mean_offset(params.sigma_v_db)
        + params.sigma_v_db * rng.standard_normal()
    )
    fp = params.field_params
    field_db = fp.mu_db + fp.sigma_db * gaussian_field_rows(
        rng, 1, grid.n_bins, fp.phi_rms_deg / grid.delta_phi_deg
    )[0]
    phases = rng.uniform(0.0, 2.0 * math.pi, grid.n_bins)
    p0 = average_backscatter_ratio(
        room.distance_to_wall_m, params.carrier.wavelength_m, room.gamma_sq
    )
    phi = np.deg2rad(grid.centers_deg)
    k = 2.0 * math.pi / params.carrier.wavelength_m
    loc_phase = 2.0 * k * (location_m[0] * np.cos(phi) + location_m[1] * np.sin(phi))
    scale = math.sqrt(2.0 * math.pi / grid.delta_phi_rad)
    mag = scale * np.sqrt(p0 * 10.0 ** ((p_v_db + field_db) / 10.0))
    return mag * np.exp(1j * (phases + loc_phase)), p_v_db


@pytest.mark.parametrize("location_m", [(0.0, 0.0), (0.05, -0.02)], ids=["origin", "moved"])
def test_azimuth_draw_matches_reference_recipe(location_m):
    stream = derive_stream(28, "pin")
    field = gen_azimuth_channel(ROOM, _params(), GRID, stream)
    moved = field.amplitudes * location_phase(GRID, CARRIER.wavelength_m, location_m)
    expected, p_v_db = _reference_azimuth_channel(ROOM, _params(), GRID, location_m, stream)
    assert field.p_v_db == p_v_db
    rel = np.abs(moved - expected) / np.abs(expected)
    assert np.max(rel) <= 1e-12


@pytest.mark.parametrize("n_streams", [1, 2, 18, 19, 25, 250])
def test_many_stream_draw_is_each_stream_drawn_alone(n_streams):
    # 1800 bins make row blocks of 18 rows: 19, 25 and 250 streams end in a
    # partial block
    assert clutter._BLOCK_ELEMENTS // GRID.n_bins == 18
    streams = [derive_stream(29, f"many/{i}") for i in range(n_streams)]
    amplitudes, p_v_db, p0 = clutter.gen_azimuth_channels(ROOM, _params(), GRID, streams)
    assert amplitudes.shape == (n_streams, GRID.n_bins) and p_v_db.shape == (n_streams,)
    for i, stream in enumerate(streams):
        field = gen_azimuth_channel(ROOM, _params(), GRID, stream)
        assert np.array_equal(amplitudes[i], field.amplitudes)
        assert p_v_db[i] == field.p_v_db and p0 == field.p0


@pytest.mark.parametrize("n_streams, block, sizes", [
    (7, 3, [3, 3, 1]), (6, 3, [3, 3]), (260, clutter._DRAW_BLOCK, [250, 10]),
])
def test_spun_channels_spins_each_block_of_streams_once(n_streams, block, sizes):
    streams = [derive_stream(30, f"spun/{i}") for i in range(n_streams)]
    seen = []

    def spin(amplitudes):
        seen.append(amplitudes.shape[0])
        return 2.0 * amplitudes

    # any iterable of streams, read a block at a time
    blocks = clutter.spun_channels(ROOM, _params(), GRID, iter(streams), spin, block)
    start = 0
    for y, p_v_db, p0 in blocks:
        stop = start + y.shape[0]
        drawn = clutter.gen_azimuth_channels(ROOM, _params(), GRID, streams[start:stop])
        assert np.array_equal(y, 2.0 * drawn[0])
        assert np.array_equal(p_v_db, drawn[1]) and p0 == drawn[2]
        start = stop
    assert seen == sizes and start == n_streams


def test_zero_reflectivity_room_draws_exact_zeros_without_warning():
    room = replace(ROOM, gamma_sq=0.0)
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(room, DELTA_TAU_S, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        az = gen_azimuth_channel(room, _params(), agrid, derive_stream(29, "z"))
        spun_db = spin_response(az, omni(agrid), omni(agrid), uniform_pointings(8), 0.0).power_db
        dl = gen_delay_azimuth_channel(room, _params(), dgrid, agrid, derive_stream(29, "z"))
    assert az.p0 == 0.0 and np.all(az.amplitudes == 0.0)
    assert np.all(spun_db == -np.inf)
    assert dl.p0 == 0.0 and np.all(dl.amplitudes == 0.0)


def _held_delay_map(room, params, dgrid, agrid, stream, probe, rx, tx, pointings, tx_pointing):
    """band_limit(gen_delay_azimuth_channel(...)) as synth-delay writes it."""
    field = gen_delay_azimuth_channel(room, params, dgrid, agrid, stream)
    resp = band_limit(field, probe, rx, tx, pointings, tx_pointing)
    return resp.delays_s, resp.power_db.astype(np.float32), resp.mean_profile()


def _assert_same_map(streamed, held):
    for a, b in zip(streamed, held):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bandwidth_hz", [1e9, 4e9], ids=["1GHz", "4GHz"])
@pytest.mark.parametrize(
    "n_pointings, tx_hpbw, tx_pointing",
    [(148, None, 0.0), (360, 40.0, 20.0)],
    ids=["148-off-grid", "360-on-grid-tx40-at-20"],
)
def test_streamed_delay_map_equals_held(n_pointings, tx_hpbw, tx_pointing, bandwidth_hz):
    agrid = AzimuthGrid(1800)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, None)
    rx = gaussian_horn(10.0, agrid)
    tx = omni(agrid) if tx_hpbw is None else gaussian_horn(tx_hpbw, agrid)
    probe = ProbeWaveform(bandwidth_hz, "hamming")
    args = (ROOM, _params(), dgrid, agrid, derive_stream(30, "stream"),
            probe, rx, tx, uniform_pointings(n_pointings), tx_pointing)
    streamed = clutter.probe_delay_map(*args)
    _assert_same_map(streamed, _held_delay_map(*args))
    assert np.all(np.isfinite(streamed[1][dgrid.n_bins // 2]))


def test_streamed_delay_map_of_zero_reflectivity_room_is_minus_inf_without_warning():
    room = replace(ROOM, gamma_sq=0.0)
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(room, DELTA_TAU_S, None)
    args = (room, _params(), dgrid, agrid, derive_stream(31, "z"),
            DEFAULTS.probe, gaussian_horn(10.0, agrid), omni(agrid),
            uniform_pointings(148), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streamed = clutter.probe_delay_map(*args)
        held = _held_delay_map(*args)
    _assert_same_map(streamed, held)
    assert np.all(streamed[1] == -np.inf) and np.all(streamed[2] == 0.0)


@pytest.mark.parametrize("held", [True, False], ids=["held", "redrawn"])
def test_delay_map_bytes_do_not_depend_on_the_worker_count(monkeypatch, held):
    # 183 live rows of 1800 bins are ten chunks of 18 rows and one of 3, and
    # the 41 taps of a 0.25 GHz probe carry 40 spun rows, across three chunks.
    # The spin operator holds its 148 weight rows, or, over a budget of two
    # chunks, rebuilds them block by block on every call.
    agrid = AzimuthGrid(1800)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, 18.35e-9)
    assert dgrid.n_bins - dgrid.onset_bin == 183
    probe = ProbeWaveform(0.25e9, "hamming")
    assert probe.taps(dgrid).size == 41
    if not held:
        monkeypatch.setattr(clutter, "_HELD_ENTRIES", 2 * 18 * agrid.n_bins)
    clutter.clear_spin_operators()
    args = (ROOM, _params(), dgrid, agrid, derive_stream(36, "workers"), probe,
            gaussian_horn(10.0, agrid), omni(agrid), uniform_pointings(148), 0.0)
    maps, fields = [], []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "workers", lambda: workers)
        maps.append(clutter.probe_delay_map(*args))
        fields.append(gen_delay_azimuth_channel(*args[:5]).amplitudes)
    _assert_same_map(*maps)
    assert fields[0].tobytes() == fields[1].tobytes()
    _assert_same_map(maps[1], _held_delay_map(*args))


@pytest.mark.parametrize(
    "knob, value",
    [("_BLOCK_ELEMENTS", 1 << 13), ("_BLOCK_ELEMENTS", 1 << 17), ("_IN_FLIGHT", 1), ("_IN_FLIGHT", 8)],
    ids=["blocks-8k", "blocks-128k", "in-flight-1", "in-flight-8"],
)
def test_delay_map_bytes_do_not_depend_on_blocks_or_chunks_in_flight(monkeypatch, knob, value):
    # 922 live rows of 360 bins are ten chunks of 91 rows and one of 12; the
    # sweep of 72 bin centers spins each row on its own (an off-grid spin's
    # matrix product moves in its last bits with the rows it is given, and
    # so with _BLOCK_ELEMENTS)
    monkeypatch.setattr(pool, "workers", lambda: 2)
    agrid = AzimuthGrid(360)
    args = (ROOM, _params(), DelayGrid.for_room(ROOM, DELTA_TAU_S, None), agrid,
            derive_stream(38, "knobs"), DEFAULTS.probe, gaussian_horn(10.0, agrid),
            omni(agrid), uniform_pointings(72), 0.0)
    before = clutter.probe_delay_map(*args), gen_delay_azimuth_channel(*args[:5]).amplitudes
    monkeypatch.setattr(clutter, knob, value)
    after = clutter.probe_delay_map(*args), gen_delay_azimuth_channel(*args[:5]).amplitudes
    _assert_same_map(after[0], before[0])
    assert after[1].tobytes() == before[1].tobytes()


def test_delay_map_chunks_do_not_depend_on_the_map_size():
    # the 20 ns span has 200 live rows: two full chunks of 91 rows of 360
    # bins, which the 40 ns span draws from the same streams
    agrid = AzimuthGrid(360)
    stream = derive_stream(39, "span")
    short, long = (
        gen_delay_azimuth_channel(
            ROOM, _params(), DelayGrid.for_room(ROOM, DELTA_TAU_S, span), agrid, stream
        )
        for span in (20e-9, 40e-9)
    )
    onset = short.dgrid.onset_bin
    assert short.dgrid.n_bins - onset == 200 and long.dgrid.n_bins > short.dgrid.n_bins
    full = onset + 2 * 91
    assert short.p_v_db == long.p_v_db
    assert short.amplitudes[:full].tobytes() == long.amplitudes[:full].tobytes()
    assert not np.array_equal(short.amplitudes[full:], long.amplitudes[full : short.dgrid.n_bins])


def test_delay_map_on_a_pool_thread_submits_nothing_to_the_pool(monkeypatch):
    monkeypatch.setattr(pool, "workers", lambda: 2)
    executor = pool._pool()
    submit, submitted = executor.submit, []
    monkeypatch.setattr(
        executor, "submit", lambda fn, *a, **kw: submitted.append(fn) or submit(fn, *a, **kw)
    )
    agrid = AzimuthGrid(360)
    args = (ROOM, _params(), DelayGrid.for_room(ROOM, DELTA_TAU_S, None), agrid,
            derive_stream(37, "nested"), DEFAULTS.probe, gaussian_horn(10.0, agrid),
            omni(agrid), uniform_pointings(148), 0.0)
    direct = clutter.probe_delay_map(*args)
    assert len(submitted) == 11  # 11 chunks, each drawn and spun in one submission
    submitted.clear()
    on_pool = submit(clutter.probe_delay_map, *args).result(timeout=60)
    assert submitted == []
    _assert_same_map(on_pool, direct)


def test_streamed_delay_map_never_holds_a_complex_map():
    # a 40 ns room on the 1 degree grid: 3785 x 360 complex map, 21.8 MB
    room = replace(ROOM, t_rev_s=40e-9)
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(room, DELTA_TAU_S, None)
    rx, tx = gaussian_horn(10.0, agrid), omni(agrid)
    pointings = uniform_pointings(148)
    spin_operator(agrid, rx, tx, pointings, 0.0)  # held by the operator cache, not by the map
    tracemalloc.start()
    try:
        clutter.probe_delay_map(
            room, _params(), dgrid, agrid, derive_stream(33, "mem"), DEFAULTS.probe,
            rx, tx, pointings, 0.0,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # gen_delay_azimuth_channel and band_limit peak at 36 MB, holding the map
    # and its magnitudes
    assert peak < dgrid.n_bins * agrid.n_bins * np.dtype(complex).itemsize


def test_band_limit_with_more_taps_than_block_rows_matches_explicit_reference():
    # 1800 bins make row blocks of 18 rows, so the 40 carried rows of a
    # 41-tap probe span three blocks; 1440 pointings make output blocks of 22
    agrid = AzimuthGrid(1800)
    dgrid = DelayGrid(0.1e-9, 15e-9, onset_s=10e-9)
    rng = np.random.default_rng(34)
    amplitudes = rng.standard_normal((dgrid.n_bins, 2 * agrid.n_bins)).view(complex)
    amplitudes[dgrid.taus_s < dgrid.onset_s] = 0.0
    field = DelayAzimuthField(dgrid=dgrid, agrid=agrid, amplitudes=amplitudes, p_v_db=0.0, p0=1.0)
    t = np.linspace(-1.0, 1.0, 41)
    taps = _unit_energy_taps(
        np.hamming(41) * np.exp(2j * np.pi * (0.7 * t**2 + 0.2 * t)), dgrid.delta_tau_s
    )
    rx, tx = gaussian_horn(10.0, agrid), gaussian_horn(60.0, agrid)
    pointings = uniform_pointings(1440)
    power = _probed_power(field, taps, rx, tx, pointings, 20.0)
    expected = _explicit_band_limit(field, taps, rx, tx, pointings, 20.0)
    assert power.shape == expected.shape
    assert np.max(np.abs(power - expected)) <= 1e-12 * np.max(expected)
    assert np.all(power[: dgrid.onset_bin] == 0.0)
