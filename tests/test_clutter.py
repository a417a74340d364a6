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
    make_probe_waveform,
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
from rfclutter.randomfields import (
    filter_field_rows, gaussian_field_rows, lognormal_mean_offset, skip_field_rows,
)

DEFAULTS = resolve_config(load_config_tree(None))
CARRIER = CarrierSpec(28e9)
ROOM = DEFAULTS.room  # 3 m x 3 m, metal, 10 ns
GRID = AzimuthGrid(1800)
# the delay bin width these tests were written at: 0.1e-9 is one ulp below
# DEFAULTS.delay_grid's 0.1 * 1e-9, and their row counts depend on it
DELTA_TAU_S = 0.1e-9


def _params(**kw):
    return replace(DEFAULTS.clutter, **kw)


def _unit_energy_probe(samples, bandwidth_hz, delta_t_s=0.1e-9):
    """A probe of arbitrary complex samples, scaled to unit energy."""
    x = np.asarray(samples, dtype=complex)
    x = x / math.sqrt(float(np.sum(np.abs(x) ** 2) * delta_t_s))
    return ProbeWaveform(samples=x, delta_t_s=delta_t_s, bandwidth_hz=bandwidth_hz)


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
        uniform_pointings(360),  # on the 0.2 deg grid: FFT convolution
        uniform_pointings(148),  # off the grid: weight matrix
        np.tile(uniform_pointings(148), 2),  # repeated off-grid pointings
        # a second rotation whose timestamp-derived angles differ in the last bit
        np.concatenate([uniform_pointings(148), np.nextafter(uniform_pointings(148), 360.0)]),
    ],
    ids=["on-grid-360", "off-grid-148", "off-grid-repeated", "off-grid-last-bit"],
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


def test_spin_merges_pointings_a_last_bit_apart():
    # a static scene repeats its pointings every rotation up to the last
    # bit; the operator spins each once
    rx, tx = gaussian_horn(10.0, GRID), omni(GRID)
    first = uniform_pointings(148) + 0.05
    field = gen_azimuth_channel(ROOM, _params(), GRID, derive_stream(16, "bit"))
    y = spin_operator(GRID, rx, tx, np.concatenate([first, np.nextafter(first, 360.0)]), 0.0)(
        field.amplitudes
    )
    assert np.array_equal(y[:148], y[148:])


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
    probe = DEFAULTS.probe
    assert probe.samples.size == 21
    duration = (probe.samples.size - 1) * probe.delta_t_s
    assert duration == pytest.approx(1e-9, rel=1e-12)
    energy = np.sum(np.abs(probe.samples) ** 2) * probe.delta_t_s
    assert energy == pytest.approx(1.0, abs=1e-9)


def test_probe_waveform_scale_invariant_and_guarded():
    with pytest.raises(ConfigurationError):
        make_probe_waveform(1e9, 5e9, "hamming")


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
    probe = make_probe_waveform(1e9, 10e9, "hamming")  # dt == delta_tau
    rx, tx = omni(agrid), omni(agrid)
    resp = band_limit(field, probe, rx, tx, [agrid.centers_deg[k_phi]], 0.0)
    profile = resp.power[:, 0]
    expected = np.zeros_like(profile)
    expected[k_tau : k_tau + probe.samples.size] = np.abs(probe.samples) ** 2
    scale = profile.max() / expected.max()
    assert np.allclose(profile, expected * scale, rtol=1e-9, atol=profile.max() * 1e-12)
    # peak lands at the impulse delay plus the waveform center
    center_s = 0.5 * (probe.samples.size - 1) * probe.delta_t_s
    peak_delay = resp.delays_s[np.argmax(profile)]
    assert abs(peak_delay - (dgrid.taus_s[k_tau] + center_s)) <= probe.delta_t_s


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


def test_band_limit_rejects_coarse_waveform():
    agrid = AzimuthGrid(360)
    slow = make_probe_waveform(1e9, 1e9 * 10, "hamming")  # dt = 0.1 ns
    fine = DelayGrid.for_room(ROOM, 0.05e-9, None)
    fine_field = gen_delay_azimuth_channel(ROOM, _params(), fine, agrid, derive_stream(10, "cw"))
    with pytest.raises(ConfigurationError):
        band_limit(fine_field, slow, omni(agrid), omni(agrid), agrid.centers_deg, 0.0)


def test_clutter_params_build_their_field_params_once():
    params = DEFAULTS.clutter
    assert params.field_params is params.field_params
    assert (params.field_params.sigma_db, params.field_params.phi_rms_deg) == (7.0, 1.0)
    with pytest.raises(ValueError, match="sigma_db"):
        replace(params, sigma_db=-1.0)


def _reference_delay_map(room, params, dgrid, agrid, stream):
    """The delay-azimuth draw written out over the whole map at once."""
    rng = stream.generator()
    p_v_db = (
        lognormal_mean_offset(params.sigma_v_db)
        + params.sigma_v_db * rng.standard_normal()
    )
    live = dgrid.taus_s >= dgrid.onset_s
    fp = params.field_params
    fields_db = fp.mu_db + fp.sigma_db * gaussian_field_rows(
        rng, int(np.count_nonzero(live)), agrid.n_bins, fp.phi_rms_deg / agrid.delta_phi_deg
    )
    phases = rng.uniform(0.0, 2.0 * math.pi, fields_db.shape)
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
    assert n_live % (clutter._BLOCK_ELEMENTS // agrid.n_bins) != 0  # a partial last block
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
    return np.abs(y_bl * field.dgrid.delta_tau_s) ** 2


@pytest.mark.parametrize(
    "pointings",
    [uniform_pointings(72), uniform_pointings(72) + 0.3],
    ids=["on-grid", "off-grid"],
)
def test_band_limit_matches_explicit_reference(pointings):
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, None)
    field = gen_delay_azimuth_channel(ROOM, _params(), dgrid, agrid, derive_stream(19, "bl"))
    # a complex probe sampled on the delay grid, so its taps are its samples
    t = np.linspace(-1.0, 1.0, 11)
    probe = _unit_energy_probe(
        np.hamming(11) * (1.0 + 0.3 * t) * np.exp(2j * np.pi * (0.7 * t**2 + 0.2 * t)), 1e9
    )
    rx, tx = gaussian_horn(10.0, agrid), gaussian_horn(60.0, agrid)
    resp = band_limit(field, probe, rx, tx, pointings, tx_pointing_deg=20.0)
    expected = _explicit_band_limit(field, probe.samples, rx, tx, pointings, 20.0)
    assert resp.power.shape == expected.shape
    assert np.max(np.abs(resp.power - expected)) <= 1e-12 * np.max(expected)
    assert np.all(resp.power[resp.delays_s < dgrid.onset_s] == 0.0)


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
    probe = make_probe_waveform(bandwidth_hz, 20 * bandwidth_hz, "hamming")
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


def test_delay_map_redrawn_magnitudes_reproduce_held_ones(monkeypatch):
    # 922 live rows of 360 bins are 11 blocks of 91 rows; a budget of two
    # blocks makes the noise pass skip the noise and each block redraw its own
    agrid = AzimuthGrid(360)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, None)
    rx, tx = gaussian_horn(10.0, agrid), gaussian_horn(40.0, agrid)
    probe = make_probe_waveform(4e9, 80e9, "hamming")
    args = (ROOM, _params(), dgrid, agrid, derive_stream(32, "redraw"), probe,
            rx, tx, uniform_pointings(148) + 0.1, 20.0)
    held_field = gen_delay_azimuth_channel(*args[:5])
    held = clutter.probe_delay_map(*args)
    monkeypatch.setattr(clutter, "_HELD_ENTRIES", 2 * 91 * agrid.n_bins)
    events = []
    def filtered(white, corr_bins):
        events.append(("filter", white.shape[0]))
        return filter_field_rows(white, corr_bins)
    def skipped(rng, n_rows, n_bins):
        events.append(("skip", n_rows))
        skip_field_rows(rng, n_rows, n_bins)
    monkeypatch.setattr(clutter, "filter_field_rows", filtered)
    monkeypatch.setattr(clutter, "skip_field_rows", skipped)

    def assert_skipped_then_redrawn(workers):
        # the calling thread skips every block's noise in order before any
        # block redraws and filters its own: in order on one worker
        blocks = [n for kind, n in events if kind == "skip"]
        assert len(blocks) >= 3
        assert events[: len(blocks)] == [("skip", n) for n in blocks]
        redrawn = events[len(blocks) :]
        assert sorted(redrawn) == sorted(("filter", n) for n in blocks)
        if workers == 1:
            assert redrawn == [("filter", n) for n in blocks]
        events.clear()

    for workers in (1, 2):
        monkeypatch.setattr(pool, "workers", lambda: workers)
        streamed = clutter.probe_delay_map(*args)
        assert_skipped_then_redrawn(workers)
        _assert_same_map(streamed, held)
        # a held map over the budget skips and redraws its noise the same way
        redrawn = gen_delay_azimuth_channel(*args[:5])
        assert_skipped_then_redrawn(workers)
        assert np.array_equal(redrawn.amplitudes, held_field.amplitudes)
        assert redrawn.p_v_db == held_field.p_v_db


@pytest.mark.parametrize("held", [True, False], ids=["held", "redrawn"])
def test_delay_map_bytes_do_not_depend_on_the_worker_count(monkeypatch, held):
    # 183 live rows of 1800 bins are ten blocks of 18 rows and one of 3, and
    # the 41 taps of a 0.25 GHz probe carry 40 spun rows, across three blocks
    agrid = AzimuthGrid(1800)
    dgrid = DelayGrid.for_room(ROOM, DELTA_TAU_S, 18.35e-9)
    assert dgrid.n_bins - dgrid.onset_bin == 183
    probe = make_probe_waveform(0.25e9, 10e9, "hamming")
    assert probe.samples.size == 41
    if not held:
        monkeypatch.setattr(clutter, "_HELD_ENTRIES", 2 * 18 * agrid.n_bins)
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


def test_phases_drawn_through_advance_equal_the_sequential_draw():
    rng = derive_stream(35, "advance").generator()
    rng.standard_normal(1001)  # the ziggurat takes a varying number of outputs
    after_noise = rng.bit_generator.state
    blocks = clutter._row_blocks(183, 1800)
    sequential = [rng.random((rows.stop - rows.start, 1800)) for rows in blocks]
    for rows, u in reversed(list(zip(blocks, sequential))):
        gen = clutter._generator_at(after_noise, rows.start * 1800)
        assert gen.random(u.shape).tobytes() == u.tobytes()


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
    assert len(submitted) == 2 * 11  # 11 blocks filtered, then phased and spun
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
    probe = _unit_energy_probe(
        np.hamming(41) * np.exp(2j * np.pi * (0.7 * t**2 + 0.2 * t)), 0.25e9
    )
    rx, tx = gaussian_horn(10.0, agrid), gaussian_horn(60.0, agrid)
    pointings = uniform_pointings(1440)
    resp = band_limit(field, probe, rx, tx, pointings, tx_pointing_deg=20.0)
    expected = _explicit_band_limit(field, probe.samples, rx, tx, pointings, 20.0)
    assert resp.power.shape == expected.shape
    assert np.max(np.abs(resp.power - expected)) <= 1e-12 * np.max(expected)
    assert np.all(resp.power[resp.delays_s < dgrid.onset_s] == 0.0)
