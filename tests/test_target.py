import math
from dataclasses import replace

import numpy as np
import pytest

from rfclutter import (
    AzimuthGrid,
    CarrierSpec,
    SceneSpec,
    Trajectory,
    complex_gaussian_series,
    compose_scene,
    derive_stream,
    gaussian_horn,
    gen_azimuth_channel,
    gen_azimuth_channels,
    omni,
    target_response,
    trajectory_state,
)
from rfclutter import clutter
from rfclutter.antennas import AntennaPattern
from rfclutter.clutter import clear_spin_operators, spin_amplitudes
from rfclutter.config import load_config_tree, resolve_config

DEFAULTS = resolve_config(load_config_tree(None))
TARGET = DEFAULTS.scene.target  # -8 dBsm, 0.1 s, Swerling I
CARRIER = CarrierSpec(28e9)
GRID = AzimuthGrid(1800)
OMNI = omni(GRID)
NO_CLUTTER = replace(DEFAULTS.room, gamma_sq=0.0)
# period x rate is 7.000000000000001: a rotation of 7 samples, to 1e-9
SEVEN_SAMPLES = {"spin_period_s": 0.07, "sample_rate_hz": 100.0}


def test_trajectory_interpolation():
    traj = Trajectory.from_waypoints([(0.0, 5.0, 0.0), (5.0, 0.5, 0.0)])
    assert trajectory_state(traj, 0.0) == pytest.approx((5.0, 0.0))
    assert trajectory_state(traj, 2.5) == pytest.approx((2.75, 0.0))
    static = Trajectory.from_waypoints([(0.0, 0.0, 3.0), (1.0, 0.0, 3.0)])
    assert trajectory_state(static, 0.7) == pytest.approx((3.0, 90.0))


def test_trajectory_validation():
    traj = Trajectory.from_waypoints([(0.0, 5.0, 0.0), (5.0, 0.5, 0.0)])
    with pytest.raises(ValueError):
        trajectory_state(traj, 6.0)
    with pytest.raises(ValueError):
        Trajectory.from_waypoints([(0.0, 1.0, 0.0), (0.0, 2.0, 0.0)])
    with pytest.raises(ValueError):
        Trajectory.from_waypoints([(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)])


def test_target_response_link_budget():
    spec = replace(TARGET, sigma0_dbsm=-8.0, model="constant")
    p = target_response(5.0, 0.0, spec, CARRIER, OMNI, OMNI, pointing_deg=0.0, tx_pointing_deg=0.0)
    # independent evaluation of the radar equation
    wl = CARRIER.wavelength_m
    expected = wl**2 * 10.0 ** (-0.8) / ((4.0 * math.pi) ** 3 * 5.0**4)
    assert p == pytest.approx(expected, rel=1e-12)
    assert 10.0 * math.log10(p) == pytest.approx(-108.34, abs=0.01)


def test_target_response_inverse_fourth_power():
    spec = replace(TARGET, model="constant")
    p1 = target_response(5.0, 0.0, spec, CARRIER, OMNI, OMNI, 0.0, 0.0)
    p2 = target_response(10.0, 0.0, spec, CARRIER, OMNI, OMNI, 0.0, 0.0)
    assert 10.0 * math.log10(p2 / p1) == pytest.approx(-12.04, abs=0.01)


def test_target_response_zero_fluctuation_and_domain():
    spec = replace(TARGET, model="swerling1")
    with pytest.raises(ValueError):
        target_response(0.0, 0.0, spec, CARRIER, OMNI, OMNI, 0.0, 0.0)


def _demo_scene(**overrides):
    base = dict(
        room=DEFAULTS.room,
        clutter=DEFAULTS.clutter,
        target=TARGET,
        trajectory=Trajectory.from_waypoints(
            [(0.0, 1.4, -0.6), (1.0, 0.25, 0.35), (2.0, 1.4, -0.6)]
        ),
        rx=gaussian_horn(10.0, GRID),
        tx=OMNI,
        spin_period_s=0.2,
        sample_rate_hz=740.0,
        duration_s=2.0,
        tx_pointing_deg=0.0,
        regenerate_clutter_per_rotation=False,
    )
    base.update(overrides)
    return SceneSpec(**base)


def test_zero_rcs_scene_equals_clutter_only():
    spec = _demo_scene(target=replace(TARGET, sigma0_dbsm=-math.inf))
    stream = derive_stream(21, "scene")
    tmap = compose_scene(spec, stream)
    grid = AzimuthGrid(1800)
    field = gen_azimuth_channel(spec.room, spec.clutter, grid, stream.child("clutter"))
    # the scene spins one rotation and reads sample i off its column i % spr
    spr = tmap.samples_per_rotation
    y = spin_amplitudes(field, spec.rx, spec.tx, tmap.pointing_deg[:spr], 0.0)
    assert np.array_equal(tmap.power, np.abs(y[np.arange(tmap.power.size) % spr]) ** 2)


def test_static_target_leaves_persistent_ridge():
    traj = Trajectory.from_waypoints([(0.0, 2.298, 1.928), (2.0, 2.298, 1.928)])  # 40 deg, R=3
    spec = _demo_scene(
        room=replace(DEFAULTS.room, distance_to_wall_m=4.0, gamma_sq=0.0),
        trajectory=traj,
        target=replace(TARGET, sigma0_dbsm=10.0, model="constant"),
    )
    tmap = compose_scene(spec, derive_stream(22, "ridge"))
    spr = tmap.samples_per_rotation
    for r in range(tmap.power.size // spr):
        sl = slice(r * spr, (r + 1) * spr)
        peak_pointing = tmap.pointing_deg[sl][np.argmax(tmap.power[sl])]
        err = abs((peak_pointing - 40.0 + 180.0) % 360.0 - 180.0)
        assert err <= 2.5  # within one pointing step of the bearing
    # ridge width matches the one-way receive beam (tx is omni)
    sl = slice(0, spr)
    row = tmap.power[sl]
    above = np.nonzero(row > 0.5 * row.max())[0]
    width = (above.max() - above.min()) * 360.0 / spr
    assert width == pytest.approx(10.0, abs=3.0)


def test_swerling_scene_power_statistics():
    # time-averaged fluctuating echo matches the constant-model echo; a short
    # coherence time packs many independent fluctuations into the window
    spec = _demo_scene(
        room=NO_CLUTTER,
        trajectory=Trajectory.from_waypoints([(0.0, 0.0, 2.0), (200.0, 0.0, 2.0)]),
        rx=OMNI,
        duration_s=200.0,
        sample_rate_hz=200.0,
        target=replace(TARGET, model="swerling1", coherence_time_s=0.01),
    )
    stream = derive_stream(23, "swerling")
    fluct = compose_scene(spec, stream)
    const = compose_scene(
        replace(spec, target=replace(spec.target, model="constant")), stream
    )
    assert fluct.power.mean() == pytest.approx(const.power.mean(), rel=0.04)


def test_target_peak_monotone_in_rcs():
    peaks = []
    for rcs in (-20.0, -14.0, -8.0, -2.0):
        spec = _demo_scene(
            room=NO_CLUTTER,
            target=replace(TARGET, sigma0_dbsm=rcs, model="constant"),
        )
        tmap = compose_scene(spec, derive_stream(24, "mono"))
        peaks.append(tmap.power.max())
    assert all(b > a for a, b in zip(peaks, peaks[1:]))


def test_scene_requires_covering_trajectory():
    with pytest.raises(ValueError):
        _demo_scene(duration_s=3.0)  # trajectory spans [0, 2]


def test_scene_rejects_a_path_through_the_radar_within_its_span():
    # the walk from (-1, -0.5) to (2, 1) crosses the origin a third of the way, at t = 1 s
    through = Trajectory.from_waypoints([(0.0, -1.0, -0.5), (3.0, 2.0, 1.0)])
    with pytest.raises(ValueError, match="through the radar"):
        _demo_scene(trajectory=through)
    _demo_scene(trajectory=through, duration_s=0.9)
    beside = Trajectory.from_waypoints([(0.0, -1.0, -0.5), (3.0, 2.0, 1.0 + 1e-9)])
    _demo_scene(trajectory=beside)


def test_scene_rejects_a_path_whose_echo_overflows_within_its_span():
    # the -8 dBsm echo at 28 GHz with the 10 degree horn's peak gain
    # overflows within about 3.7e-79 m of the radar; the last leg ends 1e-80 m
    # from it at t = 4 s and is still 7.6 mm away at t = 3.99 s
    walk = Trajectory.from_waypoints([(0.0, 1.4, -0.6), (2.0, 1.4, -0.6), (4.0, 1e-80, 0.0)])
    with pytest.raises(ValueError, match="echo at the peak gains overflows"):
        _demo_scene(trajectory=walk, duration_s=4.0)
    _demo_scene(trajectory=walk, duration_s=3.99)
    # nearer than a wavelength is no error while the echo stays finite
    walk = Trajectory.from_waypoints([(0.0, 1.4, -0.6), (2.0, 1.4, -0.6), (4.0, 1e-78, 0.0)])
    _demo_scene(trajectory=walk, duration_s=4.0)


def test_constant_target_draws_no_fluctuation(monkeypatch):
    import rfclutter.target

    def no_draw(*args):
        raise AssertionError("constant target drew a fluctuation series")

    monkeypatch.setattr(rfclutter.target, "complex_gaussian_series", no_draw)
    spec = _demo_scene(target=replace(TARGET, model="constant"), duration_s=0.5)
    assert np.all(np.isfinite(compose_scene(spec, derive_stream(24, "const")).power))


def test_scene_determinism():
    spec = _demo_scene()
    a = compose_scene(spec, derive_stream(25, "det"))
    b = compose_scene(spec, derive_stream(25, "det"))
    assert np.array_equal(a.power, b.power)


def test_folded_map_shape():
    spec = _demo_scene()
    tmap = compose_scene(spec, derive_stream(26, "fold"))
    rot_times, pointing_bins, image = tmap.folded()
    assert image.shape == (10, 148)  # 2 s / 0.2 s rotations at 740 Hz
    assert pointing_bins.size == 148
    assert np.all(image >= 0.0)


def test_regenerated_clutter_differs_per_rotation_but_stays_deterministic():
    static = _demo_scene(duration_s=0.5)
    regen = _demo_scene(duration_s=0.5, regenerate_clutter_per_rotation=True)
    a = compose_scene(regen, derive_stream(27, "regen"))
    b = compose_scene(regen, derive_stream(27, "regen"))
    assert np.array_equal(a.power, b.power)
    c = compose_scene(static, derive_stream(27, "regen"))
    assert not np.array_equal(a.power, c.power)


def test_scene_power_is_the_link_budget():
    # without clutter, each sample's power is target_response at its range,
    # bearing, fluctuation and pointing
    spec = _demo_scene(room=NO_CLUTTER, duration_s=1.0)
    assert spec.rx.kind == "gaussian"
    stream = derive_stream(30, "budget")
    tmap = compose_scene(spec, stream)
    xi = complex_gaussian_series(
        740, spec.sample_rate_hz, spec.target.coherence_time_s,
        stream.child("target/fluctuation"),
    )
    expected = [
        target_response(
            *trajectory_state(spec.trajectory, t), spec.target, CARRIER, spec.rx, spec.tx, p,
            spec.tx_pointing_deg,
        ) * abs(x) ** 2
        for t, x, p in zip(tmap.times_s, xi, tmap.pointing_deg)
    ]
    assert tmap.power.size == len(expected) == 740
    # far off the beam the powers are subnormal and hold fewer digits
    np.testing.assert_allclose(tmap.power, expected, rtol=1e-12, atol=np.finfo(float).tiny)


def test_scene_pointings_stay_below_360_and_repeat_per_rotation():
    for spin, shape in (({}, (10, 148)), (SEVEN_SAMPLES, (28, 7))):
        tmap = compose_scene(_demo_scene(**spin), derive_stream(31, "pointings"))
        assert np.all((tmap.pointing_deg >= 0.0) & (tmap.pointing_deg < 360.0))
        spr = tmap.samples_per_rotation
        rotations = tmap.pointing_deg[: shape[0] * spr].reshape(-1, spr)
        assert rotations.shape == shape
        for r in range(1, rotations.shape[0]):
            assert np.array_equal(rotations[r], rotations[0])


@pytest.mark.parametrize("rate_hz", [745.0, 743.7])
def test_scene_pointings_follow_the_spin_at_any_rate(rate_hz):
    # 743.7 Hz puts 148.74 samples in a 0.2 s rotation
    spec = _demo_scene(sample_rate_hz=rate_hz)
    tmap = compose_scene(spec, derive_stream(32, "pointings"))
    expected = (tmap.times_s / spec.spin_period_s * 360.0) % 360.0
    diff = (tmap.pointing_deg - expected + 180.0) % 360.0 - 180.0
    assert np.max(np.abs(diff)) <= 1e-9
    assert np.all((tmap.pointing_deg >= 0.0) & (tmap.pointing_deg < 360.0))


def test_regenerated_scene_builds_the_spin_operator_once(monkeypatch):
    calls = []
    field_at = AntennaPattern.field_at
    def counted(self, offset_deg):
        calls.append(1)
        return field_at(self, offset_deg)
    monkeypatch.setattr(AntennaPattern, "field_at", counted)
    for spin in ({}, SEVEN_SAMPLES):
        counts = []
        for regenerate in (False, True):
            clear_spin_operators()
            calls.clear()
            spec = _demo_scene(duration_s=1.0, regenerate_clutter_per_rotation=regenerate, **spin)
            tmap = compose_scene(spec, derive_stream(33, "operator"))
            # static or regenerated, the kept operator spins one rotation
            (key,) = clutter._SPIN_OPERATORS
            spr = spec.samples_per_rotation
            assert tmap.power.size > spr
            assert key[3] == tmap.pointing_deg[:spr].tobytes()
            counts.append(len(calls))
        static, regenerated = counts
        assert 0 < regenerated == static


@pytest.mark.parametrize("spin, rotations", [
    pytest.param({"sample_rate_hz": 740.0}, 10, id="740.0"),
    pytest.param({"sample_rate_hz": 743.7}, 0, id="743.7"),
    pytest.param(SEVEN_SAMPLES, 28, id="0.07s-100Hz"),
    pytest.param({"spin_period_s": 1e306}, 0, id="period-x-rate-overflows"),
])
def test_folded_rows_sit_on_their_pointing_labels(spin, rotations):
    # at 743.7 Hz a rotation is 148.74 samples: rows cut every 149 samples
    # would drift further off the first rotation's pointings, row by row
    tmap = compose_scene(_demo_scene(**spin), derive_stream(34, "fold"))
    _, pointing_bins, image = tmap.folded()
    n_rot, spr = image.shape
    rows = tmap.pointing_deg[: n_rot * spr].reshape(n_rot, spr)
    assert np.array_equal(rows, np.broadcast_to(pointing_bins, rows.shape))  # the same bits
    assert np.array_equal(image, tmap.power[: n_rot * spr].reshape(n_rot, spr))
    assert n_rot == rotations


def test_regenerated_clutter_is_redrawn_where_the_rotation_index_changes():
    for spin, last in (({"sample_rate_hz": 743.7}, 4), (SEVEN_SAMPLES, 14)):
        spec = _demo_scene(
            duration_s=1.0,
            target=replace(TARGET, sigma0_dbsm=-math.inf),
            regenerate_clutter_per_rotation=True,
            **spin,
        )
        stream = derive_stream(35, "regen")
        tmap = compose_scene(spec, stream)
        # 148.74 samples are not a whole rotation: the index is then floor(i / 148.74)
        spr = spec.samples_per_rotation
        per_rotation = spr or spec.spin_period_s * spec.sample_rate_hz
        rotation = np.floor(np.arange(tmap.power.size) / per_rotation)
        assert rotation[-1] == last
        subs = [stream.child("clutter").child(f"rotation/{r}") for r in range(last + 1)]
        if spr is not None:
            # the rotations drawn together and spun as one block over the
            # first rotation's pointings, a short last rotation reading its
            # first samples
            amplitudes, _, _ = gen_azimuth_channels(spec.room, spec.clutter, GRID, subs)
            block = clutter.spin_operator(GRID, spec.rx, spec.tx, tmap.pointing_deg[:spr], 0.0)
            spun = block(amplitudes)
        for r, sub in enumerate(subs):
            sel = rotation == r
            if spr is None:  # each draw spun over its own samples' pointings
                field = gen_azimuth_channel(spec.room, spec.clutter, GRID, sub)
                y = spin_amplitudes(field, spec.rx, spec.tx, tmap.pointing_deg[sel], 0.0)
            else:
                y = spun[r, : np.count_nonzero(sel)]
            assert np.array_equal(tmap.power[sel], np.abs(y) ** 2)
        # the folded map's rows start where the clutter is redrawn
        rot_times, _, image = tmap.folded()
        starts = np.flatnonzero(np.diff(rotation, prepend=-1.0))
        assert np.array_equal(rot_times, tmap.times_s[starts[: image.shape[0]]])
