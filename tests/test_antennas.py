import math

import numpy as np
import pytest

from rfclutter import (
    AntennaPattern,
    AzimuthGrid,
    gaussian_horn,
    load_pattern_csv,
    omni,
    pattern_autocorrelation,
    tabulated,
)
from rfclutter.antennas import HPBW_TO_RMS, _gaussian_wrapped_power, _normalize, _wrap_deg

GRID = AzimuthGrid(1800)


def _unit_power_sum(pattern):
    return float(np.sum(pattern.power) * pattern.grid.delta_phi_rad)


def test_omni_is_isotropic():
    p = omni(GRID)
    assert np.allclose(p.power, 1.0 / (2.0 * math.pi), rtol=1e-12)
    assert _unit_power_sum(p) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "make", [lambda: gaussian_horn(10.0, GRID), lambda: omni(GRID)], ids=["gaussian", "omni"]
)
def test_memoized_patterns_are_shared_and_read_only(make):
    pattern = make()
    assert make() is pattern
    with pytest.raises(ValueError, match="read-only"):
        pattern.field[0] = 0.0


def test_gaussian_horn_half_power_at_half_beamwidth():
    p = gaussian_horn(10.0, GRID)
    f0 = p.field_at(0.0) ** 2
    assert p.field_at(5.0) ** 2 == pytest.approx(0.5 * f0, rel=1e-9)
    assert p.field_at(-5.0) ** 2 == pytest.approx(0.5 * f0, rel=1e-9)


def test_gaussian_horn_peak_density():
    p = gaussian_horn(10.0, GRID)
    rms_deg = p.hpbw_deg * HPBW_TO_RMS
    assert rms_deg == pytest.approx(4.2466, abs=1e-3)
    # unit-power Gaussian peak: 1 / (sqrt(2 pi) * rms_rad)
    expected = 1.0 / (math.sqrt(2.0 * math.pi) * math.radians(rms_deg))
    assert float(p.field_at(0.0) ** 2) == pytest.approx(expected, rel=1e-3)
    assert float(p.field_at(0.0) ** 2) == pytest.approx(5.38, abs=0.01)


@pytest.mark.parametrize("make", [lambda: gaussian_horn(10.0, GRID), lambda: omni(GRID)])
def test_unit_total_power(make):
    assert _unit_power_sum(make()) == pytest.approx(1.0, abs=1e-9)


def test_gaussian_symmetry_is_bin_exact():
    p = gaussian_horn(10.0, GRID)
    f = p.field
    assert np.array_equal(f[1:], f[1:][::-1])  # bins i and n-i mirror around boresight


def test_pattern_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown pattern kind"):
        AntennaPattern(grid=GRID, kind="custom", field=np.ones(GRID.n_bins))


def test_gaussian_horn_rejects_bad_beamwidth():
    with pytest.raises(ValueError):
        gaussian_horn(0.0, GRID)
    with pytest.raises(ValueError):
        gaussian_horn(180.0, GRID)
    with pytest.raises(ValueError, match="narrower than one grid bin"):
        gaussian_horn(0.19, GRID)  # 0.2 degree bins
    assert np.all(np.isfinite(gaussian_horn(0.2, GRID).field))


def test_autocorrelation_matches_brute_force():
    grid = AzimuthGrid(360)
    p = gaussian_horn(10.0, grid)
    lags, rho = pattern_autocorrelation(p)
    # independent O(n^2) oracle
    x = p.power - p.power.mean()
    n = x.size
    brute = np.array([np.sum(x * np.roll(x, -m)) for m in range(n)]) / np.sum(x * x)
    wrapped = (grid.centers_deg + 180.0) % 360.0 - 180.0
    order = np.argsort(wrapped, kind="stable")
    assert np.allclose(rho, brute[order], atol=1e-12)


def test_autocorrelation_normalization_and_width():
    p = gaussian_horn(10.0, GRID)
    lags, rho = pattern_autocorrelation(p)
    assert rho[np.argmin(np.abs(lags))] == pytest.approx(1.0, abs=1e-12)
    # autocorrelation of a Gaussian lobe doubles the squared width
    target = math.sqrt(2.0) * 10.0 * HPBW_TO_RMS
    at_target = rho[np.argmin(np.abs(lags - target))]
    assert at_target == pytest.approx(math.exp(-0.5), abs=0.02)


def test_autocorrelation_rejects_constant_pattern():
    with pytest.raises(ValueError):
        pattern_autocorrelation(omni(GRID))


def test_tabulated_round_trip(tmp_path):
    az = np.arange(0.0, 360.0, 1.0)
    gain_db = -0.05 * ((az + 180.0) % 360.0 - 180.0) ** 2  # smooth lobe
    path = tmp_path / "pattern.csv"
    path.write_text(
        "azimuth_deg,gain_db\n"
        + "\n".join(f"{a},{g}" for a, g in zip(az, gain_db))
        + "\n"
    )
    p = load_pattern_csv(path, GRID)
    assert _unit_power_sum(p) == pytest.approx(1.0, abs=1e-9)
    # dB interpolation hits the tabulated nodes
    ratio = p.field_at(10.0) ** 2 / p.field_at(0.0) ** 2
    assert 10.0 * math.log10(ratio) == pytest.approx(gain_db[10], abs=1e-9)
    assert p.peak_directivity == pytest.approx(1.0, rel=1e-12)  # 0 dBi peak


def test_tabulated_pattern_wraps_below_its_first_sample():
    # samples every 10 deg from 5 deg, 10 dB at 5 deg: offsets in [0, 5)
    # interpolate from the last sample (355 deg) across 360 deg
    az = np.arange(5.0, 360.0, 10.0)
    p = tabulated(az, np.where(az == 5.0, 10.0, 0.0), GRID)
    offsets = np.array([-5.0, -0.1, 0.0, 0.1, 2.5, 5.0, 355.0, 359.9, 360.0])
    expected = [0.0, 4.9, 5.0, 5.1, 7.5, 10.0, 0.0, 4.9, 5.0]
    np.testing.assert_allclose(10.0 * np.log10(p.gain_at(offsets)), expected, atol=1e-9)
    # and the field on the grid has no step at 0 deg
    below, at, above = p.field_at([-GRID.delta_phi_deg, 0.0, GRID.delta_phi_deg]) ** 2
    assert at / below == pytest.approx(above / at, rel=1e-9)


def test_tabulated_requires_increasing_azimuth():
    with pytest.raises(ValueError):
        tabulated([0.0, 10.0, 5.0], [0.0, 0.0, 0.0], GRID)
    with pytest.raises(ValueError):
        tabulated([0.0, 360.0], [0.0, 0.0], GRID)


def test_tabulated_rejects_non_finite_samples(tmp_path):
    # a 4000 dB gain is finite but its linear power is not
    for gain in ([0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0], [4000.0, 0.0]):
        with pytest.raises(ValueError):
            tabulated([0.0, 180.0], gain, GRID)
    with pytest.raises(ValueError):
        tabulated([0.0, math.nan], [0.0, 0.0], GRID)
    path = tmp_path / "pattern.csv"
    path.write_text("azimuth_deg,gain_db\n0,10\n90,nan\n180,0\n")
    with pytest.raises(ValueError):
        load_pattern_csv(path, GRID)


def test_normalize_rejects_nan_power():
    power = np.ones(GRID.n_bins)
    power[7] = math.nan
    with pytest.raises(ValueError):
        _normalize(GRID, power)
    with pytest.raises(ValueError, match="positive finite"):
        _normalize(GRID, np.full(GRID.n_bins, 1e308))  # the total overflows


def test_gain_at_matches_directivity():
    p = gaussian_horn(10.0, GRID)
    peak = float(p.gain_at(0.0))
    assert peak == pytest.approx(p.peak_directivity, rel=1e-6)
    assert 10 * math.log10(peak) == pytest.approx(25.6, abs=0.1)  # ~10 deg horn
    assert float(p.gain_at(5.0)) == pytest.approx(0.5 * peak, rel=1e-6)
    assert float(omni(GRID).gain_at(123.0)) == 1.0


def _nine_term_wrapped_power(d, rms):
    out = np.zeros_like(d)
    for k in range(-4, 5):
        out += np.exp(-0.5 * ((d + 360.0 * k) / rms) ** 2)
    return out


@pytest.mark.parametrize("rms", [0.5, 2.1, 4.25, 10.0 * HPBW_TO_RMS, 8.5, 30.0, 60.0, 89.0])
def test_wrapped_power_skips_only_zero_terms(rms):
    # the terms it skips underflow to 0: the sum is bitwise the nine-term one
    rng = np.random.default_rng(3)
    d = np.concatenate([np.linspace(0.0, 180.0, 20001), rng.uniform(0.0, 180.0, 5000)])
    assert d[0] == 0.0 and d[20000] == 180.0
    assert np.array_equal(_gaussian_wrapped_power(d, rms), _nine_term_wrapped_power(d, rms))


def test_wrap_deg_is_bitwise_the_floored_remainder():
    rng = np.random.default_rng(4)
    parts = [rng.uniform(-1.0, 1.0, 2000) * 10.0**e for e in range(-20, 21)]
    multiples = np.arange(-3000, 3001) * 360.0
    for m in (multiples, multiples * 1e4, multiples - 180.0, (multiples - 180.0) * 1e3):
        parts += [m, np.nextafter(m, np.inf), np.nextafter(m, -np.inf)]
    parts.append([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.0**53, -(2.0**53)])
    x = np.concatenate(parts)
    with np.errstate(invalid="ignore"):
        expected = (x + 180.0) % 360.0 - 180.0
        wrapped = _wrap_deg(x)
    assert np.array_equal(wrapped.view(np.int64), expected.view(np.int64))
    assert _wrap_deg(np.nextafter(-180.0, -np.inf)) == 180.0  # the one +180
    finite = wrapped[np.isfinite(x)]
    assert np.all((finite >= -180.0) & (finite <= 180.0))
