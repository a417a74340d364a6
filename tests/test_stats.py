import numpy as np
import pytest

from rfclutter import (
    CarrierSpec,
    SurveyRow,
    azimuth_autocorrelation,
    fit_reverberation,
    load_room_survey,
    spatial_correlation,
    survey_report,
)
from rfclutter.core import from_db, to_db

CARRIER = CarrierSpec(28e9)


def test_spatial_correlation_identity_and_negation():
    rng = np.random.default_rng(0)
    db = rng.normal(size=360)
    seps, rho = spatial_correlation(np.stack([db, db]), [0.0, 0.1])
    assert rho[0] == pytest.approx(1.0, abs=1e-12)
    seps, rho = spatial_correlation(np.stack([db, -db]), [0.0, 0.1])
    assert rho[0] == pytest.approx(-1.0, abs=1e-12)


def test_spatial_correlation_invariances():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=360), rng.normal(size=360)
    base = spatial_correlation(np.stack([a, b]), [0.0, 0.1])[1]
    shifted = spatial_correlation(np.stack([a + 13.0, b + 13.0]), [0.0, 0.1])[1]
    assert shifted == pytest.approx(base, abs=1e-9)
    # common linear power scaling is a constant dB offset
    scaled = to_db(7.0 * from_db(np.stack([a, b])))
    assert spatial_correlation(scaled, [0.0, 0.1])[1] == pytest.approx(base, abs=1e-9)


def test_spatial_correlation_guards():
    with pytest.raises(ValueError):
        spatial_correlation(np.zeros((2, 360)), [0.0, 0.1])  # constant spectra
    with pytest.raises(ValueError):
        spatial_correlation(np.random.default_rng(2).normal(size=(1, 360)), [0.0])


def test_spatial_correlation_averages_pairs_per_separation():
    rng = np.random.default_rng(5)
    positions = [0.0, 0.1, 0.2, 0.35, 0.45]
    db = rng.normal(size=(len(positions), 148))
    seps, rho = spatial_correlation(db, positions)
    norm = [(r - r.mean()) / r.std() for r in db]
    buckets = {}
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            sep = round(abs(positions[j] - positions[i]), 9)
            buckets.setdefault(sep, []).append(np.mean(norm[i] * norm[j]))
    assert seps.tolist() == sorted(buckets)
    assert [len(buckets[s]) for s in sorted(buckets)] == [3, 1, 1, 2, 2, 1]
    assert rho == pytest.approx([np.mean(buckets[s]) for s in sorted(buckets)], abs=1e-12)


def test_azimuth_autocorrelation_basics():
    rng = np.random.default_rng(3)
    n = 3600
    lags, rho = azimuth_autocorrelation(rng.normal(size=n))
    assert rho[np.argmin(np.abs(lags))] == pytest.approx(1.0, abs=1e-12)
    # white spectrum decorrelates past one bin
    beyond = np.abs(lags) > 360.0 / n
    assert np.all(np.abs(rho[beyond]) < 0.1)


def test_azimuth_autocorrelation_averages_spectra():
    rng = np.random.default_rng(4)
    db = rng.normal(size=(50, 360))
    lags, rho = azimuth_autocorrelation(db)
    one = azimuth_autocorrelation(db[0])[1]
    assert np.abs(rho[np.abs(lags) > 1.0]).max() < np.abs(one[np.abs(lags) > 1.0]).max()


def test_azimuth_autocorrelation_averages_every_leading_axis():
    db = np.random.default_rng(6).normal(size=(3, 4, 90))
    lags, rho = azimuth_autocorrelation(db)
    flat_lags, flat_rho = azimuth_autocorrelation(db.reshape(12, 90))
    assert np.array_equal(lags, flat_lags) and np.array_equal(rho, flat_rho)


def test_fit_reverberation_exact_on_synthetic():
    onset = 10e-9
    taus = np.arange(0, 120e-9, 0.1e-9)
    for t_rev in (3e-9, 10e-9, 40e-9):
        profile = np.where(taus >= onset, np.exp(-np.maximum(taus - onset, 0) / t_rev), 0.0)
        assert fit_reverberation(taus, profile, onset) == pytest.approx(t_rev, rel=1e-9)


def test_fit_reverberation_guards():
    taus = np.arange(0, 100e-9, 0.1e-9)
    flat = np.ones_like(taus)
    with pytest.raises(ValueError):
        fit_reverberation(taus, flat, 0.0)
    rising = np.exp(taus / 50e-9)
    with pytest.raises(ValueError):
        fit_reverberation(taus, rising, 0.0)


def test_survey_report_reference_row():
    rows = load_room_survey()
    offices = rows[0]
    assert offices.d_s_m == 1.5 and offices.measured_median_db == -66.7
    report = survey_report([offices], CARRIER)
    assert report.errors_db[0] == pytest.approx(1.8, abs=0.05)


def test_survey_report_zero_rms_when_exact():
    rows = [
        SurveyRow("synthetic", 1, 3.0, 3.0, 1.5, -64.912769, 1.0),
        SurveyRow("synthetic2", 1, 6.0, 6.0, 3.0, -70.933369, 1.0),
    ]
    report = survey_report(rows, CARRIER)
    assert report.rms_db == pytest.approx(0.0, abs=1e-3)


def test_survey_report_metal_monotone_in_distance():
    rows = load_room_survey()
    report = survey_report(rows, CARRIER)
    forced = survey_report(
        [SurveyRow(r.label, r.n_links, r.dim_a_m, r.dim_b_m, r.d_s_m, r.measured_median_db, 1.0) for r in rows],
        CARRIER,
    )
    by_distance = sorted(zip(forced.rows, forced.p0_db), key=lambda pair: pair[0].d_s_m)
    preds = [p0_db for _, p0_db in by_distance]
    assert all(b <= a for a, b in zip(preds, preds[1:]))
    # best-fit never does worse than forced metal
    assert survey_report(rows, CARRIER, force_best_fit=True).rms_db <= forced.rms_db + 1e-12


def test_survey_full_report_rms():
    report = survey_report(load_room_survey(), CARRIER, force_best_fit=True)
    assert report.rms_db == pytest.approx(2.0, abs=0.1)
    assert report.rms_db <= 3.0
    assert len(report.rows) == len(report.p0_db) == 14


def test_survey_best_fit_uses_both_materials():
    report = survey_report(load_room_survey(), CARRIER, force_best_fit=True)
    gammas = set(report.gamma_sq.tolist())
    assert gammas == {1.0, 0.25}
