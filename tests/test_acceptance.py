"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every test runs the corresponding validation check at its stated tolerance
with the default validation seed, so this module and the ``validate``
subcommand enforce the same contract.

Criteria covered:
  1  survey_prediction_rms      room-survey RMS <= 3.0 dB (best-fit material)
  2  quadrature_agreement       quadrature vs closed form <= 2% at 5/10/20 deg
  3  fresnel_average            eps_r = 3 -> 0.25 +/- 0.05
  4  lognormal_unit_mean        linear mean 1.00 +/- 0.01 for sigma in {4, 7}
  5  azimuth_correlation_scale  field acf at 1 deg = exp(-1/2) +/- 0.02
  6  spin_calibration           spun average = p0 * 10^(P_v/10) within 2%
  7  spatial_decorrelation      spectra correlation at 0.1 m in [0.15, 0.45]
  8  autocorrelation_main_lobe  half-width within 1 deg of the pattern reference
  9  cdf_seed_stability         decile gap < 1 dB; spun dB std < raw 7 dB
  10 reverberation_decay        fitted T_rev within 5%; probed map -inf before onset
  11 target_fluctuation         E|xi|^2, exponential GOF, 0.1 s coherence
  12 scene_composition          triangular trace; link-budget peak; zero-RCS identity
  13 cli_determinism            byte-identical outputs across reruns
"""

import pytest

from rfclutter.validation import CHECKS, DEFAULT_VALIDATION_SEED, run_checks


def _run(name):
    report = run_checks([name], master_seed=DEFAULT_VALIDATION_SEED)
    result = report.results[0]
    print(result.summary())
    assert result.passed, f"{result.summary()} details={result.details}"
    return result


@pytest.mark.parametrize("name", list(CHECKS), ids=list(CHECKS))
def test_acceptance(name):
    _run(name)
