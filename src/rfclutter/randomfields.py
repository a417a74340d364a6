"""Seeded random-field generation.

Everything stochastic in the simulator is driven from here: labeled
reproducible substreams, correlated-lognormal dB fields on a circular
azimuth grid, and temporally correlated complex Gaussian series.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .core import ConfigurationError

LN10_OVER_20 = math.log(10.0) / 20.0


@dataclass(frozen=True)
class RandomStream:
    """A labeled, reproducible random substream.

    The same (master_seed, label) pair always produces the identical sample
    sequence; distinct labels give statistically independent streams.  Labels
    are slash-separated paths, e.g. ``"clutter/azimuth/0"``.
    """

    master_seed: int
    label: str = ""

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")

    def child(self, suffix: str) -> "RandomStream":
        label = f"{self.label}/{suffix}" if self.label else suffix
        return RandomStream(self.master_seed, label)

    def generator(self) -> np.random.Generator:
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        seq = np.random.SeedSequence([self.master_seed, *words])
        return np.random.Generator(np.random.PCG64(seq))


def derive_stream(master_seed: int, label: str) -> RandomStream:
    """Deterministic substream for (seed, label)."""
    return RandomStream(int(master_seed), str(label))


@dataclass(frozen=True)
class AzimuthGrid:
    """Uniform circular azimuth grid covering [0, 360) degrees."""

    n_bins: int

    def __post_init__(self):
        if self.n_bins < 4:
            raise ValueError("azimuth grid needs at least 4 bins")

    @property
    def delta_phi_deg(self) -> float:
        return 360.0 / self.n_bins

    @property
    def delta_phi_rad(self) -> float:
        return 2.0 * math.pi / self.n_bins

    @cached_property
    def centers_deg(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.delta_phi_deg

    @classmethod
    def from_spacing(cls, delta_phi_deg: float) -> "AzimuthGrid":
        n = round(360.0 / delta_phi_deg)
        if n < 4 or abs(n * delta_phi_deg - 360.0) > 1e-9:
            raise ConfigurationError(
                f"bin width {delta_phi_deg} deg does not evenly divide 360 deg"
            )
        return cls(n)


def lognormal_mean_offset(sigma_db: float) -> float:
    """dB mean that gives a unit-mean linear power for a Gaussian dB spread.

    For P ~ Normal(mu, sigma_db^2) in dB, E[10^(P/10)] = 1 requires
    mu = -(ln 10 / 20) * sigma_db^2.
    """
    if sigma_db < 0:
        raise ValueError(f"sigma_db must be nonnegative, got {sigma_db}")
    return -LN10_OVER_20 * sigma_db**2


@dataclass(frozen=True)
class LognormalFieldParams:
    """Spread and azimuth correlation scale of the dB field."""

    sigma_db: float
    phi_rms_deg: float

    def __post_init__(self):
        if self.sigma_db < 0:
            raise ValueError("sigma_db must be nonnegative")
        if self.phi_rms_deg <= 0:
            raise ValueError("phi_rms must be positive")

    @property
    def mu_db(self) -> float:
        return lognormal_mean_offset(self.sigma_db)

    def corr_bins(self, grid: AzimuthGrid) -> float:
        """Correlation scale in bins of ``grid``, which must resolve it."""
        if grid.delta_phi_deg > self.phi_rms_deg:
            raise ConfigurationError(
                f"grid spacing {grid.delta_phi_deg:.3g} deg exceeds the correlation "
                f"scale {self.phi_rms_deg:.3g} deg; the field is unresolvable"
            )
        return self.phi_rms_deg / grid.delta_phi_deg


def _wrapped_gaussian_kernel(n_bins: int, rms_bins: float) -> np.ndarray:
    j = np.arange(n_bins)
    d = np.minimum(j, n_bins - j).astype(float)
    return np.exp(-0.5 * (d / rms_bins) ** 2)


@functools.lru_cache(maxsize=16)
def _field_filter(n_bins: int, corr_bins: float) -> tuple[np.ndarray, float]:
    """(rfft of the wrapped Gaussian kernel, sqrt(sum kernel^2)): the filter
    and the norm of :func:`gaussian_field_rows`, computed once per grid and
    scale.  The spectrum is read-only, since every caller shares it."""
    kernel = _wrapped_gaussian_kernel(n_bins, corr_bins / math.sqrt(2.0))
    kf = np.fft.rfft(kernel)
    kf.flags.writeable = False
    return kf, math.sqrt(float(np.sum(kernel**2)))


def gaussian_field_rows(
    rng: np.random.Generator, n_rows: int, n_bins: int, corr_bins: float
) -> np.ndarray:
    """Rows of zero-mean, unit-variance Gaussians with circular Gaussian
    autocorrelation exp(-lag^2 / (2 corr_bins^2)).

    White noise is circularly convolved with a Gaussian kernel of RMS width
    corr_bins/sqrt(2) (filtering doubles the squared width), then scaled by
    the exact discrete factor sqrt(sum k^2) so the ensemble variance is 1 on
    the finite grid.
    """
    kf, norm = _field_filter(n_bins, corr_bins)
    white = rng.standard_normal((n_rows, n_bins))
    rows = np.fft.irfft(np.fft.rfft(white, axis=1) * kf[None, :], n=n_bins, axis=1)
    rows /= norm
    return rows


def skip_field_rows(rng: np.random.Generator, n_rows: int, n_bins: int) -> None:
    """Move ``rng`` past the draws of ``gaussian_field_rows(rng, n_rows,
    n_bins, ...)`` without filtering them: its white noise is all it draws."""
    rng.standard_normal((n_rows, n_bins))


def check_coherence_resolved(coherence_time_s: float, sample_rate_hz: float) -> None:
    """Raise unless samples at ``sample_rate_hz`` resolve the coherence time."""
    if coherence_time_s < 2.0 / sample_rate_hz:
        raise ConfigurationError(
            "coherence time under-resolved: need coherence_time >= 2 / sample_rate"
        )


def complex_gaussian_series(
    duration_s: float,
    sample_rate_hz: float,
    coherence_time_s: float,
    stream: RandomStream,
) -> np.ndarray:
    """Zero-mean circularly symmetric complex Gaussian series, unit mean power.

    Normalized autocorrelation exp(-dt^2 / (2 Tc^2)) with Tc the coherence
    time; built by convolving complex white noise with a Gaussian kernel of
    RMS width Tc/sqrt(2), discarding one kernel support of warm-up at each
    end of the padded sequence.

    The values are those of ``fftconvolve(white, kernel, mode="same")``
    trimmed by the support and scaled, byte for byte, with its FFT steps
    run in place: the noise is drawn into one zero-padded complex array,
    which becomes its spectrum, the product and the series in turn.  The
    peak is that array, the kernel's spectrum and the zero-padded kernel:
    about 2.5 complex arrays of the series' length, 80 MB traced by
    ``tracemalloc`` for 2M samples, where the out-of-place steps took 160 MB.
    """
    if duration_s <= 0 or sample_rate_hz <= 0 or coherence_time_s <= 0:
        raise ValueError("duration, sample rate and coherence time must be positive")
    n = int(round(duration_s * sample_rate_hz))
    if n < 2:
        raise ValueError("need duration * sample_rate >= 2")
    check_coherence_resolved(coherence_time_s, sample_rate_hz)
    dt = 1.0 / sample_rate_hz
    w = (coherence_time_s / math.sqrt(2.0)) / dt  # kernel RMS, samples
    m = int(math.ceil(6.0 * w))
    rng = stream.generator()
    # noise of n + 2m samples, zero-padded to the FFT length of the full
    # linear convolution with the 2m + 1 kernel taps
    size = n + 2 * m
    fshape = [scipy.fft.next_fast_len(size + 2 * m, real=False)]
    x = np.zeros(fshape[0], dtype=complex)
    x.real[:size] = rng.standard_normal(size)
    x.imag[:size] = rng.standard_normal(size)
    x[:size] /= math.sqrt(2.0)
    j = np.arange(-m, m + 1, dtype=float)
    kernel = np.exp(-0.5 * (j / w) ** 2)
    x = scipy.fft.fftn(x, fshape, axes=[0], overwrite_x=True)
    x *= scipy.fft.fftn(kernel, fshape, axes=[0])
    x = scipy.fft.ifftn(x, fshape, axes=[0], overwrite_x=True)
    # "same" mode starts m into the full convolution; the warm-up m more
    series = x[2 * m : 2 * m + n]
    series /= math.sqrt(float(np.sum(kernel**2)))
    return series
