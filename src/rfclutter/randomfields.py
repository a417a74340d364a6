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

from .core import ConfigurationError

LN10_OVER_20 = math.log(10.0) / 20.0

# the entries of every block, drawn, spun or filtered: rows of a channel draw
# (:func:`rfclutter.clutter._row_blocks`) and samples of a fluctuation series.
# Part of the data contract
_BLOCK_ENTRIES = 1 << 15
# the most samples a fluctuation series may pad to, n + 4 ceil(6 w): 4 GiB of
# complex values.  A fixed count, not the machine's memory, so a config is
# valid or not on every machine alike
_MAX_SERIES_SAMPLES = 1 << 28


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
    and the norm of :func:`filter_field_rows`, computed once per grid and
    scale.  The spectrum is read-only, since every caller shares it."""
    kernel = _wrapped_gaussian_kernel(n_bins, corr_bins / math.sqrt(2.0))
    kf = np.fft.rfft(kernel)
    kf.flags.writeable = False
    return kf, math.sqrt(float(np.sum(kernel**2)))


def filter_field_rows(white: np.ndarray, corr_bins: float) -> np.ndarray:
    """Rows of white noise, shape (n_rows, n_bins), filtered into rows of
    zero-mean, unit-variance Gaussians with circular Gaussian autocorrelation
    exp(-lag^2 / (2 corr_bins^2)).  Draws nothing.

    The noise is circularly convolved with a Gaussian kernel of RMS width
    corr_bins/sqrt(2) (filtering doubles the squared width), then scaled by
    the exact discrete factor sqrt(sum k^2) so the ensemble variance is 1 on
    the finite grid.  Each row is filtered on its own: a row's values do not
    depend on how many rows are filtered with it.
    """
    n_bins = white.shape[1]
    kf, norm = _field_filter(n_bins, corr_bins)
    rows = np.fft.irfft(np.fft.rfft(white, axis=1) * kf[None, :], n=n_bins, axis=1)
    rows /= norm
    return rows


def gaussian_field_rows(
    rng: np.random.Generator, n_rows: int, n_bins: int, corr_bins: float
) -> np.ndarray:
    """Draw ``n_rows`` rows of white noise from ``rng`` and filter them with
    :func:`filter_field_rows`."""
    return filter_field_rows(rng.standard_normal((n_rows, n_bins)), corr_bins)


def check_coherence_resolved(
    coherence_time_s: float, sample_rate_hz: float, n_samples: float | None = None
) -> None:
    """Raise unless samples at ``sample_rate_hz`` resolve the coherence time
    and, given ``n_samples``, the series of :func:`complex_gaussian_series`
    padded by 4 ceil(6 w) samples for a kernel w samples wide, the longest
    array it allocates, is at most ``_MAX_SERIES_SAMPLES`` (2^28) samples."""
    if coherence_time_s < 2.0 / sample_rate_hz:
        raise ConfigurationError(
            "coherence time under-resolved: need coherence_time >= 2 / sample_rate"
        )
    if n_samples is None:
        return
    w = coherence_time_s / math.sqrt(2.0) * sample_rate_hz
    if not n_samples + 4.0 * np.ceil(6.0 * w) <= _MAX_SERIES_SAMPLES:
        raise ConfigurationError(
            f"a coherence time of {coherence_time_s:g} s pads the target fluctuation series "
            f"of {n_samples:.6g} samples by 4 ceil(6 x {w:.4g}), more than the "
            f"{_MAX_SERIES_SAMPLES} samples a series may pad to"
        )


def _fast_len(n: int) -> int:
    """Smallest 2·3·5·7·11-smooth integer >= ``n`` >= 1: the complex
    transform lengths pocketfft runs fastest, as
    ``scipy.fft.next_fast_len(n, real=False)`` picks them."""
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # the smallest p3 * 2^k >= n
                    p2 = p3 << (-(-n // p3) - 1).bit_length()
                    best = min(best, p2)
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _kernel_spectrum(kernel: np.ndarray, length: int) -> np.ndarray:
    """The complex spectrum of the real ``kernel`` zero-padded to ``length``:
    its rfft, the upper half by conjugate symmetry.  A complex transform of
    the kernel differs in the last bits."""
    kf = np.fft.rfft(kernel, length)
    h = kf.size
    spectrum = np.empty(length, dtype=complex)
    spectrum[:h] = kf
    spectrum[h:] = kf[length - h : 0 : -1].conj()
    return spectrum


def complex_gaussian_series(
    n_samples: int,
    sample_rate_hz: float,
    coherence_time_s: float,
    stream: RandomStream,
) -> np.ndarray:
    """``n_samples`` samples at ``sample_rate_hz`` of a zero-mean circularly
    symmetric complex Gaussian series of unit mean power.

    Normalized autocorrelation exp(-dt^2 / (2 Tc^2)) with Tc the coherence
    time; built by convolving complex white noise with a Gaussian kernel of
    RMS width Tc/sqrt(2) and 2m + 1 taps, discarding m samples of warm-up at
    each end of the noise.

    The noise, n_samples + 2m samples, is drawn into one complex array,
    every real part and then every imaginary part, a block of
    ``_BLOCK_ENTRIES`` at a time through one small buffer: the same bits as
    one draw of each.  The series is filtered by overlap-save in blocks of
    ``_BLOCK_ENTRIES`` output samples, or of 4m when the kernel is wider, so
    that the overlap never makes a full block's transform much more than
    twice the block.  Each block is ``fftconvolve(window, kernel,
    mode="same")`` on its window of block + 2m noise samples, trimmed by m
    at each end and scaled: the window is zero-padded to the transform
    length, multiplied by the kernel's spectrum (built once per length) and
    transformed back, and the block is written over noise no later window
    reads.  A series of one block is that recipe on all its noise.  The
    bytes equal SciPy's at the lengths the tests pin; with a kernel wider
    than a block they differ in the last bits.

    What is held is the noise array, which becomes the series, and one
    block's buffers: the draw buffer, the transform and the kernel
    spectrum.  For 2M samples that is 32 MB and 1.3 MB, a 34.7 MB peak
    traced by ``tracemalloc``, which does not see pocketfft's plan and
    scratch; the process's peak RSS grows by 35 MB.  One transform of the
    whole series grew it by 109 MB, against a 65 MB traced peak.
    """
    if sample_rate_hz <= 0 or coherence_time_s <= 0:
        raise ValueError("sample rate and coherence time must be positive")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    check_coherence_resolved(coherence_time_s, sample_rate_hz, n_samples)
    dt = 1.0 / sample_rate_hz
    w = (coherence_time_s / math.sqrt(2.0)) / dt  # kernel RMS, samples
    m = int(math.ceil(6.0 * w))
    rng = stream.generator()
    size = n_samples + 2 * m
    x = np.empty(size, dtype=complex)
    drawn = np.empty(min(size, _BLOCK_ENTRIES))
    for part in (x.real, x.imag):
        for start in range(0, size, drawn.size):
            chunk = drawn[: size - start]
            rng.standard_normal(out=chunk)
            part[start : start + chunk.size] = chunk
    x /= math.sqrt(2.0)
    j = np.arange(-m, m + 1, dtype=float)
    kernel = np.exp(-0.5 * (j / w) ** 2)
    norm = math.sqrt(float(np.sum(kernel**2)))
    # the window of each block is zero-padded to the FFT length of its full
    # linear convolution with the kernel; "same" mode starts m into it, and
    # the warm-up m more
    block = min(n_samples, max(_BLOCK_ENTRIES, 4 * m))
    work = np.empty(_fast_len(block + 4 * m), dtype=complex)
    spectrum = None
    for start in range(0, n_samples, block):
        k = min(block, n_samples - start)
        buf = work if k == block else work[: _fast_len(k + 4 * m)]
        if spectrum is None or spectrum.size != buf.size:
            spectrum = _kernel_spectrum(kernel, buf.size)
        buf[: k + 2 * m] = x[start : start + k + 2 * m]
        buf[k + 2 * m :] = 0.0
        np.fft.fft(buf, out=buf)
        buf *= spectrum
        np.fft.ifft(buf, out=buf)
        np.divide(buf[2 * m : 2 * m + k], norm, out=x[start : start + k])
    return x[:n_samples]
