import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy import stats as spstats
from scipy.signal import fftconvolve

from rfclutter import (
    AzimuthGrid,
    ConfigurationError,
    LognormalFieldParams,
    complex_gaussian_series,
    derive_stream,
    lognormal_mean_offset,
)
from rfclutter.config import load_config_tree, resolve_config
from rfclutter.randomfields import (
    _BLOCK_ENTRIES,
    _fast_len,
    _field_filter,
    _wrapped_gaussian_kernel,
    gaussian_field_rows,
)


def test_mean_offset_values():
    assert lognormal_mean_offset(0.0) == 0.0
    assert lognormal_mean_offset(7.0) == pytest.approx(-5.641, abs=1e-3)
    assert lognormal_mean_offset(4.0) == pytest.approx(-1.842, abs=1e-3)


def test_mean_offset_rejects_negative_sigma():
    with pytest.raises(ValueError):
        lognormal_mean_offset(-1.0)


def test_streams_are_deterministic():
    a = derive_stream(42, "a").generator().standard_normal(1000)
    b = derive_stream(42, "a").generator().standard_normal(1000)
    assert np.array_equal(a, b)


def test_streams_with_distinct_labels_are_uncorrelated():
    a = derive_stream(42, "a").generator().standard_normal(100_000)
    b = derive_stream(42, "b").generator().standard_normal(100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert not np.array_equal(a[:100], b[:100])


def test_streams_differ_across_seeds():
    a = derive_stream(42, "a").generator().standard_normal(100)
    b = derive_stream(43, "a").generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_child_streams_compose_labels():
    s = derive_stream(7, "clutter").child("azimuth").child("0")
    assert s.label == "clutter/azimuth/0"
    same = derive_stream(7, "clutter/azimuth/0")
    assert np.array_equal(
        s.generator().standard_normal(10), same.generator().standard_normal(10)
    )


def _field_db(grid, params, stream):
    """One dB field row as the channel draws build it: mu + sigma * z."""
    z = gaussian_field_rows(stream.generator(), 1, grid.n_bins, params.corr_bins(grid))[0]
    return params.mu_db + params.sigma_db * z


def test_zero_sigma_field_is_exactly_zero_db():
    grid = AzimuthGrid(1800)
    field = _field_db(grid, LognormalFieldParams(0.0, 1.0), derive_stream(1, "z"))
    assert np.all(field == 0.0)


def test_field_is_unit_mean_in_linear_power():
    grid = AzimuthGrid(1800)
    params = LognormalFieldParams(7.0, 1.0)
    total, count = 0.0, 0
    for i in range(3000):
        f = _field_db(grid, params, derive_stream(2, f"um/{i}"))
        lin = 10.0 ** (f / 10.0)
        total += lin.sum()
        count += lin.size
    assert total / count == pytest.approx(1.0, abs=0.02)


def test_field_autocorrelation_matches_gaussian_target():
    grid = AzimuthGrid(1800)
    params = LognormalFieldParams(7.0, 1.0)
    lag = 5  # 1 degree
    s_x = s_xx = s_lag = 0.0
    n = 0
    for i in range(800):
        f = _field_db(grid, params, derive_stream(3, f"ac/{i}"))
        s_x += f.sum()
        s_xx += (f**2).sum()
        s_lag += (f * np.roll(f, -lag)).sum()
        n += f.size
    mean = s_x / n
    rho = (s_lag / n - mean**2) / (s_xx / n - mean**2)
    assert rho == pytest.approx(math.exp(-0.5), abs=0.02)


def test_field_is_circular_no_seam():
    grid = AzimuthGrid(720)
    params = LognormalFieldParams(7.0, 1.0)
    first, last, second = [], [], []
    for i in range(4000):
        f = _field_db(grid, params, derive_stream(4, f"c/{i}"))
        first.append(f[0])
        last.append(f[-1])
        second.append(f[1])
    wrap = np.corrcoef(first, last)[0, 1]
    ahead = np.corrcoef(first, second)[0, 1]
    assert wrap == pytest.approx(ahead, abs=0.05)


def test_field_grid_refinement_stability():
    params = LognormalFieldParams(7.0, 1.0)
    quantiles = np.arange(0.01, 1.0, 0.01)

    def pooled(n_bins, tag):
        rows = []
        for i in range(1000):
            rows.append(_field_db(AzimuthGrid(n_bins), params, derive_stream(5, f"{tag}/{i}")))
        return np.quantile(np.concatenate(rows), quantiles)

    coarse = pooled(1800, "coarse")
    fine = pooled(3600, "fine")
    assert np.max(np.abs(coarse - fine)) < 0.2


def test_field_rejects_under_resolved_grid():
    grid = AzimuthGrid.from_spacing(2.0)
    with pytest.raises(ConfigurationError):
        _field_db(grid, LognormalFieldParams(7.0, 1.0), derive_stream(1, "x"))


def test_gaussian_field_rows_unit_variance():
    rng = derive_stream(6, "v").generator()
    rows = gaussian_field_rows(rng, 2000, 720, 5.0)
    assert rows.var() == pytest.approx(1.0, abs=0.02)


def test_series_unit_power_and_coherence():
    xi = complex_gaussian_series(1_000_000, 40.0, 0.1, derive_stream(9, "xi"))
    power = np.abs(xi) ** 2
    assert power.mean() == pytest.approx(1.0, abs=0.01)
    lag = 4  # 0.1 s at 40 Hz
    rho = abs(np.sum(xi[:-lag] * np.conj(xi[lag:]))) / (power.size - lag) / power.mean()
    assert rho == pytest.approx(math.exp(-0.5), abs=0.03)


def test_series_power_is_exponential():
    xi = complex_gaussian_series(1_000_000, 40.0, 0.1, derive_stream(10, "gof"))
    sub = np.abs(xi[::20]) ** 2  # 0.5 s spacing decorrelates the draws
    assert spstats.kstest(sub, "expon").pvalue > 0.01


def test_series_guards():
    with pytest.raises(ConfigurationError):
        complex_gaussian_series(100, 10.0, 0.1, derive_stream(1, "u"))  # Tc < 2/rate
    with pytest.raises(ValueError):
        complex_gaussian_series(1, 40.0, 0.1, derive_stream(1, "u"))  # n < 2


def test_grid_invariants():
    g = AzimuthGrid.from_spacing(0.2)
    assert g.n_bins == 1800
    assert g.n_bins * g.delta_phi_deg == pytest.approx(360.0, abs=1e-12)
    with pytest.raises(ConfigurationError):
        AzimuthGrid.from_spacing(0.21)


def test_field_filter_is_read_only_and_rows_match_the_inline_recipe():
    kf, norm = _field_filter(720, 5.0)
    assert not kf.flags.writeable
    with pytest.raises(ValueError):
        kf[0] = 0.0
    kernel = _wrapped_gaussian_kernel(720, 5.0 / math.sqrt(2.0))
    for _ in range(2):  # the first call may fill the memo, the second reads it
        rows = gaussian_field_rows(derive_stream(8, "filter").generator(), 7, 720, 5.0)
        white = derive_stream(8, "filter").generator().standard_normal((7, 720))
        spectrum = np.fft.rfft(white, axis=1) * np.fft.rfft(kernel)[None, :]
        ref = np.fft.irfft(spectrum, n=720, axis=1)
        ref /= math.sqrt(float(np.sum(kernel**2)))
        assert rows.tobytes() == ref.tobytes()
    assert _field_filter(720, 5.0)[0] is kf


def _noise_and_kernel(n, sample_rate_hz, coherence_time_s, stream):
    """The series' complex white noise, n + 2m samples, and its kernel."""
    w = (coherence_time_s / math.sqrt(2.0)) * sample_rate_hz
    m = int(math.ceil(6.0 * w))
    rng = stream.generator()
    white = (
        rng.standard_normal(n + 2 * m) + 1j * rng.standard_normal(n + 2 * m)
    ) / math.sqrt(2.0)
    j = np.arange(-m, m + 1, dtype=float)
    return white, np.exp(-0.5 * (j / w) ** 2)


def _fftconvolve_series(n, sample_rate_hz, coherence_time_s, stream):
    """The out-of-place recipe that complex_gaussian_series runs in place."""
    white, kernel = _noise_and_kernel(n, sample_rate_hz, coherence_time_s, stream)
    m = kernel.size // 2
    filtered = fftconvolve(white, kernel, mode="same")[m : m + n]
    return filtered / math.sqrt(float(np.sum(kernel**2)))


def _blocked_fftconvolve_series(n, sample_rate_hz, coherence_time_s, stream):
    """The recipe of :func:`_fftconvolve_series` run on each block's window
    of block + 2m noise samples, blocks of 2^15 samples (4m for a wider
    kernel), as complex_gaussian_series runs it in place."""
    white, kernel = _noise_and_kernel(n, sample_rate_hz, coherence_time_s, stream)
    m = kernel.size // 2
    norm = math.sqrt(float(np.sum(kernel**2)))
    block = max(_BLOCK_ENTRIES, 4 * m)
    blocks = []
    for start in range(0, n, block):
        k = min(block, n - start)
        window = white[start : start + k + 2 * m]
        blocks.append(fftconvolve(window, kernel, mode="same")[m : m + k] / norm)
    return np.concatenate(blocks)


def _reference_series(args, seed):
    """One fftconvolve for a series of one block; one per block beyond."""
    recipe = _fftconvolve_series if args[0] <= _BLOCK_ENTRIES else _blocked_fftconvolve_series
    return recipe(*args, derive_stream(seed, "fluct"))


def _default_scene_series_args():
    spec = resolve_config(load_config_tree(None)).scene
    n = round(spec.duration_s * spec.sample_rate_hz)
    return n, spec.sample_rate_hz, spec.target.coherence_time_s


@pytest.mark.parametrize(
    "args",
    [(2_000_000, 40.0, 0.1), _default_scene_series_args()],
    ids=["target_fluctuation", "default-scene"],
)
@pytest.mark.parametrize("seed", [3, 1234])
def test_series_bytes_equal_the_fftconvolve_recipe(args, seed):
    xi = complex_gaussian_series(*args, derive_stream(seed, "fluct"))
    ref = _reference_series(args, seed)
    assert xi.shape == ref.shape
    assert xi.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "args, seed",
    [
        ((2_000_000, 40.0, 0.1), 42),
        (_default_scene_series_args(), 42),
        # odd transform lengths (189 and 6237), where the kernel spectrum's
        # conjugate half has no Nyquist bin
        *(((120, 40.0, 0.1), seed) for seed in (3, 42, 1234)),
        *(((3700, 740.0, 0.2), seed) for seed in (3, 42, 1234)),
        # exactly one block, and one block and one sample: a last block of
        # one sample on its own transform length
        ((_BLOCK_ENTRIES, 40.0, 0.1), 42),
        ((_BLOCK_ENTRIES + 1, 40.0, 0.1), 42),
    ],
)
def test_series_bytes_equal_the_fftconvolve_recipe_at_more_seeds_and_lengths(args, seed):
    xi = complex_gaussian_series(*args, derive_stream(seed, "fluct"))
    ref = _reference_series(args, seed)
    assert xi.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "args",
    [
        (3 * _BLOCK_ENTRIES + 7, 40.0, 0.1),
        # a kernel of m = 10183 taps a side, so blocks of 4m: two of 40732
        # samples and one of 18536
        (100_000, 40.0, 60.0),
    ],
    ids=["narrow-kernel", "wide-kernel"],
)
def test_blocked_series_equals_one_filter_to_rounding(args):
    # blocks change the transform lengths, so the last bits, and nothing more
    xi = complex_gaussian_series(*args, derive_stream(5, "fluct"))
    ref = _fftconvolve_series(*args, derive_stream(5, "fluct"))
    np.testing.assert_allclose(xi, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("size", [1, _BLOCK_ENTRIES, _BLOCK_ENTRIES + 1, 3 * _BLOCK_ENTRIES + 5])
def test_noise_drawn_in_blocks_equals_one_draw(size):
    # complex_gaussian_series draws its noise a block at a time through one
    # buffer, all real parts and then all imaginary parts
    rng = derive_stream(5, "chunks").generator()
    drawn = np.empty(min(size, _BLOCK_ENTRIES))
    parts = np.empty((2, size))
    for part in parts:
        for start in range(0, size, drawn.size):
            chunk = drawn[: size - start]
            rng.standard_normal(out=chunk)
            part[start : start + chunk.size] = chunk
    whole = derive_stream(5, "chunks").generator()
    assert parts[0].tobytes() == whole.standard_normal(size).tobytes()
    assert parts[1].tobytes() == whole.standard_normal(size).tobytes()


def test_fast_len_equals_scipy_next_fast_len():
    small = range(1, 5000)
    large = np.random.default_rng(16).integers(1, 3_000_001, 2000)
    for n in (*small, *map(int, large)):
        assert _fast_len(n) == scipy.fft.next_fast_len(n, real=False), n


def test_series_peak_memory_is_bounded():
    tracemalloc.start()
    try:
        complex_gaussian_series(2_000_000, 40.0, 0.1, derive_stream(1, "peak"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 34.7 MB: the 32 MB series and one block's buffers.  One transform of
    # the whole series peaked at 64 MB traced, the out-of-place steps at 160 MB
    assert peak < 36e6
