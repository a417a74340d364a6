"""Acceptance checks for the simulator.

Every check is a pure function of a master seed that reruns one statistical
claim of the model at a fixed tolerance: the room-survey prediction RMS, the
quadrature/closed-form agreement, the correlated-field statistics, the spun
response calibration, spatial decorrelation, reverberation decay, target
fluctuation statistics, scene composition, and CLI determinism.  The
``validate`` subcommand and the acceptance test suite both run these.

``reverberation_decay`` spreads its 100 independent delay maps, and
``lognormal_unit_mean`` its 24 field chunks, over the process's one thread
pool (:mod:`rfclutter.pool`: one thread per core in the affinity mask, at
most two, the count measured).  Each map or chunk draws from its own stream
and the results are reduced in index order, so no draw and no sum changes
order and the report's bytes do not depend on the worker count; a map drawn
on a pool thread runs its own row chunks inline.  A chunk is held whole,
above the mmap threshold of :func:`_settle_heap`, so the memory it took on
a worker thread goes back when it is freed.

The ensemble checks draw through :func:`_spun_ensemble` on the calling
thread, 18 streams drawn and spun together at a time by
:func:`~rfclutter.clutter.spun_channels`.  The blocks stay off the pool: a
worker thread's malloc arena keeps freed blocks resident; threaded, blocks
of 250 raised the suite's peak RSS from about 220 MB to 230-244 MB.

Off-grid spins are matrix products whose last bits also depend on the BLAS
thread count, so every spin pins itself to one thread of NumPy's bundled
OpenBLAS (:func:`~rfclutter.pool.one_blas_thread`); :func:`run_checks` pins
the checks' other BLAS and LAPACK calls (``np.polyfit``) the same way.  Before
each check it drops the kept spin operators and settles glibc's heap
(:func:`_settle_heap`), so the suite's peak memory does not depend on what
earlier checks built or where their freed blocks happened to lie.
"""

from __future__ import annotations

import ctypes
import filecmp
import functools
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import stats as spstats

from .antennas import HPBW_TO_RMS, _wrap_deg, gaussian_horn, omni, pattern_autocorrelation
from .clutter import (
    _row_blocks,
    clear_spin_operators,
    location_phase,
    probe_delay_map,
    spin_operator,
    spun_channels,
    uniform_pointings,
)
from .config import RunConfig, load_config_tree, resolve_config
from .core import (
    ConfigurationError,
    average_backscatter_ratio,
    clutter_integral_quadrature,
    fresnel_average_reflectivity,
    to_db,
)
from .pool import in_order, one_blas_thread
from .randomfields import (
    _BLOCK_ENTRIES,
    AzimuthGrid,
    LognormalFieldParams,
    complex_gaussian_series,
    derive_stream,
    gaussian_field_rows,
)
from .stats import (
    azimuth_autocorrelation,
    correlation_half_width,
    fit_reverberation,
    load_room_survey,
    spatial_correlation,
    survey_report,
)
from .target import Trajectory, compose_scene, trajectory_state

E_HALF = math.exp(-0.5)
LN10_OVER_10 = math.log(10.0) / 10.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    target: str
    runtime_s: float
    details: dict

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: statistic={self.statistic:.6g} target=({self.target})"


@dataclass(frozen=True)
class ValidationReport:
    master_seed: int
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        """The report without runtimes, which are wall-clock data."""
        return {
            "master_seed": self.master_seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "statistic": r.statistic,
                    "target": r.target,
                    "details": r.details,
                }
                for r in self.results
            ],
        }


# glibc's mallopt parameters, and the block size from which malloc maps each
# block on its own: above a block of draws, which the checks allocate and free
# over and over (the spatial check's 11 moved copies of 18 draws, 5.7 MB), and
# below the 14.4 MB field chunks, the spin weights and the 32 MB fluctuation
# series (whose 0.5 MB filter blocks and sums stay under it)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 8 << 20


def _settle_heap() -> None:
    """Start a check from the memory the process holds, not from the layout
    of what earlier checks freed (glibc only; elsewhere a no-op).

    glibc's default mmap threshold rises to the largest mapped block freed
    so far, up to 32 MiB, and blocks under it come from heaps that keep
    their freed pages.  Which large arrays landed in a heap then turned on
    the exact sequence of earlier allocations, down to a few bytes, and the
    suite's peak RSS took one of two values 31 MB apart from run to run of
    the same code.  Here blocks of
    ``_MMAP_THRESHOLD`` and more are always mapped and unmapped when freed;
    the heaps, every thread's arena included, keep their free pages within
    a check and hand them all back (``malloc_trim``) before the next.  The
    kept spin operators are dropped first, on every platform, so no check
    carries an earlier one's operators, up to 32 MB, into its peak.
    """
    clear_spin_operators()
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    if hasattr(libc, "malloc_trim"):  # glibc, not musl
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, -1)  # no trimming but this one
        libc.malloc_trim(0)


@functools.lru_cache(maxsize=1)
def _defaults() -> RunConfig:
    """The default run config, resolved once and shared (read-only): the room,
    clutter, patterns and probe the checks simulate unless they say otherwise."""
    return resolve_config(load_config_tree(None))


def _spun_ensemble(seed, label, n_draws, pointings, locations=None):
    """Default-room azimuth channels, draw i from stream ``{label}/{i}``, in
    the blocks of draws of :func:`~rfclutter.clutter.spun_channels`,
    spun over ``pointings``: yields (|Y|^2, p0 * 10^(P_v/10) per draw).  |Y|^2
    is (draws, n_pointings), or (draws, n_locations, n_pointings) with each
    draw moved to each of ``locations`` by its :func:`location_phase`."""
    cfg = _defaults()
    at_origin = spin = spin_operator(cfg.grid, cfg.rx, cfg.tx, pointings, cfg.tx_pointing_deg)
    if locations is not None:
        wavelength_m = cfg.clutter.carrier.wavelength_m
        phases = np.stack([location_phase(cfg.grid, wavelength_m, x) for x in locations])
        spin = lambda amplitudes: at_origin(amplitudes[:, None, :] * phases)  # noqa: E731
    streams = (derive_stream(seed, f"{label}/{i}") for i in range(n_draws))
    for y, p_v_db, p0 in spun_channels(cfg.room, cfg.clutter, cfg.grid, streams, spin):
        levels = np.array([p0 * 10.0 ** (p_v / 10.0) for p_v in p_v_db.tolist()])
        yield np.abs(y) ** 2, levels


def check_survey_prediction_rms(seed: int) -> tuple[bool, float, str, dict]:
    rows = load_room_survey()
    report = survey_report(rows, _defaults().clutter.carrier, force_best_fit=True)
    rms = report.rms_db
    details = {
        "n_rooms": len(rows),
        "errors_db": [round(float(e), 3) for e in report.errors_db],
    }
    return rms <= 3.0, rms, "survey prediction RMS <= 3.0 dB", details


def check_quadrature_agreement(seed: int) -> tuple[bool, float, str, dict]:
    wl = _defaults().clutter.carrier.wavelength_m
    closed = average_backscatter_ratio(1.5, wl, 1.0)
    ratios = {}
    for hpbw in (5.0, 10.0, 20.0):
        rms = math.radians(hpbw * HPBW_TO_RMS)
        q = clutter_integral_quadrature(1.5, wl, 1.0, rms, rms, g_t=1.0)
        ratios[hpbw] = q / closed
    devs = [abs(r - 1.0) for r in ratios.values()]
    spread = max(ratios.values()) / min(ratios.values()) - 1.0
    stat = max(max(devs), spread)
    details = {f"ratio_hpbw_{int(h)}deg": round(r, 6) for h, r in ratios.items()}
    details["spread"] = round(spread, 6)
    passed = max(devs) <= 0.02 and spread < 0.02
    return passed, stat, "quadrature within 2% of closed form, <2% across beamwidths", details


def check_fresnel_average(seed: int) -> tuple[bool, float, str, dict]:
    value = fresnel_average_reflectivity(3.0)
    return (
        abs(value - 0.25) <= 0.05,
        value,
        "angle-averaged reflectivity for eps_r=3 in 0.25 +/- 0.05",
        {},
    )


def check_lognormal_unit_mean(seed: int) -> tuple[bool, float, str, dict]:
    grid = AzimuthGrid(1800)
    n_fields, chunk = 12000, 1000
    sigmas = (4.0, 7.0)
    starts = range(0, n_fields, chunk)

    def chunk_sum(job):
        sigma_db, start = job
        params = LognormalFieldParams(sigma_db, 1.0)
        corr_bins = params.corr_bins(grid)
        rng = derive_stream(seed, f"unitmean/{sigma_db}/{start}").generator()
        # 14.4 MB, over _MMAP_THRESHOLD: mapped, and unmapped when freed
        lin = np.empty((chunk, grid.n_bins))
        for rows in _row_blocks(chunk, grid.n_bins):
            z = gaussian_field_rows(rng, rows.stop - rows.start, grid.n_bins, corr_bins)
            z *= LN10_OVER_10 * sigma_db  # 10^(x/10) = exp(ln(10)/10 x)
            z += LN10_OVER_10 * params.mu_db
            np.exp(z, out=lin[rows])
        return float(lin.sum())  # one pairwise sum over the whole chunk

    worst = 0.0
    details = {}
    # each chunk owns its stream and its sum is added in chunk order, so the
    # means are the same bytes for any worker count
    chunk_sums = in_order(chunk_sum, [(s, start) for s in sigmas for start in starts])
    for sigma_db in sigmas:
        total = 0.0
        for _ in starts:
            total += next(chunk_sums)
        mean = total / (n_fields * grid.n_bins)
        details[f"mean_sigma_{sigma_db:g}dB"] = round(mean, 5)
        worst = max(worst, abs(mean - 1.0))
    return worst <= 0.01, worst, "linear mean within 1.00 +/- 0.01 for sigma in {4, 7} dB", details


def check_azimuth_correlation_scale(seed: int) -> tuple[bool, float, str, dict]:
    grid = AzimuthGrid(1800)
    params = LognormalFieldParams(7.0, 1.0)
    corr_bins = params.corr_bins(grid)
    lag = 5  # bins = 1 degree
    n_fields, chunk = 2000, 500
    s_x = s_xx = s_lag = 0.0
    count = 0
    for start in range(0, n_fields, chunk):
        rng = derive_stream(seed, f"fieldcorr/{start}").generator()
        rows = params.mu_db + params.sigma_db * gaussian_field_rows(
            rng, chunk, grid.n_bins, corr_bins
        )
        s_x += float(rows.sum())
        s_xx += float((rows**2).sum())
        s_lag += float((rows * np.roll(rows, -lag, axis=1)).sum())
        count += rows.size
    mean = s_x / count
    var = s_xx / count - mean**2
    rho = (s_lag / count - mean**2) / var
    return (
        abs(rho - E_HALF) <= 0.02,
        rho,
        "field autocorrelation at 1 deg lag within exp(-1/2) +/- 0.02",
        {"n_fields": n_fields},
    )


def check_spin_calibration(seed: int) -> tuple[bool, float, str, dict]:
    pointings = uniform_pointings(148)
    n_seeds = 4000
    ensemble = _spun_ensemble(seed, "spincal", n_seeds, pointings)
    stat = float(np.mean(np.concatenate([np.mean(p, axis=1) / lv for p, lv in ensemble])))
    return (
        abs(stat - 1.0) <= 0.02,
        stat,
        "ensemble/pointing-averaged spun power within 2% of p0*10^(P_v/10)",
        {"n_seeds": n_seeds, "n_pointings": pointings.size},
    )


def check_spatial_decorrelation(seed: int) -> tuple[bool, float, str, dict]:
    pointings = uniform_pointings(148)
    positions = np.arange(11) * 0.1  # 1 m line, 0.1 m steps
    locations = [(float(x), 0.0) for x in positions]
    n_seeds = 200
    rho_sum = 0.0
    for power, _ in _spun_ensemble(seed, "spatial", n_seeds, pointings, locations):
        for power_db in to_db(power):
            seps, rho = spatial_correlation(power_db, positions)
            rho_sum = rho_sum + rho
    rho_mean = rho_sum / n_seeds
    at_01 = float(rho_mean[np.argmin(np.abs(seps - 0.1))])
    return (
        0.15 <= at_01 <= 0.45,
        at_01,
        "spectrum correlation at 0.1 m separation in [0.15, 0.45]",
        {"n_seeds": n_seeds, "correlation_vs_separation": [round(float(r), 4) for r in rho_mean]},
    )


def check_autocorrelation_main_lobe(seed: int) -> tuple[bool, float, str, dict]:
    pointings = uniform_pointings(1440)  # 0.25 deg lag resolution
    n_seeds = 300
    power_db = np.concatenate(
        [to_db(power) for power, _ in _spun_ensemble(seed, "acorr", n_seeds, pointings)]
    )
    lags, rho = azimuth_autocorrelation(power_db)
    hw_sim = correlation_half_width(lags, rho)
    ref = gaussian_horn(_defaults().rx.hpbw_deg, AzimuthGrid(1440))
    ref_lags, ref_rho = pattern_autocorrelation(ref)
    hw_ref = correlation_half_width(ref_lags, ref_rho)
    stat = abs(hw_sim - hw_ref)
    return (
        stat <= 1.0,
        stat,
        "spectra autocorrelation half-width within 1 deg of the pattern reference",
        {"half_width_sim_deg": round(hw_sim, 3), "half_width_pattern_deg": round(hw_ref, 3)},
    )


def check_cdf_seed_stability(seed: int) -> tuple[bool, float, str, dict]:
    pointings = uniform_pointings(148)
    # (ensemble A/B, draw, pointing) dB spectra from two disjoint stream sets
    db = np.stack([
        np.concatenate([to_db(power) for power, _ in _spun_ensemble(seed, label, 500, pointings)])
        for label in ("cdfA", "cdfB")
    ])
    variation = db - db.mean(axis=-1, keepdims=True)
    deciles = np.arange(0.1, 0.95, 0.1)
    qa, qb = (np.quantile(v, deciles) for v in variation)
    decile_gap = float(np.max(np.abs(qa - qb)))
    conv_std = float(np.mean(db.std(axis=-1)))
    passed = decile_gap < 1.0 and conv_std < 7.0
    return (
        passed,
        decile_gap,
        "decile gap between disjoint 500-seed ensembles < 1 dB and spun dB std < 7 dB",
        {"convolved_std_db": round(conv_std, 3), "raw_sigma_db": _defaults().clutter.sigma_db},
    )


def check_reverberation_decay(seed: int) -> tuple[bool, float, str, dict]:
    cfg = _defaults()
    agrid = AzimuthGrid(720)
    # the check's own bin width: the schema's 0.1 ns is 0.1 * 1e-9, one ulp
    # above 0.1e-9, and moves the statistic in its last digits
    dgrid = replace(cfg.delay_grid, delta_tau_s=0.1e-9)
    rx = gaussian_horn(cfg.rx.hpbw_deg, agrid)
    tx = omni(agrid)
    pointings = uniform_pointings(144)
    n_maps = 100
    # build the operator the maps share here, so no worker builds it
    spin_operator(agrid, rx, tx, pointings, cfg.tx_pointing_deg)

    def fit_map(i):
        delays, power_db, profile = probe_delay_map(
            cfg.room, cfg.clutter, dgrid, agrid, derive_stream(seed, f"reverb/{i}"),
            cfg.probe, rx, tx, pointings, cfg.tx_pointing_deg,
        )
        # the probed output, not the draw: probe_delay_map writes no row
        # before the onset, so this holds unless the delay slice is wrong
        causal = bool(np.all(power_db[delays < dgrid.onset_s] == -np.inf))
        return fit_reverberation(delays, profile, dgrid.onset_s), causal

    # each map owns its stream and the fits come back in map order, so the
    # mean is the same bytes for any worker count
    fits = list(in_order(fit_map, range(n_maps)))
    estimates = np.array([estimate for estimate, _ in fits])
    causal = all(c for _, c in fits)
    t_rev_hat = float(np.mean(estimates))
    stat = abs(t_rev_hat / cfg.room.t_rev_s - 1.0)
    return (
        stat <= 0.05 and causal,
        stat,
        "fitted reverberation time within 5% of 10 ns; probed map is -inf before onset",
        {
            "t_rev_hat_ns": round(t_rev_hat * 1e9, 4),
            "causal_output": causal,
            "n_maps": n_maps,
        },
    )


def check_target_fluctuation(seed: int) -> tuple[bool, float, str, dict]:
    rate, t_c = 40.0, 0.1
    n = 2_000_000
    xi = complex_gaussian_series(n, rate, t_c, derive_stream(seed, "fluct"))
    lag = int(round(t_c * rate))
    # the power and lag sums over fixed blocks, added in block order: no
    # temporary of the series' length
    power_sum, lag_sum = 0.0, 0.0j
    for start in range(0, n, _BLOCK_ENTRIES):
        block = xi[start : start + _BLOCK_ENTRIES]
        power_sum += float(np.sum(np.abs(block) ** 2))
        head = xi[start : min(start + _BLOCK_ENTRIES, n - lag)]
        lag_sum += complex(np.sum(head * np.conj(xi[start + lag : start + lag + head.size])))
    mean_power = power_sum / n
    sub = np.abs(xi[::20]) ** 2  # 0.5 s spacing: 5 coherence times, effectively independent
    ks = spstats.kstest(sub, "expon")
    rho = abs(lag_sum) / (n - lag) / mean_power
    passed = (
        abs(mean_power - 1.0) <= 0.02
        and ks.pvalue >= 0.01
        and abs(rho - E_HALF) <= 0.03
    )
    stat = abs(rho - E_HALF)
    return (
        passed,
        stat,
        "E|xi|^2 = 1 +/- 2%; exponential power GOF p >= 0.01; |acf(0.1 s)| = 0.607 +/- 0.03",
        {
            "mean_power": round(mean_power, 5),
            "ks_pvalue": round(float(ks.pvalue), 5),
            "acf_at_coherence": round(rho, 5),
            "n_gof_samples": int(sub.size),
        },
    )


def check_scene_composition(seed: int) -> tuple[bool, float, str, dict]:
    cfg = _defaults()
    spec = cfg.scene
    stream = derive_stream(seed, "scene/demo")
    map_t = compose_scene(spec, stream)
    spec_zero = replace(spec, target=replace(spec.target, sigma0_dbsm=-math.inf))
    map_0 = compose_scene(spec_zero, stream)

    # zero-RCS target reduces exactly to the clutter-only response: one
    # rotation's spin, sample i reading column i % spr, as the scene spins it
    grid = spec.rx.grid
    spr = map_t.samples_per_rotation
    spin = spin_operator(grid, spec.rx, spec.tx, map_0.pointing_deg[:spr], spec.tx_pointing_deg)
    y = next(spun_channels(spec.room, spec.clutter, grid, [stream.child("clutter")], spin))[0][0]
    identity = bool(np.array_equal(np.abs(y[np.arange(map_0.power.size) % spr]) ** 2, map_0.power))

    # the moving target leaves a bearing-following (triangular) trace
    diff = np.abs(map_t.power - map_0.power)
    _, bearing = trajectory_state(spec.trajectory, map_t.times_s)
    n_rot = diff.size // spr
    errors, detected_bearings = [], []
    for r in range(n_rot):
        sl = slice(r * spr, (r + 1) * spr)
        block = diff[sl]
        j = int(np.argmax(block))
        if block[j] > 10.0 * float(np.median(block)):
            errors.append(float(abs(_wrap_deg(map_t.pointing_deg[sl][j] - bearing[sl][j]))))
            detected_bearings.append(float(_wrap_deg(map_t.pointing_deg[sl][j])))
    n_detect = len(errors)
    median_err = float(np.median(errors)) if errors else math.inf
    sweep = (max(detected_bearings) - min(detected_bearings)) if n_detect >= 2 else 0.0
    trace_ok = n_detect >= n_rot // 2 and median_err <= 5.0 and sweep >= 30.0

    # constant-fluctuation peak against the hand-evaluated link budget
    wl = cfg.clutter.carrier.wavelength_m
    peak_room = replace(cfg.room, distance_to_wall_m=5.0, gamma_sq=0.0)
    peak_traj = Trajectory.from_waypoints([(0.0, 5.0, -4.0), (8.0, 5.0, 4.0)])
    peak_spec = replace(
        spec,
        room=peak_room,
        target=replace(spec.target, model="constant"),
        trajectory=peak_traj,
        rx=omni(grid),
        tx=omni(grid),
        duration_s=8.0,
    )
    peak_map = compose_scene(peak_spec, derive_stream(seed, "scene/peak"))
    peak_db = float(np.max(peak_map.power_db))
    hand_db = float(to_db(wl**2 * spec.target.sigma0_m2 / ((4.0 * math.pi) ** 3 * 5.0**4)))
    peak_ok = abs(peak_db - hand_db) <= 3.0

    passed = identity and trace_ok and peak_ok
    return (
        passed,
        median_err,
        "bearing-following trace (median error <= 5 deg); peak within 3 dB of link budget; zero-RCS identity",
        {
            "zero_rcs_identity": identity,
            "rotations_detected": n_detect,
            "rotations_total": n_rot,
            "bearing_sweep_deg": round(float(sweep), 2),
            "peak_db": round(peak_db, 3),
            "link_budget_db": round(hand_db, 3),
        },
    )


def check_cli_determinism(seed: int) -> tuple[bool, float, str, dict]:
    import tempfile

    from . import cli

    jobs = {
        "predict": ["predict"],
        "synth-azimuth": ["synth-azimuth", "--seed", str(seed), "--ensemble", "2"],
        "synth-delay": ["synth-delay", "--seed", str(seed)],
        "scene": ["scene", "--seed", str(seed), "--duration", "1.0"],
        "validate": [
            "validate", "--seed", str(seed),
            "--checks", "fresnel_average,survey_prediction_rms",
        ],
    }
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in jobs.items():
            dir_a = Path(tmp) / f"{name}-a"
            dir_b = Path(tmp) / f"{name}-b"
            for out in (dir_a, dir_b):
                rc = cli.main(args + ["--out", str(out)])
                if rc not in (0,):
                    mismatches.append(f"{name}: exit code {rc}")
            files_a = sorted(p.name for p in dir_a.iterdir())
            files_b = sorted(p.name for p in dir_b.iterdir())
            if files_a != files_b:
                mismatches.append(f"{name}: file sets differ")
                continue
            for fname in files_a:
                if fname == "validation_runtimes.json":
                    continue  # wall-clock timings, kept out of the data contract
                if not filecmp.cmp(dir_a / fname, dir_b / fname, shallow=False):
                    mismatches.append(f"{name}: {fname} differs")
    return (
        not mismatches,
        float(len(mismatches)),
        "byte-identical outputs across two runs of every subcommand",
        {"mismatches": mismatches},
    )


CHECKS = {
    "survey_prediction_rms": check_survey_prediction_rms,
    "quadrature_agreement": check_quadrature_agreement,
    "fresnel_average": check_fresnel_average,
    "lognormal_unit_mean": check_lognormal_unit_mean,
    "azimuth_correlation_scale": check_azimuth_correlation_scale,
    "spin_calibration": check_spin_calibration,
    "spatial_decorrelation": check_spatial_decorrelation,
    "autocorrelation_main_lobe": check_autocorrelation_main_lobe,
    "cdf_seed_stability": check_cdf_seed_stability,
    "reverberation_decay": check_reverberation_decay,
    "target_fluctuation": check_target_fluctuation,
    "scene_composition": check_scene_composition,
    "cli_determinism": check_cli_determinism,
}


def run_checks(names=None, *, master_seed: int, log=None) -> ValidationReport:
    """Run the named checks (all by default) at ``master_seed``, the config's
    ``seed``, and collect a report."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown or not names:
        problem = f"unknown check(s): {unknown}" if unknown else "no check named"
        raise ConfigurationError(f"{problem}; known: {list(CHECKS)}")
    results = []
    with one_blas_thread():
        for name in names:
            _settle_heap()
            start = time.perf_counter()
            passed, stat, target, details = CHECKS[name](master_seed)
            elapsed = time.perf_counter() - start
            result = CheckResult(
                name=name,
                passed=passed,
                statistic=float(stat),
                target=target,
                runtime_s=elapsed,
                details=details,
            )
            if log is not None:
                log(result.summary())
            results.append(result)
    return ValidationReport(master_seed=master_seed, results=results)
