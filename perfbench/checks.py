"""Output checks for the CLI workloads.

The expected shapes, axes and physical levels are computed here from the
request alone (closed-form constants, not rfclutter code), so a change to the
package under test cannot change what counts as a correct output.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8
CARRIER_HZ = 28e9
ROOM_D_S_M = 1.5  # default 3 m x 3 m room: half the smaller side
ONSET_NS = 2.0 * ROOM_D_S_M / SPEED_OF_LIGHT * 1e9
# room average backscatter ratio of a metal wall: (lambda / (4 pi d_s))^2
P0 = (SPEED_OF_LIGHT / CARRIER_HZ / (4.0 * math.pi * ROOM_D_S_M)) ** 2
POOLED_BAND_DB = 3.0  # pooled spun power must lie within p0 +/- 3 dB
DELTA_TAU_NS = 0.1
DECAY_SPAN = 9.21  # default delay span after the onset, in t_rev (-40 dB)
SPIN_PERIOD_S = 0.2
SAMPLE_RATE_HZ = 740.0
ANGLE_TOL_DEG = 1e-6


def _read_csv(path: Path, header: str, problems: list) -> np.ndarray | None:
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return None
    lines = path.read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("#") or lines[1] != header:
        problems.append(f"{path.name}: expected a units comment and header {header!r}")
        return None
    try:
        data = np.array([row.split(",") for row in lines[2:]], dtype=float)
    except ValueError as exc:
        problems.append(f"{path.name}: unparseable row ({exc})")
        return None
    return data.reshape(len(lines) - 2, header.count(",") + 1)


def _read_grid(out: Path, stem: str, problems: list):
    """(array, axes) from a float32 grid and its JSON sidecar."""
    sidecar, binary = out / f"{stem}.json", out / f"{stem}.f32"
    if not sidecar.is_file() or not binary.is_file():
        problems.append(f"{stem}: missing sidecar or binary")
        return None, None
    meta = json.loads(sidecar.read_text())
    shape = tuple(meta.get("shape", ()))
    data = np.fromfile(binary, dtype="<f4")
    if meta.get("dtype") != "float32" or len(shape) != 2 or data.size != math.prod(shape):
        problems.append(f"{stem}: {data.size} values do not fill shape {shape}")
        return None, None
    return data.reshape(shape), meta.get("axes", {})


def _angle_error(a, b) -> np.ndarray:
    return np.abs((np.asarray(a) - np.asarray(b) + 180.0) % 360.0 - 180.0)


def _uniform_pointings(n: int) -> np.ndarray:
    return np.arange(n) * (360.0 / n)


def check_azimuth(out: Path, ensemble: int, pointings: int) -> tuple[list, list]:
    """Spun spectra: shapes, axes, finite powers.

    Also returns each spectrum's pointing-averaged linear power, which the
    run pools and compares with p0 (:func:`check_pooled_power`).
    """
    problems: list = []
    data = _read_csv(out / "azimuth_spectra.csv", "seed_index,pointing_deg,power_db", problems)
    if data is None:
        return problems, []
    if data.shape[0] != ensemble * pointings:
        problems.append(f"azimuth: {data.shape[0]} rows, expected {ensemble} x {pointings}")
        return problems, []
    if not np.array_equal(data[:, 0], np.repeat(np.arange(ensemble), pointings)):
        problems.append("azimuth: seed_index column does not enumerate the ensemble")
    if np.any(_angle_error(data[:, 1], np.tile(_uniform_pointings(pointings), ensemble))
              > ANGLE_TOL_DEG):
        problems.append("azimuth: pointing_deg column is not the uniform sweep")
    if not np.all(np.isfinite(data[:, 2])):
        problems.append("azimuth: non-finite power_db")
        return problems, []
    linear = 10.0 ** (data[:, 2].reshape(ensemble, pointings) / 10.0)
    return problems, list(linear.mean(axis=1))


def check_pooled_power(spectrum_means: list) -> list:
    """The pooled pointing-averaged spun power lies within p0 +/- 3 dB."""
    if not spectrum_means:
        return ["pooled power: no spectra"]
    ratio_db = 10.0 * math.log10(float(np.mean(spectrum_means)) / P0)
    if not abs(ratio_db) <= POOLED_BAND_DB:
        return [f"pooled power {ratio_db:+.2f} dB from p0, band +/- {POOLED_BAND_DB} dB"]
    return []


def check_delay(out: Path, t_rev_ns: float, bandwidth_ghz: float, pointings: int) -> list:
    """Delay-azimuth map: shape, axes, exact zeros before the echo onset and
    finite power from the onset on, in both the map and the mean profile."""
    problems: list = []
    grid, axes = _read_grid(out, "delay_azimuth_map", problems)
    if grid is None:
        return problems
    n_delay, n_point = grid.shape
    delays = np.asarray(axes.get("delay_ns", []), dtype=float)
    n_min = math.ceil((ONSET_NS + DECAY_SPAN * t_rev_ns) / DELTA_TAU_NS - 1e-9)
    n_max = n_min + math.ceil(1.0 / bandwidth_ghz / DELTA_TAU_NS) + 1  # probe tail
    if n_point != pointings or not n_min <= n_delay <= n_max:
        problems.append(
            f"delay map: shape {grid.shape}, expected {n_min}..{n_max} x {pointings}"
        )
        return problems
    if delays.size != n_delay or np.any(
        np.abs(delays - np.arange(n_delay) * DELTA_TAU_NS) > 1e-6 * (1.0 + delays)
    ):
        problems.append("delay map: delay axis is not the 0.1 ns grid")
        return problems
    if np.any(_angle_error(axes.get("pointing_deg", []), _uniform_pointings(pointings))
              > ANGLE_TOL_DEG):
        problems.append("delay map: pointing axis is not the uniform sweep")
    pre = delays < ONSET_NS
    if not np.all(grid[pre] == -np.inf):
        problems.append("delay map: bins before the onset are not exactly zero power")
    if not np.all(np.isfinite(grid[~pre])):
        problems.append("delay map: non-finite power at or after the onset")
    profile = _read_csv(out / "delay_profile.csv", "delay_ns,mean_power_db", problems)
    if profile is not None:
        if profile.shape[0] != n_delay or np.any(
            np.abs(profile[:, 0] - delays) > 1e-6 * (1.0 + delays)
        ):
            problems.append("delay profile: rows do not match the map's delay axis")
        elif not (np.all(profile[pre, 1] == -np.inf) and np.all(np.isfinite(profile[~pre, 1]))):
            problems.append("delay profile: not -inf before the onset and finite after")
    return problems


def check_scene(out: Path, duration_s: float) -> list:
    """Scene: one row per time sample on the spin schedule, finite powers,
    and a folded map of whole rotations."""
    problems: list = []
    data = _read_csv(out / "scene_timeseries.csv", "time_s,pointing_deg,power_db", problems)
    if data is None:
        return problems
    n = round(duration_s * SAMPLE_RATE_HZ)
    if data.shape[0] != n:
        problems.append(f"scene: {data.shape[0]} rows, expected {n}")
        return problems
    times = np.arange(n) / SAMPLE_RATE_HZ
    if np.any(np.abs(data[:, 0] - times) > 1e-6 * (1.0 + times)):
        problems.append("scene: time column is not the sample clock")
    if np.any(_angle_error(data[:, 1], times / SPIN_PERIOD_S * 360.0) > ANGLE_TOL_DEG):
        problems.append("scene: pointing column does not follow the spin")
    if not np.all(np.isfinite(data[:, 2])):
        problems.append("scene: non-finite power_db")
    spr = round(SPIN_PERIOD_S * SAMPLE_RATE_HZ)
    image, _ = _read_grid(out, "scene_map", problems)
    if image is not None:
        if image.shape != (n // spr, spr):
            problems.append(f"scene map: shape {image.shape}, expected {(n // spr, spr)}")
        elif not np.all(np.isfinite(image)):
            problems.append("scene map: non-finite power")
    return problems


def same_files(dir_a: Path, dir_b: Path) -> list:
    """Byte-for-byte comparison of two output directories."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return [f"repeat: file sets differ ({names_a} vs {names_b})"]
    return [
        f"repeat: {name} differs"
        for name in names_a
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()
    ]


def inject_nan(out: Path) -> None:
    """Corrupt an output directory in place: one NaN in the first data file."""
    for path in sorted(out.iterdir()):
        if path.suffix == ".f32":
            data = np.fromfile(path, dtype="<f4")
            data[data.size // 2] = np.nan
            data.tofile(path)
            return
    for path in sorted(out.glob("*.csv")):
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = "nan"
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return
