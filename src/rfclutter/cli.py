"""Batch command-line front end.

Subcommands: ``predict`` (room-survey prediction report), ``synth-azimuth``
(spun azimuth spectra), ``synth-delay`` (band-limited delay-azimuth maps),
``scene`` (moving-target time-azimuth map), and ``validate`` (acceptance
checks).  The config is the defaults, merged with ``--config``, merged with
the flags given (a fragment built from ``_CONFIG_FLAGS``).  A subcommand
computes from the resolved config and its own options and returns its files;
``main`` alone writes them, once all of the config is checked and the run
computed: it checks ``--out`` before computing, then creates it, writes each
file atomically (a temporary file, then a rename) and ``run_meta.json`` last.
That file echoes the merged config, the seed, and package versions; fed back
as ``--config`` it reproduces the run byte for byte.

Units in output files: angles in degrees, powers in dB relative to the
transmit power, delays in nanoseconds.  Exit codes: 0 success, 1 validation
failure, 2 configuration error (a bad config leaf names its dotted key, an
unreadable input file its path, a bad survey or pattern row its
``<file>:<line>``, an ``--out`` that cannot be created or written ``--out``
and its path), 3 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .clutter import probe_delay_map, spin_operator, spun_channels, uniform_pointings
from .config import RunConfig, load_config_tree, resolve_config
from .core import ConfigurationError, power_db
from .pool import openblas_core
from .randomfields import derive_stream
from .stats import load_room_survey, survey_report
from .target import compose_scene

UNITS_COMMENT = "# units: angles deg, power dB re transmit, delay ns\n"
# CSV rows formatted by one % at a time
_CSV_ROWS = 1 << 14


def _json(obj) -> bytes:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for byte."""
    return (_json_text(obj, "\n") + "\n").encode("utf-8")


_SCALARS = {str, int, float, bool, type(None)}


@functools.lru_cache(maxsize=None)
def _json_items(inner: str) -> json.JSONEncoder:
    """The C encoder of a container of scalars whose items start lines
    ``inner``: the text between its brackets."""
    return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": "))


def _json_text(obj, newline: str) -> str:
    """``obj`` (dicts with string keys, lists, scalars) as indented JSON text
    whose lines start with ``newline``.

    ``indent`` sends ``json.dumps`` through its pure-Python encoder, so the C
    encoder writes each scalar, and each container of scalars whole, with
    the indented separator between its items."""
    is_dict = isinstance(obj, dict)
    if not obj or not (is_dict or isinstance(obj, (list, tuple))):
        return json.dumps(obj)
    inner = newline + "  "
    if set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        body = _json_items(inner).encode(obj)[1:-1]
    elif is_dict:
        body = ("," + inner).join(
            [f"{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
        )
    else:
        body = ("," + inner).join([_json_text(v, inner) for v in obj])
    return ("{" if is_dict else "[") + inner + body + newline + ("}" if is_dict else "]")


def _csv(header: str, line: str, *columns) -> bytes:
    """The units comment, then ``header``, then ``line`` (a %-format) filled
    from each row of the equal-length ``columns``.  Each block of
    ``_CSV_ROWS`` rows is formatted by one ``%`` over Python values, where
    ``%.9g`` reads as ``f"{x:.9g}"``, so only one block is held as Python
    objects."""
    columns = [np.asarray(column) for column in columns]
    parts = [(UNITS_COMMENT + f"{header}\n").encode("utf-8")]
    for start in range(0, len(columns[0]), _CSV_ROWS):
        values = [column[start : start + _CSV_ROWS].tolist() for column in columns]
        text = (f"{line}\n" * len(values[0])) % tuple(itertools.chain.from_iterable(zip(*values)))
        parts.append(text.encode("utf-8"))
    return b"".join(parts)


def _axis(values) -> list:
    """Each value rounded to 9 significant digits, as ``float(f"{x:.9g}")``."""
    values = np.asarray(values).tolist()
    return list(map(float, (("%.9g\n" * len(values)) % tuple(values)).split()))


def _grid(stem: str, array_db: np.ndarray, axes: dict) -> dict:
    """Row-major float32 binary, written from the array's own buffer, and a
    JSON sidecar describing the layout."""
    data = np.ascontiguousarray(array_db, dtype=np.float32)
    sidecar = {
        "file": f"{stem}.f32",
        "dtype": "float32",
        "order": "row-major",
        "shape": list(data.shape),
        "content": "power_db_re_transmit",
        "axes": axes,
    }
    return {f"{stem}.f32": data, f"{stem}.json": _json(sidecar)}


# flag -> (type, the config leaf it sets, help)
_CONFIG_FLAGS = {
    "--seed": (int, "seed", "master seed (u64)"),
    "--ensemble": (int, "ensemble", "number of draws"),
    "--room-w": (float, "room.width_m", "room width (m)"),
    "--room-l": (float, "room.length_m", "room length (m)"),
    "--d-s": (float, "room.d_s_m", "distance to wall (m)"),
    "--material": (str, "room.material", "metal | dielectric:<eps_r> | gamma:<reflectivity>"),
    "--t-rev-ns": (float, "room.t_rev_ns", "reverberation time (ns)"),
    "--hpbw-deg": (float, "antennas.rx", "receive horn HPBW (deg)"),
    "--bandwidth-ghz": (float, "probe.bandwidth_ghz", "probe bandwidth (GHz)"),
    "--duration": (float, "scene.duration_s", "scene duration (s)"),
}


def _resolve(args) -> RunConfig:
    """The run config: defaults, then ``--config``, then the flags given, as
    a config fragment merged like a file."""
    fragment = {}
    for flag, (_, key, _) in _CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            *parents, leaf = key.split(".")
            node = fragment
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = {"kind": "gaussian", "hpbw_deg": value} if flag == "--hpbw-deg" else value
    return resolve_config(load_config_tree(getattr(args, "config", None), fragment))


def _predict(cfg: RunConfig, survey=None) -> tuple:
    rows = load_room_survey(survey)
    report = survey_report(rows, cfg.clutter.carrier)
    return {
        "predictions.csv": _csv(
            "label,d_s_m,gamma_sq,p0_db,measured_db,error_db", "%s,%.9g,%.9g,%.9g,%.9g,%.9g",
            [row.label for row in report.rows], [row.d_s_m for row in report.rows],
            report.gamma_sq, report.p0_db,
            [row.measured_median_db for row in report.rows], report.errors_db,
        ),
    }, f"predict: {len(rows)} rooms, RMS error {report.rms_db:.2f} dB", 0


def _synth_azimuth(cfg: RunConfig) -> tuple:
    pointings = uniform_pointings(cfg.pointings_per_rotation)
    spin = spin_operator(cfg.grid, cfg.rx, cfg.tx, pointings, cfg.tx_pointing_deg)
    streams = (derive_stream(cfg.seed, f"azimuth/{k}") for k in range(cfg.ensemble))
    blocks = spun_channels(cfg.room, cfg.clutter, cfg.grid, streams, spin)
    spectra_db = [power_db(np.abs(y) ** 2).ravel() for y, _, _ in blocks]
    summary = f"synth-azimuth: {cfg.ensemble} spectra x {pointings.size} pointings"
    return {"azimuth_spectra.csv": _csv(
        "seed_index,pointing_deg,power_db", "%d,%.9g,%.9g",
        np.repeat(np.arange(cfg.ensemble), pointings.size),
        np.tile(pointings, cfg.ensemble), np.concatenate(spectra_db),
    )}, summary, 0


def _synth_delay(cfg: RunConfig) -> tuple:
    pointings = uniform_pointings(cfg.pointings_per_rotation)
    delays, map_db, profile = probe_delay_map(
        cfg.room, cfg.clutter, cfg.delay_grid, cfg.grid, derive_stream(cfg.seed, "delay/0"),
        cfg.probe, cfg.rx, cfg.tx, pointings, cfg.tx_pointing_deg,
    )
    return {
        **_grid("delay_azimuth_map", map_db, {
            "delay_ns": _axis(delays * 1e9), "pointing_deg": _axis(pointings),
        }),
        "delay_profile.csv": _csv(
            "delay_ns,mean_power_db", "%.9g,%.9g", delays * 1e9, power_db(profile)
        ),
    }, f"synth-delay: {map_db.shape[0]} delay bins x {map_db.shape[1]} pointings", 0


def _scene(cfg: RunConfig) -> tuple:
    tmap = compose_scene(cfg.scene, derive_stream(cfg.seed, "scene/0"))
    files = {"scene_timeseries.csv": _csv(
        "time_s,pointing_deg,power_db", "%.9g,%.9g,%.9g",
        tmap.times_s, tmap.pointing_deg, tmap.power_db,
    )}
    rot_times, pointing_bins, image = tmap.folded()
    if image.size:
        files.update(_grid("scene_map", power_db(image), {
            "rotation_start_s": _axis(rot_times), "pointing_deg": _axis(pointing_bins),
        }))
    else:
        spr = tmap.samples_per_rotation
        print(f"scene: no scene_map: shorter than a rotation ({spr:.6g} samples)")
    return files, f"scene: {tmap.power.size} samples, {image.shape[0]} rotations", 0


def _validate(cfg: RunConfig, checks=None) -> tuple:
    from .validation import run_checks  # scipy.stats: about 1 s of import

    names = None
    if checks is not None:  # given but naming no check is an error, not "all"
        names = [n.strip() for n in checks.split(",") if n.strip()]
    report = run_checks(names=names, master_seed=cfg.seed, log=print)
    n_pass = sum(r.passed for r in report.results)
    return {
        "validation_report.json": _json(report.to_dict()),
        "validation_runtimes.json": _json({r.name: round(r.runtime_s, 3) for r in report.results}),
    }, f"validate: {n_pass}/{len(report.results)} checks passed", 0 if report.passed else 1


_ROOM_FLAGS = ("--room-w", "--room-l", "--d-s", "--material", "--t-rev-ns", "--hpbw-deg")

# subcommand -> (its computation: (config, its options) -> (files as name -> bytes-like,
# summary line, exit status), help, the config flags it takes, its other options)
_SUBCOMMANDS = {
    "predict": (
        _predict, "room-survey average backscatter predictions", ("--seed",),
        {"--survey": "survey CSV (default: shipped)"},
    ),
    "synth-azimuth": (
        _synth_azimuth, "synthesize spun azimuth spectra",
        ("--seed", "--ensemble", *_ROOM_FLAGS), {},
    ),
    "synth-delay": (
        _synth_delay, "synthesize a band-limited delay-azimuth map",
        ("--seed", *_ROOM_FLAGS, "--bandwidth-ghz"), {},
    ),
    "scene": (
        _scene, "moving target against static clutter",
        ("--seed", *_ROOM_FLAGS, "--duration"), {},
    ),
    "validate": (
        _validate, "run the acceptance checks", ("--seed",),
        {"--checks": "comma-separated check names"},
    ),
}


@functools.cache  # built on first use, not at import, and shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfclutter",
        description="Statistical simulator of monostatic indoor RF backscatter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "validate":
            p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="rfclutter-out", help="output directory")
        for flag in flags:
            kind, _, flag_help = _CONFIG_FLAGS[flag]
            p.add_argument(flag, type=kind, default=None, help=flag_help)
        for option, option_help in options.items():
            p.add_argument(option, type=str, default=None, help=option_help)
    return parser


def _check_out(out: Path) -> None:
    """Fail unless ``out`` is a directory, or its nearest existing ancestor
    is a writable one; creates nothing."""
    try:
        existing = next(p for p in (out, *out.parents) if p.exists())
    except OSError as exc:  # an ancestor that cannot be searched
        raise ConfigurationError(f"--out {out}: {exc}") from None
    if existing == out and not out.is_dir():
        raise ConfigurationError(f"--out {out}: not a directory")
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigurationError(f"--out {out}: {existing} is not a writable directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    compute, _, _, options = _SUBCOMMANDS[args.command]
    out = Path(args.out)
    try:
        cfg = _resolve(args)
        _check_out(out)
        files, summary, status = compute(
            cfg, **{option[2:]: getattr(args, option[2:]) for option in options}
        )
        files = {**files, "run_meta.json": _json({
            "command": args.command,
            "seed": cfg.tree["seed"],
            "config": cfg.tree,
            "versions": {
                "rfclutter": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": platform.python_version(),
                "openblas_core": openblas_core(),  # the bytes' BLAS kernels
            },
        })}
        try:  # each file whole or absent, run_meta.json last
            out.mkdir(parents=True, exist_ok=True)
            for name, payload in files.items():
                tmp = out / f"{name}.tmp"
                tmp.write_bytes(payload)
                os.replace(tmp, out / name)
        except OSError as exc:
            raise ConfigurationError(f"--out {out}: {exc}") from None
        print(f"{summary} -> {out}")
        return status
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map everything else to exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
