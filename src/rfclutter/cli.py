"""Batch command-line front end.

Subcommands: ``predict`` (room-survey prediction report), ``synth-azimuth``
(spun azimuth spectra), ``synth-delay`` (band-limited delay-azimuth maps),
``scene`` (moving-target time-azimuth map), and ``validate`` (acceptance
checks).  The config is the defaults, merged with ``--config``, merged with
the flags given (a fragment built from ``_CONFIG_FLAGS``); every subcommand
checks all of it before writing anything.  Every run writes its data plus a
``run_meta.json`` echoing the merged config, the seed, and package versions;
feeding that metadata back as ``--config`` reproduces the run byte for byte.

Units in output files: angles in degrees, powers in dB relative to the
transmit power, delays in nanoseconds.  Exit codes: 0 success, 1 validation
failure, 2 configuration error (a bad config leaf names its dotted key, an
unreadable input file its path, a bad survey or pattern row its
``<file>:<line>``), 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .clutter import gen_azimuth_channel, probe_delay_map, spin_response, uniform_pointings
from .config import load_config_tree, resolve_config
from .core import ConfigurationError, power_db
from .randomfields import derive_stream
from .stats import load_room_survey, survey_report
from .target import compose_scene

UNITS_COMMENT = "# units: angles deg, power dB re transmit, delay ns\n"


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _write_csv(path: Path, header: str, rows) -> None:
    """The units comment, then ``header`` and each row on a line."""
    text = UNITS_COMMENT + "".join(f"{line}\n" for line in [header, *rows])
    _atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(x) -> str:
    return f"{x:.9g}"


def _axis(values) -> list:
    return [float(f"{x:.9g}") for x in values]


def _write_meta(out: Path, command: str, tree: dict) -> None:
    _write_json(out / "run_meta.json", {
        "command": command,
        "seed": tree["seed"],
        "config": tree,
        "versions": {
            "rfclutter": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    })


def _write_grid_binary(out: Path, stem: str, array_db: np.ndarray, axes: dict) -> None:
    """Row-major float32 binary with a JSON sidecar describing the layout."""
    data = np.ascontiguousarray(array_db, dtype=np.float32)
    _atomic_write_bytes(out / f"{stem}.f32", data.tobytes())
    sidecar = {
        "file": f"{stem}.f32",
        "dtype": "float32",
        "order": "row-major",
        "shape": list(data.shape),
        "content": "power_db_re_transmit",
        "axes": axes,
    }
    _write_json(out / f"{stem}.json", sidecar)


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


def _resolve(args):
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


def _cmd_predict(args) -> int:
    cfg = _resolve(args)
    rows = load_room_survey(args.survey)
    report = survey_report(rows, cfg.clutter.carrier)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "predictions.csv", "label,d_s_m,gamma_sq,p0_db,measured_db,error_db", [
        f"{row.label},{_fmt(row.d_s_m)},{_fmt(g)},"
        f"{_fmt(p0)},{_fmt(row.measured_median_db)},{_fmt(err)}"
        for row, g, p0, err in zip(report.rows, report.gamma_sq, report.p0_db, report.errors_db)
    ])
    _write_meta(out, "predict", cfg.tree)
    print(f"predict: {len(rows)} rooms, RMS error {report.rms_db:.2f} dB -> {out}")
    return 0


def _cmd_synth_azimuth(args) -> int:
    cfg = _resolve(args)
    pointings = uniform_pointings(cfg.pointings_per_rotation)
    rows = []
    for k in range(cfg.ensemble):
        field = gen_azimuth_channel(
            cfg.room, cfg.clutter, cfg.grid, derive_stream(cfg.seed, f"azimuth/{k}")
        )
        spec = spin_response(field, cfg.rx, cfg.tx, pointings, cfg.tx_pointing_deg)
        rows += (f"{k},{_fmt(p)},{_fmt(db)}" for p, db in zip(spec.pointings_deg, spec.power_db))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "azimuth_spectra.csv", "seed_index,pointing_deg,power_db", rows)
    _write_meta(out, "synth-azimuth", cfg.tree)
    print(f"synth-azimuth: {cfg.ensemble} spectra x {pointings.size} pointings -> {out}")
    return 0


def _cmd_synth_delay(args) -> int:
    cfg = _resolve(args)
    pointings = uniform_pointings(cfg.pointings_per_rotation)
    delays, map_db, profile = probe_delay_map(
        cfg.room, cfg.clutter, cfg.delay_grid, cfg.grid, derive_stream(cfg.seed, "delay/0"),
        cfg.probe, cfg.rx, cfg.tx, pointings, cfg.tx_pointing_deg,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_grid_binary(out, "delay_azimuth_map", map_db, {
        "delay_ns": _axis(delays * 1e9), "pointing_deg": _axis(pointings),
    })
    _write_csv(out / "delay_profile.csv", "delay_ns,mean_power_db", [
        f"{_fmt(t * 1e9)},{_fmt(db)}" for t, db in zip(delays, power_db(profile))
    ])
    _write_meta(out, "synth-delay", cfg.tree)
    print(f"synth-delay: {map_db.shape[0]} delay bins x {map_db.shape[1]} pointings -> {out}")
    return 0


def _cmd_scene(args) -> int:
    cfg = _resolve(args)
    spec = cfg.scene_spec()
    tmap = compose_scene(spec, derive_stream(cfg.seed, "scene/0"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "scene_timeseries.csv", "time_s,pointing_deg,power_db", [
        f"{_fmt(t)},{_fmt(p)},{_fmt(db)}"
        for t, p, db in zip(tmap.times_s, tmap.pointing_deg, tmap.power_db)
    ])
    rot_times, pointing_bins, image = tmap.folded()
    if image.size:
        _write_grid_binary(out, "scene_map", power_db(image), {
            "rotation_start_s": _axis(rot_times), "pointing_deg": _axis(pointing_bins),
        })
    else:
        print(
            f"scene: no scene_map: {spec.spin_period_s * spec.sample_rate_hz:.9g} samples per"
            " rotation is not a whole number, or the scene is shorter than one rotation"
        )
    _write_meta(out, "scene", cfg.tree)
    print(f"scene: {tmap.power.size} samples, {image.shape[0]} rotations -> {out}")
    return 0


def _cmd_validate(args) -> int:
    from .validation import run_checks  # scipy.stats: about 1 s of import

    names = None
    if args.checks is not None:  # given but naming no check is an error, not "all"
        names = [n.strip() for n in args.checks.split(",") if n.strip()]
    cfg = _resolve(args)
    report = run_checks(names=names, master_seed=cfg.seed, log=print)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "validation_report.json", report.to_dict())
    _write_json(
        out / "validation_runtimes.json", {r.name: round(r.runtime_s, 3) for r in report.results}
    )
    _write_meta(out, "validate", cfg.tree)
    n_pass = sum(r.passed for r in report.results)
    print(f"validate: {n_pass}/{len(report.results)} checks passed -> {out}")
    return 0 if report.passed else 1


_ROOM_FLAGS = ("--room-w", "--room-l", "--d-s", "--material", "--t-rev-ns", "--hpbw-deg")

# subcommand -> (handler, help, the config flags it takes, its other options)
_SUBCOMMANDS = {
    "predict": (
        _cmd_predict, "room-survey average backscatter predictions", ("--seed",),
        {"--survey": "survey CSV (default: shipped)"},
    ),
    "synth-azimuth": (
        _cmd_synth_azimuth, "synthesize spun azimuth spectra",
        ("--seed", "--ensemble", *_ROOM_FLAGS), {},
    ),
    "synth-delay": (
        _cmd_synth_delay, "synthesize a band-limited delay-azimuth map",
        ("--seed", *_ROOM_FLAGS, "--bandwidth-ghz"), {},
    ),
    "scene": (
        _cmd_scene, "moving target against static clutter",
        ("--seed", *_ROOM_FLAGS, "--duration"), {},
    ),
    "validate": (
        _cmd_validate, "run the acceptance checks", ("--seed",),
        {"--checks": "comma-separated check names"},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfclutter",
        description="Statistical simulator of monostatic indoor RF backscatter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "validate":
            p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="rfclutter-out", help="output directory")
        for flag in flags:
            kind, _, flag_help = _CONFIG_FLAGS[flag]
            p.add_argument(flag, type=kind, default=None, help=flag_help)
        for option, option_help in options.items():
            p.add_argument(option, type=str, default=None, help=option_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
