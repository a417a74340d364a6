"""Structured run configuration.

A single JSON tree configures every subcommand.  Unknown keys are rejected,
defaults are filled in, and the fully resolved tree is echoed into each
run's metadata so it can be fed back as a config file and reproduce the run.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .antennas import AntennaPattern, gaussian_horn, load_pattern_csv, omni
from .clutter import ClutterParams, DelayGrid, ProbeWaveform, make_probe_waveform
from .core import CarrierSpec, ConfigurationError, RoomSpec, Surface
from .randomfields import AzimuthGrid
from .target import SceneSpec, TargetSpec, Trajectory

DEFAULT_CONFIG = {
    "room": {
        "width_m": 3.0,
        "length_m": 3.0,
        "d_s_m": None,
        "material": "metal",
        "t_rev_ns": 10.0,
    },
    "carrier": {"frequency_ghz": 28.0},
    "clutter": {"sigma_v_db": 4.0, "sigma_db": 7.0, "phi_rms_deg": 1.0},
    "antennas": {
        "rx": {"kind": "gaussian", "hpbw_deg": 10.0},
        "tx": {"kind": "omni"},
        "tx_pointing_deg": 0.0,
    },
    "grid": {"delta_phi_deg": 0.2},
    "delay": {"delta_tau_ns": 0.1, "span_after_onset_ns": None},
    "probe": {"bandwidth_ghz": 1.0, "shape": "hamming", "oversample": 20},
    "spin": {"period_s": 0.2, "sample_rate_hz": 740.0, "pointings_per_rotation": 148},
    "scene": {
        "duration_s": 4.0,
        "target": {"rcs_dbsm": -8.0, "coherence_time_s": 0.1, "model": "swerling1"},
        # default demonstration: walk from the room side toward the radar
        # at the center and back at ~0.9 m/s, then hold
        "waypoints": [
            [0.0, 1.4, -0.6],
            [1.66, 0.25, 0.35],
            [3.32, 1.4, -0.6],
            [4.0, 1.4, -0.6],
        ],
        "regenerate_clutter_per_rotation": False,
    },
    "seed": 1234,
    "ensemble": 1,
}


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigurationError(f"config {path or '(top level)'}: unknown key(s) {unknown}")


def _merge(default, override, path: str):
    """Fill the default tree with override values, rejecting unknown keys.

    A pattern node (one with a ``kind``) that names another kind than the
    default replaces it whole; :func:`_pattern_from_tree` checks its keys.
    """
    if not isinstance(override, dict):
        raise ConfigurationError(f"config {path or '(top level)'}: expected an object")
    _check_keys(override, default.keys(), path)
    merged = copy.deepcopy(default)
    for key, value in override.items():
        child = f"{path}.{key}" if path else key
        if isinstance(default[key], dict) and not _is_other_kind(default[key], value):
            merged[key] = _merge(default[key], value, child)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _is_other_kind(default: dict, override) -> bool:
    return (
        "kind" in default
        and isinstance(override, dict)
        and override.get("kind", default["kind"]) != default["kind"]
    )


def load_config_tree(path=None) -> dict:
    """Read a config file (or start from defaults) into a resolved tree.

    A run-metadata file (recognized by its ``config``/``versions`` keys) is
    unwrapped so metadata can be fed straight back as a config.
    """
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    text = Path(path).read_text()
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if isinstance(tree, dict) and "config" in tree and "versions" in tree:
        tree = tree["config"]
    return _merge(DEFAULT_CONFIG, tree, "")


def _require_count(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"config {path}: expected a positive integer, got {value!r}")
    return value


def _require_number(tree, path: str, allow_none=False):
    node = tree
    for part in path.split("."):
        node = node[part]
    if node is None and allow_none:
        return None
    if isinstance(node, bool) or not isinstance(node, (int, float)) or not math.isfinite(node):
        raise ConfigurationError(f"config {path}: expected a finite number, got {node!r}")
    return float(node)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated objects resolved from a config tree."""

    tree: dict
    room: RoomSpec
    carrier: CarrierSpec
    clutter: ClutterParams
    grid: AzimuthGrid
    rx: AntennaPattern
    tx: AntennaPattern
    tx_pointing_deg: float
    delay_grid: DelayGrid
    probe: ProbeWaveform
    spin_period_s: float
    sample_rate_hz: float
    pointings_per_rotation: int
    seed: int
    ensemble: int

    def scene_spec(self) -> SceneSpec:
        """The ``scene`` subtree as a SceneSpec; bad values name their key."""
        scn = self.tree["scene"]
        regenerate = scn["regenerate_clutter_per_rotation"]
        if not isinstance(regenerate, bool):
            raise ConfigurationError(
                "config scene.regenerate_clutter_per_rotation: expected true or false, "
                f"got {regenerate!r}"
            )
        with _config_errors("config scene.target"):
            target = TargetSpec(
                sigma0_dbsm=_require_number(self.tree, "scene.target.rcs_dbsm"),
                coherence_time_s=_require_number(self.tree, "scene.target.coherence_time_s"),
                model=str(scn["target"]["model"]),
            )
        with _config_errors("config scene.waypoints"):
            traj = Trajectory.from_waypoints(scn["waypoints"])
        with _config_errors("config scene"):
            return SceneSpec(
                room=self.room,
                clutter=self.clutter,
                target=target,
                trajectory=traj,
                rx=self.rx,
                tx=self.tx,
                spin_period_s=self.spin_period_s,
                sample_rate_hz=self.sample_rate_hz,
                duration_s=_require_number(self.tree, "scene.duration_s"),
                tx_pointing_deg=self.tx_pointing_deg,
                regenerate_clutter_per_rotation=regenerate,
            )


@contextlib.contextmanager
def _config_errors(where: str):
    """Re-raise a ValueError, KeyError or TypeError as a ConfigurationError
    whose message starts with ``where``."""
    try:
        yield
    except ConfigurationError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _surface_from_tag(tag) -> Surface:
    if isinstance(tag, dict):
        _check_keys(tag, ("eps_r", "gamma_sq"), "room.material")
        if "eps_r" in tag:
            return Surface.dielectric(float(tag["eps_r"]))
        if "gamma_sq" in tag:
            return Surface.explicit(float(tag["gamma_sq"]))
        raise ConfigurationError("room.material object needs eps_r or gamma_sq")
    if tag == "metal":
        return Surface.metal()
    if isinstance(tag, str) and tag.startswith("dielectric:"):
        return Surface.dielectric(float(tag.split(":", 1)[1]))
    if isinstance(tag, str) and tag.startswith("gamma:"):
        return Surface.explicit(float(tag.split(":", 1)[1]))
    raise ConfigurationError(f"config room.material: unknown material {tag!r}")


def _pattern_from_tree(node: dict, grid: AzimuthGrid, path: str) -> AntennaPattern:
    _check_keys(node, ("kind", "hpbw_deg", "path"), path)
    kind = node.get("kind")
    if kind == "gaussian":
        if "hpbw_deg" not in node:
            raise ConfigurationError(f"config {path}: gaussian pattern needs hpbw_deg")
        return gaussian_horn(float(node["hpbw_deg"]), grid)
    if kind == "omni":
        return omni(grid)
    if kind == "csv":
        if "path" not in node:
            raise ConfigurationError(f"config {path}: csv pattern needs path")
        return load_pattern_csv(node["path"], grid)
    raise ConfigurationError(f"config {path}.kind: unknown pattern kind {kind!r}")


def resolve_config(tree: dict) -> RunConfig:
    """Turn a merged config tree into validated simulator objects."""
    with _config_errors("config"):
        with _config_errors("config room.material"):
            surface = _surface_from_tag(tree["room"]["material"])
        room = RoomSpec(
            width_m=_require_number(tree, "room.width_m"),
            length_m=_require_number(tree, "room.length_m"),
            d_s_m=_require_number(tree, "room.d_s_m", allow_none=True),
            surface=surface,
            t_rev_s=_require_number(tree, "room.t_rev_ns") * 1e-9,
        )
        carrier = CarrierSpec(_require_number(tree, "carrier.frequency_ghz") * 1e9)
        clutter = ClutterParams(
            carrier=carrier,
            sigma_v_db=_require_number(tree, "clutter.sigma_v_db"),
            sigma_db=_require_number(tree, "clutter.sigma_db"),
            phi_rms_deg=_require_number(tree, "clutter.phi_rms_deg"),
        )
        grid = AzimuthGrid.from_spacing(_require_number(tree, "grid.delta_phi_deg"))
        try:
            clutter.field_params.corr_bins(grid)
        except ConfigurationError as exc:
            raise ConfigurationError(f"config grid.delta_phi_deg: {exc}") from None
        rx = _pattern_from_tree(tree["antennas"]["rx"], grid, "antennas.rx")
        tx = _pattern_from_tree(tree["antennas"]["tx"], grid, "antennas.tx")
        span_ns = _require_number(tree, "delay.span_after_onset_ns", allow_none=True)
        delay_grid = DelayGrid.for_room(
            room,
            delta_tau_s=_require_number(tree, "delay.delta_tau_ns") * 1e-9,
            span_after_onset_s=None if span_ns is None else span_ns * 1e-9,
        )
        bandwidth = _require_number(tree, "probe.bandwidth_ghz") * 1e9
        probe = make_probe_waveform(
            bandwidth,
            sample_rate_hz=_require_number(tree, "probe.oversample") * bandwidth,
            shape=str(tree["probe"]["shape"]),
        )
        seed = tree["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigurationError("config seed: expected a 64-bit unsigned integer")
        return RunConfig(
            tree=tree,
            room=room,
            carrier=carrier,
            clutter=clutter,
            grid=grid,
            rx=rx,
            tx=tx,
            tx_pointing_deg=_require_number(tree, "antennas.tx_pointing_deg"),
            delay_grid=delay_grid,
            probe=probe,
            spin_period_s=_require_number(tree, "spin.period_s"),
            sample_rate_hz=_require_number(tree, "spin.sample_rate_hz"),
            pointings_per_rotation=_require_count(
                tree["spin"]["pointings_per_rotation"], "spin.pointings_per_rotation"
            ),
            seed=seed,
            ensemble=_require_count(tree["ensemble"], "ensemble"),
        )
