"""Structured run configuration.

A single JSON tree configures every subcommand.  ``SCHEMA`` pairs each leaf
with its default (``DEFAULT_CONFIG`` is derived from it) and its domain:
unknown keys are rejected and every leaf is checked, naming its dotted key,
before any object is built; ``room.material`` and ``scene.waypoints`` are
checked by their one build.  The merged tree is echoed into each run's
metadata so it can be fed back as a config file and reproduce the run.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable, NamedTuple

from .antennas import AntennaPattern, gaussian_horn, load_pattern_csv, omni
from .clutter import ClutterParams, DelayGrid, ProbeWaveform
from .core import (
    CarrierSpec, ConfigurationError, RoomSpec, average_backscatter_ratio, from_db,
    material_reflectivity,
)
from .randomfields import AzimuthGrid, lognormal_mean_offset
from .target import SceneSpec, TargetSpec, Trajectory


class _Leaf(NamedTuple):
    """A config value: its default and its domain, in words and as a test;
    ``linear`` is (formula, x -> value) for a leaf that enters the arithmetic
    as a linear value, which must be a positive finite double.  An error
    shows an int of 21 digits or more as %.6g."""

    default: object
    expected: str
    valid: Callable[[object], bool]
    linear: tuple[str, Callable[[float], float]] | None = None

    def check(self, value, path: str) -> None:
        got = f"{Decimal(value):.6g}" if type(value) is int and abs(value) >= 1e20 else repr(value)
        if not self.valid(value):
            raise ConfigurationError(f"config {path}: expected {self.expected}, got {got}")
        try:
            in_range = self.linear is None or 0.0 < self.linear[1](value) < math.inf
        except OverflowError:
            in_range = False
        if not in_range:
            raise ConfigurationError(
                f"config {path}: the linear value {self.linear[0]} must be a positive finite "
                f"double, got x = {got}"
            )


def _is_number(v) -> bool:
    """A finite JSON number; NaN, +-inf and ints beyond float range fail."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# the bounds a number may have, as its error message states them
_BOUNDS = {
    "": lambda v: True, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
    "in (0, 180)": lambda v: 0 < v < 180,
}


def _number(default, bound: str = "", optional: bool = False) -> _Leaf:
    """A finite number within ``bound`` (a key of ``_BOUNDS``), or null when
    ``optional``."""
    expected = f"a finite number {bound}".rstrip() + (" or null" if optional else "")
    in_bound = _BOUNDS[bound]
    return _Leaf(
        default, expected, lambda v: optional and v is None or _is_number(v) and in_bound(v)
    )


# a dB spread x enters the arithmetic through its unit-mean offset mu
_SPREAD = ("10^(mu/10), mu = -(ln 10 / 20) x^2,", lambda x: from_db(lognormal_mean_offset(x)))
_WAVELENGTH = ("c / (x GHz)", lambda x: CarrierSpec(x * 1e9).wavelength_m)


def _integer(default, expected="a positive integer within float range", in_range=lambda v: v >= 1):
    return _Leaf(default, expected, lambda v: type(v) is int and _is_number(v) and in_range(v))


def _choice(default, *options) -> _Leaf:
    return _Leaf(default, f"one of {list(options)}", lambda v: isinstance(v, str) and v in options)


def _numbers_only(v) -> bool:
    return all(map(_numbers_only, v)) if isinstance(v, list) else _is_number(v)


# the keys besides ``kind`` of each antenna pattern kind
_PATTERN_KINDS = {
    "gaussian": {"hpbw_deg": _number(None, "in (0, 180)")},
    "omni": {},
    "csv": {"path": _Leaf(None, "a file path", lambda v: isinstance(v, str))},
}


class _Pattern(NamedTuple):
    """An antenna pattern node: its ``kind`` picks the keys it must have."""

    default: dict

    def check(self, node, path: str) -> None:
        if not isinstance(node, dict):
            raise ConfigurationError(f"config {path}: expected an object, got {node!r}")
        _choice(None, *_PATTERN_KINDS).check(node.get("kind"), f"{path}.kind")
        leaves = _PATTERN_KINDS[node["kind"]]
        _check_keys(node, ("kind", *leaves), path)
        _check_tree(leaves, node, path)


SCHEMA = {
    "room": {
        "width_m": _number(3.0, "> 0"),
        "length_m": _number(3.0, "> 0"),
        "d_s_m": _number(None, "> 0", optional=True),
        "material": _Leaf(
            "metal",
            'metal, dielectric:<eps_r >= 1>, gamma:<0 <= gamma_sq <= 1>, {"eps_r": x} or '
            '{"gamma_sq": x}',
            lambda v: True,  # built, and so checked, by resolve_config
        ),
        "t_rev_ns": _number(10.0, "> 0"),
    },
    "carrier": {"frequency_ghz": _number(28.0, "> 0")._replace(linear=_WAVELENGTH)},
    "clutter": {
        "sigma_v_db": _number(4.0, ">= 0")._replace(linear=_SPREAD),
        "sigma_db": _number(7.0, ">= 0")._replace(linear=_SPREAD),
        "phi_rms_deg": _number(1.0, "> 0"),
    },
    "antennas": {
        "rx": _Pattern({"kind": "gaussian", "hpbw_deg": 10.0}),
        "tx": _Pattern({"kind": "omni"}),
        "tx_pointing_deg": _number(0.0),
    },
    "grid": {"delta_phi_deg": _number(0.2, "> 0")},
    "delay": {
        "delta_tau_ns": _number(0.1, "> 0"),
        "span_after_onset_ns": _number(None, "> 0", optional=True),
    },
    "probe": {
        "bandwidth_ghz": _number(1.0, "> 0"),
        "shape": _choice("hamming", "hamming", "rect"),
    },
    "spin": {
        "sample_rate_hz": _number(740.0, "> 0"),
        "pointings_per_rotation": _integer(148),
    },
    "scene": {
        "duration_s": _number(4.0, "> 0"),
        "target": {
            "rcs_dbsm": _number(-8.0)._replace(linear=("10^(x/10)", from_db)),
            "coherence_time_s": _number(0.1, "> 0"),
            "model": _choice("swerling1", "swerling1", "constant"),
        },
        # default demonstration: walk from the room side toward the radar
        # at the center and back at ~0.9 m/s, then hold
        "waypoints": _Leaf(
            [[0.0, 1.4, -0.6], [1.66, 0.25, 0.35], [3.32, 1.4, -0.6], [4.0, 1.4, -0.6]],
            "a list of [t, x, y] waypoints of finite numbers, t increasing, off the origin",
            _numbers_only,  # and built, and so checked, by resolve_config
        ),
        "regenerate_clutter_per_rotation": _Leaf(False, "true or false", lambda v: type(v) is bool),
    },
    "seed": _integer(1234, "an integer in [0, 2**64)", lambda v: 0 <= v < 2**64),
    "ensemble": _integer(1),
}


def _default_tree(schema: dict) -> dict:
    return {
        key: _default_tree(node) if isinstance(node, dict) else node.default
        for key, node in schema.items()
    }


DEFAULT_CONFIG = _default_tree(SCHEMA)


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigurationError(f"config {path or '(top level)'}: unknown key(s) {unknown}")


def _copy(value):
    """A copy of a JSON value that shares no dict or list with it."""
    if isinstance(value, dict):
        return {key: _copy(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_copy(v) for v in value]
    return value


def _merge(schema: dict, tree: dict, override, path: str) -> dict:
    """``tree`` with the values of ``override``: new dicts along the paths
    that ``override`` sets, each value set copied, and every other node
    shared with ``tree``; unknown keys are rejected.  A pattern node without
    a ``kind`` updates the current one key by key, one that names its kind
    replaces it whole."""
    if not isinstance(override, dict):
        raise ConfigurationError(f"config {path or '(top level)'}: expected an object")
    _check_keys(override, schema, path)
    merged = dict(tree)
    for key, value in override.items():
        node, old = schema[key], tree[key]
        if isinstance(node, dict):
            merged[key] = _merge(node, old, value, f"{path}.{key}" if path else key)
        elif isinstance(node, _Pattern) and isinstance(value, dict) and "kind" not in value:
            merged[key] = {**old, **_copy(value)}
        else:
            merged[key] = _copy(value)
    return merged


def load_config_tree(path=None, overrides=None) -> dict:
    """The default tree, merged with a config file and then with an
    ``overrides`` fragment of the same shape (the command-line flags).  A
    run-metadata file (with ``config`` and ``versions`` keys) is unwrapped."""
    tree = {}
    if path is not None:
        try:
            tree = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, an int past 4300 digits
            raise ConfigurationError(f"{path}: {exc}") from None
        if isinstance(tree, dict) and "config" in tree and "versions" in tree:
            tree = tree["config"]
    # the one copy of the defaults: the merges share the nodes they do not set
    merged = _merge(SCHEMA, _copy(DEFAULT_CONFIG), tree, "")
    return _merge(SCHEMA, merged, overrides or {}, "")


def _check_tree(schema: dict, tree: dict, path: str = "") -> None:
    """Check each leaf of ``tree`` against ``schema``; a missing one is null."""
    for key, node in schema.items():
        child = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            _check_tree(node, tree[key], child)
        else:
            node.check(tree.get(key), child)


@contextlib.contextmanager
def _naming(path: str):
    """Name ``path`` in a ValueError from building objects out of checked
    leaves: an error that involves more than one key, a file, or a leaf that
    only its build checks."""
    try:
        yield
    except ValueError as exc:
        raise ConfigurationError(f"config {path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated objects resolved from a config tree."""

    tree: dict
    room: RoomSpec
    clutter: ClutterParams
    grid: AzimuthGrid
    rx: AntennaPattern
    tx: AntennaPattern
    tx_pointing_deg: float
    delay_grid: DelayGrid
    probe: ProbeWaveform
    scene: SceneSpec
    pointings_per_rotation: int
    seed: int
    ensemble: int

    def scene_spec(self) -> SceneSpec:
        """The ``scene`` subtree as the SceneSpec that resolve_config checked."""
        return self.scene


def _pattern(node: dict, grid: AzimuthGrid, path: str) -> AntennaPattern:
    if node["kind"] == "gaussian":
        with _naming(f"{path}.hpbw_deg"):
            return gaussian_horn(float(node["hpbw_deg"]), grid)
    if node["kind"] == "omni":
        return omni(grid)
    with _naming(f"{path}.path"):
        return load_pattern_csv(node["path"], grid)


def resolve_config(tree: dict) -> RunConfig:
    """Check every leaf of a merged config tree, then build the simulator
    objects from it, the material and the waypoints once each and the scene
    spec included, so that a rule across keys fails every command alike: the
    room's p0 names ``room``, a beam against the grid its ``hpbw_deg``, a
    pulse longer than the delay grid ``probe``, the scene's rules ``scene``."""
    _check_tree(SCHEMA, tree)
    room_t, delay_t, probe_t, spin = tree["room"], tree["delay"], tree["probe"], tree["spin"]
    scn, target = tree["scene"], tree["scene"]["target"]
    carrier = CarrierSpec(float(tree["carrier"]["frequency_ghz"]) * 1e9)
    d_s = room_t["d_s_m"]
    if d_s is None:  # half the smaller room dimension
        d_s = 0.5 * min(float(room_t["width_m"]), float(room_t["length_m"]))
    with _naming("room.material"):
        gamma_sq = material_reflectivity(room_t["material"])
    with _naming("room"):
        room = RoomSpec(float(d_s), gamma_sq, float(room_t["t_rev_ns"]) * 1e-9)
        # p0 must be a normal double for every command, not only those that draw
        average_backscatter_ratio(room.distance_to_wall_m, carrier.wavelength_m, room.gamma_sq)
    clutter = ClutterParams(carrier, **{k: float(v) for k, v in tree["clutter"].items()})
    with _naming("grid.delta_phi_deg"):
        grid = AzimuthGrid.from_spacing(float(tree["grid"]["delta_phi_deg"]))
        clutter.field_params.corr_bins(grid)
    span_ns = delay_t["span_after_onset_ns"]
    with _naming("delay"):
        delay_grid = DelayGrid.for_room(
            room,
            delta_tau_s=float(delay_t["delta_tau_ns"]) * 1e-9,
            span_after_onset_s=None if span_ns is None else float(span_ns) * 1e-9,
        )
    with _naming("probe"):
        probe = ProbeWaveform(float(probe_t["bandwidth_ghz"]) * 1e9, probe_t["shape"])
        probe.taps(delay_grid)  # a pulse longer than the delay grid fails here
    rx = _pattern(tree["antennas"]["rx"], grid, "antennas.rx")
    tx = _pattern(tree["antennas"]["tx"], grid, "antennas.tx")
    tx_pointing_deg = float(tree["antennas"]["tx_pointing_deg"])
    with _naming("scene.waypoints"):
        trajectory = Trajectory.from_waypoints(scn["waypoints"])
    with _naming("scene"):
        scene = SceneSpec(
            room=room, clutter=clutter, rx=rx, tx=tx,
            target=TargetSpec(
                float(target["rcs_dbsm"]), float(target["coherence_time_s"]), target["model"]
            ),
            trajectory=trajectory,
            samples_per_rotation=spin["pointings_per_rotation"],
            sample_rate_hz=float(spin["sample_rate_hz"]),
            duration_s=float(scn["duration_s"]),
            tx_pointing_deg=tx_pointing_deg,
            regenerate_clutter_per_rotation=scn["regenerate_clutter_per_rotation"],
        )
    return RunConfig(
        tree=tree, room=room, clutter=clutter, grid=grid, rx=rx, tx=tx,
        tx_pointing_deg=tx_pointing_deg, delay_grid=delay_grid, probe=probe, scene=scene,
        pointings_per_rotation=spin["pointings_per_rotation"], seed=tree["seed"],
        ensemble=tree["ensemble"],
    )
