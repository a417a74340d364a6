"""The config contract: every leaf of the schema rejects each class of bad
value that applies to it with exit 2, naming the leaf's dotted key, before
any output is written."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rfclutter import cli, clutter, config, core, target, validation

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)

NAN, INF = math.nan, math.inf
NON_FINITE = st.sampled_from([NAN, INF, -INF])


def _not_a_number(optional=False):
    values = ["1", True, False, [], {}, [1.0]]
    return st.sampled_from(values if optional else [*values, None])


def _below(limit, limit_valid):
    """Numbers below ``limit``, and ``limit`` itself unless it is valid."""
    return st.one_of(
        st.floats(max_value=limit, exclude_max=limit_valid, allow_nan=False, allow_infinity=False),
        st.integers(max_value=limit - 1 if limit_valid else limit),
    )


# each leaf's domain as its error message states it -> the invalid classes
# that apply: wrong JSON type, NaN and +-inf, and values below the range
INVALID = {
    "a finite number": st.one_of(_not_a_number(), NON_FINITE),
    "a finite number > 0": st.one_of(_not_a_number(), NON_FINITE, _below(0, limit_valid=False)),
    "a finite number > 0 or null": st.one_of(
        _not_a_number(optional=True), NON_FINITE, _below(0, limit_valid=False)
    ),
    "a finite number >= 0": st.one_of(_not_a_number(), NON_FINITE, _below(0, limit_valid=True)),
    "a finite number in (0, 180)": st.one_of(
        _not_a_number(), NON_FINITE, _below(0, limit_valid=False),
        st.floats(min_value=180, allow_nan=False, allow_infinity=False),
    ),
    "a positive integer within float range": st.one_of(
        _not_a_number(), NON_FINITE, st.sampled_from([1.0, 2.5]), st.integers(max_value=0),
        st.integers(min_value=int(sys.float_info.max) + 1, max_value=10**400),
    ),
    "an integer in [0, 2**64)": st.one_of(
        _not_a_number(), NON_FINITE, st.sampled_from([1.0, 2.5]),
        st.integers(max_value=-1), st.integers(min_value=2**64),
    ),
    "true or false": st.sampled_from([0, 1, "true", "no", None, [], NAN]),
    "a file path": st.sampled_from([5, None, True, [], {}, NAN]),
    "a list of [t, x, y] waypoints of finite numbers, t increasing, off the origin": (
        st.sampled_from([
            "x", 3, None, {}, [],
            [[0.0, NAN, 0.0], [9.0, 1.0, 1.0]],
            [[0.0, INF, 0.0], [9.0, 1.0, 1.0]],
            [[-INF, 1.0, 0.0], [9.0, 1.0, 1.0]],
            [[0.0, "1", 0.0], [9.0, 1.0, 1.0]],
            [[0.0, True, 0.0], [9.0, 1.0, 1.0]],
            [[0.0, 1.0], [9.0, 1.0, 1.0]],
            [[0.0, 0.0, 0.0], [9.0, 1.0, 1.0]],
            [[9.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
            [1, 2],
        ])
    ),
    config.SCHEMA["room"]["material"].expected: st.one_of(
        st.sampled_from([
            3, None, True, [], {}, "wood", "Metal", "dielectric", "dielectric:", "gamma:x",
            "dielectric:nan", "dielectric:inf", "gamma:nan", "gamma:-inf",
            {"eps_r": NAN}, {"eps_r": INF}, {"gamma_sq": "0.5"}, {"eps_r": 3, "gamma_sq": 1},
        ]),
        _below(1, limit_valid=True).map(lambda x: f"dielectric:{x!r}"),
        _below(0, limit_valid=True).map(lambda x: f"gamma:{x!r}"),
        st.floats(min_value=1, exclude_min=True, allow_nan=False).map(lambda x: f"gamma:{x!r}"),
        _below(1, limit_valid=True).map(lambda x: {"eps_r": x}),
    ),
}


CHOICES = {"hamming", "rect", "swerling1", "constant", "gaussian", "omni", "csv"}
NOT_A_CHOICE = st.one_of(
    st.sampled_from([None, 0, 1.5, True, [], {}, NAN]),
    st.text(max_size=12).filter(lambda s: s not in CHOICES),
)


def _leaves(schema, path=""):
    """(dotted key, domain, pattern node key or None, kind) for every leaf;
    a pattern node contributes its ``kind`` and each kind's keys."""
    for key, node in schema.items():
        child = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            yield from _leaves(node, child)
        elif isinstance(node, config._Pattern):
            yield f"{child}.kind", "one of the pattern kinds", child, None
            for kind, keys in config._PATTERN_KINDS.items():
                for sub, leaf in keys.items():
                    yield f"{child}.{sub}", leaf.expected, child, kind
        else:
            yield child, node.expected, None, None


LEAVES = {key: rest for key, *rest in _leaves(config.SCHEMA)}


COMMANDS = {"scene": "scene", "delay": "synth-delay", "probe": "synth-delay", "room": "predict"}


def _fragment(dotted: str, value) -> dict:
    *parents, last = dotted.split(".")
    tree = node = {}
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value
    return tree


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _invalid(expected):
    return NOT_A_CHOICE if expected.startswith("one of") else INVALID[expected]


def test_every_leaf_has_invalid_classes():
    assert {"antennas.rx.hpbw_deg", "antennas.tx.path", "scene.target.model"} <= set(LEAVES)
    for key, (expected, _, _) in LEAVES.items():
        assert expected.startswith("one of") or expected in INVALID, key


@pytest.mark.parametrize("key", sorted(LEAVES))
@SETTINGS
@given(data=st.data())
def test_invalid_leaf_exits_2_naming_its_key(key, data):
    expected, pattern_key, kind = LEAVES[key]
    value = data.draw(_invalid(expected), label=key)
    if pattern_key is None:
        tree = _fragment(key, value)
    else:
        node = {"kind": value} if kind is None else {"kind": kind, key.rsplit(".", 1)[1]: value}
        tree = _fragment(pattern_key, node)
    command = COMMANDS.get(key.split(".")[0], "synth-azimuth")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(tree))
        rc, err = _run([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2, err
        assert f"config {key}:" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "tree, key",
    [
        ({"grid": {"delta_phi_deg": 0}}, "grid.delta_phi_deg"),
        ({"antennas": {"rx": {"hpbw_deg": "10"}}}, "antennas.rx.hpbw_deg"),
        ({"antennas": {"rx": {"kind": "csv", "path": "no-such-pattern.csv"}}}, "antennas.rx.path"),
        ({"room": {"width_m": -1}}, "room.width_m"),
        ({"delay": {"span_after_onset_ns": -1}}, "delay.span_after_onset_ns"),
        # the probe is sampled on the delay grid, and has no rate of its own
        ({"probe": {"oversample": 20}}, "probe"),
        ({"scene": {"duration_s": 100}}, "scene"),
        # a pulse of 1000 ns, longer than the 102 ns delay grid
        ({"probe": {"bandwidth_ghz": 0.001}}, "probe"),
        # 0.74 samples per coherence time at 740 Hz
        ({"scene": {"target": {"coherence_time_s": 0.001}}}, "scene"),
        # sample 1480 of the walk lands on the radar
        ({"scene": {"waypoints": [[0.0, -1.0, 0.0], [4.0, 1.0, 0.0]]}}, "scene"),
        # half of the width rounds to a wall distance of 0
        ({"room": {"width_m": 5e-324}}, "room"),
        # p0 = gamma_sq (wavelength / (4 pi d_s))^2 overflows
        ({"room": {"d_s_m": 1e-300}}, "room"),
        ({"carrier": {"frequency_ghz": 1e-190}}, "room"),
        ({"carrier": {"frequency_ghz": 1e-308}}, "room"),
        # Gaussian beams narrower than one grid bin
        ({"antennas": {"rx": {"hpbw_deg": 1e-160}}}, "antennas.rx.hpbw_deg"),
        ({"antennas": {"rx": {"hpbw_deg": 1e-3}}}, "antennas.rx.hpbw_deg"),
        ({"antennas": {"tx": {"kind": "gaussian", "hpbw_deg": 0.1}}}, "antennas.tx.hpbw_deg"),
        ({"grid": {"delta_phi_deg": 0.5}, "antennas": {"rx": {"hpbw_deg": 0.4}}},
         "antennas.rx.hpbw_deg"),
        # p0 = gamma_sq (wavelength / (4 pi d_s))^2 is below the normal doubles
        ({"carrier": {"frequency_ghz": 1e299}}, "room"),
        ({"carrier": {"frequency_ghz": 1.07e152}}, "room"),
        ({"room": {"material": "gamma:1e-320"}}, "room"),
        # a walk 1e-80 m from the radar, where the target's echo overflows, or
        # the default walk (0.43 m) below about 1.7e-154 GHz
        ({"scene": {"waypoints": [[0.0, 1e-80, 0.0], [4.0, 1e-80, 1e-80]]}}, "scene"),
        ({"carrier": {"frequency_ghz": 1.6e-154}}, "scene"),
        # 1e300 GHz overflows to an infinite bandwidth in Hz
        ({"probe": {"bandwidth_ghz": 1e300}}, "probe"),
    ],
)
@pytest.mark.parametrize("command", ["predict", "synth-azimuth", "synth-delay", "scene"])
def test_every_subcommand_checks_the_whole_tree(tmp_path, tree, key, command):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(tree))
    rc, err = _run([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2 and f"config {key}:" in err
    assert not out.exists()


def test_bad_flag_value_names_its_key(tmp_path):
    rc, err = _run(["synth-azimuth", "--seed", "-1", "--out", str(tmp_path / "o")])
    assert rc == 2 and "config seed:" in err
    rc, err = _run(["validate", "--seed", "-1", "--out", str(tmp_path / "v")])
    assert rc == 2 and "config seed:" in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "v").exists()


def test_run_meta_that_sets_probe_oversample_exits_2(tmp_path):
    # the probe is its pulse sampled on the delay grid, with no sample rate
    # of its own: a run_meta.json that sets one is rejected, not migrated
    tree = config.load_config_tree(None)
    tree["probe"]["oversample"] = 20
    meta, out = tmp_path / "run_meta.json", tmp_path / "o"
    meta.write_text(json.dumps({"config": tree, "versions": {}}))
    rc, err = _run(["synth-delay", "--config", str(meta), "--out", str(out)])
    assert rc == 2 and "config probe: unknown key(s) ['oversample']" in err
    assert not out.exists()


def test_an_integer_past_the_digit_limit_exits_2_naming_the_file(tmp_path):
    # Python parses no int of more than 4300 digits from text
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text('{"ensemble": 1' + "0" * 5000 + "}")
    rc, err = _run(["synth-azimuth", "--config", str(cfg), "--out", str(out)])
    assert rc == 2 and f"config error: {cfg}: " in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth-azimuth", "scene"])
def test_a_spin_period_exits_2(tmp_path, command):
    # a rotation is spin.pointings_per_rotation samples, with no period of
    # its own: a config or a run_meta.json that sets one is rejected, not migrated
    tree = config.load_config_tree(None)
    tree["spin"]["period_s"] = 0.2
    for name, content in (
        ("cfg.json", {"spin": {"period_s": 0.2}}),
        ("run_meta.json", {"config": tree, "versions": {}}),
    ):
        cfg, out = tmp_path / name, tmp_path / "o"
        cfg.write_text(json.dumps(content))
        rc, err = _run([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2 and "config spin: unknown key(s) ['period_s']" in err
        assert not out.exists()


def test_flags_merge_over_the_config_file(tmp_path):
    pattern = tmp_path / "pattern.csv"
    pattern.write_text("azimuth_deg,gain_db\n0,0\n90,-20\n180,-30\n270,-20\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "room": {"material": {"eps_r": 3}, "width_m": 5.0},
        "antennas": {"rx": {"kind": "csv", "path": str(pattern)}},
    }))
    out = tmp_path / "o"
    rc, err = _run([
        "synth-azimuth", "--config", str(cfg), "--material", "gamma:0.5",
        "--hpbw-deg", "20", "--out", str(out),
    ])
    assert rc == 0, err
    tree = json.loads((out / "run_meta.json").read_text())["config"]
    assert tree["room"]["material"] == "gamma:0.5" and tree["room"]["width_m"] == 5.0
    assert tree["antennas"]["rx"] == {"kind": "gaussian", "hpbw_deg": 20.0}
    assert tree["spin"]["pointings_per_rotation"] == 148
    assert isinstance(tree["spin"]["pointings_per_rotation"], int)


def test_a_loaded_tree_shares_no_node_with_the_defaults_or_the_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"antennas": {"rx": {"hpbw_deg": 12.0}}, "room": {"width_m": 4.0}}))
    defaults = config._default_tree(config.SCHEMA)
    pristine = json.loads(json.dumps(defaults))
    overrides = {"scene": {"waypoints": [[0.0, 1.0, 1.0], [9.0, 1.0, 1.0]]}, "seed": 3}
    pristine_overrides = json.loads(json.dumps(overrides))
    for tree in (config.load_config_tree(None), config.load_config_tree(path, overrides)):
        tree["scene"]["waypoints"][0][1] = 7.0
        tree["scene"]["waypoints"].append([99.0, 1.0, 1.0])
        tree["antennas"]["rx"]["hpbw_deg"] = 45.0
        tree["antennas"]["tx"]["kind"] = "csv"
        tree["room"]["material"] = "gamma:0.5"
    assert config.DEFAULT_CONFIG == pristine
    assert config._default_tree(config.SCHEMA) == pristine
    assert defaults == pristine  # the SCHEMA leaves' own default lists and dicts
    assert overrides == pristine_overrides
    assert config.load_config_tree(None) == pristine


def test_default_config_is_derived_from_the_schema():
    tree = config.load_config_tree(None)
    assert tree == config.DEFAULT_CONFIG
    assert tree["antennas"]["rx"] == {"kind": "gaussian", "hpbw_deg": 10.0}
    config.resolve_config(tree)


# parameters whose values are SCHEMA leaves, and band_limit's pointings: no
# signature gives them a default, so a schema default changed alone reaches
# every caller
SCHEMA_PARAMETERS = [
    (core.RoomSpec, ["distance_to_wall_m", "gamma_sq", "t_rev_s"]),
    (clutter.ClutterParams, ["sigma_v_db", "sigma_db", "phi_rms_deg"]),
    (target.TargetSpec, ["sigma0_dbsm", "coherence_time_s", "model"]),
    (clutter.uniform_pointings, ["n"]),
    (clutter.DelayGrid.for_room, ["delta_tau_s", "span_after_onset_s"]),
    (clutter.ProbeWaveform, ["bandwidth_hz", "shape"]),
    (clutter.spin_operator, ["tx_pointing_deg"]),
    (clutter.spin_amplitudes, ["tx_pointing_deg"]),
    (clutter.spin_response, ["tx_pointing_deg"]),
    (clutter.band_limit, ["pointings_deg", "tx_pointing_deg"]),
    (clutter.probe_delay_map, ["tx_pointing_deg"]),
    (target.target_response, ["tx_pointing_deg"]),
    (validation.run_checks, ["master_seed"]),
]


@pytest.mark.parametrize(
    "func, names", SCHEMA_PARAMETERS, ids=[f.__qualname__ for f, _ in SCHEMA_PARAMETERS]
)
def test_no_schema_default_hides_in_a_signature(func, names):
    params = inspect.signature(func).parameters
    assert {n: params[n].default for n in names} == dict.fromkeys(names, inspect.Parameter.empty)


def test_validation_keeps_no_seed_of_its_own():
    assert not hasattr(validation, "DEFAULT_VALIDATION_SEED")


def test_resolved_config_keeps_the_scene_it_checked():
    fields = {f.name for f in dataclasses.fields(config.RunConfig)}
    assert not fields & {"samples_per_rotation", "sample_rate_hz"}
    cfg = config.resolve_config(config.load_config_tree(None))
    assert cfg.scene_spec() is cfg.scene


def test_resolve_builds_the_trajectory_once(monkeypatch):
    calls = []
    build = target.Trajectory.from_waypoints
    monkeypatch.setattr(
        target.Trajectory, "from_waypoints", lambda waypoints: calls.append(1) or build(waypoints)
    )
    cfg = config.resolve_config(config.load_config_tree(None))
    assert len(calls) == 1
    assert cfg.scene.trajectory.positions_m.tolist() == [
        xy for _, *xy in config.DEFAULT_CONFIG["scene"]["waypoints"]
    ]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    [example] = re.findall(r"```python\n(.*?)```", library.split("\n## ", 1)[0], re.DOTALL)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


SURVEY_HEADER = "label,n_links,dim_a_m,dim_b_m,d_s_m,measured_median_db,material\n"


@pytest.mark.parametrize(
    "row",
    [
        "room,1,3,3,1.5,-66.7,gamma:2",
        "room,1,3,3,1.5,-66.7,dielectric:0.5",
        "room,1,3,3,1.5,-66.7,wood",
        "room,1,3,3,near,-66.7,metal",
        "room,x,3,3,1.5,-66.7,metal",
        "room,1,3,3,1.5,,metal",
        "room,1,3,3,1.5,-66.7,metal,9",
        # rows whose p0 at the run's carrier is out of range
        "room,1,3,3,1.5,-66.7,gamma:1e-320",
        "room,1,3,3,1e160,-66.7,metal",
        "room,1,3,3,1e160,-66.7,bestfit",
        "room,1,3,3,1e-160,-66.7,metal",
    ],
    ids=[
        "gamma-above-1", "eps-below-1", "unknown-tag", "text-d_s", "text-n_links", "empty-field",
        "extra-field", "p0-subnormal", "p0-underflows", "p0-underflows-bestfit", "p0-overflows",
    ],
)
def test_bad_survey_row_exits_2_naming_file_and_line(tmp_path, row):
    survey = tmp_path / "survey.csv"
    survey.write_text("# comment\n" + SURVEY_HEADER + "ok,1,3,3,1.5,-66.7,metal\n" + row + "\n")
    out = tmp_path / "o"
    rc, err = _run(["predict", "--survey", str(survey), "--out", str(out)])
    assert rc == 2 and f"{survey}:4:" in err
    assert not out.exists()


@pytest.mark.parametrize("material", ["gamma:0", "dielectric:1"])
def test_zero_reflectivity_survey_row_exits_2(tmp_path, material):
    survey = tmp_path / "survey.csv"
    survey.write_text(SURVEY_HEADER + f"ok,1,3,3,1.5,-66.7,metal\nroom,1,3,3,1.5,-66.7,{material}\n")
    out = tmp_path / "o"
    rc, err = _run(["predict", "--survey", str(survey), "--out", str(out)])
    assert rc == 2 and f"{survey}:3:" in err and "zero reflectivity" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option", [("synth-azimuth", "--config"), ("predict", "--survey")]
)
def test_input_path_that_is_a_directory_exits_2_naming_it(tmp_path, command, option):
    out = tmp_path / "o"
    rc, err = _run([command, option, str(tmp_path), "--out", str(out)])
    assert rc == 2 and f"{tmp_path}:" in err
    assert not out.exists()


def test_non_utf8_config_exits_2_naming_it(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_bytes(b'{"room": {"material": "\xff"}}')
    rc, err = _run(["synth-azimuth", "--config", str(cfg), "--out", str(out)])
    assert rc == 2 and f"{cfg}:" in err and "utf-8" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "row", ["90", "90,-3,7", "90,loud"], ids=["one-field", "three-fields", "text"]
)
def test_bad_pattern_row_exits_2_naming_file_and_line(tmp_path, row):
    pattern, cfg, out = tmp_path / "pattern.csv", tmp_path / "cfg.json", tmp_path / "o"
    pattern.write_text("# comment\nazimuth_deg,gain_db\n0,0\n" + row + "\n180,-6\n")
    cfg.write_text(json.dumps({"antennas": {"rx": {"kind": "csv", "path": str(pattern)}}}))
    rc, err = _run(["synth-azimuth", "--config", str(cfg), "--out", str(out)])
    assert rc == 2 and "antennas.rx.path" in err and f"{pattern}:4:" in err
    assert not out.exists()


# (leaf, values whose derived linear value leaves the positive finite doubles,
# values just inside that range): the power 10^(mu/10) of a dB spread's
# unit-mean offset, sigma0 of the target RCS, the carrier wavelength.  Above
# about 1.07e152 GHz the default room's p0 is below the normal doubles and
# below about 1.2e-156 GHz it overflows, which names ``room``; below about
# 1.7e-154 GHz the target's echo on the default walk overflows, which names
# ``scene`` (test_every_subcommand_checks_the_whole_tree)
LINEAR_BOUNDARIES = [
    ("clutter.sigma_db", [167.7, 300, 1e6], [167.6, 7.0]),
    ("clutter.sigma_v_db", [167.7, 1e200], [167.6, 4.0]),
    ("scene.target.rcs_dbsm", [3082.6, 4000, -3236.1], [3082.5, -3236.0, -8.0]),
    ("carrier.frequency_ghz", [1.8e299, 1e300, 1e-310], [1e150, 1e-150, 28.0]),
]


@pytest.mark.parametrize("key, rejected, accepted", LINEAR_BOUNDARIES)
def test_derived_linear_value_must_be_a_positive_finite_double(tmp_path, key, rejected, accepted):
    command = "scene" if key.startswith("scene.") else "synth-azimuth"
    for value in rejected:
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(_fragment(key, value)))
        rc, err = _run([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2, err
        assert f"config {key}:" in err and "positive finite double" in err
        assert not out.exists()
    for value in accepted:
        config.resolve_config(config.load_config_tree(None, _fragment(key, value)))


def test_beam_of_one_grid_bin_is_valid_and_finite(tmp_path):
    out = tmp_path / "out"
    rc, err = _run(["synth-azimuth", "--hpbw-deg", "0.2", "--out", str(out)])
    assert rc == 0, err
    lines = (out / "azimuth_spectra.csv").read_text().splitlines()[2:]
    assert len(lines) == 148
    assert all(math.isfinite(float(line.split(",")[2])) for line in lines)


@pytest.mark.parametrize(
    "rows", ["0,4000\n180,0\n", "0,3080\n180,3080\n"], ids=["4000-dB-row", "3080-dB-total"]
)
def test_pattern_whose_power_overflows_exits_2(tmp_path, rows):
    # pytest turns a RuntimeWarning into an error, so a warning here exits 3
    pattern, cfg, out = tmp_path / "pattern.csv", tmp_path / "cfg.json", tmp_path / "o"
    pattern.write_text("azimuth_deg,gain_db\n" + rows)
    cfg.write_text(json.dumps({"antennas": {"rx": {"kind": "csv", "path": str(pattern)}}}))
    rc, err = _run(["synth-azimuth", "--config", str(cfg), "--out", str(out)])
    assert rc == 2 and "config antennas.rx.path:" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "scene", [None, {"duration_s": 1.0, "regenerate_clutter_per_rotation": True}]
)
def test_benchmark_setup_probe_resolves_a_config(tmp_path, scene):
    # the benchmark's setup_s probe resolves a config and builds its scene
    # spec in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-B", "perfbench/setup_probe.py"]
    if scene is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": scene}))
        argv.append(str(cfg))
    run = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
