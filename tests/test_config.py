"""The config contract: every leaf of the schema rejects each class of bad
value that applies to it with exit 2, naming the leaf's dotted key, before
any output is written."""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from rfclutter import cli, config

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# Even without a database, hypothesis caches the constants of the collected
# modules (and unicode tables) in its home directory while pytest collects;
# keep that cache in a temporary directory, removed at exit.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

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
    "a finite number >= 10": st.one_of(_not_a_number(), NON_FINITE, _below(10, limit_valid=True)),
    "a finite number in (0, 180)": st.one_of(
        _not_a_number(), NON_FINITE, _below(0, limit_valid=False),
        st.floats(min_value=180, allow_nan=False, allow_infinity=False),
    ),
    "a positive integer": st.one_of(
        _not_a_number(), NON_FINITE, st.sampled_from([1.0, 2.5]), st.integers(max_value=0)
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
        ({"probe": {"oversample": 0.5}}, "probe.oversample"),
        ({"scene": {"duration_s": 100}}, "scene"),
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
    assert tree["probe"]["oversample"] == 20 and isinstance(tree["probe"]["oversample"], int)


def test_default_config_is_derived_from_the_schema():
    tree = config.load_config_tree(None)
    assert tree == config.DEFAULT_CONFIG
    assert tree["antennas"]["rx"] == {"kind": "gaussian", "hpbw_deg": 10.0}
    config.resolve_config(tree)


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
    ],
    ids=[
        "gamma-above-1", "eps-below-1", "unknown-tag", "text-d_s", "text-n_links", "empty-field",
        "extra-field",
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
# unit-mean offset, sigma0 of the target RCS, the carrier wavelength
LINEAR_BOUNDARIES = [
    ("clutter.sigma_db", [167.7, 300, 1e6], [167.6, 7.0]),
    ("clutter.sigma_v_db", [167.7, 1e200], [167.6, 4.0]),
    ("scene.target.rcs_dbsm", [3082.6, 4000, -3236.1], [3082.5, -3236.0, -8.0]),
    ("carrier.frequency_ghz", [1.8e299, 1e300, 1e-310], [1.7e299, 1e-308, 28.0]),
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
