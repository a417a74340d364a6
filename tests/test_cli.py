import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st

import rfclutter
from rfclutter import antennas, cli, clutter, config, pool, validation


def run(args):
    return cli.main(args)


# SHA-256 of every file each command writes, but run_meta.json (which echoes
# package versions), recorded with these NumPy and SciPy versions: a change
# to any written byte shows here
PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
PINNED_DIGESTS = {
    "predict": {
        "predictions.csv": "83c37cea174adaeef8167f539201f5ad34e4a058c26345b5f2acda29e842da19",
    },
    "synth-azimuth --seed 42 --ensemble 4": {
        "azimuth_spectra.csv": "3926af664d7eeae38aaf1358d5a534775bf9d8ded9b176cf45a5e785943cf889",
    },
    "synth-azimuth --seed 42 --ensemble 20": {
        "azimuth_spectra.csv": "88c3da15d94d29012905ba8ba2b0a93a3c6fff1fe4a66dd33eaa64efd0da8729",
    },
    # 300 draws on the 1800-bin grid are 16 blocks of 18 streams and one of
    # 12, each block spun by one 148-pointing off-grid product
    "synth-azimuth --seed 42 --ensemble 300": {
        "azimuth_spectra.csv": "483405693df9283d90a8fe47e00cb18d26e5b6a5413e8f7b26bc78b27cc15ce4",
    },
    "synth-delay --seed 5": {
        "delay_azimuth_map.f32": "49c0eab2ac4c49d807d3ef79a42bc3d0d6200ce4492641c33464b9dd81e81055",
        "delay_azimuth_map.json": "2fdb2835b360d71c38fb8bc16e2f5fca8fa5db9e814da8a377ccde8fe96b2bd7",
        "delay_profile.csv": "3323a6a5f556a2ff80def60d45a1f086375c1c9d07a6dea4ef7e665c238fc574",
    },
    "synth-azimuth --seed 42 --ensemble 2 --config p360": {
        "azimuth_spectra.csv": "502570d08a2c7cc5815a79f6e49313d7b5f2c43084eb64f49ac1a46414d0fa1c",
    },
    "synth-azimuth --seed 42 --ensemble 2 --material dielectric:3": {
        "azimuth_spectra.csv": "374a5f08f08288ca164c76627c647fbab449858b624c52e635e3a60b563f29c2",
    },
    "synth-azimuth --seed 42 --ensemble 2 --material gamma:0.25 --room-w 8 --room-l 5": {
        "azimuth_spectra.csv": "2109b0c7db75ed06b4f1b03f402389cd185b8548622bdf1dc21dfea5b4991379",
    },
    "synth-azimuth --seed 42 --ensemble 2 --config eps45": {
        "azimuth_spectra.csv": "7d9b82b226ff6aaebe7fe643802f3ce07f496588f9b646b543116fc9f19e65c2",
    },
    "scene --seed 42": {
        "scene_map.f32": "fc27970d5fd604776d86817e9917248ed680dec44c907da738461debbdc96523",
        "scene_map.json": "b49b872a78dd8db1a658cb745abe7e7cb3d51da082694d5176885b9836e0861a",
        "scene_timeseries.csv": "768fab45347c437d61609a834f50853d10301a707ce0e5acce9e419788e2666d",
    },
    "scene --seed 42 --config regen": {
        "scene_map.f32": "7179b6fd353d4bd58028cc23f4e8ca01b9f1f7fcadc2c7634f03c0a0bf57f544",
        "scene_map.json": "b49b872a78dd8db1a658cb745abe7e7cb3d51da082694d5176885b9836e0861a",
        "scene_timeseries.csv": "6174587c11149bb1542f02150ab6fc8d9de663de15fa727ba77d87b7e60a7306",
    },
    "synth-azimuth --seed 42 --material gamma:0": {
        "azimuth_spectra.csv": "2f6d7fe5775c81bced84dba329b2cbef7749eb2e62563e76f4ebdf247d9ac74c",
    },
    "scene --seed 42 --config constant": {
        "scene_map.f32": "937675419f087c3e4f94ec40ff93b24d743a3256be7b7b18a097ddeb38225d1d",
        "scene_map.json": "b49b872a78dd8db1a658cb745abe7e7cb3d51da082694d5176885b9836e0861a",
        "scene_timeseries.csv": "8fc5c63a8000c9c146e3fbd0a72dcfec8ff9b946deba42d463cf82807608fa14",
    },
    "scene --seed 42 --config ongrid": {
        "scene_map.f32": "9b2b5d2727e94b0b4876ec3f12ac5b45e22fd2b3a20766a34dcec664ef890d7c",
        "scene_map.json": "5a2bf00ec2b6dc66aed2151be2ba499d047d0be547491a298e66bb4627ff186b",
        "scene_timeseries.csv": "cc0d3db386115cd3a92c3056d3b59ed880feff31f180ff6fe15890831b21b65b",
    },
    # the 1 degree grid: 300 draws are 3 blocks of 91 streams and one of 27
    "synth-azimuth --seed 42 --ensemble 300 --config deg1": {
        "azimuth_spectra.csv": "dc38d09dae5236e8d59a53671db82bb4432bc0ce66c55da285b33c4191d79d7c",
    },
    "scene --seed 42 --config tail": {
        "scene_map.f32": "50107d77adf7801d876ecf7e9b3d0d5b3f0945fb669337496b106a30b1c1a866",
        "scene_map.json": "a08bf3bd4079fdb4a92b66d369580a79c0f3ac2a19aec9d26f685ba81776c874",
        "scene_timeseries.csv": "92c1120fdfa803efd5a6f8699b4219a8a6009338a492ccf3af6441162a40ee6a",
    },
}
# the config trees a pinned command names after --config: 360 pointings put
# the spin on the 0.2 degree grid, regen redraws the clutter every rotation,
# the constant model draws no fluctuation, and eps45 is the object form of a
# dielectric material; gamma:0 reflects nothing, so every power_db is -inf.
# ongrid samples 360 grid-center pointings per rotation over five rotations;
# tail redraws the clutter every rotation and ends on a tenth of one; deg1
# draws on the 360-bin grid
PINNED_CONFIGS = {
    "p360": {"spin": {"pointings_per_rotation": 360}},
    "regen": {"scene": {"regenerate_clutter_per_rotation": True}},
    "constant": {"scene": {"target": {"model": "constant"}}},
    "eps45": {"room": {"material": {"eps_r": 4.5}}},
    "ongrid": {
        "spin": {"sample_rate_hz": 1800, "pointings_per_rotation": 360},
        "scene": {"duration_s": 1.0},
    },
    "tail": {"scene": {"duration_s": 1.1, "regenerate_clutter_per_rotation": True}},
    "deg1": {"grid": {"delta_phi_deg": 1.0}},
}


@pytest.mark.parametrize("command", list(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, command):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != PINNED_VERSIONS:
        pytest.skip(f"digests pinned with {PINNED_VERSIONS}, running {versions}")
    out = tmp_path / "out"
    argv = command.split()
    if "--config" in argv:  # a name in PINNED_CONFIGS, written to a file
        i = argv.index("--config") + 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(PINNED_CONFIGS[argv[i]]))
        argv[i] = str(cfg)
    assert run(argv + ["--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "run_meta.json"
    }
    assert digests == PINNED_DIGESTS[command]


def test_predict_writes_report(tmp_path):
    out = tmp_path / "p"
    assert run(["predict", "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0].startswith("# units:")
    assert lines[1] == "label,d_s_m,gamma_sq,p0_db,measured_db,error_db"
    assert len(lines) == 2 + 14
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "predict"
    assert "versions" in meta and "config" in meta


def test_synth_azimuth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["synth-azimuth", "--seed", "42", "--out", str(out)]) == 0
    assert (a / "azimuth_spectra.csv").read_bytes() == (b / "azimuth_spectra.csv").read_bytes()
    assert (a / "run_meta.json").read_bytes() == (b / "run_meta.json").read_bytes()


def test_synth_azimuth_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["synth-azimuth", "--seed", "1", "--out", str(a)]) == 0
    assert run(["synth-azimuth", "--seed", "2", "--out", str(b)]) == 0
    assert (a / "azimuth_spectra.csv").read_bytes() != (b / "azimuth_spectra.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--seed", "7"],
        ["synth-azimuth", "--seed", "7", "--ensemble", "2"],
        ["synth-delay", "--seed", "7", "--t-rev-ns", "5"],
        ["scene", "--seed", "7", "--duration", "1.0"],
    ],
    ids=lambda argv: argv[0],
)
def test_metadata_round_trip(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert run([argv[0], "--config", str(a / "run_meta.json"), "--out", str(b)]) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    assert "run_meta.json" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_delay_outputs_sidecar(tmp_path):
    out = tmp_path / "d"
    assert run(["synth-delay", "--seed", "5", "--out", str(out)]) == 0
    sidecar = json.loads((out / "delay_azimuth_map.json").read_text())
    data = np.fromfile(out / "delay_azimuth_map.f32", dtype=np.float32)
    assert data.size == sidecar["shape"][0] * sidecar["shape"][1]
    assert sidecar["axes"]["delay_ns"][0] == 0.0
    assert len(sidecar["axes"]["pointing_deg"]) == sidecar["shape"][1]
    assert (out / "delay_profile.csv").exists()


@pytest.mark.parametrize("block", [1, 3, 10, 16])
def test_csv_blocks_write_what_one_format_writes(monkeypatch, block):
    labels = [f"r{i}" for i in range(10)]
    values = np.random.default_rng(3).standard_normal(10) * 1e3
    whole = ("%d,%s,%.9g\n" * 10) % tuple(
        x for row in zip(range(10), labels, values.tolist()) for x in row
    )
    monkeypatch.setattr(cli, "_CSV_ROWS", block)
    text = cli._csv("i,label,x", "%d,%s,%.9g", np.arange(10), labels, values).decode()
    assert text == cli.UNITS_COMMENT + "i,label,x\n" + whole


def test_synth_delay_probes_below_half_a_gigahertz(tmp_path):
    # a 4 ns pulse is 41 taps on the default 0.1 ns delay bins
    out = tmp_path / "d"
    assert run(["synth-delay", "--seed", "5", "--bandwidth-ghz", "0.25", "--out", str(out)]) == 0
    dgrid = config.resolve_config(config.load_config_tree(None)).delay_grid
    sidecar = json.loads((out / "delay_azimuth_map.json").read_text())
    assert sidecar["shape"] == [dgrid.n_bins + 40, 148]
    data = np.fromfile(out / "delay_azimuth_map.f32", dtype=np.float32)
    data = data.reshape(sidecar["shape"])
    assert np.all(data[: dgrid.onset_bin] == -np.inf)
    assert np.all(np.isfinite(data[dgrid.onset_bin :]))


def test_scene_outputs(tmp_path):
    out = tmp_path / "s"
    assert run(["scene", "--seed", "5", "--duration", "1.0", "--out", str(out)]) == 0
    lines = (out / "scene_timeseries.csv").read_text().splitlines()
    assert lines[1] == "time_s,pointing_deg,power_db"
    assert len(lines) == 2 + 740
    sidecar = json.loads((out / "scene_map.json").read_text())
    assert sidecar["shape"] == [5, 148]


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"room": {"width_m": 20.0, "length_m": 6.0}, "seed": 9}))
    out = tmp_path / "o"
    assert run(["predict", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["room"]["width_m"] == 20.0
    assert meta["seed"] == 9


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"room": {"width_meters": 3.0}}))
    out = tmp_path / "o"
    assert run(["synth-azimuth", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()  # no partial outputs on failure


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
def test_unusable_out_exits_2_naming_it(tmp_path, capsys, monkeypatch, under):
    def compute(*args, **kwargs):  # --out is checked before computing
        raise AssertionError("computed for an unusable --out")

    monkeypatch.setitem(cli._SUBCOMMANDS, "predict", (compute, *cli._SUBCOMMANDS["predict"][1:]))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert run(["predict", "--out", str(out)]) == 2
    assert f"--out {out}:" in capsys.readouterr().err
    assert blocker.read_text() == "" and list(tmp_path.iterdir()) == [blocker]


def test_out_that_fails_at_write_time_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "predictions.csv").mkdir()  # a usable --out, but no file can replace this
    assert run(["predict", "--out", str(tmp_path)]) == 2
    assert f"--out {tmp_path}:" in capsys.readouterr().err


def test_fresnel_evaluations_do_not_grow_with_draws(tmp_path, monkeypatch):
    from rfclutter import core

    calls = []
    fresnel = core.fresnel_average_reflectivity
    monkeypatch.setattr(
        core, "fresnel_average_reflectivity", lambda eps_r: calls.append(eps_r) or fresnel(eps_r)
    )
    regen = tmp_path / "regen.json"
    regen.write_text(json.dumps({"scene": {"regenerate_clutter_per_rotation": True}}))
    counts = []
    for argv in (
        ["synth-azimuth", "--ensemble", "1"],
        ["synth-azimuth", "--ensemble", "8"],
        ["scene", "--duration", "1", "--config", str(regen)],  # 5 rotations, 5 draws
    ):
        calls.clear()
        assert run(argv + ["--material", "dielectric:3", "--out", str(tmp_path / "o")]) == 0
        counts.append(len(calls))
    # resolve_config builds the room's reflectivity once per run
    assert counts == [1, 1, 1]


def test_predict_parses_each_survey_material_once(tmp_path, monkeypatch):
    from rfclutter import stats

    calls = []
    parse = stats.material_reflectivity
    monkeypatch.setattr(
        stats, "material_reflectivity", lambda tag: calls.append(tag) or parse(tag)
    )
    survey = tmp_path / "survey.csv"
    survey.write_text(
        "label,n_links,dim_a_m,dim_b_m,d_s_m,measured_median_db,material\n"
        "a,1,3,3,1.5,-70.0,dielectric:3\nb,1,6,4,2.0,-72.0,dielectric:4.5\n"
        "c,1,5,5,2.5,-71.0,bestfit\n"
    )
    assert run(["predict", "--survey", str(survey), "--out", str(tmp_path / "o")]) == 0
    assert calls == ["dielectric:3", "dielectric:4.5"]


def test_malformed_json_reports_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "room": {,}\n}')
    assert run(["synth-azimuth", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "cfg.json:2" in err


def test_invalid_config_value_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"room": {"width_m": -1.0}}))
    assert run(["synth-azimuth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_material_override(tmp_path):
    out = tmp_path / "m"
    assert run([
        "synth-azimuth", "--seed", "3", "--material", "gamma:0.25", "--out", str(out),
    ]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["room"]["material"] == "gamma:0.25"


def test_validate_subset(tmp_path):
    out = tmp_path / "v"
    rc = run([
        "validate", "--seed", "11",
        "--checks", "fresnel_average,survey_prediction_rms", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "validation_report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["fresnel_average", "survey_prediction_rms"]
    assert all(c["passed"] for c in report["checks"])
    assert "runtime_s" not in report["checks"][0]
    runtimes = json.loads((out / "validation_runtimes.json").read_text())
    assert set(runtimes) == set(names)


def test_validate_unknown_check(tmp_path):
    rc = run(["validate", "--checks", "nope", "--out", str(tmp_path / "v")])
    assert rc == 2


@pytest.mark.parametrize("checks", [",", ""])
def test_validate_checks_naming_nothing_exits_2(tmp_path, capsys, checks):
    out = tmp_path / "v"
    assert run(["validate", "--checks", checks, "--out", str(out)]) == 2
    assert "no check named" in capsys.readouterr().err
    assert not out.exists()


def test_validate_reports_failure_with_exit_one(tmp_path, monkeypatch):
    from rfclutter import validation

    monkeypatch.setitem(
        validation.CHECKS, "fresnel_average",
        lambda seed: (False, 0.0, "forced failure", {}),
    )
    out = tmp_path / "v"
    rc = run(["validate", "--checks", "fresnel_average", "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is False


def test_pointings_per_rotation_must_be_positive_integer(tmp_path, capsys):
    for value in (0, 10.9):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spin": {"pointings_per_rotation": value}}))
        out = tmp_path / "o"
        assert run(["synth-azimuth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "spin.pointings_per_rotation" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_config_number_is_rejected(tmp_path, capsys):
    for value in (float("nan"), float("inf"), -float("inf")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"room": {"width_m": value}}))
        out = tmp_path / "o"
        assert run(["synth-azimuth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "room.width_m" in capsys.readouterr().err
        assert not out.exists()


def _spectra_db(out):
    rows = (out / "azimuth_spectra.csv").read_text().splitlines()[2:]
    return np.array([float(r.split(",")[2]) for r in rows])


def _fresh_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_repeated_runs_reuse_the_rx_pattern_and_spin_operator(tmp_path, monkeypatch):
    builds = []
    build = clutter._build_spin_operator
    monkeypatch.setattr(clutter, "_build_spin_operator", lambda *a: builds.append(a) or build(*a))
    clutter.clear_spin_operators()
    horns = antennas.gaussian_horn.cache_info().misses
    argv = ["synth-azimuth", "--hpbw-deg", "13.7", "--out", str(tmp_path / "o")]
    for _ in range(3):
        assert run(argv) == 0
    assert (antennas.gaussian_horn.cache_info().misses - horns, len(builds)) == (1, 1)
    argv[2] = "14.2"
    assert run(argv) == 0
    assert (antennas.gaussian_horn.cache_info().misses - horns, len(builds)) == (2, 2)


def test_rewritten_csv_pattern_is_read_again(tmp_path):
    pattern, cfg = tmp_path / "pattern.csv", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"antennas": {"rx": {"kind": "csv", "path": str(pattern)}}}))
    argv = ["synth-azimuth", "--config", str(cfg), "--out"]
    az = np.arange(0.0, 360.0, 5.0)
    outs = []
    for width_deg in (10.0, 30.0):
        gain_db = -3.0 * (np.minimum(az, 360.0 - az) / width_deg) ** 2
        pattern.write_text(
            "azimuth_deg,gain_db\n" + "".join(f"{a},{g}\n" for a, g in zip(az, gain_db))
        )
        outs.append(tmp_path / f"warm{width_deg:g}")
        assert run(argv + [str(outs[-1])]) == 0
    fresh = tmp_path / "fresh"
    subprocess.run(
        [sys.executable, "-m", "rfclutter.cli", *argv, str(fresh)],
        env=_fresh_env(), capture_output=True, check=True,
    )
    spectra = [(out / "azimuth_spectra.csv").read_bytes() for out in (*outs, fresh)]
    assert spectra[0] != spectra[1] == spectra[2]
    assert (outs[1] / "run_meta.json").read_bytes() == (fresh / "run_meta.json").read_bytes()


def test_settle_heap_drops_the_spin_operators(tmp_path):
    assert run(["synth-azimuth", "--out", str(tmp_path / "o")]) == 0
    assert clutter._SPIN_OPERATORS
    validation._settle_heap()
    assert not clutter._SPIN_OPERATORS


def test_the_shared_parser_keeps_nothing_from_earlier_runs(tmp_path):
    out = tmp_path / "o"
    assert run(["synth-azimuth", "--ensemble", "3", "--out", str(out)]) == 0
    assert run(["synth-azimuth", "--out", str(out)]) == 0
    rows = (out / "azimuth_spectra.csv").read_text().splitlines()[2:]
    assert {row.split(",")[0] for row in rows} == {"0"}
    with pytest.raises(SystemExit) as exc:
        run(["synth-azimuth", "--ensemble", "three", "--out", str(out)])
    assert exc.value.code == 2
    assert run(["synth-azimuth", "--seed", "3", "--out", str(out)]) == 0


def test_config_file_selects_pattern_kinds(tmp_path):
    # a pattern node naming another kind than the default replaces it whole
    pattern = tmp_path / "pattern.csv"
    az = np.arange(0.0, 360.0, 5.0)
    gain_db = -0.02 * ((az + 180.0) % 360.0 - 180.0) ** 2
    pattern.write_text(
        "azimuth_deg,gain_db\n" + "".join(f"{a},{g}\n" for a, g in zip(az, gain_db))
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"antennas": {
        "rx": {"kind": "csv", "path": str(pattern)},
        "tx": {"kind": "gaussian", "hpbw_deg": 60},
    }}))
    out = tmp_path / "o"
    assert run(["synth-azimuth", "--config", str(cfg), "--out", str(out)]) == 0
    assert np.all(np.isfinite(_spectra_db(out)))
    antennas = json.loads((out / "run_meta.json").read_text())["config"]["antennas"]
    assert antennas["rx"] == {"kind": "csv", "path": str(pattern)}
    assert antennas["tx"] == {"kind": "gaussian", "hpbw_deg": 60}


def test_pattern_node_without_kind_merges(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"antennas": {"rx": {"hpbw_deg": 20}}}))
    out = tmp_path / "o"
    assert run(["synth-azimuth", "--config", str(cfg), "--out", str(out)]) == 0
    assert np.all(np.isfinite(_spectra_db(out)))
    rx = json.loads((out / "run_meta.json").read_text())["config"]["antennas"]["rx"]
    assert rx == {"kind": "gaussian", "hpbw_deg": 20}


def test_unknown_key_in_pattern_node_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"antennas": {"rx": {"kind": "csv", "path": "p.csv", "gain_db": 3}}}
    ))
    out = tmp_path / "o"
    assert run(["synth-azimuth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "antennas.rx" in err and "gain_db" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "tree, key",
    [
        ({"scene": {"target": {"rcs_dbsm": float("nan")}}}, "scene.target.rcs_dbsm"),
        ({"scene": {"duration_s": "x"}}, "scene.duration_s"),
        ({"scene": {"regenerate_clutter_per_rotation": "no"}},
         "scene.regenerate_clutter_per_rotation"),
        ({"scene": {"target": {"model": "foo"}}}, "scene.target"),
        ({"scene": {"waypoints": [[0.0, 0.0, 0.0], [4.0, 1.4, -0.6]]}}, "scene.waypoints"),
        ({"scene": {"waypoints": [[0.0, float("nan"), 0.0], [4.0, 1.4, -0.6]]}},
         "scene.waypoints"),
        ({"scene": {"duration_s": 0.001}}, "config scene: "),
        ({"room": {"material": "dielectric:nan"}}, "room.material"),
        ({"room": {"material": {"eps_r": float("nan")}}}, "room.material"),
    ],
    ids=[
        "nan-rcs", "string-duration", "string-regenerate", "unknown-model",
        "waypoint-at-origin", "nan-waypoint", "one-sample", "nan-dielectric-tag", "nan-eps-r",
    ],
)
def test_bad_scene_config_exits_2_naming_key(tmp_path, capsys, tree, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    out = tmp_path / "o"
    assert run(["scene", "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("coherence_time_s", [1e20, 1e300])
def test_unindexable_fluctuation_series_exits_2_naming_scene(tmp_path, coherence_time_s):
    # the series pads the scene's 2960 samples by 4 ceil(6 w) for a kernel
    # w = 5.2e22 or 5.2e302 samples wide: more than a NumPy array can index.
    # Run in a child limited to 2 GB of address space, timed inside it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"target": {"coherence_time_s": coherence_time_s}}}))
    out = tmp_path / "o"
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))\n"
        "from rfclutter import cli\n"
        "start = time.perf_counter()\n"
        "rc = cli.main(['scene', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(rc, time.perf_counter() - start)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(out)],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    rc, elapsed_s = child.stdout.split()
    assert rc == "2" and float(elapsed_s) < 1.0
    assert "config scene: " in child.stderr and "coherence time" in child.stderr
    assert not out.exists()


@pytest.mark.parametrize("regenerate", [False, True], ids=["static", "regenerated"])
@pytest.mark.parametrize("spr", [10**16, 10**17, 10**300], ids=["1e+16", "1e+17", "1e+300"])
def test_rotation_longer_than_int64_writes_no_scene_map(tmp_path, capsys, spr, regenerate):
    # a rotation of 1e16 samples (inside int64), 1e17 or 1e300 (past it):
    # the 2960-sample scene is shorter than a rotation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spin": {"pointings_per_rotation": spr},
        "scene": {"regenerate_clutter_per_rotation": regenerate},
    }))
    out = tmp_path / "o"
    assert run(["scene", "--config", str(cfg), "--out", str(out)]) == 0
    message = f"no scene_map: shorter than a rotation ({spr:.6g} samples)\n"
    assert message in capsys.readouterr().out
    assert sorted(path.name for path in out.iterdir()) == ["run_meta.json", "scene_timeseries.csv"]


def test_scene_spins_the_pointings_of_synth_azimuth(tmp_path):
    # a rotation is spin.pointings_per_rotation samples in a scene and
    # pointings in synth-*: 740 scene samples are two rotations of 360
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spin": {"pointings_per_rotation": 360}}))
    argv = ["--config", str(cfg), "--out"]
    assert run(["scene", "--duration", "1.0", *argv, str(tmp_path / "s")]) == 0
    assert run(["synth-azimuth", *argv, str(tmp_path / "a")]) == 0
    sidecar = json.loads((tmp_path / "s" / "scene_map.json").read_text())
    assert sidecar["shape"] == [2, 360]
    spectra = np.loadtxt(tmp_path / "a" / "azimuth_spectra.csv", delimiter=",", skiprows=2)
    assert sidecar["axes"]["pointing_deg"] == spectra[:, 1].tolist()  # at 9 digits


def test_integer_leaf_beyond_float_range_exits_2_in_bounded_memory(tmp_path):
    # 10**400 pointings or draws: each run stops at resolve time, naming its
    # key, in a child limited to 2 GB of address space
    trees = {
        "spin.pointings_per_rotation": {"spin": {"pointings_per_rotation": 10**400}},
        "ensemble": {"ensemble": 10**400},
    }
    for key, tree in trees.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(tree))
    runs = [
        ("synth-azimuth", "spin.pointings_per_rotation"),
        ("synth-delay", "spin.pointings_per_rotation"),
        ("scene", "spin.pointings_per_rotation"),
        ("synth-azimuth", "ensemble"),
    ]
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))\n"
        "from rfclutter import cli\n"
        "for i, run in enumerate(sys.argv[2:]):\n"
        "    command, key = run.split(':')\n"
        "    cfg, out = f'{sys.argv[1]}/{key}.json', f'{sys.argv[1]}/out{i}'\n"
        "    print(cli.main([command, '--config', cfg, '--out', out]), file=sys.stderr)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *(f"{c}:{k}" for c, k in runs)],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    lines = child.stderr.splitlines()
    assert len(lines) == 2 * len(runs), child.stderr
    for (_, key), message, rc in zip(runs, lines[::2], lines[1::2]):
        assert rc == "2"
        assert message == (
            f"config error: config {key}: expected a positive integer within float range, "
            "got 1.00000e+400"
        )
    assert not list(tmp_path.glob("out*"))


def test_run_meta_records_the_openblas_core(tmp_path, monkeypatch):
    cores = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run(["predict", "--out", str(out)]) == 0
        cores.append(json.loads((out / "run_meta.json").read_text())["versions"]["openblas_core"])
    assert cores[0] == cores[1] == pool.openblas_core()
    assert pool.openblas_core.cache_info().misses == 1  # read once per process
    if pool._openblas() is not None:  # NumPy's bundled OpenBLAS
        assert isinstance(cores[0], str) and cores[0]
    monkeypatch.setattr(pool, "_openblas", lambda: None)  # any other BLAS
    assert pool.openblas_core.__wrapped__() is None


def test_scene_draws_on_the_config_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"clutter": {"phi_rms_deg": 0.5}, "grid": {"delta_phi_deg": 1.0}}))
    for command in ("synth-azimuth", "scene"):
        out = tmp_path / command
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "correlation scale" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["synth-azimuth", "synth-delay", "scene"])
def test_coarse_grid_exits_2_naming_the_grid_key(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"clutter": {"phi_rms_deg": 0.5}, "grid": {"delta_phi_deg": 1.0}}))
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid.delta_phi_deg" in err and "correlation scale" in err
    assert not out.exists()


# modules that only ``validate`` may load: scipy.stats is about 1 s of import
_HEAVY_MODULES = ("scipy.stats", "scipy.fft", "rfclutter.validation")


@pytest.mark.parametrize(
    "statement",
    [
        "import rfclutter",
        "import rfclutter.cli",
        "from rfclutter import cli; assert cli.main(['scene', '--out', sys.argv[1]]) == 0",
    ],
    ids=["package", "cli", "scene"],
)
def test_commands_other_than_validate_load_no_heavy_module(tmp_path, statement):
    script = f"import sys\n{statement}\nprint(*[m for m in {_HEAVY_MODULES!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "o")],
        env=_fresh_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == ""


def test_package_imports_the_validation_names_on_first_use():
    from rfclutter import CheckResult, ValidationReport, run_checks

    assert (run_checks, CheckResult, ValidationReport) == (
        validation.run_checks, validation.CheckResult, validation.ValidationReport,
    )
    with pytest.raises(AttributeError, match="no_such_name"):
        rfclutter.no_such_name


# strings with the writer's own separators, quotes, escapes and non-ASCII
_JSON_STRINGS = st.lists(
    st.sampled_from(
        ["a", ", ", ": ", ",\n  ", '"', "\\", "\n", "é", "ü", "\u4e2d", "\U0001f600"]
    ),
    max_size=5,
).map("".join)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _JSON_STRINGS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_STRINGS, children, max_size=4),
    max_leaves=24,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_JSON_VALUES)
@example({"delay_ns": cli._axis(np.arange(4000) * 0.1), "shape": [4000, 148], "empty": {}})
@example({"config": config.load_config_tree(None), "nested": [[], [{}], [[1, 2], [3.5]]]})
def test_json_writes_what_indented_json_dumps_writes(obj):
    assert cli._json(obj) == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_axis_rounds_like_a_format_per_value():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    values = np.concatenate([values, [0.0, -0.0, np.inf, -np.inf, 5e-324, 0.1, 1e21]])
    expected = [float(f"{x:.9g}") for x in values]
    assert json.dumps(cli._axis(values)) == json.dumps(expected)
    singles = (rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)).astype(np.float32)
    assert cli._axis(singles) == [float(f"{x:.9g}") for x in singles]
