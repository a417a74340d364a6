"""Self-test of the benchmark's own checks and declarations.

Usage (from the repository root): python3 perfbench/selftest.py

1. Runs one request of every CLI workload variant and requires its output
   check to pass.
2. Corrupts copies of those outputs in several ways and requires the check
   to fire on each.
3. Requires BENCHMARK.json to declare exactly the metrics run.py reports.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import checks
import run
import tracer
import workloads


def _corrupt_last_row(out, name, column, value):
    path = out / name
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[column] = value
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_row(out, name):
    path = out / name
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def _set_map_value(out, stem, index, value):
    path = out / f"{stem}.f32"
    data = np.fromfile(path, dtype="<f4")
    data[index] = value
    data.tofile(path)


CORRUPTIONS = {
    "synth-azimuth": {
        "nan": checks.inject_nan,
        "-inf power": lambda o: _corrupt_last_row(o, "azimuth_spectra.csv", 2, "-inf"),
        "missing row": lambda o: _drop_last_row(o, "azimuth_spectra.csv"),
        "wrong pointing": lambda o: _corrupt_last_row(o, "azimuth_spectra.csv", 1, "1.5"),
    },
    "synth-delay": {
        "nan": checks.inject_nan,
        "power before onset": lambda o: _set_map_value(o, "delay_azimuth_map", 0, -80.0),
        "-inf after onset": lambda o: _set_map_value(o, "delay_azimuth_map", -1, -np.inf),
        "missing profile row": lambda o: _drop_last_row(o, "delay_profile.csv"),
    },
    "scene": {
        "nan": checks.inject_nan,
        "nan in map": lambda o: _set_map_value(o, "scene_map", 0, np.nan),
        "missing row": lambda o: _drop_last_row(o, "scene_timeseries.csv"),
    },
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from rfclutter import cli

    failures = []
    workdir = run.ROOT / "perfbench" / ".work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for wl in workloads.CLI_WORKLOADS.values():
        stream = wl.requests(0, workdir)
        done = set()
        for _ in range(wl.cycle):
            req = next(stream)
            if req.variant.label in done:
                continue
            done.add(req.variant.label)
            _, problems, _ = run.call(cli, req)
            if problems:
                failures.append(f"{wl.name}/{req.variant.label}: clean output failed {problems}")
                continue
            for what, corrupt in CORRUPTIONS[wl.command].items():
                copy = workdir / "corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(req.out, copy)
                corrupt(copy)
                if not req.variant.check(copy)[0]:
                    failures.append(f"{wl.name}/{req.variant.label}: missed {what}")

    if checks.check_pooled_power([checks.P0]):
        failures.append("pooled power: p0 itself is out of band")
    for factor in (10.0, 0.1):
        if not checks.check_pooled_power([checks.P0 * factor]):
            failures.append(f"pooled power: missed p0 x {factor}")

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        failures.append(f"end_to_end in BENCHMARK.json differs from run.py: {declared}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != tracer.metric_units():
        failures.append("per_layer in BENCHMARK.json differs from tracer.metric_units()")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        failures.append("workloads in BENCHMARK.json differ from workloads.py")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
