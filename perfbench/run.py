"""rfclutter benchmark: one process, one client, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload azimuth-ensemble --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout the script sits in and
driven only through ``rfclutter.cli.main(argv)`` and
``rfclutter.validation.run_checks``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs each request of a fixed list
twice, untraced and traced in alternating order, and reports per-layer
metrics plus the tracing overhead.  The last line of standard output is the result object; the line
before it holds the run metadata.  Outputs, traces and results are written
under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = 1  # at most nproc; one thread is steadiest on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100  # p90 needs ten samples beyond it
MAX_LOOP_S = 120.0  # stop early rather than overrun the 180 s limit
SETUP_SPAWNS = 3
TRACE_CYCLES = {"azimuth-ensemble": 20, "delay-maps": 4, "scene": 12}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metadata(args, workdir: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "rfclutter").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workdir": workdir.relative_to(ROOT).as_posix(),
    }


def measure_setup(config: Path | None) -> float:
    """Median wall time of fresh interpreters running the set-up probe."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")]
    if config is not None:
        cmd.append(str(config))
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def call(cli, req) -> tuple[float, list, list]:
    """One request: (latency s, problems, per-spectrum mean powers)."""
    shutil.rmtree(req.out, ignore_errors=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(req.argv)
    except Exception as exc:  # noqa: BLE001 - a raising request is a failed request
        return time.perf_counter() - start, [f"raised {exc!r}"], []
    elapsed = time.perf_counter() - start
    if rc != 0:
        return elapsed, [f"exit {rc}: {sink.getvalue().strip()[-200:]}"], []
    problems, means = req.variant.check(req.out)
    return elapsed, problems, means


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def self_test(req, workdir: Path) -> list:
    """The output check must fire on a corrupted copy of a passing output."""
    corrupt = workdir / "corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(req.out, corrupt)
    checks.inject_nan(corrupt)
    problems, _ = req.variant.check(corrupt)
    return [] if problems else ["self-test: check passed a corrupted output"]


class Tally:
    """Attempted/failed requests and the problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def run_cli(wl, args, workdir: Path, cli) -> tuple[dict, Tally, dict]:
    stream = wl.requests(args.seed, workdir)
    tally = Tally()
    ref = next(stream)  # warm-up; repeated at the end and compared byte for byte
    _, problems, means = call(cli, ref)
    tally.add(problems)
    shutil.copytree(ref.out, workdir / "ref")
    run_problems = [] if problems else self_test(ref, workdir)

    latencies, items = [], []
    loop_start = time.perf_counter()
    while True:
        req = next(stream)
        elapsed, problems, req_means = call(cli, req)
        tally.add(problems)
        means.extend(req_means)
        latencies.append(elapsed)
        items.append(req.variant.items)
        n = len(latencies)
        spent = time.perf_counter() - loop_start
        if n % wl.cycle == 0 and (
            (spent >= args.seconds and n >= MIN_REQUESTS) or spent >= MAX_LOOP_S
        ):
            break

    _, problems, _ = call(cli, ref)
    tally.add(problems or checks.same_files(workdir / "ref", ref.out))
    if wl.command == "synth-azimuth":
        run_problems += checks.check_pooled_power(means)

    ms = [t * 1e3 for t in latencies]
    values = {
        "items_per_s": sum(items) / sum(latencies),
        "request_p50_ms": statistics.median(ms),
        "request_p90_ms": statistics.quantiles(ms, n=10)[8],
    }
    info = {
        "requests": len(latencies),
        "items": sum(items),
        "loop_s": time.perf_counter() - loop_start,
        "latencies_s": latencies,
    }
    tally.problems.extend(run_problems)
    return values, tally, info


def alternate(tr, i: int, fn):
    """Run ``fn`` once untraced and once traced, untraced first on even ``i``
    and traced first on odd ``i`` so warm caches and drift favour neither.
    Returns (untraced result, traced result)."""
    results = {}
    for traced in (False, True) if i % 2 == 0 else (True, False):
        if traced:
            tr.install()
            tr.begin_request()
        try:
            results[traced] = fn()
        finally:
            if traced:
                tr.end_request()
                tr.uninstall()
    return results[False], results[True]


def run_cli_traced(wl, args, workdir: Path, cli) -> tuple[dict, Tally, dict]:
    stream = wl.requests(args.seed, workdir)
    tally = Tally()
    tally.add(call(cli, next(stream))[1])  # warm-up
    tr = tracing.Tracer()
    untraced = traced = 0.0
    out_bytes = 0
    n = TRACE_CYCLES[wl.name] * wl.cycle
    for i in range(n):
        req = next(stream)
        plain, with_trace = alternate(tr, i, lambda: call(cli, req) + (output_bytes(req.out),))
        tally.add(plain[1])
        tally.add(with_trace[1])
        untraced += plain[0]
        traced += with_trace[0]
        out_bytes += with_trace[3]
    tr.write(workdir / "trace.json")
    values = tr.metrics(out_bytes, n, traced, traced / untraced - 1.0)
    return values, tally, {"requests": n, "untraced_s": untraced, "traced_s": traced}


def run_suite(validation, master_seed: int):
    """All checks in one run_checks() call: (report, per-check seconds, total)."""
    stamps = [time.perf_counter()]

    def log(_line):
        stamps.append(time.perf_counter())

    with contextlib.redirect_stdout(io.StringIO()):
        report = validation.run_checks(master_seed=master_seed, log=log)
    lat = [b - a for a, b in zip(stamps, stamps[1:])]
    return report, lat, stamps[-1] - stamps[0]


def judge_suite(report, tally: Tally) -> None:
    results = {r.name: r for r in report.results}
    for name in tracing.CHECK_NAMES:
        r = results.get(name)
        tally.add([] if r is not None and r.passed else [f"check {name} failed or missing"])


def run_acceptance(args, validation) -> tuple[dict, Tally, dict]:
    """Whole suites: another one starts only if it fits in --seconds, so a
    suite longer than the run (as when this benchmark was written) runs exactly once."""
    master = workloads.acceptance_master_seed(args.seed)
    tally = Tally()
    lat, suites = [], []
    loop_start = time.perf_counter()
    while True:
        report, suite_lat, total = run_suite(validation, master)
        judge_suite(report, tally)
        lat += suite_lat
        suites.append(total)
        if time.perf_counter() - loop_start + statistics.median(suites) > args.seconds:
            break
    # repeat one check and compare its report entry byte for byte
    name = workloads.ACCEPTANCE_REPEAT_CHECK
    with contextlib.redirect_stdout(io.StringIO()):
        again = validation.run_checks(names=[name], master_seed=master)
    first = [c for c in report.to_dict()["checks"] if c["name"] == name]
    same = json.dumps(first, sort_keys=True) == json.dumps(again.to_dict()["checks"], sort_keys=True)
    tally.add([] if same else [f"repeat: {name} report differs"])
    ms = [t * 1e3 for t in lat]
    values = {
        "items_per_s": len(lat) / sum(suites),
        "request_p50_ms": statistics.median(ms),
        "request_p90_ms": statistics.quantiles(ms, n=10)[8],
    }
    info = {
        "master_seed": master,
        "requests": len(lat),
        "items": len(lat),
        "suite_s": suites,
        "latencies_s": lat,
    }
    return values, tally, info


def run_acceptance_traced(args, validation, workdir: Path) -> tuple[dict, Tally, dict]:
    """Each check on its own ``run_checks`` call, untraced and traced."""
    master = workloads.acceptance_master_seed(args.seed)
    tally = Tally()
    tr = tracing.Tracer()
    untraced = traced = 0.0

    def one(name):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            report = validation.run_checks(names=[name], master_seed=master)
        return time.perf_counter() - start, report

    for i, name in enumerate(tracing.CHECK_NAMES):
        plain, with_trace = alternate(tr, i, lambda: one(name))
        for _, report in (plain, with_trace):
            tally.add([] if report.passed else [f"check {name} failed"])
        untraced += plain[0]
        traced += with_trace[0]
    tr.write(workdir / "trace.json")
    n = len(tracing.CHECK_NAMES)
    values = tr.metrics(0, n, traced, traced / untraced - 1.0)
    return values, tally, {
        "master_seed": master, "requests": n, "untraced_s": untraced, "traced_s": traced,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rfclutter" / "__init__.py").is_file():
        print(f"perfbench: no rfclutter package under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")  # validation's temp dirs stay inside
    tempfile.tempdir = None

    sys.path.insert(0, str(SRC))
    import rfclutter
    from rfclutter import cli, validation

    if Path(rfclutter.__file__).resolve().parent != SRC / "rfclutter":
        print(f"perfbench: imported rfclutter from {rfclutter.__file__}", file=sys.stderr)
        return 2

    meta = metadata(args, workdir)
    wl = workloads.CLI_WORKLOADS.get(args.workload)
    if args.trace:
        if wl is None:
            values, tally, info = run_acceptance_traced(args, validation, workdir)
        else:
            values, tally, info = run_cli_traced(wl, args, workdir, cli)
        metrics = values
    else:
        setup_config = wl.write_configs(workdir)[0] if wl is not None else None
        setup_s = measure_setup(setup_config)
        if wl is None:
            values, tally, info = run_acceptance(args, validation)
        else:
            values, tally, info = run_cli(wl, args, workdir, cli)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    meta.update(info)
    meta["problems"] = tally.problems
    latencies = meta.pop("latencies_s", None)
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(
        json.dumps({"meta": meta, **result, "latencies_s": latencies}, indent=1)
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
