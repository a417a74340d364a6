"""The thread fan-out of the acceptance checks: report bytes that do not
depend on the worker count, a capped worker count, shared memos that survive
racing workers, large blocks mapped on their own after the heap is settled,
a ported causality check that still catches a fault, and the one-thread
BLAS pin that every spin and every report runs under."""

import ctypes
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rfclutter import pool, randomfields, validation
from rfclutter.antennas import gaussian_horn, omni
from rfclutter.clutter import probe_delay_map, spin_operator, spun_channels, uniform_pointings
from rfclutter.randomfields import AzimuthGrid, derive_stream, gaussian_field_rows
from rfclutter.target import compose_scene


def test_report_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "workers", lambda: workers)
        report = validation.run_checks(
            ["reverberation_decay", "lognormal_unit_mean"], master_seed=3
        )
        reports.append(json.dumps(report.to_dict()))
    assert reports[0] == reports[1]


def test_checks_resolve_the_default_config_once(monkeypatch):
    calls = []
    resolve = validation.resolve_config
    monkeypatch.setattr(validation, "resolve_config", lambda tree: calls.append(1) or resolve(tree))
    validation._defaults.cache_clear()
    checks = ["survey_prediction_rms", "quadrature_agreement", "scene_composition"]
    validation.run_checks(checks, master_seed=3)
    assert len(calls) == 1


_SPIN_HEAVY_REPORT = """
import json
from rfclutter import validation
checks = ["spatial_decorrelation", "autocorrelation_main_lobe", "cdf_seed_stability"]
print(json.dumps(validation.run_checks(checks, master_seed=3).to_dict()))
"""


@pytest.mark.skipif(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas",
    reason="NumPy's bundled scipy-openblas only",
)
def test_report_bytes_do_not_depend_on_the_blas_thread_count():
    """Off-grid spins are matrix products whose last bits move with
    OpenBLAS's thread count; at seed 3 these three statistics did before
    run_checks pinned it."""
    src = str(Path(validation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    reports = [
        subprocess.run(
            [sys.executable, "-c", _SPIN_HEAVY_REPORT],
            env={**env, **extra}, capture_output=True, text=True, check=True,
        ).stdout
        for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {})
    ]
    assert reports[0] == reports[1]


def test_workers_are_capped_at_two(monkeypatch):
    for mask, workers in ((set(range(64)), 2), ({0}, 1)):
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: mask, raising=False)
        assert pool.workers() == workers


_MAPPED_AFTER_SETTLING = """
import ctypes
import numpy as np
from rfclutter import validation

class Mallinfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
big = np.ones(30 << 17)  # 30 MiB, mapped, then freed
del big
validation._settle_heap()
before = mallinfo2().hblkhd
block = np.ones(9 << 17)  # 9 MiB
print(mallinfo2().hblkhd - before >= block.nbytes)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(ctypes.CDLL(None), "mallinfo2"),
    reason="glibc's malloc only",
)
def test_settled_heap_maps_large_blocks_whatever_was_freed_before():
    """In a fresh interpreter, a freed 30 MiB block raises glibc's default
    mmap threshold past 9 MiB; after _settle_heap a 9 MiB array is mapped on
    its own all the same."""
    src = str(Path(validation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _MAPPED_AFTER_SETTLING],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "True"


def test_field_filter_memo_under_racing_workers():
    """More workers than cores, a short switch interval and a cold filter
    memo: every row block is still the serial one, in order."""
    def rows(i):
        return gaussian_field_rows(derive_stream(5, f"race/{i}").generator(), 3, 360, 4.0)

    serial = [rows(i) for i in range(32)]
    threaded = []

    def fan_out():
        with ThreadPoolExecutor(max_workers=8) as executor:
            threaded.extend(executor.map(rows, range(32)))

    runner = threading.Thread(target=fan_out)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        randomfields._field_filter.cache_clear()
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert [r.tobytes() for r in threaded] == [r.tobytes() for r in serial]


@pytest.mark.parametrize("leak", [False, True])
def test_reverberation_decay_flags_a_finite_bin_before_onset(monkeypatch, leak):
    """Every map replays the first one, so the check is quick; with ``leak``
    the first map carries one finite dB bin before the onset."""
    real, first = validation.probe_delay_map, []

    def replay(*args, **kwargs):
        if not first:
            delays, power_db, profile = real(*args, **kwargs)
            leaked = power_db.copy()
            if leak:
                assert leaked[0, 0] == -np.inf  # row 0 is before the onset
                leaked[0, 0] = -300.0
            first.append((delays, power_db, profile))
            return delays, leaked, profile
        delays, power_db, profile = first[0]
        return delays, power_db.copy(), profile

    monkeypatch.setattr(pool, "workers", lambda: 1)
    monkeypatch.setattr(validation, "probe_delay_map", replay)
    passed, _, _, details = validation.check_reverberation_decay(1234)
    assert details["causal_output"] is not leak
    if leak:
        assert not passed


@pytest.mark.skipif(pool._openblas_threads() is None, reason="NumPy's bundled scipy-openblas only")
def test_overlapping_blas_pins_restore_the_count_they_found():
    get_threads, set_threads = pool._openblas_threads()
    before = get_threads()
    try:
        set_threads(2)
        first, second = pool.one_blas_thread(), pool.one_blas_thread()
        first.__enter__()
        second.__enter__()  # as from another thread
        first.__exit__(None, None, None)
        assert get_threads() == 1  # the second holder still runs on one thread
        second.__exit__(None, None, None)
        assert get_threads() == 2
    finally:
        set_threads(before)


def _delay_map(cfg):
    agrid = AzimuthGrid(1800)
    dgrid = replace(cfg.delay_grid, tau_max_s=cfg.delay_grid.onset_s + 5e-9)
    return probe_delay_map(cfg.room, cfg.clutter, dgrid, agrid, derive_stream(4, "blas"),
                           cfg.probe, gaussian_horn(10.0, agrid), omni(agrid),
                           uniform_pointings(148), 0.0)


def _spun_block(cfg):
    # 260 draws through the default 148 off-grid pointings: 14 blocks of 18
    # streams and one of 8, each spun by one call of the operator
    spin = spin_operator(cfg.grid, cfg.rx, cfg.tx, uniform_pointings(148), 0.0)
    streams = [derive_stream(4, f"blas/{k}") for k in range(260)]
    blocks = spun_channels(cfg.room, cfg.clutter, cfg.grid, streams, spin)
    return [np.abs(y) ** 2 for y, _, _ in blocks]


def _scene(regenerate):
    # 500 off-grid pointings a rotation: then even one draw's spin moves
    # with the thread count
    def scene(cfg):
        spec = replace(cfg.scene, sample_rate_hz=2500.0, samples_per_rotation=500,
                       duration_s=1.0, regenerate_clutter_per_rotation=regenerate)
        return [compose_scene(spec, derive_stream(4, "blas")).power]
    return scene


@pytest.mark.skipif(pool._openblas_threads() is None, reason="NumPy's bundled scipy-openblas only")
@pytest.mark.parametrize(
    "run", [_delay_map, _spun_block, _scene(False), _scene(True)],
    ids=["delay_map", "spin_response", "scene_static", "scene_regenerated"],
)
def test_delay_map_bytes_do_not_depend_on_the_blas_thread_count(run):
    """An off-grid spin's last bits move with OpenBLAS's thread count; every
    spin runs on one thread whatever the count: a delay map's blocks, a
    spun spectrum and a scene's rotations."""
    cfg = validation._defaults()
    get_threads, set_threads = pool._openblas_threads()
    before = get_threads()
    outputs = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            outputs.append([part.tobytes() for part in run(cfg)])
    finally:
        set_threads(before)
    assert outputs[0] == outputs[1]
