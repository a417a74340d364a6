"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name in ``--trace 1`` runs, and its counting hooks read attributes off their
arguments and results; a traced name or attribute that is gone from the
package fails those runs, so it fails here first."""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from rfclutter import AzimuthGrid, DelayGrid, derive_stream, gaussian_horn, omni, uniform_pointings
from rfclutter.config import load_config_tree, resolve_config

DEFAULTS = resolve_config(load_config_tree(None))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_namespace():
    # run from its source text, so nothing is imported or cached from perfbench/
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves_in_the_package():
    layers = _tracer_namespace()["LAYERS"]
    assert layers
    missing = []
    for name, home, attr in layers:
        owner = importlib.import_module(home)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_every_counting_hook_reads_what_it_needs():
    tracer = _tracer_namespace()["Tracer"]()
    clutter = importlib.import_module("rfclutter.clutter")
    randomfields = importlib.import_module("rfclutter.randomfields")
    room, params = replace(DEFAULTS.room, t_rev_s=2e-9), DEFAULTS.clutter
    agrid = AzimuthGrid(720)
    rx, tx = gaussian_horn(10.0, agrid), omni(agrid)
    pointings = uniform_pointings(36)
    tracer.install()
    try:
        rx.field_at(np.array([0.0, 1.5]))
        field = clutter.gen_azimuth_channel(room, params, agrid, derive_stream(1, "trace"))
        clutter.spin_amplitudes(field, rx, tx, pointings, DEFAULTS.tx_pointing_deg)
        randomfields.gaussian_field_rows(np.random.default_rng(1), 2, 64, 3.0)
        dmap = clutter.gen_delay_azimuth_channel(
            room, params, DelayGrid.for_room(room, 0.1e-9, None), agrid, derive_stream(2, "trace")
        )
        clutter.band_limit(dmap, DEFAULTS.probe, rx, tx, pointings, DEFAULTS.tx_pointing_deg)
    finally:
        tracer.uninstall()
    hooks = ["field_samples", "spin_pointings", "field_rows", "delay_bytes", "band_limit_bytes"]
    assert {h: tracer.counts[h] > 0 for h in hooks} == dict.fromkeys(hooks, True)
