"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name in ``--trace 1`` runs; a traced name that is gone from the package
fails those runs, so it fails here first."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_layers():
    # run from its source text, so nothing is imported or cached from perfbench/
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_name_resolves_in_the_package():
    layers = _traced_layers()
    assert layers
    missing = []
    for name, home, attr in layers:
        owner = importlib.import_module(home)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
