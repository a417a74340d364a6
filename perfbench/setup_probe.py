"""Set-up probe, run in a fresh interpreter: import the CLI, resolve a config
and build its patterns, grids, probe waveform and scene spec -- what every
``rfclutter`` invocation pays before its first draw.

Usage: python3 perfbench/setup_probe.py [config.json]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rfclutter import cli  # noqa: E402,F401  (the CLI and everything it imports)
from rfclutter.config import load_config_tree, resolve_config  # noqa: E402

resolve_config(load_config_tree(sys.argv[1] if len(sys.argv) > 1 else None)).scene_spec()
