"""Span tracer that wraps rfclutter's public functions from outside the package.

Each traced function is replaced, wherever a caller looks it up (module
globals, ``validation.CHECKS``, or the class for methods), by a wrapper that
records a span: request index, name, start, end and parent span.  Spans stay
in memory until :meth:`Tracer.write`.  A span's self time is its duration
minus the time its direct child spans cover, minus the time the tracer's own
counting hooks spent inside it.

Counts are computed from call arguments and return values only, so two
traced runs over the same requests give identical counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (metric name, home module, attribute path); the metric name is
# "<module>.<qualified name>" without the package prefix.
LAYERS = [
    ("antennas.AntennaPattern.field_at", "rfclutter.antennas", "AntennaPattern.field_at"),
    ("antennas.AntennaPattern.gain_at", "rfclutter.antennas", "AntennaPattern.gain_at"),
    ("antennas.gaussian_horn", "rfclutter.antennas", "gaussian_horn"),
    ("antennas.omni", "rfclutter.antennas", "omni"),
    ("antennas.load_pattern_csv", "rfclutter.antennas", "load_pattern_csv"),
    ("config.resolve_config", "rfclutter.config", "resolve_config"),
    ("clutter.spin_response", "rfclutter.clutter", "spin_response"),
    ("clutter.spin_amplitudes", "rfclutter.clutter", "spin_amplitudes"),
    ("clutter.gen_azimuth_channel", "rfclutter.clutter", "gen_azimuth_channel"),
    ("clutter.gen_delay_azimuth_channel", "rfclutter.clutter", "gen_delay_azimuth_channel"),
    ("clutter.band_limit", "rfclutter.clutter", "band_limit"),
    ("randomfields.RandomStream.generator", "rfclutter.randomfields", "RandomStream.generator"),
    ("randomfields.gaussian_field_rows", "rfclutter.randomfields", "gaussian_field_rows"),
    ("randomfields.complex_gaussian_series", "rfclutter.randomfields", "complex_gaussian_series"),
    ("target.compose_scene", "rfclutter.target", "compose_scene"),
    ("stats.spatial_correlation", "rfclutter.stats", "spatial_correlation"),
    ("stats.azimuth_autocorrelation", "rfclutter.stats", "azimuth_autocorrelation"),
    ("stats.fit_reverberation", "rfclutter.stats", "fit_reverberation"),
    ("stats.survey_report", "rfclutter.stats", "survey_report"),
    ("cli.main", "rfclutter.cli", "main"),
]

# The acceptance checks, named independently of the package under test so a
# missing or renamed check shows up as a failure rather than a shorter list.
CHECK_NAMES = [
    "survey_prediction_rms",
    "quadrature_agreement",
    "fresnel_average",
    "lognormal_unit_mean",
    "azimuth_correlation_scale",
    "spin_calibration",
    "spatial_decorrelation",
    "autocorrelation_main_lobe",
    "cdf_seed_stability",
    "reverberation_decay",
    "target_fluctuation",
    "scene_composition",
    "cli_determinism",
]
for _check in CHECK_NAMES:
    LAYERS.append((f"validation.check_{_check}", "rfclutter.validation", f"check_{_check}"))

# Metrics that are counts rather than calls/self time: name -> unit.
COUNTS = {
    "antennas.AntennaPattern.field_at.samples": "count",
    "antennas.AntennaPattern.field_at.repeat_frac": "fraction",
    "clutter.spin_amplitudes.pointings": "count",
    "clutter.spin_amplitudes.distinct_pointing_frac": "fraction",
    "randomfields.gaussian_field_rows.rows": "count",
    "clutter.gen_delay_azimuth_channel.out_bytes": "B",
    "clutter.band_limit.out_bytes": "B",
    "cli.output_bytes": "B",
}

RUN_METRICS = {
    "trace.requests": "count",
    "trace.request_s": "s",
    "trace.overhead_frac": "fraction",
}


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name, _, _ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    units.update(RUN_METRICS)
    return units


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counts for the functions in :data:`LAYERS`."""

    def __init__(self):
        # span: [request, name, start, end, parent index, hook seconds inside]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list = []
        self.request = -1
        self.counts = defaultdict(int)
        self._seen_offsets: set = set()
        self._pointings: list[np.ndarray] = []

    # -- request scope -------------------------------------------------------

    def begin_request(self) -> None:
        self.request += 1
        self._seen_offsets = set()
        self._pointings = []

    def end_request(self) -> None:
        if self._pointings:
            p = np.round(np.concatenate(self._pointings), 6) % 360.0
            self.counts["spin_distinct"] += int(np.unique(p).size)
        self._pointings = []

    # -- counting hooks ------------------------------------------------------

    def _count_field_at(self, args, kwargs):
        pattern = args[0]
        offsets = np.ascontiguousarray(_arg(args, kwargs, 1, "offset_deg"), dtype=float)
        key = (
            id(pattern), pattern.kind, pattern.hpbw_deg, pattern.grid.n_bins,
            offsets.shape, hash(offsets.tobytes()),
        )
        self.counts["field_samples"] += offsets.size
        if key in self._seen_offsets:
            self.counts["field_repeats"] += offsets.size
        self._seen_offsets.add(key)

    def _count_spin(self, args, kwargs):
        p = np.atleast_1d(np.asarray(_arg(args, kwargs, 3, "pointings_deg"), dtype=float))
        self.counts["spin_pointings"] += p.size
        self._pointings.append(p.ravel())

    def _count_rows(self, args, kwargs):
        self.counts["field_rows"] += int(_arg(args, kwargs, 1, "n_rows"))

    def _count_delay_bytes(self, result):
        self.counts["delay_bytes"] += result.amplitudes.nbytes

    def _count_band_limit_bytes(self, result):
        self.counts["band_limit_bytes"] += result.power.nbytes

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if on_call is not None:
                h0 = time.perf_counter()
                on_call(args, kwargs)
                if parent >= 0:
                    tracer.spans[parent][5] += time.perf_counter() - h0
            index = len(tracer.spans)
            span = [tracer.request, name, 0.0, 0.0, parent, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[2] = start
                tracer._stack.pop()
            if on_return is not None:
                h0 = time.perf_counter()
                on_return(result)
                if parent >= 0:
                    tracer.spans[parent][5] += time.perf_counter() - h0
            return result

        return wrapper

    def install(self) -> None:
        """Replace every lookup site of each layer function with a wrapper."""
        hooks = {
            "antennas.AntennaPattern.field_at": (self._count_field_at, None),
            "clutter.spin_amplitudes": (self._count_spin, None),
            "randomfields.gaussian_field_rows": (self._count_rows, None),
            "clutter.gen_delay_azimuth_channel": (None, self._count_delay_bytes),
            "clutter.band_limit": (None, self._count_band_limit_bytes),
        }
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "rfclutter" or key.startswith("rfclutter."))
        ]
        validation = sys.modules["rfclutter.validation"]
        for name, home, attr in LAYERS:
            owner = sys.modules[home]
            if "." in attr:  # method: patch the class
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                attr = meth
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            if owner is not sys.modules[home]:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
            for key, value in list(validation.CHECKS.items()):
                if value is original:
                    self._restore.append((validation.CHECKS, key, value, True))
                    validation.CHECKS[key] = wrapper

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, value, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore = []

    # -- results -------------------------------------------------------------

    def layer_times(self) -> dict:
        """{name: (calls, self seconds)} over all recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: [0, 0.0] for name, _, _ in LAYERS}
        for i, (_, name, start, end, _, hook_s) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - covered[i] - hook_s
        return out

    def metrics(self, output_bytes: int, requests: int, request_s: float, overhead: float):
        """Per-layer metric values keyed as in :func:`metric_units`."""
        values = {}
        for name, (calls, self_s) in self.layer_times().items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        c = self.counts
        values.update({
            "antennas.AntennaPattern.field_at.samples": c["field_samples"],
            "antennas.AntennaPattern.field_at.repeat_frac":
                c["field_repeats"] / c["field_samples"] if c["field_samples"] else 0.0,
            "clutter.spin_amplitudes.pointings": c["spin_pointings"],
            "clutter.spin_amplitudes.distinct_pointing_frac":
                c["spin_distinct"] / c["spin_pointings"] if c["spin_pointings"] else 0.0,
            "randomfields.gaussian_field_rows.rows": c["field_rows"],
            "clutter.gen_delay_azimuth_channel.out_bytes": c["delay_bytes"],
            "clutter.band_limit.out_bytes": c["band_limit_bytes"],
            "cli.output_bytes": output_bytes,
            "trace.requests": requests,
            "trace.request_s": request_s,
            "trace.overhead_frac": overhead,
        })
        units = metric_units()
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def write(self, path) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [req, name, round(s - t0, 9), round(e - t0, 9), parent]
            for req, name, s, e, parent, _ in self.spans
        ]
        path.write_text(json.dumps({
            "fields": ["request", "name", "start_s", "end_s", "parent"],
            "spans": rows,
        }))
