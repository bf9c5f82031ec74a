"""In-process tracing of the layer functions that `chainflux.cli` imports.

The CLI module imports its layer functions by name (`from .dataio import
load_csv`, ...), so replacing those names on the `chainflux.cli` module
object puts a timed wrapper at every layer boundary the CLI crosses, without
touching any file of the program. Calls made inside a layer (for example the
`epr` of each null replicate) are not traced; they stay inside the caller's
span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Bytes per uniform draw (float64). Draw volumes below are computed from the
# call arguments, not measured.
_F64 = 8


def _load_csv_counts(args, result):
    return {
        "rows": sum(d.n_rounds for d in result),
        "bytes": os.path.getsize(args["path"]),
    }


def _write_csv_counts(args, result):
    return {"rows": sum(d.n_rounds for d in args["datasets"])}


def _write_report_counts(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _dos_baseline_counts(args, result):
    # one uniform per record per replicate
    return {
        "reps": args["reps"],
        "draw_bytes": args["reps"] * args["n_rounds"] * _F64,
    }


def _vnm_null_counts(args, result):
    # two uniforms (row and column action) per record per replicate
    params = args["params"]
    records = params.sessions * params.rounds_per_session
    return {"reps": args["reps"], "draw_bytes": args["reps"] * records * 2 * _F64}


COUNTERS = {
    "dataio.load_csv": _load_csv_counts,
    "dataio.write_csv": _write_csv_counts,
    "dataio.write_report": _write_report_counts,
    "nullmodels.dos_baseline": _dos_baseline_counts,
    "nullmodels.vnm_null_distribution": _vnm_null_counts,
}

# Metrics derived from call arguments rather than measured; the run's facts
# list them under "computed".
COMPUTED_METRICS = (
    "nullmodels.dos_baseline.draw_bytes",
    "nullmodels.vnm_null_distribution.draw_bytes",
)

STATS_FUNCTIONS =("one_sample_t", "paired_t", "welch_t", "percentile_of", "ols_fit")


@dataclass
class Span:
    layer: str
    start: float
    end: float
    depth: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; one tracer per traced command."""

    def __init__(self):
        self.spans: list[Span] = []
        self._depth = 0

    def wrap(self, layer: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth = depth
            span = Span(layer, start, end, depth)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            self.spans.append(span)
            return result

        return traced

    def busy_s(self, layer: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.layer == layer)

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer)

    def count(self, layer: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans if s.layer == layer)

    def top_level_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.depth == 0)


def layer_functions(module) -> dict:
    """Public chainflux functions imported into `module`, keyed by the name
    under which the module calls them."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__.startswith("chainflux.")
        and obj.__module__ != module.__name__
    }


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextlib.contextmanager
def traced(module, tracer: Tracer):
    """Replace the layer functions of `module` with traced wrappers for the
    duration of the block."""
    originals = layer_functions(module)
    try:
        for name, fn in originals.items():
            setattr(module, name, tracer.wrap(layer_name(fn), fn))
        yield tracer
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def _per(total_s: float, n: int, scale: float) -> float:
    return total_s / n * scale if n else 0.0


def command_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced analysis command. A layer the command
    did not call reports 0."""
    t = tracer
    load_s, load_rows = t.busy_s("dataio.load_csv"), t.count("dataio.load_csv", "rows")
    dos_s, dos_reps = (
        t.busy_s("nullmodels.dos_baseline"),
        t.count("nullmodels.dos_baseline", "reps"),
    )
    vnm_s, vnm_reps = (
        t.busy_s("nullmodels.vnm_null_distribution"),
        t.count("nullmodels.vnm_null_distribution", "reps"),
    )
    stats = [f"stats.{name}" for name in STATS_FUNCTIONS]
    return {
        "dataio.load_csv.s": load_s,
        "dataio.load_csv.rows": load_rows,
        "dataio.load_csv.bytes": t.count("dataio.load_csv", "bytes"),
        "dataio.load_csv.us_per_row": _per(load_s, load_rows, 1e6),
        "dataio.write_report.s": t.busy_s("dataio.write_report"),
        "dataio.write_report.bytes": t.count("dataio.write_report", "bytes"),
        "core.estimate_markov.s": t.busy_s("core.estimate_markov"),
        "core.estimate_markov.calls": t.calls("core.estimate_markov"),
        "core.stationarity_diagnostic.s": t.busy_s("core.stationarity_diagnostic"),
        "observables.full_report.s": t.busy_s("observables.full_report"),
        "observables.full_report.calls": t.calls("observables.full_report"),
        "observables.epr.s": t.busy_s("observables.epr"),
        "observables.epr.calls": t.calls("observables.epr"),
        "nullmodels.dos_baseline.s": dos_s,
        "nullmodels.dos_baseline.reps": dos_reps,
        "nullmodels.dos_baseline.us_per_rep": _per(dos_s, dos_reps, 1e6),
        "nullmodels.dos_baseline.draw_bytes": t.count(
            "nullmodels.dos_baseline", "draw_bytes"
        ),
        "nullmodels.vnm_null_distribution.s": vnm_s,
        "nullmodels.vnm_null_distribution.reps": vnm_reps,
        "nullmodels.vnm_null_distribution.us_per_rep": _per(vnm_s, vnm_reps, 1e6),
        "nullmodels.vnm_null_distribution.draw_bytes": t.count(
            "nullmodels.vnm_null_distribution", "draw_bytes"
        ),
        "stats.s": sum(t.busy_s(name) for name in stats),
        "stats.calls": sum(t.calls(name) for name in stats),
        "cli.self_s": wall_s - t.top_level_s(),
        "trace.inproc_s": wall_s,
    }


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced `simulate` command."""
    t = tracer
    write_s = t.busy_s("dataio.write_csv")
    return {
        "dataio.write_csv.s": write_s,
        "dataio.write_csv.us_per_row": _per(
            write_s, t.count("dataio.write_csv", "rows"), 1e6
        ),
        "nullmodels.simulate_chain.s": t.busy_s("nullmodels.simulate_chain"),
        "nullmodels.simulate_vnm.s": t.busy_s("nullmodels.simulate_vnm"),
    }
