"""chainflux benchmark: four workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each run generates its input with `chainflux simulate` from seeds
derived from `--seed`, then repeats the workload's analysis command for
`--seconds` seconds (at least twice) inside `.perfbench_work/<workload>/`.

--trace 0 runs every command as a child process (`python -m chainflux.cli`)
and reports the end-to-end metrics: wall_s and peak_rss_mb are medians over
the repeated analysis command, setup_s is the median over `simulate`
calls repeated for 3 s (at least three). --trace 1 runs the same commands
in-process, once untraced and once with every layer function that
`chainflux.cli` imports wrapped in a timed span (see layers.py), and
reports the per-layer metrics. A layer that a workload does not call
reports 0.

Every report is checked: it must parse as strict JSON (no NaN/Infinity),
hold the expected treatment count, keep entropy in [0, 1], EPR >= 0,
Monte-Carlo p-values in (0, 1] and other p-values in [0, 1], and repeat the
first report's treatments/tests/fits exactly. analyze-1m also recomputes
every treatment's EPR in-process; cycle-long also requires detection on every
treatment and, where nproc >= 2, an identical report at --workers 2. A
command that exits non-zero or fails a check counts in `failed`;
failed/attempted is the failure ratio.

The `draw_bytes` metrics are computed from the null's call arguments (8
bytes per uniform draw), not measured; the facts list them under
`computed`. The last stdout line is the result object; the line before it
is a `facts` object (machine, load average, input and report digests, raw
samples), which no gate reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from layers import COMPUTED_METRICS, Tracer, command_metrics, setup_metrics, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

INPUT = "input.csv"
REPORT = "report.json"
MIN_REPEATS = 2
# Set-up commands repeat for SETUP_SECONDS (at least three times) so that
# the median of short ones, mostly interpreter start-up, is steadier.
SETUP_SECONDS = 3.0
SETUP_MIN_REPEATS = 3
# A run must end within 180 s; stop repeating once another command could
# cross this.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

_VNM_16x16x12 = {
    "model": "vnm", "p": 0.4, "q": 0.6,
    "treatments": 16, "sessions": 16, "rounds": 12, "encoding": "actions",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    simulate: dict
    command: str
    reps: int | None
    # Per-workload output checks beyond the shared ones.
    recompute_epr: bool = False
    expect_detected: bool = False
    workers_probe: bool = False

    @property
    def treatments(self) -> int:
        return self.simulate["treatments"]

    def resized(self, **changes) -> "Workload":
        """Copy with some simulate options (or `reps`) replaced; the
        self-test uses this for toy sizes."""
        reps = changes.pop("reps", self.reps)
        return dataclasses.replace(self, simulate={**self.simulate, **changes}, reps=reps)


# Why each workload exists:
# - analyze-1m: ingest-bound (load_csv is ~99% of in-process time, no null
#   runs); its set-up writes the same 10^6 rows, so dataio reads and writes
#   are both on one workload.
# - cycle-short: dos_baseline at 192 records, where per-replicate object
#   overhead dominates; 16x12 sessions is the multi-session design that a
#   session-matched null changes.
# - cycle-long: the same dos_baseline at 20000 records, where the draw and
#   pair counting dominate; both treatments are detected.
# - minimax-short: the only workload that runs vnm_null_distribution and the
#   paired/Welch tests across treatments.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-1m",
            {
                "model": "square-cycle", "forward": 0.6, "backward": 0.2,
                "treatments": 8, "sessions": 25, "rounds": 5000,
                "encoding": "actions",
            },
            "analyze", None, recompute_epr=True,
        ),
        Workload("cycle-short", _VNM_16x16x12, "cycle-test", 1000),
        Workload(
            "cycle-long",
            {
                "model": "square-cycle", "forward": 0.35, "backward": 0.25,
                "treatments": 2, "sessions": 1, "rounds": 20000,
            },
            "cycle-test", 2000, expect_detected=True, workers_probe=True,
        ),
        Workload("minimax-short", _VNM_16x16x12, "minimax-test", 300),
    )
}


def derive_seed(seed: int, workload: str, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}:{workload}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def simulate_argv(w: Workload, seed: int) -> list[str]:
    argv = ["simulate"]
    for key, value in w.simulate.items():
        argv += [f"--{key}", str(value)]
    return argv + ["--seed", str(derive_seed(seed, w.name, "simulate")), "--output", INPUT]


def analysis_argv(w: Workload, seed: int, workers: int = 1) -> list[str]:
    argv = [w.command, "--input", INPUT, "--output", REPORT,
            "--seed", str(derive_seed(seed, w.name, "analysis")),
            "--workers", str(workers), "--reproducible"]
    if w.reps is not None:
        argv += ["--reps", str(w.reps)]
    return argv


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_strict(raw: bytes | str):
    return json.loads(raw, parse_constant=_reject_constant)


def _leaves(node, key=None):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v, key)
    else:
        yield key, node


_MC_P_KEYS = ("mc_exceedance_p", "epr_mc_p")


def _in(value, lo: float, hi: float, *, open_lo: bool = False) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return (lo < value if open_lo else lo <= value) and value <= hi


def check_report(raw: bytes | str, w: Workload) -> tuple[list[str], dict | None]:
    """Problems found in one report (empty when it passes), and the parsed
    document. t-test p-values may be exactly 0: for |t| in the thousands
    the t CDF underflows in double precision."""
    try:
        doc = parse_strict(raw)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"], None
    if not isinstance(doc, dict):
        return ["report is not a JSON object"], None
    problems = []
    treatments = doc.get("treatments")
    if not isinstance(treatments, list) or len(treatments) != w.treatments:
        got = len(treatments) if isinstance(treatments, list) else treatments
        problems.append(f"expected {w.treatments} treatments, got {got}")
    seen = {"epr": 0, "mc_p": 0}
    for key, value in _leaves(doc):
        if key == "entropy" and not _in(value, 0.0, 1.0):
            problems.append(f"entropy {value!r} outside [0, 1]")
        elif key == "epr":
            seen["epr"] += 1
            if not _in(value, 0.0, float("inf")):
                problems.append(f"epr {value!r} is negative")
        elif key in _MC_P_KEYS:
            seen["mc_p"] += 1
            if not _in(value, 0.0, 1.0, open_lo=True):
                problems.append(f"{key} {value!r} outside (0, 1]")
        elif key == "p_value" or str(key).endswith("percentile"):
            if not _in(value, 0.0, 1.0):
                problems.append(f"{key} {value!r} outside [0, 1]")
        elif key == "error":
            problems.append(f"a test reported error {value!r}")
    if seen["epr"] < w.treatments:
        problems.append(f"only {seen['epr']} epr values for {w.treatments} treatments")
    if w.reps is not None and seen["mc_p"] < w.treatments:
        problems.append(f"only {seen['mc_p']} Monte-Carlo p-values")
    if w.expect_detected and isinstance(treatments, list):
        missed = [t.get("treatment_id") for t in treatments if t.get("cycle_detected") is not True]
        if missed:
            problems.append(f"cycle not detected in {missed}")
    return problems, doc


def results_section(doc: dict) -> str:
    """The part of a report that must repeat exactly (config echoes
    --workers, so it is left out)."""
    return json.dumps({k: doc.get(k) for k in ("treatments", "tests", "fits")},
                      sort_keys=True)


def recomputed_epr() -> dict[str, float]:
    """Per-treatment EPR recomputed with the library: load_csv ->
    estimate_markov -> epr, with the CLI's defaults (square space, no
    burn-in, skip policy)."""
    from chainflux import ZeroFluxPolicy, epr, estimate_markov, load_csv, square_2x2

    return {
        data.treatment_id: epr(estimate_markov(data), ZeroFluxPolicy.skip())[0]
        for data in load_csv(INPUT, square_2x2())
    }


class Checker:
    """Counts commands and failures for one run and remembers the first
    report's results for the determinism comparison."""

    def __init__(self, w: Workload):
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: str | None = None
        self.expected_epr: dict[str, float] | None = None
        self.report_digests: set[str] = set()

    def command(self, label: str, exit_code: int, *, report: bool) -> None:
        """Record one command; check its report when it writes one."""
        self.attempted += 1
        problems = []
        if exit_code != 0:
            problems = [f"exit code {exit_code}"]
        elif report:
            problems = self._check(Path(REPORT))
        self.fail(label, problems)

    def _check(self, path: Path) -> list[str]:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            return [f"no report: {exc}"]
        self.report_digests.add(hashlib.sha256(raw).hexdigest())
        problems, doc = check_report(raw, self.w)
        return problems if doc is None else problems + self._compare(doc)

    def prepare(self) -> None:
        """Compute the expected values once the input exists, outside the
        timed commands."""
        if self.w.recompute_epr and Path(INPUT).exists():
            self.expected_epr = recomputed_epr()

    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]

    def _compare(self, doc: dict) -> list[str]:
        problems = []
        section = results_section(doc)
        if self.reference is None:
            self.reference = section
        elif section != self.reference:
            problems.append("results differ from the first run")
        if self.expected_epr is not None:
            got = {t.get("treatment_id"): t.get("observables", {}).get("epr")
                   for t in doc.get("treatments", [])}
            if got != self.expected_epr:
                problems.append("epr differs from the in-process recomputation")
        return problems


# ---------------------------------------------------------------------------
# child processes (tracing off)
# ---------------------------------------------------------------------------


def run_child(argv: list[str], log: str) -> tuple[int, float, float, float]:
    """Run `python -m chainflux.cli argv` to completion.

    Returns (exit code, wall s, CPU s, peak RSS MB) of that child alone:
    os.wait4 gives its own rusage, where RUSAGE_CHILDREN would mix in every
    earlier child.
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainflux.cli", *argv],
            stdout=subprocess.DEVNULL, stderr=err,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def _repeat(body, seconds: float, deadline: float, minimum: int = MIN_REPEATS) -> None:
    """Call body() at least `minimum` times, then again while another call
    (as long as the last one) still ends within `seconds` and `deadline`."""
    end = min(time.perf_counter() + seconds, deadline)
    done, last = 0, 0.0
    while done < minimum or time.perf_counter() + last <= end:
        started = time.perf_counter()
        body()
        last = time.perf_counter() - started
        done += 1


def run_untraced(w: Workload, seed: int, seconds: float, deadline: float,
                 checker: Checker, facts: dict) -> dict:
    setup, digests = [], set()

    def simulate_once():
        code, wall, _, _ = run_child(simulate_argv(w, seed), "simulate.log")
        checker.command(f"simulate#{len(setup)}", code, report=False)
        setup.append(wall)
        if code == 0:
            digests.add(hashlib.sha256(Path(INPUT).read_bytes()).hexdigest())

    _repeat(simulate_once, SETUP_SECONDS, deadline, SETUP_MIN_REPEATS)
    if len(digests) > 1:
        checker.fail("simulate", ["different inputs for one seed"])
    checker.prepare()

    walls, cpus, rss = [], [], []

    def once():
        code, wall, cpu, peak = run_child(analysis_argv(w, seed), "analysis.log")
        checker.command(f"{w.command}#{len(walls)}", code, report=True)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)

    _repeat(once, seconds, deadline)

    if w.workers_probe and nproc() >= 2:
        code, wall, _, _ = run_child(analysis_argv(w, seed, workers=2), "analysis.log")
        checker.command(f"{w.command} --workers 2", code, report=True)
        facts["workers2_wall_s"] = wall

    facts.update(
        input_sha256=sorted(digests), setup_s=setup, wall_s=walls, cpu_s=cpus,
        peak_rss_mb=rss,
    )
    return {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


# ---------------------------------------------------------------------------
# in-process runs (tracing on)
# ---------------------------------------------------------------------------


def run_inprocess(argv: list[str], tracer=None) -> tuple[int, float]:
    """Run one CLI command in this process, optionally traced. Its stdout
    and stderr are discarded."""
    import chainflux.cli as cli  # importable only after use_sources()

    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        with traced(cli, tracer) if tracer else nullcontext():
            start = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - start


def run_traced(w: Workload, seed: int, seconds: float, deadline: float,
               checker: Checker, facts: dict) -> dict:
    startup = []

    def version_once():
        code, wall, _, _ = run_child(["--version"], "startup.log")
        checker.command("--version", code, report=False)
        startup.append(wall)

    _repeat(version_once, SETUP_SECONDS, deadline, SETUP_MIN_REPEATS)

    setup_tracer = Tracer()
    code, _ = run_inprocess(simulate_argv(w, seed), setup_tracer)
    checker.command("simulate (traced)", code, report=False)
    checker.prepare()

    untraced, samples = [], []

    def pair():
        code, wall = run_inprocess(analysis_argv(w, seed))
        checker.command(f"{w.command} (in-process)", code, report=True)
        untraced.append(wall)
        tracer = Tracer()
        code, wall = run_inprocess(analysis_argv(w, seed), tracer)
        checker.command(f"{w.command} (traced)", code, report=True)
        samples.append(command_metrics(tracer, wall))

    _repeat(pair, seconds, deadline)

    metrics = {
        name: statistics.median(s[name] for s in samples) for name in samples[0]
    }
    metrics.update(setup_metrics(setup_tracer))
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = metrics["trace.inproc_s"] - statistics.median(untraced)

    speedup = 0.0
    if w.workers_probe and nproc() >= 2:
        tracer = Tracer()
        code, _ = run_inprocess(analysis_argv(w, seed, workers=2), tracer)
        checker.command(f"{w.command} --workers 2 (traced)", code, report=True)
        w2 = tracer.busy_s("nullmodels.dos_baseline")
        if w2 > 0:
            speedup = metrics["nullmodels.dos_baseline.s"] / w2
    metrics["nullmodels.dos_baseline.w2_speedup"] = speedup

    facts.update(untraced_inproc_s=untraced, traced_inproc_s=[s["trace.inproc_s"] for s in samples])
    units = per_layer_units()
    return {name: (value, units[name]) for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# facts and the result line
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chainflux").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run in a fresh work directory. Returns the result
    object and the facts."""
    started = time.perf_counter()
    run_dir = WORK / w.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)
    checker = Checker(w)
    facts = {
        "workload": w.name, "seed": seed, "trace": int(trace),
        "simulate_seed": derive_seed(seed, w.name, "simulate"),
        "analysis_seed": derive_seed(seed, w.name, "analysis"),
        "reps": w.reps, "machine": machine_facts(),
        "computed": list(COMPUTED_METRICS) if trace else [],
        "loadavg_before": _loadavg(),
    }
    try:
        runner = run_traced if trace else run_untraced
        metrics = runner(w, seed, seconds, started + DEADLINE_S, checker, facts)
    finally:
        os.chdir(ROOT)
    facts.update(
        loadavg_after=_loadavg(),
        input_bytes=(run_dir / INPUT).stat().st_size if (run_dir / INPUT).exists() else 0,
        report_sha256=sorted(checker.report_digests),
        failures=checker.failures,
        run_s=time.perf_counter() - started,
    )
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, facts


def use_sources() -> bool:
    """Make `src/` of this checkout the only place chainflux imports from."""
    if not (SRC / "chainflux" / "__init__.py").is_file():
        print(f"error: no chainflux sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if not use_sources():
        return 2
    result, facts = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
