"""CSV ingestion, state-space descriptors, and JSON report serialization.

CSV contract (UTF-8, optionally with a byte-order mark, comma-separated,
header mandatory), one of:

    treatment_id,session_id,round,state
    treatment_id,session_id,round,row_action,col_action

Rounds are 1-based and must be strictly increasing within a session; gaps
are permitted and split nothing (consecutive rows are consecutive
observations). A session_id change starts a new session. Action pairs map
to state = 2*row_action + col_action. The two encodings are never mixed
within one file.

Reports are a single strict JSON document (no NaN or Infinity); floats
serialize via repr (17 significant digits), so write-then-parse round-trips
bit-for-bit. A report is written to a temporary file beside the target and
then renamed into place, so a failed write never leaves a partial file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import StateSpace, Trajectory, TreatmentDataset, square_2x2, triangle_3
from .errors import (
    ConfigError,
    MixedEncodingsError,
    NonMonotoneRoundsError,
    ParseError,
    ReportIoError,
    StateOutOfRangeError,
)
from .nullmodels import BaselineDistribution, Seed
from .observables import ObservableReport, ZeroFluxPolicy
from .stats import OlsFit, TestResult

__all__ = [
    "AnalysisConfig",
    "load_space",
    "load_csv",
    "write_csv",
    "write_report",
    "observable_report_dict",
    "test_result_dict",
    "ols_fit_dict",
    "baseline_summary_dict",
]

_STATE_HEADER = ["treatment_id", "session_id", "round", "state"]
_ACTION_HEADER = ["treatment_id", "session_id", "round", "row_action", "col_action"]

_BUILTIN_SPACES = {"square": square_2x2, "triangle": triangle_3}


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    """Validated knobs shared by every pipeline run."""

    space: StateSpace
    policy: ZeroFluxPolicy
    seed: Seed
    input: str | None = None
    output: str | None = None
    burn_in: int = 0
    mc_reps: int = 10_000
    alpha: float = 0.001
    workers: int = 1
    reproducible: bool = False

    def __post_init__(self):
        if self.mc_reps < 2:
            raise ConfigError(f"mc_reps must be >= 2, got {self.mc_reps}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def echo(self) -> dict:
        """Config block for the report document."""
        return {
            "input": self.input,
            "output": self.output,
            "burn_in": self.burn_in,
            "mc_reps": self.mc_reps,
            "alpha": self.alpha,
            "workers": self.workers,
            "reproducible": self.reproducible,
            "seed": self.seed.root,
            "zero_flux_policy": self.policy.describe(),
            "space": {
                "size": self.space.size,
                "labels": list(self.space.labels),
                "coordinates": self.space.coordinates.tolist(),
            },
        }


def load_space(descriptor: str) -> StateSpace:
    """Resolve a state-space descriptor: a built-in name ('square',
    'triangle') or a path to a JSON file with 'labels' and 'coordinates'."""
    if descriptor in _BUILTIN_SPACES:
        return _BUILTIN_SPACES[descriptor]()
    path = Path(descriptor)
    if not path.exists():
        raise ConfigError(
            f"state space {descriptor!r} is neither a built-in name "
            f"({', '.join(sorted(_BUILTIN_SPACES))}) nor an existing file"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return StateSpace(
            labels=tuple(payload["labels"]),
            coordinates=np.asarray(payload["coordinates"], dtype=float),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad state-space descriptor {descriptor!r}: {exc}") from exc


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"{what} {text!r} is not an integer", line) from None


def load_csv(path, space: StateSpace) -> list[TreatmentDataset]:
    """Parse a record file into one dataset per treatment, in file order.

    Raises:
        ParseError: missing/unknown header, empty file, malformed cells.
        MixedEncodingsError: header carries both encodings.
        NonMonotoneRoundsError: rounds within a session do not increase.
        StateOutOfRangeError: a state index is outside [0, r).
    """
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path.name}: empty file", line=1) from None

        has_state = "state" in header
        has_actions = "row_action" in header or "col_action" in header
        if has_state and has_actions:
            raise MixedEncodingsError(
                f"{path.name}: header mixes 'state' with action columns", line=1
            )
        if header == _STATE_HEADER:
            action_encoding = False
        elif header == _ACTION_HEADER:
            action_encoding = True
        else:
            raise ParseError(
                f"{path.name}: header must be exactly "
                f"{','.join(_STATE_HEADER)} or {','.join(_ACTION_HEADER)}; "
                f"got {','.join(header)}",
                line=1,
            )

        r = space.size
        n_cols = len(header)
        # treatment -> session -> list of states; insertion order preserved
        treatments: dict[str, dict[str, list[int]]] = {}
        last_round: dict[tuple[str, str], int] = {}
        for row in reader:
            line = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != n_cols:
                raise ParseError(
                    f"expected {n_cols} columns, got {len(row)}", line
                )
            tid, sid = row[0].strip(), row[1].strip()
            rnd = _parse_int(row[2], "round", line)
            if rnd < 1:
                raise ParseError(f"round must be >= 1, got {rnd}", line)
            key = (tid, sid)
            if key in last_round and rnd <= last_round[key]:
                raise NonMonotoneRoundsError(
                    f"round {rnd} does not increase within session {sid!r} "
                    f"of treatment {tid!r}",
                    line,
                )
            last_round[key] = rnd
            if action_encoding:
                row_a = _parse_int(row[3], "row_action", line)
                col_a = _parse_int(row[4], "col_action", line)
                if row_a not in (0, 1) or col_a not in (0, 1):
                    raise ParseError(
                        f"actions must be 0 or 1, got ({row_a}, {col_a})", line
                    )
                state = 2 * row_a + col_a
            else:
                state = _parse_int(row[3], "state", line)
            if not (0 <= state < r):
                raise StateOutOfRangeError(
                    f"state {state} outside [0, {r})", line
                )
            treatments.setdefault(tid, {}).setdefault(sid, []).append(state)

    return [
        TreatmentDataset(
            treatment_id=tid,
            space=space,
            sessions=tuple(
                Trajectory(session_id=sid, states=np.asarray(states, dtype=np.int64))
                for sid, states in sessions.items()
            ),
        )
        for tid, sessions in treatments.items()
    ]


def write_csv(datasets, path, encoding: str = "state") -> None:
    """Write datasets in the load_csv contract; inverse of load_csv on
    content. encoding='actions' requires the 4-state square convention.

    Raises:
        ReportIoError: the file cannot be created.
    """
    if encoding not in ("state", "actions"):
        raise ValueError(f"encoding must be 'state' or 'actions', got {encoding!r}")
    path = Path(path)
    try:
        fh = path.open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ReportIoError(f"cannot write {path}: {exc}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(_ACTION_HEADER if encoding == "actions" else _STATE_HEADER)
        for data in datasets:
            if encoding == "actions" and data.space.size != 4:
                raise ValueError(
                    "action encoding requires the 4-state square convention"
                )
            for traj in data.sessions:
                for rnd, s in enumerate(traj.states, start=1):
                    s = int(s)
                    if encoding == "actions":
                        writer.writerow(
                            [data.treatment_id, traj.session_id, rnd, s // 2, s % 2]
                        )
                    else:
                        writer.writerow([data.treatment_id, traj.session_id, rnd, s])


def observable_report_dict(report: ObservableReport) -> dict:
    return {
        "entropy": report.entropy,
        "epr": report.epr,
        "velocity": report.velocity.tolist(),
        "motion": report.motion,
        "skipped_pairs": report.skipped_pairs,
        "policy_used": report.policy_used,
    }


def test_result_dict(result: TestResult) -> dict:
    return dataclasses.asdict(result)


def ols_fit_dict(fit: OlsFit) -> dict:
    return dataclasses.asdict(fit)


def baseline_summary_dict(baseline: BaselineDistribution) -> dict:
    return {
        "observable": baseline.observable_name,
        "mean": baseline.mean,
        "std": baseline.std,
        "reps": baseline.reps,
        "seed": baseline.seed,
        "policy": baseline.policy.describe(),
        "constraints": baseline.constraint_summary,
    }


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_report(
    reports,
    tests,
    fits,
    path,
    *,
    config: dict | None = None,
    tool_version: str | None = None,
    reproducible: bool = False,
) -> None:
    """Write the analysis document as one JSON file.

    reports: per-treatment entries (dicts, see the README schema).
    tests:   mapping name -> across-treatment TestResult (or prepared dict).
    fits:    mapping name -> OlsFit (or prepared dict).
    The creation timestamp is suppressed when reproducible is True so that
    identical inputs produce byte-identical files.

    Raises:
        ReportIoError: the document holds NaN or Infinity, or the file
            cannot be written; the target path is left untouched.
    """
    if tool_version is None:
        from . import __version__ as tool_version
    document = {
        "tool": {"name": "chainflux", "version": tool_version},
        "config": config or {},
        "treatments": list(reports),
        "tests": {
            name: test_result_dict(t) if isinstance(t, TestResult) else t
            for name, t in dict(tests or {}).items()
        },
        "fits": {
            name: ols_fit_dict(f) if isinstance(f, OlsFit) else f
            for name, f in dict(fits or {}).items()
        },
    }
    if not reproducible:
        document["created_at"] = datetime.now(timezone.utc).isoformat()
    try:
        text = json.dumps(
            document, indent=2, sort_keys=True, default=_jsonable, allow_nan=False
        )
    except ValueError as exc:
        raise ReportIoError(f"report for {path} is not valid JSON: {exc}") from exc
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            tmp.write_text(text + "\n", encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ReportIoError(f"cannot write report to {path}: {reason}") from exc
