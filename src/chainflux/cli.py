"""Command-line pipeline: estimate -> observables -> null models -> tests
-> JSON report.

Subcommands: analyze, minimax-test, cycle-test, motion-fit, simulate.
Progress goes to stderr; stdout carries one machine-readable JSON summary
line. Exit codes: 0 success, 1 data/config/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (
    SQUARE_CYCLE_ORDER,
    MarkovEstimate,
    StateSpace,
    TreatmentDataset,
    estimate_markov,
    is_square_2x2,
    stationarity_diagnostic,
)
from .dataio import (
    AnalysisConfig,
    check_report_path,
    load_csv,
    load_space,
    write_csv,
    write_report,
)
from .errors import ChainfluxError, ConfigError, EmptyDataError
from .nullmodels import (
    Seed,
    VnmParams,
    cycle_transition,
    dos_baseline,
    simulate_iid,
    simulate_iid_bytes,
    simulate_sessions,
    simulate_sessions_bytes,
    vnm_null_distribution,
)
from .observables import ZeroFluxPolicy, epr, full_report
from .stats import mc_p_value, ols_fit, percentile_of

__all__ = [
    "main",
    "entrypoint",
    "run_analyze",
    "run_minimax",
    "run_cycle_test",
    "run_motion_fit",
]


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _parse_policy(text: str) -> ZeroFluxPolicy:
    try:
        return ZeroFluxPolicy.parse(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _seed(value: int) -> Seed:
    try:
        return Seed(value)
    except ValueError as exc:
        raise ConfigError("--seed must be a 64-bit unsigned integer") from exc


def _config(seed: int, space: str, policy: str, **fields) -> AnalysisConfig:
    """The analysis options as an AnalysisConfig: the typed ones are
    converted in this order, so the first bad one is the error reported."""
    return AnalysisConfig(
        seed=_seed(seed), space=load_space(space), policy=_parse_policy(policy), **fields
    )


def _check_fits_memory(flags: str, nbytes: int, what: str) -> None:
    """Reject a request whose arrays alone exceed physical memory. The size
    is computed, not allocated, so the check holds under any overcommit
    setting."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: cannot tell
        return
    if nbytes > physical:
        raise ConfigError(
            f"{flags} asks for {nbytes / 2**30:,.1f} GiB of {what}, more than "
            f"the {physical / 2**30:,.1f} GiB of physical memory"
        )


def _check_null_fits_memory(config: AnalysisConfig, arrays: int) -> None:
    """Reject a --reps whose `arrays` float64 arrays of one sample per
    replicate exceed physical memory."""
    _check_fits_memory(
        f"--reps {config.mc_reps}",
        arrays * 8 * config.mc_reps,
        "Monte-Carlo samples",
    )


def _baseline_summary(observable, samples, config, seed, constraints) -> dict:
    """A null's samples as reports show them: their summary and the null's
    seed, policy and constraints."""
    return {
        "observable": observable,
        "mean": float(samples.mean()),
        "std": float(samples.std(ddof=1)),
        "reps": samples.size,
        "seed": seed.root,
        "policy": config.policy.describe(),
        "constraints": constraints,
    }


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _run(config: AnalysisConfig, command: str, treat, across=None) -> dict:
    """The pipeline every analysis command runs: check the report path, load
    the records (a file without any is an EmptyDataError), build one report
    entry per treatment with `treat(config, index, data)`, derive
    `(tests, fits, summary_extras)` from all entries with `across(entries)`,
    write the report once, and return the stdout summary."""
    check_report_path(config.output)
    datasets = load_csv(config.input, config.space)
    if not datasets:
        name = os.path.basename(config.input)
        raise EmptyDataError(f"{name}: no records after the header")
    _progress(f"loaded {len(datasets)} treatment(s) from {config.input}")
    entries = [treat(config, idx, data) for idx, data in enumerate(datasets)]
    tests, fits, extras = across(entries) if across else ({}, {}, {})
    write_report(
        entries,
        tests,
        fits,
        config.output,
        config=config.echo(),
        reproducible=config.reproducible,
    )
    return {
        "command": command,
        "output": config.output,
        "treatments": len(entries),
        **extras,
    }


def _analyze_treatment(config: AnalysisConfig, idx: int, data: TreatmentDataset) -> dict:
    est = estimate_markov(data, config.burn_in)
    report = full_report(est, config.policy)
    _progress(
        f"treatment {data.treatment_id}: n={est.n_observations} "
        f"entropy={report.entropy:.4f} epr={report.epr:.4f}"
    )
    return {
        "treatment_id": data.treatment_id,
        "n_observations": est.n_observations,
        "n_sessions": len(data.session_ids),
        "dos": est.dos.tolist(),
        "transition": est.transition.tolist(),
        "counts": est.counts.tolist(),
        "occupancy": est.occupancy.tolist(),
        "has_outflow": est.has_outflow.tolist(),
        "observables": report,
        "stationarity": stationarity_diagnostic(data, config.burn_in),
    }


def run_analyze(config: AnalysisConfig) -> dict:
    """Per-treatment chain estimate, observables, and stationarity check."""
    return _run(config, "analyze", _analyze_treatment)


def _vnm_params_from(est: MarkovEstimate, data: TreatmentDataset, burn_in: int) -> VnmParams:
    """Match the data's sample size and mean strategy frequencies; only
    sessions left with a transition pair after burn-in count."""
    # the square's coordinates are each state's actions: P(action = 1)
    p_hat, q_hat = (est.dos @ est.space.coordinates).tolist()
    lengths = data.retained_lengths(burn_in)
    lengths = lengths[lengths >= 2]
    rounds = max(2, int(round(int(lengths.sum()) / lengths.size)))
    return VnmParams(
        p=p_hat, q=q_hat, sessions=int(lengths.size), rounds_per_session=rounds
    )


def _minimax_treatment(
    config: AnalysisConfig, idx: int, data: TreatmentDataset, null_sums=None
) -> dict:
    """One treatment's entry. Its null's entropy and EPR samples are added
    into the rows of `null_sums`, a (2, reps) array, when one is given."""
    est = estimate_markov(data, config.burn_in)
    report = full_report(est, config.policy)
    params = _vnm_params_from(est, data, config.burn_in)
    seed = config.seed.split(idx)
    ent_null, epr_null = vnm_null_distribution(
        params, config.mc_reps, config.policy, seed, workers=config.workers
    )
    if null_sums is not None:
        null_sums[0] += ent_null
        null_sums[1] += epr_null
    constraints = dataclasses.asdict(params)
    baselines = [
        _baseline_summary("entropy", ent_null, config, seed, constraints),
        _baseline_summary("epr", epr_null, config, seed, constraints),
    ]
    _progress(
        f"treatment {data.treatment_id}: epr={report.epr:.4f} "
        f"null mean={baselines[1]['mean']:.4f} (reps={config.mc_reps})"
    )
    return {
        "treatment_id": data.treatment_id,
        "n_observations": est.n_observations,
        "p_hat": params.p,
        "q_hat": params.q,
        "null_sessions": params.sessions,
        "null_rounds_per_session": params.rounds_per_session,
        "observables": report,
        "baselines": baselines,
        "epr_percentile": percentile_of(epr_null, report.epr),
        "entropy_percentile": percentile_of(ent_null, report.entropy),
        "epr_mc_p": mc_p_value(epr_null, report.epr, "greater"),
        "entropy_mc_p": mc_p_value(ent_null, report.entropy, "two_sided"),
    }


def _sum_test(null_sum: np.ndarray, observed: float, direction: str, n: int) -> dict:
    return {
        "statistic": observed,
        "null_mean": float(null_sum.mean()),
        "p_value": mc_p_value(null_sum, observed, direction),
        "reps": null_sum.size,
        "n": n,
        "direction": direction,
    }


def _minimax_across(entries: list[dict], null_sums: np.ndarray) -> tuple[dict, dict, dict]:
    """Add-one Monte-Carlo tests of the treatments' summed entropy and EPR.
    Replicate k of every treatment draws from its own stream, so column k of
    `null_sums` is one draw of the sums' null, for any number of treatments."""
    n = len(entries)
    tests = {
        "epr_sum_greater": _sum_test(
            null_sums[1], sum(e["observables"].epr for e in entries), "greater", n
        ),
        "entropy_sum_two_sided": _sum_test(
            null_sums[0], sum(e["observables"].entropy for e in entries), "two_sided", n
        ),
    }
    return tests, {}, {"epr_sum_p": tests["epr_sum_greater"]["p_value"]}


def run_minimax(config: AnalysisConfig) -> dict:
    """Test the independent-randomization prediction: per-treatment nulls on
    entropy and EPR, plus across-treatment tests of their sums."""
    if not is_square_2x2(config.space):
        raise ConfigError(
            "minimax-test needs the 4-state square space "
            "(index = 2*row_action + col_action)"
        )
    # entropy and EPR per chunk, once concatenated, and as running sums
    _check_null_fits_memory(config, 6)
    null_sums = np.zeros((2, config.mc_reps))
    return _run(
        config,
        "minimax-test",
        functools.partial(_minimax_treatment, null_sums=null_sums),
        functools.partial(_minimax_across, null_sums=null_sums),
    )


def _cycle_treatment(config: AnalysisConfig, idx: int, data: TreatmentDataset) -> dict:
    est = estimate_markov(data, config.burn_in)
    epr_value, skipped = epr(est, config.policy)
    seed = config.seed.split(idx)
    samples = dos_baseline(
        est.dos, est.n_observations, config.mc_reps, config.policy, seed,
        workers=config.workers,
    )
    constraints = {"dos": est.dos.tolist(), "n_rounds": est.n_observations}
    baseline = _baseline_summary("epr", samples, config, seed, constraints)
    mc_p = mc_p_value(samples, epr_value, "greater")
    is_detected = mc_p < config.alpha
    _progress(
        f"treatment {data.treatment_id}: epr={epr_value:.4f} "
        f"baseline mean={baseline['mean']:.4f} mc_p={mc_p:.2e} "
        f"detected={is_detected}"
    )
    return {
        "treatment_id": data.treatment_id,
        "n_observations": est.n_observations,
        "epr": epr_value,
        "skipped_pairs": skipped,
        "baseline": baseline,
        "percentile": percentile_of(samples, epr_value),
        "mc_exceedance_p": mc_p,
        "alpha": config.alpha,
        "cycle_detected": is_detected,
    }


def _cycle_across(entries: list[dict]) -> tuple[dict, dict, dict]:
    detected = [e["treatment_id"] for e in entries if e["cycle_detected"]]
    return {}, {}, {"detected": detected}


def run_cycle_test(config: AnalysisConfig) -> dict:
    """Detect persistent cycling: empirical EPR against the i.i.d.-DOS
    finite-sample baseline, per treatment."""
    # entropy and EPR per chunk and once concatenated
    _check_null_fits_memory(config, 4)
    # detection is mc_p < alpha and mc_p >= 1/(reps+1)
    if config.alpha <= 1.0 / (config.mc_reps + 1):
        _progress(
            f"warning: alpha={config.alpha} is at or below the smallest "
            f"achievable Monte-Carlo p-value "
            f"1/(reps+1)={1.0 / (config.mc_reps + 1):.2e}; "
            f"detection can never fire at these reps"
        )
    return _run(config, "cycle-test", _cycle_treatment, _cycle_across)


def _motion_treatment(config: AnalysisConfig, idx: int, data: TreatmentDataset) -> dict:
    est = estimate_markov(data, config.burn_in)
    report = full_report(est, config.policy)
    return {
        "treatment_id": data.treatment_id,
        "n_observations": est.n_observations,
        "epr": report.epr,
        "motion": report.motion,
    }


def _motion_across(entries: list[dict]) -> tuple[dict, dict, dict]:
    fit = ols_fit([e["epr"] for e in entries], [e["motion"] for e in entries])
    _progress(
        f"motion = ({fit.slope:.4f} ± {fit.slope_stderr:.4f}) * epr "
        f"+ {fit.intercept:.4f}, R^2 = {fit.r_squared:.4f}"
    )
    return {}, {"motion_on_epr": fit}, {"slope": fit.slope, "r_squared": fit.r_squared}


def run_motion_fit(config: AnalysisConfig) -> dict:
    """Regress motion on EPR across all input treatments."""
    return _run(config, "motion-fit", _motion_treatment, _motion_across)


# ---------------------------------------------------------------------------
# synthetic data generation
# ---------------------------------------------------------------------------


# model -> {option: default} of the options that only that model takes
_MODEL_OPTIONS = {
    "vnm": {"p": 0.5, "q": 0.5},
    "ring": {"forward": 0.5, "backward": 0.25},
    "square-cycle": {"forward": 0.5, "backward": 0.25, "drive_sweep": None},
    "iid": {"dos": None},
}
_IID_MODELS = ("vnm", "iid")  # drawn by simulate_iid
# These and the model options parse to None, so that a given value can be
# told from none; help shows the defaults from here.
_UNSET_DEFAULTS = {"treatments": 1, "space_text": "square"}
for _options in _MODEL_OPTIONS.values():
    _UNSET_DEFAULTS.update(_options)


def _simulate_datasets(
    model: str,
    space: StateSpace,
    seed: Seed,
    options: dict,
    *,
    treatments: int,
    sessions: int,
    rounds: int,
) -> list[TreatmentDataset]:
    """Map the `simulate` flags to generator calls, one dataset per treatment.
    Session s of treatment t draws from seed.split(t).split(s) in every model."""
    r = space.size
    if model in _IID_MODELS:
        dos = options.get("dos")
        if model == "vnm":
            dos = VnmParams(options["p"], options["q"], sessions, rounds).dos
        elif dos is None:
            raise ConfigError("--dos is required for the iid model")
        elif len(dos) != r:
            raise ConfigError(f"--dos has {len(dos)} entries but the space has r={r}")
        # lazily, so that each treatment's states are drawn as its dataset is made
        states = (simulate_iid(dos, sessions, rounds, seed.split(t))
                  for t in range(treatments))
    else:
        order = SQUARE_CYCLE_ORDER if model == "square-cycle" else range(r)
        transitions = np.empty((treatments, r, r))
        for t, fwd in enumerate(options.get("drive_sweep") or [options["forward"]] * treatments):
            transitions[t] = cycle_transition(r, order, fwd, options["backward"])
        dos0 = np.full((treatments, r), 1.0 / r)
        states = simulate_sessions(dos0, transitions, sessions, rounds, seed)
    return [
        TreatmentDataset.from_rows(f"T{t + 1:02d}", space, t_states)
        for t, t_states in enumerate(states)
    ]


def _simulate_bytes(model: str, treatments: int, sessions: int, rounds: int, r: int) -> int:
    """Bytes _simulate_datasets holds at its peak: its draw's, and each
    dataset's Python objects beside its states (tracemalloc read at most
    800 B per dataset and 90 B per session, numpy 2.4.6, Python 3.11)."""
    draw = simulate_iid_bytes if model in _IID_MODELS else simulate_sessions_bytes
    return draw(treatments, sessions, rounds, r) + treatments * (1024 + 96 * sessions)


def _simulate_cmd(
    model, output_path, seed, treatments, sessions, rounds, encoding, space_text,
    **given,
) -> dict:
    """Write synthetic record files for any of the bundled generators."""
    root = _seed(seed)
    given = {name: value for name, value in given.items() if value is not None}
    for name in given:
        if name not in _MODEL_OPTIONS[model]:
            raise ConfigError(f"--{name.replace('_', '-')} does not apply to --model {model}")
    options = {**_MODEL_OPTIONS[model], **given}
    sweep = options.get("drive_sweep")
    if sweep is not None:
        if not sweep:
            raise ConfigError("--drive-sweep needs at least one value")
        if treatments not in (None, len(sweep)):
            raise ConfigError(
                f"--treatments {treatments} differs from the {len(sweep)} "
                f"values of --drive-sweep"
            )
        treatments = len(sweep)
    treatments = _UNSET_DEFAULTS["treatments"] if treatments is None else treatments
    if rounds < 2:
        raise ConfigError("--rounds must be >= 2")
    if sessions < 1 or treatments < 1:
        raise ConfigError("--sessions and --treatments must be >= 1")
    space = load_space(space_text or ("triangle" if model == "ring" else "square"))
    if model == "square-cycle" and space.size != 4:
        raise ConfigError(
            f"--model square-cycle needs a 4-state space, since its cycle visits "
            f"states 0 to 3; --space {space_text!r} has {space.size} states"
        )
    if model == "vnm" and not is_square_2x2(space):
        raise ConfigError(
            "--model vnm needs the canonical 4-state square space "
            "(index = 2*row_action + col_action)"
        )
    _check_fits_memory(
        f"{treatments} treatment(s) x --sessions {sessions} x --rounds {rounds}",
        _simulate_bytes(model, treatments, sessions, rounds, space.size),
        "states",
    )
    check_report_path(output_path, what="")
    try:
        datasets = _simulate_datasets(
            model, space, root, options, treatments=treatments, sessions=sessions,
            rounds=rounds,
        )
        write_csv(datasets, output_path, encoding=encoding)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = sum(d.n_rounds for d in datasets)
    _progress(f"wrote {rows} rows for {len(datasets)} treatment(s) to {output_path}")
    return {"command": "simulate", "model": model, "output": output_path,
            "treatments": len(datasets), "rows": rows, "states": space.size}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    """The value of --drive-sweep or --dos: no values if every item is blank,
    and an error if only some are."""
    if not text.replace(",", "").strip():
        return []
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# flag -> add_argument keywords, for each of the four analysis commands
_ANALYSIS_OPTIONS = {
    "--input": dict(required=True, metavar="PATH",
                    help="CSV record file (see README for the schema)."),
    "--output": dict(required=True, metavar="PATH",
                     help="Path of the JSON report to write."),
    "--seed": dict(type=int, default=0,
                   help="64-bit root seed for all Monte-Carlo draws."),
    "--reps": dict(dest="mc_reps", type=int, default=10_000,
                   help="Monte-Carlo replicates per null distribution."),
    "--zero-flux-policy": dict(dest="policy", default="skip",
                               help="EPR zero-flux policy: skip, strict, or smooth=EPS."),
    "--burn-in": dict(type=int, default=0,
                      help="Rounds discarded at the start of every session."),
    "--alpha": dict(type=float, default=0.001, help="Detection significance level."),
    "--space": dict(default="square",
                    help="State space: square, triangle, or a JSON descriptor path."),
    "--workers": dict(type=int, default=1,
                      help="Worker processes for Monte-Carlo replicates."),
    "--reproducible": dict(action="store_true",
                           help="Omit the timestamp so identical runs are byte-identical."),
}

_SIMULATE_OPTIONS = {
    "--model": dict(required=True, choices=["vnm", "ring", "square-cycle", "iid"],
                    help="Generator: independent play, a ring over every state of "
                         "--space (the triangle by default), driven square cycle, "
                         "or i.i.d. draws from --dos."),
    "--output": dict(dest="output_path", required=True, metavar="PATH",
                     help="CSV file to write."),
    "--seed": dict(type=int, default=0, help="64-bit root seed for all draws."),
    "--treatments": dict(type=int, help="Treatments to write."),
    "--sessions": dict(type=int, default=1, help="Sessions per treatment."),
    "--rounds": dict(type=int, default=1000, help="Rounds per session."),
    "--p": dict(type=float, help="vnm: P(row_action=1)."),
    "--q": dict(type=float, help="vnm: P(col_action=1)."),
    "--forward": dict(type=float, help="ring/square-cycle: forward step probability."),
    "--backward": dict(type=float, help="ring/square-cycle: backward step probability."),
    "--drive-sweep": dict(type=_float_list, help="square-cycle: comma list of "
                          "forward values, one treatment each."),
    "--dos": dict(type=_float_list, help="iid: comma list of state probabilities."),
    "--encoding": dict(default="state", choices=["state", "actions"],
                       help="Record columns: the state, or the two players' actions."),
    "--space": dict(dest="space_text",
                    help="State space: square, triangle, or a JSON descriptor path; "
                         "ring defaults to the triangle."),
}

# command -> (help, options, run); each run returns the stdout summary, and
# the lambdas look run_* up when called, so replacing one on this module
# takes effect
_COMMANDS = {
    "analyze": ("Estimate chains and compute all observables per treatment.",
                _ANALYSIS_OPTIONS, lambda **a: run_analyze(_config(**a))),
    "minimax-test": ("Test the independent-randomization prediction against the data.",
                     _ANALYSIS_OPTIONS, lambda **a: run_minimax(_config(**a))),
    "cycle-test": ("Test each treatment's EPR against its finite-sample i.i.d. baseline.",
                   _ANALYSIS_OPTIONS, lambda **a: run_cycle_test(_config(**a))),
    "motion-fit": ("Fit motion against EPR across treatments (OLS with stderr and R^2).",
                   _ANALYSIS_OPTIONS, lambda **a: run_motion_fit(_config(**a))),
    "simulate": ("Write synthetic record files for any of the bundled generators.",
                 _SIMULATE_OPTIONS, _simulate_cmd),
}


class _Formatter(argparse.HelpFormatter):
    """Option help with the value's type and a [required] or [default: X] tag."""

    def _get_default_metavar_for_optional(self, action):
        return {int: "INTEGER", float: "FLOAT"}.get(action.type, "TEXT")

    def _get_help_string(self, action):
        if action.required:
            return f"{action.help}  [required]"
        default = _UNSET_DEFAULTS.get(action.dest, action.default)
        if action.nargs == 0 or default is None:  # a flag, or no default
            return action.help
        return f"{action.help}  [default: {default}]"


class _Parser(argparse.ArgumentParser):
    """Whole option names only, each subcommand reports its own unknown options,
    and a usage error is a ConfigError (exit 1) where argparse would exit 2."""

    def __init__(self, **kwargs):
        kwargs.update(allow_abbrev=False, add_help=False, formatter_class=_Formatter)
        super().__init__(**kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parser() -> _Parser:
    parser = _Parser(
        prog="chainflux",
        description="Markov-chain estimation and nonequilibrium observables for "
        "recorded play sequences: entropy, entropy production rate, velocity, "
        "motion, Monte-Carlo null models, and the associated statistical tests.",
    )
    parser.add_argument("--version", action="version", help="Show the version and exit.",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (text, options, _) in _COMMANDS.items():
        command = commands.add_parser(name, help=text, description=text)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    """Run the CLI and map exceptions to the documented exit codes."""
    try:
        args = vars(_parser().parse_args(argv))
        summary = _COMMANDS[args.pop("command")][2](**args)
        print(json.dumps(summary, sort_keys=True), flush=True)
        return 0
    except SystemExit as exc:  # argparse exits after printing --help or --version
        return int(exc.code or 0)
    except KeyboardInterrupt:
        return 1
    except ChainfluxError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 1
    except Exception as exc:  # noqa: BLE001 -- exit 2 is the contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr, flush=True)
        return 2


def entrypoint() -> None:
    code = main()
    # interpreter shutdown then skips walking and freeing the objects that
    # numpy and chainflux made at import
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
