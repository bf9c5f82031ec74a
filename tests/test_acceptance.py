"""Acceptance criteria. Each test prints one PASS/FAIL line (run with -s).

All expected values are synthetic-oracle based: closed forms verified by
brute-force summation, statistical size/power measured over seeded runs.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from chainflux import (
    Seed,
    TreatmentDataset,
    VnmParams,
    ZeroFluxPolicy,
    entropy,
    epr,
    estimate_markov,
    mc_p_value,
    motion,
    ols_fit,
    simulate_chain,
    square_2x2,
    triangle_3,
    vnm_null_distribution,
    dos_baseline,
)
from chainflux.cli import main as cli_main
from chainflux.dataio import write_csv

from conftest import (
    RING_EPR,
    RING_TRANSITION,
    independent_play,
    reversible_estimate,
    ring_estimate,
    square_cycle_estimate,
)
from test_observables import epr_ordered_bruteforce

SKIP = ZeroFluxPolicy.skip()


def criterion(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{name}] {status} -- {detail} ({elapsed:.1f}s, budget {budget:.0f}s)"
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_detailed_balance_zero():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        r = int(rng.integers(3, 7))
        est = reversible_estimate(rng, r)
        value, _ = epr(est, ZeroFluxPolicy.strict())
        worst = max(worst, abs(value))
    elapsed = time.perf_counter() - t0
    criterion(
        "A1 detailed-balance zero",
        worst <= 1e-12,
        f"max |epr| over 50 reversible chains = {worst:.2e} (tol 1e-12)",
        elapsed,
        1.0,
    )


def test_criterion_2_ring_closed_form():
    t0 = time.perf_counter()
    est = ring_estimate()
    value, _ = epr(est, ZeroFluxPolicy.strict())
    brute = epr_ordered_bruteforce(est.dos, est.transition, 3)
    ok = abs(value - RING_EPR) <= 1e-12 and abs(brute - RING_EPR) <= 1e-12
    elapsed = time.perf_counter() - t0
    criterion(
        "A2 ring closed form",
        ok,
        f"epr={value:.15f} brute-force={brute:.15f} "
        f"closed-form={RING_EPR:.15f} (tol 1e-12)",
        elapsed,
        1.0,
    )


def test_criterion_3_estimator_consistency():
    t0 = time.perf_counter()
    states = simulate_chain(np.full(3, 1 / 3), RING_TRANSITION, 1_000_000, Seed(3001))
    est = estimate_markov(TreatmentDataset.from_sessions("ring", triangle_3(), {"sim": states}))
    value, _ = epr(est, SKIP)
    ent = entropy(est)
    rel_err = abs(value - RING_EPR) / RING_EPR
    ok = rel_err < 0.02 and abs(ent - 1.0) < 0.002
    elapsed = time.perf_counter() - t0
    criterion(
        "A3 estimator consistency",
        ok,
        f"1e6-step ring: epr rel err {rel_err:.2%} (tol 2%), "
        f"|entropy-1| = {abs(ent - 1.0):.2e} (tol 0.002)",
        elapsed,
        30.0,
    )


def test_criterion_4_bias_baseline_decay():
    t0 = time.perf_counter()
    uniform = [0.25] * 4
    short = dos_baseline(uniform, 200, 10_000, SKIP, Seed(4001))
    long = dos_baseline(uniform, 20_000, 10_000, SKIP, Seed(4002))
    factor = short.mean() / long.mean()
    elapsed = time.perf_counter() - t0
    criterion(
        "A4 finite-sample bias decay",
        factor > 5.0,
        f"mean B0 epr: n=200 -> {short.mean():.5f}, n=20000 -> {long.mean():.6f}, "
        f"factor {factor:.1f} (required > 5)",
        elapsed,
        120.0,
    )


def _cycle_mc_p(states: np.ndarray, reps: int, seed: Seed) -> float:
    """The cycle-test decision quantity for a single-session treatment."""
    est = estimate_markov(
        TreatmentDataset.from_sessions("t", square_2x2(), {"s1": states})
    )
    value, _ = epr(est, SKIP)
    samples = dos_baseline(est.dos, est.n_observations, reps, SKIP, seed)
    return (1 + int(np.count_nonzero(samples >= value))) / (reps + 1)


def test_criterion_5_cycle_test_power_and_size():
    t0 = time.perf_counter()
    # power: near-deterministic 4-cycle, 200 rounds, reps=1e4, p < 0.001
    from chainflux.cli import cycle_transition

    driven = cycle_transition(4, (0, 2, 3, 1), 0.85, 0.05)
    driven_states = simulate_chain(np.full(4, 0.25), driven, 200, Seed(5001))
    power_p = _cycle_mc_p(driven_states, 10_000, Seed(5002))

    # size: 200 seeded i.i.d. runs at 200 rounds, alpha = 0.05
    runs, reps = 200, 2000
    data_root, null_root = Seed(52025), Seed(62025)
    rejections = 0
    for run in range(runs):
        states = _iid_states(data_root.split(run), 200)
        if _cycle_mc_p(states, reps, null_root.split(run)) < 0.05:
            rejections += 1
    rate = rejections / runs
    ok = power_p < 0.001 and rate <= 0.07
    elapsed = time.perf_counter() - t0
    criterion(
        "A5 cycle-test power and size",
        ok,
        f"driven-cycle p = {power_p:.2e} (< 0.001); "
        f"i.i.d. false-detection {rejections}/{runs} = {rate:.1%} (<= 7%)",
        elapsed,
        300.0,
    )


def _iid_states(seed: Seed, n: int) -> np.ndarray:
    return (seed.generator().random(n) * 4).astype(np.int64)


_PQ_GRID = [
    (p, q)
    for p in (0.30, 0.42, 0.54, 0.66)
    for q in (0.35, 0.45, 0.60, 0.70)
]


def _minimax_sum_p(run_seed: Seed, data_seed: Seed, reps: int):
    """The across-treatment Monte-Carlo test of summed EPR on 16
    independent-play treatments, composed exactly as the minimax-test
    pipeline does: replicate k of the sum adds replicate k of every
    treatment's null."""
    space = square_2x2()
    emp, null_sum = 0.0, np.zeros(reps)
    datasets = []
    for idx, (p, q) in enumerate(_PQ_GRID):
        params = VnmParams(p=p, q=q, sessions=2, rounds_per_session=150)
        states = independent_play(params, data_seed.split(idx))
        data = TreatmentDataset.from_rows(f"T{idx + 1:02d}", space, states)
        datasets.append(data)
        est = estimate_markov(data)
        value, _ = epr(est, SKIP)
        p_hat = float(est.dos[2] + est.dos[3])
        q_hat = float(est.dos[1] + est.dos[3])
        matched = VnmParams(p=p_hat, q=q_hat, sessions=2, rounds_per_session=150)
        _, null = vnm_null_distribution(matched, reps, SKIP, run_seed.split(idx))
        emp += value
        null_sum += null
    return mc_p_value(null_sum, emp, "greater"), datasets


def test_criterion_6_minimax_size_and_power(tmp_path):
    t0 = time.perf_counter()
    runs, reps = 100, 200
    size_root, data_root = Seed(66001), Seed(66002)
    not_rejected = 0
    first_p = None
    first_datasets = None
    for run in range(runs):
        p_value, datasets = _minimax_sum_p(
            size_root.split(run), data_root.split(run), reps
        )
        if run == 0:
            first_p, first_datasets = p_value, datasets
        if p_value >= 0.05:
            not_rejected += 1

    # the CSV pipeline must reproduce run 0 exactly
    csv_path = tmp_path / "vnm16.csv"
    out_path = tmp_path / "mm.json"
    write_csv(first_datasets, csv_path)
    code = cli_main([
        "minimax-test", "--input", str(csv_path), "--output", str(out_path),
        "--reps", str(reps), "--seed", str(size_root.split(0).root),
        "--reproducible",
    ])
    doc = json.loads(out_path.read_text())
    pipeline_p = doc["tests"]["epr_sum_greater"]["p_value"]

    # power: 16 driven-cycle treatments through the real pipeline, p < 0.001
    from chainflux.cli import cycle_transition

    driven_sets = []
    for idx in range(16):
        forward = 0.45 + 0.025 * idx
        transition = cycle_transition(4, (0, 2, 3, 1), forward, 0.05)
        sessions = {
            f"s{s + 1}": simulate_chain(np.full(4, 0.25), transition, 150,
                                        Seed(67000).split(idx).split(s))
            for s in range(2)
        }
        driven_sets.append(
            TreatmentDataset.from_sessions(f"D{idx + 1:02d}", square_2x2(), sessions)
        )
    driven_csv = tmp_path / "driven16.csv"
    driven_out = tmp_path / "mm_driven.json"
    write_csv(driven_sets, driven_csv)
    code2 = cli_main([
        "minimax-test", "--input", str(driven_csv), "--output", str(driven_out),
        "--reps", "5000", "--seed", "68000", "--reproducible",
    ])
    driven_doc = json.loads(driven_out.read_text())
    driven_p = driven_doc["tests"]["epr_sum_greater"]["p_value"]
    per_treatment_ok = all(
        entry["epr_mc_p"] < 0.001 for entry in driven_doc["treatments"]
    )

    ok = (
        not_rejected >= 90
        and code == 0
        and pipeline_p == first_p
        and code2 == 0
        and driven_p < 0.001
        and per_treatment_ok
    )
    elapsed = time.perf_counter() - t0
    criterion(
        "A6 minimax size and power",
        ok,
        f"vNM data not rejected in {not_rejected}/100 runs (>= 90); "
        f"pipeline p == library p: {pipeline_p == first_p}; "
        f"driven data sum p = {driven_p:.2e} (< 0.001), "
        f"all 16 per-treatment mc_p < 0.001: {per_treatment_ok}",
        elapsed,
        600.0,
    )


def test_criterion_7_motion_epr_pipeline():
    t0 = time.perf_counter()
    exact = motion(square_cycle_estimate(forward=1.0))
    forwards = np.arange(0.30, 0.90, 0.05)
    eprs, motions = [], []
    for forward in forwards:
        est = square_cycle_estimate(forward=float(forward), backward=0.05)
        value, _ = epr(est, ZeroFluxPolicy.strict())
        eprs.append(value)
        motions.append(motion(est))
    fit = ols_fit(eprs, motions)
    ok = (
        exact == 0.0625
        and fit.slope > 0.0
        and math.isfinite(fit.slope)
        and math.isfinite(fit.slope_stderr)
        and 0.0 <= fit.r_squared <= 1.0
    )
    elapsed = time.perf_counter() - t0
    criterion(
        "A7 motion-epr pipeline",
        ok,
        f"exact square-cycle motion = {exact} (== 0.0625); driven family: "
        f"slope = {fit.slope:.4f} ± {fit.slope_stderr:.4f}, "
        f"R^2 = {fit.r_squared:.4f}",
        elapsed,
        10.0,
    )


def test_criterion_8_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    data_csv = tmp_path / "data.csv"
    code = cli_main([
        "simulate", "--model", "square-cycle", "--forward", "0.8",
        "--backward", "0.1", "--rounds", "200", "--treatments", "2",
        "--seed", "88", "--output", str(data_csv),
    ])
    assert code == 0
    out = tmp_path / "report.json"
    args = [
        "cycle-test", "--input", str(data_csv), "--output", str(out),
        "--reps", "1000", "--seed", "77", "--workers", "2", "--reproducible",
    ]
    assert cli_main(list(args)) == 0
    first = out.read_bytes()
    assert cli_main(list(args)) == 0
    second = out.read_bytes()

    mm_out = tmp_path / "mm.json"
    vnm_csv = tmp_path / "vnm.csv"
    assert cli_main([
        "simulate", "--model", "vnm", "--rounds", "100", "--treatments", "2",
        "--seed", "5", "--output", str(vnm_csv),
    ]) == 0
    mm_args = [
        "minimax-test", "--input", str(vnm_csv), "--output", str(mm_out),
        "--reps", "80", "--seed", "6", "--workers", "2", "--reproducible",
    ]
    assert cli_main(list(mm_args)) == 0
    mm_first = mm_out.read_bytes()
    assert cli_main(list(mm_args)) == 0
    mm_second = mm_out.read_bytes()

    capsys.readouterr()  # flush CLI noise before the criterion line
    ok = first == second and mm_first == mm_second
    elapsed = time.perf_counter() - t0
    criterion(
        "A8 determinism",
        ok,
        f"cycle-test bytes equal: {first == second}; "
        f"minimax-test bytes equal: {mm_first == mm_second} "
        f"(both with --workers 2)",
        elapsed,
        120.0,
    )
