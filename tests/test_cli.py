"""End-to-end CLI: pipelines, exit codes, determinism, report structure."""

from __future__ import annotations

import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chainflux import (
    Seed,
    TreatmentDataset,
    VnmParams,
    nullmodels,
    square_2x2,
)
from chainflux.cli import (
    _config,
    _cycle_treatment,
    _minimax_across,
    _minimax_treatment,
    main,
)
from conftest import RING_EPR, fill_disk, independent_play

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    """Invoke the CLI; return (exit_code, parsed stdout summary or None)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    summary = None
    if captured.out.strip():
        summary = json.loads(captured.out.strip().splitlines()[-1])
    return code, summary, captured.err


def simulate(capsys, tmp_path, name, *args):
    path = tmp_path / name
    code, summary, _ = run_cli(capsys, "simulate", "--output", str(path), *args)
    assert code == 0, summary
    return path


def _io_args(command, tmp_path):
    """--input/--output for an analysis command on a two-row file, or
    --model/--output for simulate."""
    if command == "simulate":
        return ("--model", "vnm", "--output", str(tmp_path / "x.csv"))
    data = tmp_path / "d.csv"
    data.write_text("treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,1\n")
    return ("--input", str(data), "--output", str(tmp_path / "r.json"))


class TestSimulate:
    def test_deterministic_cycle_csv(self, capsys, tmp_path):
        path = simulate(
            capsys, tmp_path, "cycle.csv",
            "--model", "square-cycle", "--forward", "1.0", "--backward", "0.0",
            "--rounds", "8", "--seed", "4",
        )
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "treatment_id,session_id,round,state"
        states = [int(r.split(",")[3]) for r in rows[1:]]
        cycle = {0: 2, 2: 3, 3: 1, 1: 0}
        for a, b in zip(states, states[1:]):
            assert b == cycle[a]

    def test_seeded_reproducibility(self, capsys, tmp_path):
        a = simulate(capsys, tmp_path, "a.csv",
                     "--model", "vnm", "--rounds", "50", "--seed", "12")
        b = simulate(capsys, tmp_path, "b.csv",
                     "--model", "vnm", "--rounds", "50", "--seed", "12")
        assert a.read_bytes() == b.read_bytes()
        c = simulate(capsys, tmp_path, "c.csv",
                     "--model", "vnm", "--rounds", "50", "--seed", "13")
        assert a.read_bytes() != c.read_bytes()

    def test_vnm_is_iid_with_the_product_dos(self, capsys, tmp_path):
        # (1 - p)(1 - q), (1 - p) q, p (1 - q) and p q are exact in binary
        common = ("--treatments", "2", "--sessions", "3", "--rounds", "40", "--seed", "3")
        vnm = simulate(capsys, tmp_path, "vnm.csv",
                       "--model", "vnm", "--p", "0.75", "--q", "0.5", *common)
        iid = simulate(capsys, tmp_path, "iid.csv",
                       "--model", "iid", "--dos", "0.125,0.125,0.375,0.375", *common)
        assert vnm.read_bytes() == iid.read_bytes()

    def test_vnm_marginals_within_binomial_bounds(self, capsys, tmp_path):
        path = simulate(
            capsys, tmp_path, "vnm.csv",
            "--model", "vnm", "--p", "0.7", "--q", "0.4",
            "--rounds", "4000", "--seed", "3",
        )
        rows = path.read_text().strip().splitlines()[1:]
        states = np.array([int(r.split(",")[3]) for r in rows])
        p_hat = float(np.mean(states // 2))
        assert abs(p_hat - 0.7) < 3 * np.sqrt(0.7 * 0.3 / states.size)

    def test_action_encoding(self, capsys, tmp_path):
        path = simulate(
            capsys, tmp_path, "acts.csv",
            "--model", "vnm", "--rounds", "20", "--encoding", "actions",
        )
        header = path.read_text().splitlines()[0]
        assert header == "treatment_id,session_id,round,row_action,col_action"

    def test_bad_drive_params_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--model", "ring", "--forward", "0.9",
            "--backward", "0.5", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "forward" in err

    def test_iid_needs_matching_dos(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "iid", "--dos", "0.5,0.5",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--model", "ring", "--drive-sweep", "0.2,0.5,0.8", "--rounds", "10"),
             "--drive-sweep does not apply to --model ring"),
            (("--model", "vnm", "--dos", "0.1,0.9", "--forward", "0.9"),
             "--forward does not apply to --model vnm"),
            (("--model", "iid", "--dos", "0.5,0.5,0,0", "--p", "0.5"),
             "--p does not apply to --model iid"),
            (("--model", "square-cycle", "--q", "0.5"),
             "--q does not apply to --model square-cycle"),
            (("--model", "ring", "--dos", "0.5,0.5,0"),
             "--dos does not apply to --model ring"),
            (("--model", "square-cycle", "--drive-sweep", "0.2,0.5", "--treatments", "5"),
             "--treatments 5 differs from the 2 values of --drive-sweep"),
            (("--model", "square-cycle", "--drive-sweep", ","),
             "--drive-sweep needs at least one value"),
        ],
        ids=["ring-sweep", "vnm-forward", "iid-p", "square-q", "ring-dos",
             "sweep-treatments", "empty-sweep"],
    )
    def test_flag_foreign_to_model_exit_1_before_drawing(
        self, capsys, monkeypatch, tmp_path, args, message
    ):
        import chainflux.cli as cli_module

        def never(*args, **kwargs):
            raise RuntimeError("drew before the flags were checked")

        monkeypatch.setattr(cli_module, "_simulate_datasets", never)
        out = tmp_path / "x.csv"
        code, summary, err = run_cli(capsys, "simulate", *args, "--output", str(out))
        assert code == 1
        assert summary is None
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_unwritable_output_exit_1(self, capsys, tmp_path):
        out = tmp_path / "no-dir" / "x.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--model", "vnm", "--rounds", "10",
            "--output", str(out),
        )
        assert code == 1
        assert err.startswith(f"error: cannot write {out}: ")
        assert "internal error" not in err

    def test_unwritable_output_fails_before_any_draw(self, capsys, monkeypatch, tmp_path):
        import chainflux.cli as cli_module

        def never(*args, **kwargs):
            raise RuntimeError("drew before the output was checked")

        monkeypatch.setattr(cli_module, "_simulate_datasets", never)
        out = tmp_path / "no-dir" / "x.csv"
        code, summary, err = run_cli(
            capsys, "simulate", "--model", "square-cycle", "--rounds", "2000000",
            "--output", str(out),
        )
        assert code == 1
        assert summary is None
        assert err == f"error: cannot write {out}: no such directory {out.parent}\n"

    def test_actions_off_the_square_exit_1_without_file(self, capsys, tmp_path):
        out = tmp_path / "ring.csv"
        code, summary, err = run_cli(
            capsys, "simulate", "--model", "ring", "--encoding", "actions",
            "--rounds", "10", "--output", str(out),
        )
        assert code == 1
        assert summary is None
        assert err == "error: action encoding requires the 4-state square convention\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "args, message",
        [
            (("--model", "iid", "--dos", "nan,0.5,0.25,0.25"),
             "dos must be finite, nonnegative and sum to 1 within 1e-09; "
             "got sum nan"),
            (("--model", "iid", "--dos", "0.5,inf,0.25,0.25"),
             "dos must be finite, nonnegative and sum to 1 within 1e-09; "
             "got sum inf"),
            (("--model", "square-cycle", "--forward", "nan"),
             "forward + backward must be <= 1 and nonnegative "
             "(forward=nan, backward=0.25)"),
        ],
        ids=["iid-nan", "iid-inf", "square-cycle-nan"],
    )
    def test_non_finite_distribution_exit_1_without_file(
        self, capsys, tmp_path, args, message
    ):
        out = tmp_path / "x.csv"
        code, summary, err = run_cli(
            capsys, "simulate", *args, "--rounds", "10", "--output", str(out),
        )
        assert code == 1
        assert summary is None
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("space", ["triangle", "five.json"])
    def test_square_cycle_off_a_4_state_space_exit_1(self, capsys, tmp_path, space):
        if space == "five.json":
            descriptor = tmp_path / space
            descriptor.write_text(json.dumps(
                {"labels": list("abcde"), "coordinates": [[k, 0] for k in range(5)]}
            ))
            space = str(descriptor)
        out = tmp_path / "x.csv"
        code, summary, err = run_cli(
            capsys, "simulate", "--model", "square-cycle", "--space", space,
            "--rounds", "10", "--output", str(out),
        )
        size = 3 if space == "triangle" else 5
        assert code == 1
        assert summary is None
        assert err == (
            f"error: --model square-cycle needs a 4-state space, since its cycle "
            f"visits states 0 to 3; --space {space!r} has {size} states\n"
        )
        assert not out.exists()

    def test_ring_on_a_price_ladder_is_detected(self, capsys, tmp_path):
        # an Edgeworth cycle: the ring climbs a 6-level ladder and drops back
        ladder = tmp_path / "ladder.json"
        ladder.write_text(json.dumps(
            {"labels": [f"p{k}" for k in range(6)], "coordinates": list(range(6))}
        ))
        data = simulate(
            capsys, tmp_path, "ladder.csv", "--model", "ring", "--space", str(ladder),
            "--forward", "0.6", "--backward", "0.05", "--rounds", "200",
        )
        assert {int(row.split(",")[3]) for row in data.read_text().split()[1:]} == set(
            range(6)
        )
        out = tmp_path / "cycle.json"
        code, summary, _ = run_cli(
            capsys, "cycle-test", "--input", str(data), "--output", str(out),
            "--space", str(ladder), "--reps", "2000", "--reproducible",
        )
        assert code == 0
        assert summary["detected"] == ["T01"]

    def test_vnm_off_the_square_exit_1(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, summary, err = run_cli(
            capsys, "simulate", "--model", "vnm", "--space", "triangle",
            "--rounds", "10", "--output", str(out),
        )
        assert code == 1
        assert summary is None
        assert err == (
            "error: --model vnm needs the canonical 4-state square space "
            "(index = 2*row_action + col_action)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [("--model", "iid", "--dos", "0.25,,0.25,0.25,0.25"),
         ("--model", "iid", "--dos", "0.25,0.25,0.25,0.25, "),
         ("--model", "square-cycle", "--drive-sweep", "0.2,,0.5")],
        ids=["dos-empty", "dos-blank", "sweep-empty"],
    )
    def test_empty_list_item_exit_1_before_drawing(
        self, capsys, monkeypatch, tmp_path, args
    ):
        import chainflux.cli as cli_module

        def never(*args, **kwargs):
            raise RuntimeError("drew before the flags were checked")

        monkeypatch.setattr(cli_module, "_simulate_datasets", never)
        out = tmp_path / "z.csv"
        code, summary, err = run_cli(
            capsys, "simulate", *args, "--rounds", "10", "--output", str(out)
        )
        assert code == 1
        assert summary is None
        assert "could not convert string to float" in err.splitlines()[-1]
        assert not out.exists()

    def test_ring_defaults_to_the_triangle(self, capsys, tmp_path):
        args = ("--model", "ring", "--rounds", "10", "--seed", "2")
        default = simulate(capsys, tmp_path, "a.csv", *args)
        code, summary, _ = run_cli(
            capsys, "simulate", *args, "--space", "triangle",
            "--output", str(tmp_path / "b.csv"),
        )
        assert code == 0 and summary["states"] == 3
        assert default.read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_failed_write_exit_1_without_file(self, capsys, monkeypatch, tmp_path):
        fill_disk(monkeypatch, room=100)
        out = tmp_path / "x.csv"
        code, summary, err = run_cli(
            capsys, "simulate", "--model", "vnm", "--rounds", "50",
            "--output", str(out),
        )
        assert code == 1
        assert summary is None
        assert err == f"error: cannot write {out}: No space left on device\n"
        assert list(tmp_path.iterdir()) == []


class TestAnalyze:
    def test_ring_pipeline_recovers_closed_form(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "ring.csv",
            "--model", "ring", "--forward", "0.5", "--backward", "0.25",
            "--rounds", "100000", "--seed", "31",
        )
        out = tmp_path / "ring.json"
        code, summary, _ = run_cli(
            capsys, "analyze", "--input", str(data), "--output", str(out),
            "--space", "triangle", "--reproducible",
        )
        assert code == 0
        assert summary["treatments"] == 1
        doc = json.loads(out.read_text())
        entry = doc["treatments"][0]
        assert abs(entry["observables"]["epr"] - RING_EPR) < 0.03 * RING_EPR
        assert abs(entry["observables"]["entropy"] - 1.0) < 0.001
        assert entry["stationarity"]["linf_distance"] < 0.02
        assert doc["config"]["zero_flux_policy"] == {"mode": "skip"}

    def test_empty_file_exit_1(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(empty),
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "empty" in err

    def test_invalid_utf8_exit_1_names_line(self, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_bytes(
            b"treatment_id,session_id,round,state\nt,s,1,0\nt,s\xff,2,1\n"
        )
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(data),
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert err == "error: invalid UTF-8 byte 0xff (invalid start byte) (line 3)\n"

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "analyze", "--input", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 1

    def test_custom_space_descriptor(self, capsys, tmp_path):
        space_file = tmp_path / "line2.json"
        space_file.write_text(
            json.dumps({"labels": ["L", "R"], "coordinates": [[0.0], [1.0]]})
        )
        data = tmp_path / "two.csv"
        data.write_text(
            "treatment_id,session_id,round,state\n"
            + "".join(f"t,s,{i + 1},{i % 2}\n" for i in range(40))
        )
        out = tmp_path / "two.json"
        code, _, _ = run_cli(
            capsys, "analyze", "--input", str(data), "--output", str(out),
            "--space", str(space_file), "--reproducible",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["space"]["size"] == 2

    @pytest.mark.parametrize("space", ["triangle", "kite.json"])
    def test_action_pairs_off_the_square_exit_1(self, capsys, tmp_path, space):
        if space == "kite.json":
            descriptor = tmp_path / space
            descriptor.write_text(json.dumps(
                {"labels": list("abcd"), "coordinates": [[0, 0], [1, 0], [0, 1], [2, 2]]}
            ))
            space = str(descriptor)
        data = simulate(capsys, tmp_path, "acts.csv", "--model", "vnm",
                        "--rounds", "20", "--encoding", "actions")
        out = tmp_path / "r.json"
        code, summary, err = run_cli(
            capsys, "analyze", "--input", str(data), "--output", str(out),
            "--space", space,
        )
        assert code == 1
        assert summary is None
        assert err == "error: acts.csv: action pairs need the 4-state square space\n"
        assert not out.exists()

    def test_smooth_policy_flag(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "c.csv",
            "--model", "square-cycle", "--forward", "1.0", "--backward", "0.0",
            "--rounds", "40",
        )
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "analyze", "--input", str(data), "--output", str(out),
            "--zero-flux-policy", "smooth=1e-6", "--reproducible",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["zero_flux_policy"] == {"mode": "smooth",
                                                     "epsilon": 1e-6}
        assert doc["treatments"][0]["observables"]["epr"] > 0

    def test_strict_policy_on_cycle_exit_1(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "c.csv",
            "--model", "square-cycle", "--forward", "1.0", "--backward", "0.0",
            "--rounds", "40",
        )
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(data),
            "--output", str(tmp_path / "r.json"), "--zero-flux-policy", "strict",
        )
        assert code == 1
        assert "one-sided" in err


class TestCycleTest:
    def test_near_deterministic_cycle_detected(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "ec.csv",
            "--model", "square-cycle", "--forward", "0.85", "--backward", "0.05",
            "--rounds", "200", "--seed", "44",
        )
        out = tmp_path / "cycle.json"
        code, summary, _ = run_cli(
            capsys, "cycle-test", "--input", str(data), "--output", str(out),
            "--reps", "2000", "--seed", "10", "--reproducible",
        )
        assert code == 0
        assert summary["detected"] == ["T01"]
        doc = json.loads(out.read_text())
        entry = doc["treatments"][0]
        assert entry["cycle_detected"] is True
        assert entry["mc_exceedance_p"] < 0.001
        assert entry["percentile"] == 1.0
        assert entry["baseline"]["reps"] == 2000
        # the baseline's summary: every field but its samples
        assert set(entry["baseline"]) == {
            "observable", "mean", "std", "reps", "seed", "policy", "constraints",
        }
        assert entry["baseline"]["policy"] == {"mode": "skip"}
        assert set(entry["baseline"]["constraints"]) == {"dos", "n_rounds"}
        assert entry["baseline"]["seed"] == Seed(10).split(0).root
        assert set(entry) == {
            "treatment_id", "n_observations", "epr", "skipped_pairs",
            "baseline", "percentile", "mc_exceedance_p", "alpha",
            "cycle_detected",
        }

    def test_iid_not_detected(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "iid.csv",
            "--model", "iid", "--dos", "0.25,0.25,0.25,0.25",
            "--rounds", "200", "--seed", "21",
        )
        out = tmp_path / "iid.json"
        code, summary, _ = run_cli(
            capsys, "cycle-test", "--input", str(data), "--output", str(out),
            "--reps", "1000", "--seed", "5", "--alpha", "0.05",
        )
        assert code == 0
        assert summary["detected"] == []
        entry = json.loads(out.read_text())["treatments"][0]
        assert entry["percentile"] < 0.95  # epr sits inside the null bulk

    def test_baseline_entry_names_its_null(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text(
            "treatment_id,session_id,round,state\n"
            + "".join(f"t,s,{i + 1},{i % 2}\n" for i in range(64))
        )
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "cycle-test", "--input", str(data), "--output", str(out),
            "--reps", "8", "--seed", "9",
        )
        assert code == 0
        baseline = json.loads(out.read_text())["treatments"][0]["baseline"]
        assert baseline["observable"] == "epr"
        assert baseline["reps"] == 8
        assert baseline["seed"] == Seed(9).split(0).root
        assert baseline["constraints"] == {"dos": [0.5, 0.5, 0.0, 0.0], "n_rounds": 64}

    def test_never_visited_state_is_harmless(self, capsys, tmp_path):
        data = tmp_path / "three.csv"
        rng = np.random.default_rng(9)
        states = rng.integers(0, 3, 120)  # state 3 never appears
        data.write_text(
            "treatment_id,session_id,round,state\n"
            + "".join(f"t,s,{i + 1},{s}\n" for i, s in enumerate(states))
        )
        code, summary, _ = run_cli(
            capsys, "cycle-test", "--input", str(data),
            "--output", str(tmp_path / "r.json"), "--reps", "200", "--seed", "2",
        )
        assert code == 0
        assert summary["treatments"] == 1

    # detection is mc_p < alpha, so alpha == 1/(reps+1) is unreachable too
    @pytest.mark.parametrize("reps", ["100", "999"], ids=["below", "at"])
    def test_unreachable_alpha_warns(self, capsys, tmp_path, reps):
        data = simulate(capsys, tmp_path, "d.csv", "--model", "vnm",
                        "--rounds", "60")
        code, _, err = run_cli(
            capsys, "cycle-test", "--input", str(data),
            "--output", str(tmp_path / "r.json"), "--reps", reps,
            "--alpha", "0.001", "--seed", "1",
        )
        assert code == 0
        assert "warning" in err

    def test_strict_null_error_same_with_worker_processes(
        self, capsys, tmp_path, monkeypatch
    ):
        # the i.i.d. null of a 60-round cycle has one-sided zero fluxes; the
        # error raised in a worker must reach the CLI as it does in-process
        monkeypatch.setattr(nullmodels, "_usable_cpus", lambda: 2)
        data = simulate(capsys, tmp_path, "c.csv", "--model", "square-cycle",
                        "--rounds", "60", "--seed", "1")
        runs = [
            run_cli(
                capsys, "cycle-test", "--input", str(data),
                "--output", str(tmp_path / "r.json"), "--reps", "200",
                "--zero-flux-policy", "strict", "--workers", workers,
            )
            for workers in ("1", "2")
        ]
        (code1, _, err1), (code2, _, err2) = runs
        assert code1 == code2 == 1
        assert "error: one-sided zero flux on state pair" in err1
        assert err2 == err1


class TestMinimaxTest:
    def test_structure_and_marginal_recovery(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "vnm.csv",
            "--model", "vnm", "--p", "0.7", "--q", "0.5",
            "--treatments", "3", "--sessions", "2", "--rounds", "400",
            "--seed", "77",
        )
        out = tmp_path / "mm.json"
        code, summary, _ = run_cli(
            capsys, "minimax-test", "--input", str(data), "--output", str(out),
            "--reps", "150", "--seed", "6", "--reproducible",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["treatments"]) == 3
        for idx, entry in enumerate(doc["treatments"]):
            n = entry["n_observations"]
            assert abs(entry["p_hat"] - 0.7) < 3 * np.sqrt(0.7 * 0.3 / n)
            assert entry["null_sessions"] == 2
            assert entry["null_rounds_per_session"] == 400
            assert [b["observable"] for b in entry["baselines"]] == ["entropy", "epr"]
            for baseline in entry["baselines"]:
                assert baseline["reps"] == 150
                assert baseline["seed"] == Seed(6).split(idx).root
                assert baseline["constraints"] == {
                    "p": entry["p_hat"], "q": entry["q_hat"], "sessions": 2,
                    "rounds_per_session": 400,
                }
            assert set(entry) == {
                "treatment_id", "n_observations", "p_hat", "q_hat",
                "null_sessions", "null_rounds_per_session", "observables",
                "baselines", "epr_percentile", "entropy_percentile",
                "epr_mc_p", "entropy_mc_p",
            }
            assert 0.0 < entry["entropy_mc_p"] <= 1.0
        assert set(doc["tests"]) == {"epr_sum_greater", "entropy_sum_two_sided"}
        for name, direction in [("epr_sum_greater", "greater"),
                                ("entropy_sum_two_sided", "two_sided")]:
            test = doc["tests"][name]
            assert set(test) == {
                "statistic", "null_mean", "p_value", "reps", "n", "direction",
            }
            assert (test["reps"], test["n"], test["direction"]) == (150, 3, direction)
            assert 0.0 < test["p_value"] <= 1.0
        assert summary["epr_sum_p"] == doc["tests"]["epr_sum_greater"]["p_value"]

    def test_driven_cycle_rejected(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "driven.csv",
            "--model", "square-cycle", "--forward", "0.7", "--backward", "0.1",
            "--treatments", "4", "--rounds", "400", "--seed", "15",
        )
        out = tmp_path / "mm.json"
        code, summary, _ = run_cli(
            capsys, "minimax-test", "--input", str(data), "--output", str(out),
            "--reps", "2000", "--seed", "8",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        for entry in doc["treatments"]:
            assert entry["epr_mc_p"] < 0.001
            assert entry["epr_percentile"] == 1.0
        assert summary["epr_sum_p"] < 0.001

    def test_null_counts_only_sessions_with_a_pair(self, capsys, tmp_path):
        # burn-in 2 leaves the 3-round sessions one record and no pair, so
        # the null holds the one 60-round session fixed: 1 x 58 rounds
        rng = np.random.default_rng(21)
        rows = ["treatment_id,session_id,round,state"]
        for tid in ("A", "B"):
            for sid, rounds in [(f"s{k}", 3) for k in range(5)] + [("long", 60)]:
                rows += [f"{tid},{sid},{t + 1},{s}"
                         for t, s in enumerate(rng.integers(0, 4, rounds))]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "mm.json"
        code, _, err = run_cli(
            capsys, "minimax-test", "--input", str(data), "--output", str(out),
            "--burn-in", "2", "--reps", "50", "--seed", "4",
        )
        assert code == 0, err
        for entry in json.loads(out.read_text())["treatments"]:
            assert entry["null_sessions"] == 1
            assert entry["null_rounds_per_session"] == 58

    def test_one_treatment_sum_tests_are_its_own(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "vnm.csv", "--model", "vnm", "--p", "0.4",
            "--q", "0.6", "--sessions", "4", "--rounds", "30", "--seed", "9",
        )
        out = tmp_path / "mm.json"
        code, summary, err = run_cli(
            capsys, "minimax-test", "--input", str(data), "--output", str(out),
            "--reps", "99", "--reproducible",
        )
        assert code == 0, err
        doc = json.loads(out.read_text())
        (entry,) = doc["treatments"]
        tests = doc["tests"]
        for name, key, observable, baseline in [
            ("epr_sum_greater", "epr_mc_p", "epr", 1),
            ("entropy_sum_two_sided", "entropy_mc_p", "entropy", 0),
        ]:
            assert tests[name]["p_value"] == entry[key]
            assert tests[name]["statistic"] == entry["observables"][observable]
            assert tests[name]["null_mean"] == entry["baselines"][baseline]["mean"]
            assert tests[name]["n"] == 1
        assert summary["epr_sum_p"] == entry["epr_mc_p"]

    def test_requires_square_space(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path, "ring.csv", "--model", "ring",
                        "--rounds", "60")
        code, _, err = run_cli(
            capsys, "minimax-test", "--input", str(data),
            "--output", str(tmp_path / "r.json"), "--space", "triangle",
        )
        assert code == 1
        assert "square" in err


def _iid_dataset(seed: Seed, sessions: int, rounds: int) -> TreatmentDataset:
    states = (seed.generator().random((sessions, rounds)) * 4).astype(np.int64)
    return TreatmentDataset.from_rows("t", square_2x2(), states)


class TestPerTreatmentSize:
    """Each per-treatment p-value the reports keep, computed by the CLI's own
    treatment code, rejects true nulls in at most 28 of 400 seeded runs at
    alpha = 0.05 (7%); a p-value of exact size 5% fails this about 3% of the
    time."""

    @pytest.mark.parametrize(
        "treat, make_data, keys, seed",
        [
            (_cycle_treatment, lambda s: _iid_dataset(s, 1, 192),
             ("mc_exceedance_p",), 71001),
            pytest.param(
                _cycle_treatment, lambda s: _iid_dataset(s, 96, 2),
                ("mc_exceedance_p",), 72001,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="dos_baseline draws the records as one session, so "
                    "its null has more pairs than 96 two-round sessions and "
                    "its EPR is too low (ROADMAP item 1)",
                ),
            ),
            (_minimax_treatment,
             lambda s: TreatmentDataset.from_rows(
                 "vnm", square_2x2(), independent_play(VnmParams(0.4, 0.6, 16, 12), s)
             ),
             ("epr_mc_p", "entropy_mc_p"), 73001),
        ],
        ids=["cycle-iid-1x192", "cycle-iid-96x2", "minimax-vnm-16x12"],
    )
    def test_at_most_7_percent_false_rejections(self, treat, make_data, keys, seed):
        runs = 400
        config = _config(seed, "square", "skip", mc_reps=1000, alpha=0.05)
        data_root = Seed(seed + 1)
        rejections = dict.fromkeys(keys, 0)
        for run in range(runs):
            entry = treat(config, run, make_data(data_root.split(run)))
            for key in keys:
                rejections[key] += entry[key] < 0.05
        assert all(count <= 28 for count in rejections.values()), rejections


class TestAcrossTreatmentSize:
    """Each across-treatment p-value, composed by the CLI's own treatment and
    across code over 16 treatments of independent play (16 x 12 each),
    rejects in at most 28 of 400 seeded runs at alpha = 0.05."""

    @pytest.mark.parametrize(
        "p, q, seed",
        [
            (0.4, 0.6, 81001),
            pytest.param(
                0.5, 0.5, 82001,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="each replicate re-estimates its marginals, so its "
                    "entropy is biased low by about 1/(n ln 4); at p = q = 0.5 "
                    "the marginal entropies are flat and the null's spread is "
                    "too small to hide 16 treatments' summed bias "
                    "(ROADMAP item 2)",
                ),
            ),
        ],
        ids=["vnm-0.4-0.6", "vnm-0.5-0.5"],
    )
    def test_at_most_7_percent_false_rejections(self, p, q, seed):
        runs, treatments, reps = 400, 16, 300
        params = VnmParams(p, q, 16, 12)
        null_root, data_root = Seed(seed), Seed(seed + 1)
        rejections = {"epr_sum_greater": 0, "entropy_sum_two_sided": 0}
        for run in range(runs):
            config = _config(null_root.split(run).root, "square", "skip",
                             mc_reps=reps, alpha=0.05)
            null_sums = np.zeros((2, reps))
            entries = [
                _minimax_treatment(config, t, TreatmentDataset.from_rows(
                    f"T{t}", square_2x2(),
                    independent_play(params, data_root.split(run).split(t)),
                ), null_sums)
                for t in range(treatments)
            ]
            tests, _, _ = _minimax_across(entries, null_sums)
            for name in rejections:
                rejections[name] += tests[name]["p_value"] < 0.05
        assert all(count <= 28 for count in rejections.values()), rejections


class TestMotionFit:
    def test_sweep_gives_positive_slope(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "sweep.csv",
            "--model", "square-cycle",
            "--drive-sweep", "0.35,0.45,0.55,0.65,0.75,0.85",
            "--backward", "0.05", "--rounds", "3000", "--seed", "23",
        )
        out = tmp_path / "fit.json"
        code, summary, _ = run_cli(
            capsys, "motion-fit", "--input", str(data), "--output", str(out),
            "--reproducible",
        )
        assert code == 0
        assert summary["slope"] > 0
        assert 0.0 <= summary["r_squared"] <= 1.0
        doc = json.loads(out.read_text())
        fit = doc["fits"]["motion_on_epr"]
        assert fit["n"] == 6
        assert np.isfinite(fit["slope_stderr"])

    def test_two_treatments_exit_1(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "two.csv",
            "--model", "square-cycle", "--treatments", "2", "--rounds", "100",
        )
        code, _, _ = run_cli(
            capsys, "motion-fit", "--input", str(data),
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 1

    def test_identical_treatments_degenerate_exit_1(self, capsys, tmp_path):
        # three copies of the same sequence put every point at the same x
        rows = ["treatment_id,session_id,round,state"]
        seq = [0, 1, 2, 3, 0, 1, 2, 3, 1, 0]
        for tid in ("a", "b", "c"):
            rows += [f"{tid},s,{i + 1},{s}" for i, s in enumerate(seq)]
        data = tmp_path / "same.csv"
        data.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            capsys, "motion-fit", "--input", str(data),
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "variance" in err


class TestExitCodesAndDeterminism:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["analyze", "--help"]) == 0

    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["analyze"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["analyze", "--output", "r.json"],
            ["analyze", "--input", "d.csv", "--output", "r.json", "--reps", "abc"],
            ["cycle-test", "--input", "d.csv", "--output", "r.json", "--alpha", "x"],
            ["simulate", "--model", "bogus", "--output", "x.csv"],
            ["simulate", "--model", "vnm", "--output", "x.csv", "--encoding", "x"],
            # a prefix is not taken for the option it starts
            ["analyze", "--inp", "d.csv", "--output", "r.json"],
            # an unknown option after valid ones names the subcommand's usage
            ["analyze", "--input", "d.csv", "--output", "r.json", "--inp", "z"],
            [],
        ],
        ids=["unknown-command", "missing-input", "bad-int", "bad-float",
             "bad-model", "bad-encoding", "abbreviated-option",
             "unknown-option-after-subcommand", "no-arguments"],
    )
    def test_usage_error_exit_1(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        Path("d.csv").write_text("treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,1\n")
        code, summary, err = run_cli(capsys, *argv)
        assert code == 1
        assert summary is None
        *usage, last = err.splitlines()
        assert last.startswith("error: ")
        assert all(line.startswith(" ") or line.startswith("usage: ") for line in usage)
        if "--inp" in argv:  # the subcommand's parser reports its own options
            assert usage[0].startswith("usage: chainflux analyze")
        assert os.listdir() == ["d.csv"]

    def test_help_lists_every_default(self, capsys):
        defaults = {
            "analyze": {"--seed": "0", "--reps": "10000", "--zero-flux-policy": "skip",
                        "--burn-in": "0", "--alpha": "0.001", "--space": "square",
                        "--workers": "1"},
            "simulate": {"--seed": "0", "--treatments": "1", "--sessions": "1",
                         "--rounds": "1000", "--p": "0.5", "--q": "0.5",
                         "--forward": "0.5", "--backward": "0.25",
                         "--encoding": "state", "--space": "square"},
        }
        assert main(["--help"]) == 0
        listing = capsys.readouterr().out
        assert all(f"  {name} " in listing for name in [*defaults, "cycle-test"])
        for command, flags in defaults.items():
            assert main([command, "--help"]) == 0
            text = " ".join(capsys.readouterr().out.split())  # undo line wrapping
            for flag, default in flags.items():
                assert re.search(rf" {flag} \S+ [^[]*\[default: {re.escape(default)}\]", text)

    def test_interrupt_exit_1(self, capsys, monkeypatch, tmp_path):
        import chainflux.cli as cli_module

        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "run_analyze", interrupted)
        assert run_cli(capsys, "analyze", *_io_args("analyze", tmp_path))[0] == 1

    def test_config_validated_before_reading_input(self, capsys, tmp_path):
        # invalid alpha beats the missing input file: config comes first
        code, _, err = run_cli(
            capsys, "cycle-test", "--input", str(tmp_path / "missing.csv"),
            "--output", str(tmp_path / "r.json"), "--alpha", "5.0",
        )
        assert code == 1
        assert "alpha" in err
        assert "missing.csv" not in err

    @pytest.mark.parametrize(
        "command", ["analyze", "cycle-test", "minimax-test", "motion-fit"]
    )
    def test_unwritable_output_fails_before_any_work(
        self, capsys, monkeypatch, tmp_path, command
    ):
        import chainflux.cli as cli_module

        def never(*args, **kwargs):
            raise RuntimeError("ran before the output was checked")

        for name in ("load_csv", "dos_baseline", "vnm_null_distribution"):
            monkeypatch.setattr(cli_module, name, never)
        data = tmp_path / "d.csv"
        data.write_text("treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,1\n")
        out = tmp_path / "missing" / "r.json"
        code, summary, err = run_cli(
            capsys, command, "--input", str(data), "--output", str(out),
            "--reps", "3000",
        )
        assert code == 1
        assert summary is None
        assert err == (
            f"error: cannot write report to {out}: "
            f"no such directory {out.parent}\n"
        )

    @pytest.mark.parametrize("command", ["cycle-test", "minimax-test"])
    def test_unallocatable_reps_exit_1_before_loading(self, capsys, tmp_path, command):
        out = tmp_path / "r.json"
        code, summary, err = run_cli(
            capsys, command, "--input", str(tmp_path / "missing.csv"),
            "--output", str(out), "--reps", "10000000000000",
        )
        assert code == 1
        assert summary is None
        assert re.fullmatch(
            r"error: --reps 10000000000000 asks for [\d,]+\.\d GiB of "
            r"Monte-Carlo samples, more than the [\d,]+\.\d GiB of physical "
            r"memory\n",
            err,
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, arrays", [("cycle-test", 4), ("minimax-test", 6)])
    def test_reps_check_counts_every_held_sample_array(
        self, capsys, monkeypatch, tmp_path, command, arrays
    ):
        # entropy and EPR per chunk and once concatenated; minimax-test also
        # holds their running sums across treatments
        reps = 1000
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": arrays * 8 * reps}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        argv = (command, "--input", str(tmp_path / "missing.csv"),
                "--output", str(tmp_path / "r.json"), "--reps", str(reps))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "missing.csv" in err and "memory" not in err
        pages["SC_PHYS_PAGES"] -= 1
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "Monte-Carlo samples" in err

    @pytest.mark.parametrize("model", ["square-cycle", "vnm", "ring", "iid"])
    def test_unallocatable_rounds_exit_1_before_drawing(self, capsys, tmp_path, model):
        out = tmp_path / "x.csv"
        dos = ("--dos", "0.25,0.25,0.25,0.25") if model == "iid" else ()
        code, summary, err = run_cli(
            capsys, "simulate", "--model", model, *dos,
            "--output", str(out), "--rounds", "10000000000000",
        )
        assert code == 1
        assert summary is None
        assert re.fullmatch(
            r"error: 1 treatment\(s\) x --sessions 1 x --rounds 10000000000000 "
            r"asks for [\d,]+\.\d GiB of states, more than the [\d,]+\.\d GiB "
            r"of physical memory\n",
            err,
        )
        assert not out.exists()

    def test_memory_check_counts_states_not_allocations(
        self, capsys, monkeypatch, tmp_path
    ):
        # 3 treatments x 2 sessions x 10 rounds on 4 states: 480 B of
        # uniforms, 60 B of uint8 states, 576 B of the 6 sessions' stream
        # keys, 768 B of transitions and cuts, 512 B of cuts and 760 B of
        # one session as Python objects, 64 KiB for the stream, and
        # 3 x (1024 + 2 x 96) B of dataset objects = 72340 B
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 72340}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        args = ("--model", "square-cycle", "--drive-sweep", "0.5,0.6,0.7",
                "--sessions", "2", "--rounds", "10")
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(capsys, "simulate", "--output", str(out), *args)
        assert code == 0 and out.exists()
        pages["SC_PHYS_PAGES"] = 72339
        out = tmp_path / "y.csv"
        code, _, err = run_cli(capsys, "simulate", "--output", str(out), *args)
        assert code == 1 and not out.exists()
        assert err.startswith("error: 3 treatment(s) x --sessions 2 x --rounds 10 ")

    def test_vnm_memory_check_counts_uniforms_and_masks(
        self, capsys, monkeypatch, tmp_path
    ):
        # 3 treatments x 2 sessions x 10 rounds: 60 B of uint8 states, 192 B
        # of DOSs and cuts, 576 B of the 6 sessions' stream keys, 180 B of
        # uniforms and masks for the treatment being drawn, 64 KiB for the
        # stream, and 3 x (1024 + 2 x 96) B of dataset objects = 70192 B
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 70192}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        args = ("--model", "vnm", "--treatments", "3", "--sessions", "2",
                "--rounds", "10")
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(capsys, "simulate", "--output", str(out), *args)
        assert code == 0 and out.exists()
        pages["SC_PHYS_PAGES"] = 70191
        out = tmp_path / "y.csv"
        code, _, err = run_cli(capsys, "simulate", "--output", str(out), *args)
        assert code == 1 and not out.exists()
        assert err.startswith("error: 3 treatment(s) x --sessions 2 x --rounds 10 ")
        assert "GiB of states, more than the" in err

    def test_output_that_is_a_directory_exit_1(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,1\n")
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(data), "--output", str(tmp_path),
        )
        assert code == 1
        assert err == f"error: cannot write report to {tmp_path}: it is a directory\n"

    @pytest.mark.parametrize(
        "command, seed",
        [("analyze", "-3"), ("analyze", str(1 << 64)), ("simulate", "-1")],
        ids=["analyze-negative", "analyze-too-large", "simulate-negative"],
    )
    def test_bad_seed_exit_1(self, capsys, tmp_path, command, seed):
        code, summary, err = run_cli(
            capsys, command, *_io_args(command, tmp_path), "--seed", seed
        )
        assert code == 1
        assert summary is None
        assert err == "error: --seed must be a 64-bit unsigned integer\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_space_that_is_a_directory_exit_1(self, capsys, tmp_path, command):
        code, summary, err = run_cli(
            capsys, command, *_io_args(command, tmp_path), "--space", str(tmp_path)
        )
        assert code == 1
        assert summary is None
        assert err.startswith(
            f"error: bad state-space descriptor {str(tmp_path)!r}: "
        )

    def test_internal_error_exit_2(self, capsys, monkeypatch, tmp_path):
        import chainflux.cli as cli_module

        def boom(config):
            raise RuntimeError("wired to fail")

        monkeypatch.setattr(cli_module, "run_analyze", boom)
        data = tmp_path / "d.csv"
        data.write_text("treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,1\n")
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(data),
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "internal error" in err

    def test_non_finite_report_exit_1(self, capsys, monkeypatch, tmp_path):
        import chainflux.cli as cli_module

        def nan_report(config):
            cli_module.write_report([{"epr": float("nan")}], {}, {}, config.output)

        monkeypatch.setattr(cli_module, "run_analyze", nan_report)
        data = tmp_path / "d.csv"
        data.write_text("treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,1\n")
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(data), "--output", str(out),
        )
        assert code == 1
        assert "not valid JSON" in err
        assert not out.exists()

    def test_progress_on_stderr_summary_on_stdout(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path, "d.csv", "--model", "vnm",
                        "--rounds", "50")
        out = tmp_path / "r.json"
        code, summary, err = run_cli(
            capsys, "analyze", "--input", str(data), "--output", str(out),
        )
        assert code == 0
        assert summary["command"] == "analyze"
        assert "treatment" in err

    def test_reports_byte_identical_with_parallel_workers(self, capsys, tmp_path):
        data = simulate(
            capsys, tmp_path, "ec.csv",
            "--model", "square-cycle", "--forward", "0.8", "--backward", "0.1",
            "--rounds", "150", "--seed", "3",
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["cycle-test", "--input", str(data), "--reps", "400",
                "--seed", "9", "--reproducible"]
        code1, _, _ = run_cli(capsys, *args, "--output", str(out1),
                              "--workers", "1")
        code2, _, _ = run_cli(capsys, *args, "--output", str(out2),
                              "--workers", "2")
        assert code1 == code2 == 0
        r1 = out1.read_bytes()
        r2 = out2.read_bytes()
        # the config echo records the differing output path and workers count;
        # everything else must match
        d1 = json.loads(r1)
        d2 = json.loads(r2)
        d1["config"].pop("output"), d2["config"].pop("output")
        d1["config"].pop("workers"), d2["config"].pop("workers")
        assert d1 == d2

    @pytest.mark.parametrize(
        "command", ["analyze", "cycle-test", "minimax-test", "motion-fit"]
    )
    def test_header_only_file_exit_1(self, capsys, tmp_path, command):
        data = tmp_path / "d.csv"
        data.write_text("treatment_id,session_id,round,state\n")
        out = tmp_path / "r.json"
        code, summary, err = run_cli(
            capsys, command, "--input", str(data), "--output", str(out)
        )
        assert code == 1
        assert summary is None
        assert err == "error: d.csv: no records after the header\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["analyze", "cycle-test", "minimax-test", "motion-fit"]
    )
    def test_fifo_output_exit_1_before_any_work(
        self, capsys, monkeypatch, tmp_path, command
    ):
        import chainflux.cli as cli_module

        def never(*args, **kwargs):
            raise RuntimeError("ran before the output was checked")

        monkeypatch.setattr(cli_module, "load_csv", never)
        fifo = tmp_path / "r.json"
        os.mkfifo(fifo)
        data = tmp_path / "d.csv"
        data.write_text("treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,1\n")
        code, summary, err = run_cli(
            capsys, command, "--input", str(data), "--output", str(fifo)
        )
        assert code == 1
        assert summary is None
        assert err == f"error: cannot write report to {fifo}: it is not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_simulate_to_a_fifo_exit_1(self, capsys, tmp_path):
        fifo = tmp_path / "x.csv"
        os.mkfifo(fifo)
        code, _, err = run_cli(
            capsys, "simulate", "--model", "vnm", "--rounds", "5", "--output", str(fifo)
        )
        assert code == 1
        assert err == f"error: cannot write {fifo}: it is not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]

    @pytest.mark.parametrize("target_exists", [True, False])
    def test_symlinked_output_replaces_its_target(self, capsys, tmp_path, target_exists):
        data = simulate(capsys, tmp_path, "d.csv", "--model", "vnm", "--rounds", "20")
        real = tmp_path / "real.json"
        if target_exists:
            real.write_text("old")
        link = tmp_path / "r.json"
        link.symlink_to(real)
        args = ["analyze", "--input", str(data), "--reproducible"]
        assert run_cli(capsys, *args, "--output", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        report = json.loads(real.read_text())
        assert report["config"]["output"] == str(link)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "r.json", "real.json"]

    def test_symlink_to_a_fifo_exit_1(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        link = tmp_path / "r.json"
        link.symlink_to(fifo)
        code, _, err = run_cli(capsys, "analyze", *_io_args("analyze", tmp_path)[:2],
                               "--output", str(link))
        assert code == 1
        assert err == f"error: cannot write report to {link}: it is not a regular file\n"
        assert link.is_symlink() and stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def _python(self, *argv):
        """Run a child interpreter that imports chainflux from this tree."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
        )
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def _module_cli(self, *argv):
        """Run `python -m chainflux.cli`, the entry point's own process."""
        return self._python("-m", "chainflux.cli", *argv)

    def test_module_version_without_click(self):
        child = self._python("-c", "import chainflux.cli, sys; print('click' in sys.modules)")
        assert (child.returncode, child.stdout) == (0, "False\n"), child.stderr
        child = self._module_cli("--version")
        assert (child.returncode, child.stdout) == (0, "chainflux, version 0.1.0\n")

    def test_module_entrypoint_matches_in_process_run(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path, "d.csv", "--model", "vnm", "--rounds", "30")
        out = tmp_path / "r.json"
        args = ["cycle-test", "--input", str(data), "--output", str(out),
                "--reps", "50", "--reproducible"]
        assert main(args) == 0
        in_process = capsys.readouterr().out
        report = out.read_bytes()
        out.unlink()
        child = self._module_cli(*args)
        assert child.returncode == 0, child.stderr
        assert child.stdout == in_process
        assert out.read_bytes() == report

    def test_module_entrypoint_missing_input_exit_1(self, tmp_path):
        missing = tmp_path / "missing.csv"
        child = self._module_cli(
            "analyze", "--input", str(missing), "--output", str(tmp_path / "r.json")
        )
        assert child.returncode == 1
        assert child.stdout == ""
        assert child.stderr.startswith(f"error: cannot read {missing}: ")
        assert list(tmp_path.iterdir()) == []

    def test_identical_runs_byte_identical(self, capsys, tmp_path):
        data = simulate(capsys, tmp_path, "d.csv", "--model", "vnm",
                        "--rounds", "80", "--seed", "41")
        out = tmp_path / "r.json"
        args = ["minimax-test", "--input", str(data), "--output", str(out),
                "--reps", "60", "--seed", "13", "--reproducible"]
        assert run_cli(capsys, *args)[0] == 0
        first = out.read_bytes()
        assert run_cli(capsys, *args)[0] == 0
        assert out.read_bytes() == first


# Small simulated inputs for the golden runs below.
GOLDEN_INPUTS = {
    "vnm": ("--model", "vnm", "--treatments", "3", "--sessions", "2",
            "--rounds", "40", "--p", "0.6", "--q", "0.3", "--seed", "5"),
    "sweep": ("--model", "square-cycle", "--drive-sweep", "0.1,0.5,0.8",
              "--backward", "0.1", "--sessions", "2", "--rounds", "60",
              "--seed", "6"),
}


def _golden_run(capsys, tmp_path, command, model, *args):
    """Run one analysis command on a golden input; return the sha256 of the
    report without the echoed input/output paths, the stdout summary without
    its output path, and the sha256 of stderr with the input path replaced."""
    import hashlib

    data = simulate(capsys, tmp_path, "golden.csv", *GOLDEN_INPUTS[model])
    out = tmp_path / "golden.json"
    code, summary, err = run_cli(
        capsys, command, "--input", str(data), "--output", str(out),
        "--seed", "11", "--reproducible", *args,
    )
    assert code == 0, err
    echoed = {f'"input": {json.dumps(str(data))}',
              f'"output": {json.dumps(str(out))}'}
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if line.strip().rstrip(",") not in echoed]
    assert len(kept) == len(lines) - 2
    assert summary.pop("output") == str(out)
    return (
        hashlib.sha256("".join(kept).encode()).hexdigest(),
        summary,
        hashlib.sha256(err.replace(str(data), "<input>").encode()).hexdigest(),
    )


class TestGoldenReports:
    """For fixed seeds the four analysis commands must keep writing the same
    reports, summaries and progress, byte for byte."""

    @pytest.mark.parametrize(
        "command, model, args, report_sha, summary, err_sha",
        [
            (
                "analyze", "vnm", (),
                "53d5e6fcb7b0bc5a30e073828a01fb9c7997f996ab32930c368a95bd1fea05e0",
                {"command": "analyze", "treatments": 3},
                "adb7f3004ed83af8cffc799fd7f91a5162d9164a8c5139c40830fd7e426d7126",
            ),
            (
                "cycle-test", "sweep", ("--reps", "200", "--alpha", "0.01"),
                "ae1a2d82d8734a3ee59ff07c8eb2d26b2c9b9f7adf18d75bcf224610a55cc805",
                {"command": "cycle-test", "detected": ["T02", "T03"],
                 "treatments": 3},
                "0c624d459471059e376a651b876835d786007ed28423315c3850b813f4b30a2f",
            ),
            (
                "minimax-test", "vnm", ("--reps", "100"),
                "962a0c4ff36285eaf50c1098a64940c6e60e3b62d307797c909d827feec06b2c",
                {"command": "minimax-test", "epr_sum_p": 0.45544554455445546,
                 "treatments": 3},
                "8484a81990a8d8d41fe6185b852813ded9ae71607b1e268f21fd25a710c75031",
            ),
            (
                "motion-fit", "sweep", (),
                "28deb648d6c9578603ae70513bb7d4ded4277dc2becddfaa67a9879cc23cd74e",
                {"command": "motion-fit", "r_squared": 0.9872373216038093,
                 "slope": 0.029167804446704085, "treatments": 3},
                "c34a8963743d5279f9f221a28a39a17ae8c93ced373b40b7f750197fa523f212",
            ),
        ],
    )
    def test_reproducible_outputs_pinned(
        self, capsys, tmp_path, command, model, args, report_sha, summary, err_sha
    ):
        got = _golden_run(capsys, tmp_path, command, model, *args)
        assert got == (report_sha, summary, err_sha)


class TestGoldenSimulate:
    """For fixed seeds `simulate` must keep writing the same record files,
    byte for byte, in every encoding valid for its model."""

    INPUTS = {
        "vnm": ("--model", "vnm", "--treatments", "2", "--sessions", "3",
                "--rounds", "120", "--p", "0.6", "--q", "0.3", "--seed", "5"),
        "ring": ("--model", "ring", "--treatments", "2", "--sessions", "2",
                 "--rounds", "150", "--forward", "0.6", "--backward", "0.2",
                 "--seed", "7"),
        "sweep": ("--model", "square-cycle", "--drive-sweep", "0.1,0.5,0.8",
                  "--backward", "0.1", "--sessions", "2", "--rounds", "110",
                  "--seed", "6"),
        "iid": ("--model", "iid", "--dos", "0.1,0.2,0.3,0.4", "--treatments",
                "2", "--sessions", "3", "--rounds", "105", "--seed", "8"),
        # 210 sessions, enough to be walked in lockstep
        "sweep-lanes": ("--model", "square-cycle", "--drive-sweep", "0.2,0.6,0.9",
                        "--backward", "0.05", "--sessions", "70", "--rounds", "25",
                        "--seed", "9"),
    }

    @pytest.mark.parametrize(
        "model, encoding, csv_sha",
        [
            ("vnm", "state",
             "71b9cd75cbb84308234cf2f99029a59e48e71ba1e0f4774686c7354637369e18"),
            ("vnm", "actions",
             "b9f121359c53995e9d69e136c0e29c3142aa40966a5c5de4678347a4bafb4a9b"),
            ("ring", "state",
             "2bab552e58907d0e5be9c08fd00350c9f3c4390a9ee1d56280c908f5f6571619"),
            ("sweep", "state",
             "3a95a981501058139ae6872676e4b50d4e1dfdfd204c32d1aad26e53f94288d9"),
            ("sweep", "actions",
             "4d9d8176d6e6ce081270e669534e83ffc8504d860e4832401bd623840e035e38"),
            ("iid", "state",
             "bf8c3bee01a593012bd2e46e5674189b8205b7d93b6a6b292820c7374ea102f2"),
            ("iid", "actions",
             "68a521e79fd9c3bed162c53fa9cf2e83b9a96fdf27e8df6cf51463d4412d834c"),
            ("sweep-lanes", "state",
             "31a13c8b040503f0ff0f567c8ed3171fe22a6c52de3fc445712c7c296a051236"),
        ],
    )
    def test_record_files_pinned(self, capsys, tmp_path, model, encoding, csv_sha):
        import hashlib

        path = simulate(capsys, tmp_path, "golden.csv", *self.INPUTS[model],
                        "--encoding", encoding)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha
