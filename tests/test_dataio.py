"""CSV contract, state-space descriptors, and report serialization."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from chainflux import (
    AnalysisConfig,
    Seed,
    StateSpace,
    ZeroFluxPolicy,
    estimate_markov,
    full_report,
    load_csv,
    load_space,
    square_2x2,
    stationarity_diagnostic,
    triangle_3,
    write_csv,
    write_report,
)
from chainflux.errors import (
    ConfigError,
    MixedEncodingsError,
    NonMonotoneRoundsError,
    ParseError,
    ReportIoError,
    StateOutOfRangeError,
)
from chainflux.stats import ols_fit

from conftest import fill_disk, make_dataset, sessions_of


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_state_file(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,state\nt1,s1,1,0\nt1,s1,2,1\nt1,s1,3,0\n",
        )
        datasets = load_csv(path, square_space)
        assert len(datasets) == 1
        assert datasets[0].treatment_id == "t1"
        assert sessions_of(datasets[0])[0][1].tolist() == [0, 1, 0]

    def test_action_pairs_map_to_states(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,row_action,col_action\n"
            "t,s,1,1,1\nt,s,2,0,0\n",
        )
        datasets = load_csv(path, square_space)
        assert sessions_of(datasets[0])[0][1].tolist() == [3, 0]

    @pytest.mark.parametrize(
        "space",
        [triangle_3(), StateSpace(tuple("abcd"), [[0, 0], [1, 0], [0, 1], [2, 2]])],
        ids=["triangle", "kite"],
    )
    def test_action_pairs_off_the_square_raise_before_any_row(self, tmp_path, space):
        # the row is malformed too: the space is checked before it is read
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,row_action,col_action\nt,s,x,9,9\n",
        )
        with pytest.raises(ConfigError, match="action pairs need the 4-state square"):
            load_csv(path, space)

    def test_state_out_of_range_names_line(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,state\nt,s,1,0\nt,s,2,7\n",
        )
        with pytest.raises(StateOutOfRangeError) as exc:
            load_csv(path, square_space)
        assert exc.value.line == 3

    def test_empty_file(self, tmp_path, square_space):
        path = write_text(tmp_path, "a.csv", "")
        with pytest.raises(ParseError):
            load_csv(path, square_space)

    def test_missing_file(self, tmp_path, square_space):
        with pytest.raises(ParseError):
            load_csv(tmp_path / "nope.csv", square_space)

    def test_mixed_encodings_header(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,state,row_action,col_action\nt,s,1,0,0,0\n",
        )
        with pytest.raises(MixedEncodingsError):
            load_csv(path, square_space)

    def test_unknown_header(self, tmp_path, square_space):
        path = write_text(tmp_path, "a.csv", "who,what,when\n1,2,3\n")
        with pytest.raises(ParseError):
            load_csv(path, square_space)

    def test_non_monotone_rounds(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,state\nt,s,2,0\nt,s,1,1\n",
        )
        with pytest.raises(NonMonotoneRoundsError) as exc:
            load_csv(path, square_space)
        assert exc.value.line == 3

    def test_round_gaps_do_not_split(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,state\nt,s,1,0\nt,s,5,1\nt,s,9,2\n",
        )
        datasets = load_csv(path, square_space)
        assert sessions_of(datasets[0])[0][1].tolist() == [0, 1, 2]
        est = estimate_markov(datasets[0])
        assert est.counts[0, 1] == 1 and est.counts[1, 2] == 1

    def test_bad_round_value(self, tmp_path, square_space):
        path = write_text(
            tmp_path, "a.csv", "treatment_id,session_id,round,state\nt,s,zero,0\n"
        )
        with pytest.raises(ParseError) as exc:
            load_csv(path, square_space)
        assert exc.value.line == 2

    def test_round_must_be_positive(self, tmp_path, square_space):
        path = write_text(
            tmp_path, "a.csv", "treatment_id,session_id,round,state\nt,s,0,0\n"
        )
        with pytest.raises(ParseError):
            load_csv(path, square_space)

    def test_bad_action_value(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,row_action,col_action\nt,s,1,2,0\n",
        )
        with pytest.raises(ParseError):
            load_csv(path, square_space)

    def test_wrong_column_count(self, tmp_path, square_space):
        path = write_text(
            tmp_path, "a.csv", "treatment_id,session_id,round,state\nt,s,1\n"
        )
        with pytest.raises(ParseError):
            load_csv(path, square_space)

    def test_blank_lines_skipped(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,state\nt,s,1,0\n\nt,s,2,1\n",
        )
        datasets = load_csv(path, square_space)
        assert sessions_of(datasets[0])[0][1].tolist() == [0, 1]

    def test_treatment_and_session_grouping(self, tmp_path, square_space):
        path = write_text(
            tmp_path,
            "a.csv",
            "treatment_id,session_id,round,state\n"
            "t2,s1,1,0\nt2,s1,2,1\n"
            "t1,s1,1,2\nt1,s1,2,3\n"
            "t2,s2,1,1\nt2,s2,2,0\n",
        )
        datasets = load_csv(path, square_space)
        assert [d.treatment_id for d in datasets] == ["t2", "t1"]
        t2 = datasets[0]
        assert list(t2.session_ids) == ["s1", "s2"]

    def test_utf8_byte_order_mark_accepted(self, tmp_path, square_space):
        path = tmp_path / "bom.csv"
        path.write_bytes(
            b"\xef\xbb\xbftreatment_id,session_id,round,state\nt1,s1,1,2\nt1,s1,2,3\n"
        )
        datasets = load_csv(path, square_space)
        assert datasets[0].treatment_id == "t1"
        assert sessions_of(datasets[0])[0][1].tolist() == [2, 3]


class TestWriteCsvRoundTrip:
    def test_state_encoding_identity(self, tmp_path, square_space):
        original = [
            make_dataset([[0, 1, 2, 3], [3, 2]], treatment_id="alpha"),
            make_dataset([[1, 1, 1]], treatment_id="beta"),
        ]
        path = tmp_path / "round.csv"
        write_csv(original, path)
        loaded = load_csv(path, square_space)
        assert len(loaded) == 2
        for before, after in zip(original, loaded):
            assert before.treatment_id == after.treatment_id
            assert len(before.session_ids) == len(after.session_ids)
            for (sid_before, states_before), (sid_after, states_after) in zip(
                sessions_of(before), sessions_of(after)
            ):
                assert sid_before == sid_after
                assert np.array_equal(states_before, states_after)

    def test_encodings_yield_identical_estimates(self, tmp_path, square_space):
        data = [make_dataset([[0, 3, 1, 2, 0, 3, 3]])]
        p_state = tmp_path / "s.csv"
        p_action = tmp_path / "a.csv"
        write_csv(data, p_state, encoding="state")
        write_csv(data, p_action, encoding="actions")
        est_s = estimate_markov(load_csv(p_state, square_space)[0])
        est_a = estimate_markov(load_csv(p_action, square_space)[0])
        assert np.array_equal(est_s.counts, est_a.counts)
        assert np.array_equal(est_s.dos, est_a.dos)
        assert np.array_equal(est_s.transition, est_a.transition)

    def test_action_encoding_requires_square(self, tmp_path, triangle_space):
        data = [make_dataset([[0, 1, 2]], space=triangle_space)]
        with pytest.raises(ValueError):
            write_csv(data, tmp_path / "x.csv", encoding="actions")


class TestLoadSpace:
    def test_builtins(self):
        assert load_space("square").size == 4
        assert load_space("triangle").size == 3

    def test_json_descriptor(self, tmp_path):
        path = write_text(
            tmp_path,
            "space.json",
            json.dumps(
                {"labels": ["lo", "hi"], "coordinates": [[0.0], [1.0]]}
            ),
        )
        space = load_space(str(path))
        assert space.size == 2
        assert space.dim == 1

    def test_missing_descriptor(self):
        with pytest.raises(ConfigError):
            load_space("no-such-space")

    def test_bad_descriptor_content(self, tmp_path):
        path = write_text(tmp_path, "bad.json", '{"labels": ["a"]}')
        with pytest.raises(ConfigError):
            load_space(str(path))


class TestWriteReport:
    def test_empty_treatment_list_is_valid(self, tmp_path):
        out = tmp_path / "r.json"
        write_report([], {}, {}, out, reproducible=True)
        doc = json.loads(out.read_text())
        assert doc["treatments"] == []
        assert doc["tests"] == {}
        assert doc["fits"] == {}
        assert doc["tool"]["name"] == "chainflux"
        assert "created_at" not in doc

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "r.json"
        write_report([], {}, {}, out)
        assert "created_at" in json.loads(out.read_text())

    def test_float_round_trip_is_bit_exact(self, tmp_path):
        values = [1 / 3, 0.1 + 0.2, np.pi, 2.0**-52, 1e-300]
        entry = {"treatment_id": "t", "values": values}
        out = tmp_path / "r.json"
        write_report([entry], {}, {}, out, reproducible=True)
        doc = json.loads(out.read_text())
        assert doc["treatments"][0]["values"] == values

    def test_reproducible_runs_are_byte_identical(self, tmp_path):
        fit = ols_fit([1.0, 2.0, 3.0], [1.0, 2.4, 2.9])
        test = {"statistic": 1.5, "null_mean": 0.25, "p_value": 1 / 3, "reps": 2,
                "n": 4, "direction": "greater"}
        entry = {
            "treatment_id": "t",
            "dos": np.array([0.5, 0.5, 0.0, 0.0]),
        }
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report([entry], {"t1": test}, {"f1": fit}, a, reproducible=True)
        write_report([entry], {"t1": test}, {"f1": fit}, b, reproducible=True)
        assert a.read_bytes() == b.read_bytes()

    def test_dataclasses_written_as_their_fields(self, tmp_path):
        data = make_dataset([[0, 1, 3, 2, 0, 1, 3, 3], [2, 3, 1, 0]])
        report = full_report(estimate_markov(data))
        diag = stationarity_diagnostic(data)
        test = ols_fit([1.0, 2.0, 4.0], [0.5, 0.5, 2.0])
        fit = ols_fit([1.0, 2, 3], [1.0, 2.5, 2.9])
        out = tmp_path / "r.json"
        entry = {"observables": report, "stationarity": diag}
        write_report([entry], {"t": test}, {"f": fit}, out, reproducible=True)
        doc = json.loads(out.read_text())

        def fields(obj):
            return {
                name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in dataclasses.asdict(obj).items()
            }

        assert doc["treatments"] == [
            {"observables": fields(report), "stationarity": fields(diag)}
        ]
        assert doc["tests"] == {"t": fields(test)}
        assert doc["fits"] == {"f": fields(fit)}

    def test_nan_in_a_dataclass_raises_and_writes_nothing(self, tmp_path):
        fit = ols_fit([1.0, 2, 3], [1.0, 2.5, 2.9])
        out = tmp_path / "r.json"
        with pytest.raises(ReportIoError, match="not valid JSON"):
            write_report(
                [], {}, {"f": dataclasses.replace(fit, r_squared=float("nan"))},
                out, reproducible=True,
            )
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(ReportIoError):
            write_report([], {}, {}, tmp_path / "no-dir" / "r.json")

    def test_unwritable_path_error_names_target(self, tmp_path):
        target = tmp_path / "no-dir" / "r.json"
        with pytest.raises(ReportIoError) as exc:
            write_report([], {}, {}, target)
        assert str(exc.value).startswith(f"cannot write report to {target}: ")
        assert ".tmp" not in str(exc.value)

    def test_nan_raises_and_writes_nothing(self, tmp_path):
        out = tmp_path / "r.json"
        with pytest.raises(ReportIoError, match="not valid JSON"):
            write_report([{"epr": float("nan")}], {}, {}, out, reproducible=True)
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_report(self, tmp_path):
        out = tmp_path / "r.json"
        write_report([{"epr": 0.5}], {}, {}, out, reproducible=True)
        before = out.read_bytes()
        with pytest.raises(ReportIoError):
            write_report([{"epr": float("inf")}], {}, {}, out, reproducible=True)
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    def test_unwritable_csv_path_raises(self, tmp_path):
        data = make_dataset([[0, 1, 2]])
        with pytest.raises(ReportIoError, match="cannot write"):
            write_csv([data], tmp_path / "no-dir" / "x.csv")


class TestAtomicWrites:
    """write_csv and write_report replace their target only with a complete
    file; a failed write is ReportIoError and leaves no temporary file."""

    def test_failed_csv_write_leaves_no_file(self, tmp_path, monkeypatch):
        fill_disk(monkeypatch, room=60)
        target = tmp_path / "x.csv"
        with pytest.raises(ReportIoError) as exc:
            write_csv([make_dataset([[0, 1, 2, 3] * 20])], target)
        assert str(exc.value) == f"cannot write {target}: No space left on device"
        assert list(tmp_path.iterdir()) == []

    def test_failed_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "x.csv"
        write_csv([make_dataset([[0, 1]])], target)
        before = target.read_bytes()
        fill_disk(monkeypatch, room=60)
        with pytest.raises(ReportIoError):
            write_csv([make_dataset([[0, 1, 2, 3] * 20])], target)
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_report_write_keeps_previous_report(self, tmp_path, monkeypatch):
        target = tmp_path / "r.json"
        write_report([{"epr": 0.5}], {}, {}, target, reproducible=True)
        before = target.read_bytes()
        fill_disk(monkeypatch, room=10)
        with pytest.raises(ReportIoError) as exc:
            write_report([{"epr": 0.25}], {}, {}, target, reproducible=True)
        assert str(exc.value) == (
            f"cannot write report to {target}: No space left on device"
        )
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]

    def test_csv_target_that_is_a_directory(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(ReportIoError, match="cannot write"):
            write_csv([make_dataset([[0, 1]])], tmp_path / "d")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_other_errors_remove_the_temporary_file(self, tmp_path, monkeypatch):
        import chainflux.dataio as dataio

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(dataio, "_csv_prefix", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_csv([make_dataset([[0, 1]])], tmp_path / "x.csv")
        assert list(tmp_path.iterdir()) == []


class TestAnalysisConfig:
    def base_kwargs(self):
        return dict(
            space=square_2x2(),
            policy=ZeroFluxPolicy.skip(),
            seed=Seed(0),
        )

    def test_defaults_valid(self):
        config = AnalysisConfig(**self.base_kwargs())
        assert config.mc_reps == 10_000
        assert config.alpha == 0.001
        echo = config.echo()
        assert echo["space"]["size"] == 4
        assert echo["zero_flux_policy"] == {"mode": "skip"}

    def test_validation(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(**self.base_kwargs(), mc_reps=1)
        with pytest.raises(ConfigError):
            AnalysisConfig(**self.base_kwargs(), burn_in=-1)
        with pytest.raises(ConfigError):
            AnalysisConfig(**self.base_kwargs(), alpha=0.0)
        with pytest.raises(ConfigError):
            AnalysisConfig(**self.base_kwargs(), workers=0)
