"""Chain estimation: counting rules, invariants, and diagnostics."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainflux import (
    MarkovEstimate,
    StateSpace,
    TreatmentDataset,
    estimate_markov,
    square_2x2,
    stationarity_diagnostic,
    triangle_3,
)
from chainflux.core import is_square_2x2, state_dtype
from chainflux.errors import (
    AllSessionsTooShortError,
    EmptyDataError,
    StateOutOfRangeError,
)

from conftest import make_dataset

sequences = st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=60)


class TestEstimateMarkov:
    def test_alternating_sequence_hand_count(self):
        est = estimate_markov(make_dataset([[0, 1, 0, 1, 0, 1]]))
        assert np.array_equal(est.dos, [0.5, 0.5, 0.0, 0.0])
        assert est.counts[0, 1] == 3
        assert est.counts[1, 0] == 2
        assert est.transition[0, 1] == 1.0
        assert est.transition[1, 0] == 1.0
        assert est.n_observations == 6

    def test_constant_sequence(self):
        est = estimate_markov(make_dataset([[2, 2, 2, 2]]))
        assert np.array_equal(est.dos, [0.0, 0.0, 1.0, 0.0])
        assert est.transition[2, 2] == 1.0
        assert est.has_outflow.tolist() == [False, False, True, False]

    def test_single_round_sessions_raise(self):
        with pytest.raises(AllSessionsTooShortError):
            estimate_markov(make_dataset([[0], [1]]))

    def test_no_sessions_raises_empty(self):
        with pytest.raises(EmptyDataError):
            estimate_markov(make_dataset([]))

    def test_burn_in_discards_everything(self):
        with pytest.raises(EmptyDataError):
            estimate_markov(make_dataset([[0, 1, 2]]), burn_in=5)

    def test_burn_in_drops_prefix(self):
        # retained sequence is [1, 2, 3]
        est = estimate_markov(make_dataset([[0, 0, 1, 2, 3]]), burn_in=2)
        assert est.n_observations == 3
        assert est.counts[1, 2] == 1
        assert est.counts[2, 3] == 1
        assert est.counts[0, 0] == 0

    def test_never_visited_states_keep_index_alignment(self):
        est = estimate_markov(make_dataset([[0, 1, 0]]))
        assert est.dos.shape == (4,)
        assert est.dos[2] == 0.0 and est.dos[3] == 0.0

    def test_no_pairs_across_session_boundary(self):
        est = estimate_markov(make_dataset([[0, 1], [2, 3]]))
        assert est.counts[1, 2] == 0
        assert est.counts[0, 1] == 1
        assert est.counts[2, 3] == 1

    def test_last_state_counts_toward_dos(self):
        est = estimate_markov(make_dataset([[0, 1]]))
        assert np.array_equal(est.occupancy, [1, 1, 0, 0])

    @given(sequences)
    @settings(max_examples=60, deadline=None)
    def test_dos_is_exact_occupancy_ratio(self, seq):
        est = estimate_markov(make_dataset([seq]))
        assert abs(float(est.dos.sum()) - 1.0) <= 1e-12
        n = est.n_observations
        for i in range(4):
            assert est.dos[i] == float(Fraction(int(est.occupancy[i]), n))

    @given(sequences)
    @settings(max_examples=60, deadline=None)
    def test_active_rows_are_stochastic(self, seq):
        est = estimate_markov(make_dataset([seq]))
        sums = est.transition.sum(axis=1)
        assert np.all(np.abs(sums[est.has_outflow] - 1.0) <= 1e-12)
        assert np.all(est.transition[~est.has_outflow] == 0.0)

    @given(sequences, st.data())
    @settings(max_examples=60, deadline=None)
    def test_splitting_a_session_removes_exactly_one_pair(self, seq, data):
        cut = data.draw(st.integers(min_value=1, max_value=len(seq) - 1))
        whole = estimate_markov(make_dataset([seq]))
        try:
            split = estimate_markov(make_dataset([seq[:cut], seq[cut:]]))
        except AllSessionsTooShortError:
            # both halves of a 2-state sequence are single observations
            assert len(seq) == 2
            return
        diff = whole.counts - split.counts
        assert diff.sum() == 1
        assert diff[seq[cut - 1], seq[cut]] == 1
        assert np.array_equal(whole.occupancy, split.occupancy)
        assert np.array_equal(whole.dos, split.dos)


class TestStationarityDiagnostic:
    def test_iid_uniform_halves_agree(self):
        rng = np.random.default_rng(2024)
        seq = rng.integers(0, 4, size=10_000)
        diag = stationarity_diagnostic(make_dataset([seq.tolist()]))
        assert diag.linf_distance < 0.05

    def test_constructed_split_has_distance_one(self):
        diag = stationarity_diagnostic(make_dataset([[0] * 100 + [1] * 100]))
        assert np.array_equal(diag.first_half_dos, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(diag.second_half_dos, [0.0, 1.0, 0.0, 0.0])
        assert diag.linf_distance == 1.0

    def test_constant_sequence_has_distance_zero(self):
        diag = stationarity_diagnostic(make_dataset([[2] * 50]))
        assert diag.linf_distance == 0.0

    def test_same_errors_as_estimate(self):
        with pytest.raises(EmptyDataError):
            stationarity_diagnostic(make_dataset([]))
        with pytest.raises(AllSessionsTooShortError):
            stationarity_diagnostic(make_dataset([[0], [1]]))


class TestDomainTypes:
    def test_square_space_is_canonical(self):
        space = square_2x2()
        assert space.size == 4
        assert space.dim == 2
        expect = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert space.coordinates.tolist() == expect

    def test_square_predicate(self):
        assert is_square_2x2(square_2x2())
        relabelled = StateSpace(("a", "b", "c", "d"), square_2x2().coordinates)
        assert is_square_2x2(relabelled)
        assert not is_square_2x2(triangle_3())
        reordered = StateSpace(("a", "b", "c", "d"), square_2x2().coordinates[::-1])
        assert not is_square_2x2(reordered)
        line = StateSpace(("a", "b", "c", "d"), np.arange(4.0))
        assert not is_square_2x2(line)

    def test_triangle_space(self):
        space = triangle_3()
        assert space.size == 3
        assert space.dim == 2

    def test_space_validation(self):
        with pytest.raises(ValueError):
            StateSpace(labels=("a",), coordinates=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            StateSpace(labels=("a", "b"), coordinates=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            StateSpace(labels=("a", "b"), coordinates=np.array([[np.nan], [0.0]]))

    def test_session_validation(self):
        with pytest.raises(ValueError):
            TreatmentDataset.from_sessions("t", square_2x2(), {"s": [-1, 0]})
        with pytest.raises(ValueError):
            TreatmentDataset.from_sessions("t", square_2x2(), {"s": [[0, 1]]})
        # non-integer states are rejected, not truncated
        with pytest.raises(ValueError, match="must be integers, got float64"):
            TreatmentDataset.from_sessions("t", square_2x2(), {"s": [0.5, 1.7, 3.9]})
        with pytest.raises(ValueError, match="must be integers, got float64"):
            TreatmentDataset("t", square_2x2(), np.array([0.2, 2.9]), [0, 2], ["s"])
        with pytest.raises(ValueError, match="must be integers"):
            TreatmentDataset.from_sessions(
                "t", square_2x2(), {"s": [0, 1], "u": [], "v": [2.0]}
            )
        # empty sessions given as [] (float64 as arrays) carry no states
        data = TreatmentDataset.from_sessions(
            "t", square_2x2(), {"a": [], "b": [3, 1], "c": []}
        )
        assert data.states.tolist() == [3, 1] and data.offsets.tolist() == [0, 0, 2, 2]
        empty = TreatmentDataset.from_sessions("t", square_2x2(), {"a": []})
        assert empty.n_rounds == 0 and empty.states.dtype == state_dtype(4)
        # states are checked before they are narrowed to uint8, in which
        # -256 and 257 would read 0 and 1
        with pytest.raises(ValueError, match="nonnegative"):
            TreatmentDataset("t", square_2x2(), np.array([0, -256]), [0, 2], ["s"])
        with pytest.raises(StateOutOfRangeError, match="contains state 257"):
            TreatmentDataset("t", square_2x2(), np.array([0, 257]), [0, 2], ["s"])

    def test_dataset_state_range(self):
        with pytest.raises(StateOutOfRangeError):
            make_dataset([[0, 7]])

    def test_estimate_arrays_are_readonly(self):
        est = estimate_markov(make_dataset([[0, 1, 2, 3, 0]]))
        for arr in (est.dos, est.transition, est.counts, est.occupancy):
            with pytest.raises(ValueError):
                arr[0] = 0  # type: ignore[index]

    def test_fields_are_read_only_views_of_the_callers_arrays(self):
        # states already in the type a dataset holds them in
        states, offsets = np.array([0, 1, 2, 3], dtype=state_dtype(4)), np.array([0, 4])
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        dos, transition = np.full(4, 0.25), np.eye(4)
        space = StateSpace(("a", "b", "c", "d"), coords)
        data = TreatmentDataset("t", space, states, offsets, ["s"])
        est = MarkovEstimate.from_exact(space, dos, transition)
        pairs = [
            (states, data.states),
            (offsets, data.offsets),
            (coords, space.coordinates),
            (dos, est.dos),
            (transition, est.transition),
        ]
        for given, field in pairs:
            assert given.flags.writeable
            assert not field.flags.writeable
            assert np.shares_memory(given, field)  # frozen without a copy

    def test_markov_estimate_rejects_bad_dos(self):
        space = square_2x2()
        with pytest.raises(ValueError):
            MarkovEstimate.from_exact(space, [0.5, 0.5, 0.5, 0.0], np.eye(4))

    def test_markov_estimate_rejects_bad_rows(self):
        space = square_2x2()
        bad = np.full((4, 4), 0.3)
        with pytest.raises(ValueError):
            MarkovEstimate.from_exact(space, [0.25] * 4, bad)

    def test_from_exact_wraps_valid_chain(self):
        est = MarkovEstimate.from_exact(square_2x2(), [0.25] * 4, np.eye(4))
        assert est.n_observations == 0
        assert est.has_outflow.all()
