"""The flat per-treatment layout and the shared pair-count kernel, against
the per-session loops they replaced."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainflux import (
    MarkovEstimate,
    Seed,
    StateSpace,
    StationarityDiagnostic,
    TreatmentDataset,
    VnmParams,
    estimate_markov,
    load_csv,
    load_space,
    nullmodels,
    simulate_chain,
    simulate_iid,
    simulate_sessions,
    square_2x2,
    stationarity_diagnostic,
    write_csv,
)
from chainflux.core import chain_from_counts, pair_counts, state_dtype
from chainflux.errors import (
    AllSessionsTooShortError,
    ChainfluxError,
    EmptyDataError,
    StateOutOfRangeError,
)

from conftest import independent_play, sessions_of


def space_of(r: int) -> StateSpace:
    return StateSpace(tuple(str(i) for i in range(r)), np.arange(r, dtype=float))


def _loop_retained(data: TreatmentDataset, burn_in: int) -> list[np.ndarray]:
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    kept = [states[burn_in:] for _, states in sessions_of(data)]
    return [s for s in kept if s.size > 0]


def loop_estimate_markov(data: TreatmentDataset, burn_in: int = 0) -> MarkovEstimate:
    """Reference estimate, one bincount per retained session."""
    r = data.space.size
    occupancy = np.zeros(r, dtype=np.int64)
    counts = np.zeros((r, r), dtype=np.int64)
    n_obs = 0
    for s in _loop_retained(data, burn_in):
        occupancy += np.bincount(s, minlength=r)
        n_obs += int(s.size)
        if s.size >= 2:
            # widened: a stored state times r overflows its narrow type
            codes = s[:-1].astype(np.int64) * r + s[1:]
            counts += np.bincount(codes, minlength=r * r).reshape(r, r)
    if n_obs == 0:
        raise EmptyDataError(
            f"treatment {data.treatment_id!r}: no observations after burn_in={burn_in}"
        )
    if counts.sum() == 0:
        raise AllSessionsTooShortError(
            f"treatment {data.treatment_id!r}: no transition pairs after "
            f"burn_in={burn_in}"
        )
    dos, transition = chain_from_counts(occupancy, counts)
    return MarkovEstimate(
        space=data.space,
        dos=dos,
        transition=transition,
        counts=counts,
        occupancy=occupancy,
        n_observations=n_obs,
        has_outflow=counts.sum(axis=1) > 0,
    )


def loop_stationarity_diagnostic(
    data: TreatmentDataset, burn_in: int = 0
) -> StationarityDiagnostic:
    """Reference diagnostic, each retained session split at its midpoint."""
    r = data.space.size
    sessions = _loop_retained(data, burn_in)
    if not sessions:
        raise EmptyDataError(
            f"treatment {data.treatment_id!r}: no observations after burn_in={burn_in}"
        )
    if not any(s.size >= 2 for s in sessions):
        raise AllSessionsTooShortError(
            f"treatment {data.treatment_id!r}: no transition pairs after "
            f"burn_in={burn_in}"
        )
    first = np.zeros(r, dtype=np.int64)
    second = np.zeros(r, dtype=np.int64)
    for s in sessions:
        half = s.size // 2
        first += np.bincount(s[:half], minlength=r)
        second += np.bincount(s[half:], minlength=r)
    first_dos = first / max(int(first.sum()), 1)
    second_dos = second / max(int(second.sum()), 1)
    return StationarityDiagnostic(
        first_half_dos=first_dos,
        second_half_dos=second_dos,
        linf_distance=float(np.max(np.abs(first_dos - second_dos))),
    )


def outcome(fn, data, burn_in, fields):
    """The named fields of fn(data, burn_in) as lists, or the error."""
    try:
        result = fn(data, burn_in)
    except ChainfluxError as exc:
        return type(exc), str(exc)
    return [np.asarray(getattr(result, name)).tolist() for name in fields]


@st.composite
def ragged_datasets(draw):
    """Datasets with empty sessions, one-record sessions and sessions shorter
    than any burn-in, on 2 to 5 states."""
    r = draw(st.integers(2, 5))
    lengths = draw(
        st.lists(st.sampled_from([0, 1, 1, 2, 3, 4, 5, 6, 9, 17]), max_size=8)
    )
    sessions = {
        f"s{k}": draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
        for k, n in enumerate(lengths)
    }
    return TreatmentDataset.from_sessions("t", space_of(r), sessions)


@settings(max_examples=400, deadline=None)
@given(data=ragged_datasets(), burn_in=st.integers(0, 5))
def test_flat_data_path_matches_loop(data, burn_in):
    fields = ("counts", "occupancy", "n_observations", "dos", "transition")
    assert outcome(estimate_markov, data, burn_in, fields) == outcome(
        loop_estimate_markov, data, burn_in, fields
    )
    fields = ("first_half_dos", "second_half_dos", "linf_distance")
    assert outcome(stationarity_diagnostic, data, burn_in, fields) == outcome(
        loop_stationarity_diagnostic, data, burn_in, fields
    )


@pytest.mark.parametrize(
    "lengths, burn_in, error",
    [
        ([], 0, EmptyDataError),
        ([0, 0], 0, EmptyDataError),
        ([3, 2], 3, EmptyDataError),
        ([1, 0, 1], 0, AllSessionsTooShortError),
        ([4, 5, 3], 4, AllSessionsTooShortError),
    ],
)
def test_designs_without_pairs_raise_like_loop(lengths, burn_in, error):
    data = TreatmentDataset.from_sessions(
        "t", square_2x2(), {f"s{k}": [n % 4] * n for k, n in enumerate(lengths)}
    )
    for fn in (estimate_markov, stationarity_diagnostic):
        with pytest.raises(error):
            fn(data, burn_in)


# ---------------------------------------------------------------------------
# the pair-count kernel
# ---------------------------------------------------------------------------


def loop_pair_counts(states, ends, r):
    """Reference kernel: one bincount per replicate and session."""
    b = states.shape[0]
    occupancy = np.zeros((b, r), dtype=np.int64)
    counts = np.zeros((b, r, r), dtype=np.int64)
    starts = [0, *(np.asarray(ends[:-1]) + 1)]
    for k in range(b):
        for lo, last in zip(starts, ends):
            s = states[k, lo : last + 1].astype(np.int64)
            occupancy[k] += np.bincount(s, minlength=r)
            codes = s[:-1] * r + s[1:]
            counts[k] += np.bincount(codes, minlength=r * r).reshape(r, r)
    return occupancy, counts


def _ragged_ends(n: int, rng) -> np.ndarray:
    size = min(5, max(1, (n - 1) // 2))
    cuts = np.sort(rng.choice(np.arange(n - 1), size=size, replace=False))
    return np.append(cuts, n - 1)


@pytest.mark.parametrize(
    "b, r, n, ragged",
    [
        (16, 4, 40, True),  # B*r*r = 2**8 and a boundary bin: past uint8
        (16, 4, 40, False),  # B*r*r = 2**8, no boundary: the last uint8 case
        (15, 4, 40, True),  # 240 codes and the boundary bin in uint8
        (1, 16, 300, True),  # one sequence, 2**8 codes and a boundary bin
        (28, 3, 30, True),  # B*r*r = 252
        (4096, 4, 6, True),  # B*r*r = 2**16 and a boundary bin: past uint16
        (4096, 4, 6, False),  # B*r*r = 2**16, no boundary: the last uint16 case
        (4095, 4, 6, True),  # 65520 codes and the boundary bin in uint16
        (7, 3, 50, True),
        (2, 300, 2000, True),  # a 300-state JSON space: int64 codes
        (1, 300, 2000, False),
    ],
)
def test_pair_counts_matches_loop(b, r, n, ragged):
    rng = np.random.default_rng(b * 1000 + r * 10 + n)
    ends = _ragged_ends(n, rng) if ragged else np.array([n - 1])
    states = rng.integers(0, r, size=(b, n)).astype(state_dtype(r))
    occupancy, counts = pair_counts(states, ends, r)
    want_occupancy, want_counts = loop_pair_counts(states, ends, r)
    assert np.array_equal(occupancy, want_occupancy)
    assert np.array_equal(counts, want_counts)
    assert occupancy.sum() == b * n
    assert counts.sum() == b * (n - ends.size)


def test_300_state_json_space_matches_loop(tmp_path):
    # at r = 256 the states are uint8, in which a state times 3 wraps
    for r in (256, 300):
        (tmp_path / "space.json").write_text(
            json.dumps({"labels": [str(i) for i in range(r)],
                        "coordinates": [[i, i % 7] for i in range(r)]})
        )
        space = load_space(str(tmp_path / "space.json"))
        rng = np.random.default_rng(r)
        sessions = {f"s{n}": rng.integers(0, r, n) for n in (1, 700, 0, 3)}
        sessions["s9"] = np.repeat([r - 1, 0], 5)  # the top state in the first half
        data = TreatmentDataset.from_sessions("t", space, sessions)
        assert data.states.dtype == state_dtype(r)
        for burn_in in (0, 2):
            fields = ("counts", "occupancy", "n_observations")
            assert outcome(estimate_markov, data, burn_in, fields) == outcome(
                loop_estimate_markov, data, burn_in, fields
            )
            fields = ("first_half_dos", "second_half_dos", "linf_distance")
            assert outcome(stationarity_diagnostic, data, burn_in, fields) == outcome(
                loop_stationarity_diagnostic, data, burn_in, fields
            )


def test_pair_counts_one_record_sessions():
    states = np.array([[0, 1, 2, 2, 1], [3, 3, 0, 1, 2]], dtype=np.uint8)
    ends = np.array([0, 1, 3, 4])  # sessions of 1, 1, 2 and 1 records
    occupancy, counts = pair_counts(states, ends, 4)
    want_occupancy, want_counts = loop_pair_counts(states, ends, 4)
    assert np.array_equal(occupancy, want_occupancy)
    assert np.array_equal(counts, want_counts)
    assert counts.sum() == 2


# ---------------------------------------------------------------------------
# the dataset constructor
# ---------------------------------------------------------------------------


def flat(states=(0, 1, 2, 3, 0), offsets=(0, 2, 2, 5), ids=("a", "b", "c"), r=4):
    return TreatmentDataset("t", space_of(r), np.asarray(states), np.asarray(offsets), ids)


def test_flat_dataset_views():
    data = flat()
    assert data.n_rounds == 5
    assert data.states.dtype == np.uint8 and data.offsets.dtype == np.int64
    assert not data.states.flags.writeable and not data.offsets.flags.writeable
    assert [(sid, states.tolist()) for sid, states in sessions_of(data)] == [
        ("a", [0, 1]), ("b", []), ("c", [2, 3, 0])
    ]
    assert data.retained_lengths(1).tolist() == [1, 0, 2]
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        data.retained_lengths(-1)


def test_from_sessions_and_from_rows_agree():
    rows = np.array([[0, 1, 3], [2, 2, 1]])
    by_rows = TreatmentDataset.from_rows("t", square_2x2(), rows)
    by_sessions = TreatmentDataset.from_sessions(
        "t", square_2x2(), {"s1": rows[0], "s2": rows[1]}
    )
    for data in (by_rows, by_sessions):
        assert data.states.tolist() == [0, 1, 3, 2, 2, 1]
        assert data.offsets.tolist() == [0, 3, 6]
        assert data.session_ids == ("s1", "s2")
    empty = TreatmentDataset.from_sessions("t", square_2x2(), {})
    assert empty.n_rounds == 0 and empty.offsets.tolist() == [0]


def test_state_out_of_range_names_its_session():
    with pytest.raises(StateOutOfRangeError) as info:
        flat(states=(0, 1, 2, 9, 0, 7), offsets=(0, 2, 2, 4, 6), ids=("a", "b", "c", "d"))
    assert str(info.value) == (
        "session 'c' of treatment 't' contains state 9 but the space has r=4"
    )


def test_state_out_of_range_after_empty_sessions():
    with pytest.raises(StateOutOfRangeError, match="session 'b' .* contains state 5 "):
        flat(states=(5, 1), offsets=(0, 0, 2), ids=("a", "b"))


def test_negative_state_rejected():
    with pytest.raises(ValueError, match="state indices must be nonnegative"):
        flat(states=(0, -1, 2, 3, 0))


def test_two_dimensional_states_rejected():
    with pytest.raises(ValueError, match="states must be a 1-D sequence"):
        flat(states=[[0, 1, 2, 3, 0]])


@pytest.mark.parametrize("offsets", [(1, 2, 2, 5), (0, 2, 2, 4), (0, 2, 2, 6), ()])
def test_offsets_must_span_the_states(offsets):
    with pytest.raises(ValueError, match="offsets must run from 0 to 5"):
        flat(offsets=offsets)


def test_offsets_must_not_decrease():
    with pytest.raises(ValueError, match="offsets must never decrease"):
        flat(offsets=(0, 3, 2, 5))


@pytest.mark.parametrize("ids", [("a", "b"), ("a", "b", "c", "d")])
def test_one_id_per_session(ids):
    with pytest.raises(ValueError, match=f"3 sessions but {len(ids)} session ids"):
        flat(ids=ids)


# ---------------------------------------------------------------------------
# the state type
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [4, 256, 257, 300])
def test_every_producer_holds_states_as_state_dtype(tmp_path, r):
    want = state_dtype(r)
    assert want == (np.uint8 if r <= 256 else np.uint16)
    space = space_of(r)
    top = [0, r - 1, 1, r - 1]
    by_sessions = TreatmentDataset.from_sessions("t", space, {"a": top, "b": []})
    by_rows = TreatmentDataset.from_rows("u", space, np.array([top, top[::-1]]))
    write_csv([by_sessions, by_rows], tmp_path / "d.csv")
    loaded = load_csv(tmp_path / "d.csv", space)
    assert [d.states.tolist() for d in loaded] == [top, top + top[::-1]]
    chain = np.full((r, r), 1 / r)
    dos0 = np.full(r, 1 / r)
    produced = [
        *(d.states for d in (by_sessions, by_rows, *loaded)),
        simulate_chain(dos0, chain, 20, Seed(1)),
        simulate_sessions([dos0], [chain], 2, 20, Seed(1)),
        simulate_iid(dos0, 2, 20, Seed(1)),
    ]
    if r <= nullmodels._LOCKSTEP_STATES:
        lanes = nullmodels._LOCKSTEP_LANES
        produced.append(simulate_sessions([dos0], [chain], lanes, 3, Seed(1)))
        produced.append(independent_play(VnmParams(0.3, 0.6, 2, 5), Seed(1)))
    assert [states.dtype for states in produced] == [want] * len(produced)
