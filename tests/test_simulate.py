"""Record-file generation against the per-step and per-row loops it replaced:
simulate_chain's bisect walk, simulate_sessions' lockstep and per-session
walks, and write_csv's batched writer."""

from __future__ import annotations

import csv
import io
import tracemalloc
from bisect import bisect_right
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainflux.dataio as dataio
from chainflux import cli, nullmodels
from chainflux import (
    Seed,
    StateSpace,
    TreatmentDataset,
    VnmParams,
    simulate_chain,
    simulate_iid,
    simulate_iid_bytes,
    simulate_sessions,
    simulate_sessions_bytes,
    square_2x2,
    write_csv,
)
from chainflux.core import is_square_2x2, state_dtype
from chainflux.errors import InvalidDistributionError
from conftest import sessions_of
from test_ingest import IDS, QUOTED_IDS

STATE_HEADER = ["treatment_id", "session_id", "round", "state"]
ACTION_HEADER = ["treatment_id", "session_id", "round", "row_action", "col_action"]


def loop_simulate_chain(dos0, transition, n: int, seed: Seed) -> np.ndarray:
    """Reference sampler, one numpy store per step:
    s_{t+1} = min(bisect_right(cumsum(transition[s_t]), u_{t+1}), r - 1)."""
    dos0 = np.asarray(dos0, dtype=float)
    transition = np.asarray(transition, dtype=float)
    r = dos0.size
    u = seed.generator().random(n)
    cum0 = np.cumsum(dos0).tolist()
    cum_rows = [row.tolist() for row in np.cumsum(transition, axis=1)]
    last = r - 1
    states = np.empty(n, dtype=np.int64)
    s = min(bisect_right(cum0, u[0]), last)
    states[0] = s
    for t in range(1, n):
        s = min(bisect_right(cum_rows[s], u[t]), last)
        states[t] = s
    return states


def loop_write_csv(datasets, path, encoding: str = "state") -> None:
    """Reference writer, one csv.writer.writerow call per record."""
    actions = encoding == "actions"
    if actions and not all(is_square_2x2(data.space) for data in datasets):
        raise ValueError("action encoding requires the 4-state square convention")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACTION_HEADER if actions else STATE_HEADER)
        for data in datasets:
            for sid, states in sessions_of(data):
                for rnd, s in enumerate(states, start=1):
                    s = int(s)
                    if actions:
                        writer.writerow(
                            [data.treatment_id, sid, rnd, s // 2, s % 2]
                        )
                    else:
                        writer.writerow([data.treatment_id, sid, rnd, s])


def space_of(r: int) -> StateSpace:
    return StateSpace(tuple(f"x{i}" for i in range(r)), np.arange(r, dtype=float))


# ---------------------------------------------------------------------------
# simulate_chain
# ---------------------------------------------------------------------------


def random_chain(rng: np.random.Generator, r: int) -> tuple[np.ndarray, np.ndarray]:
    """dos0 and a transition matrix with zero-probability entries, including
    zeros in the last column so that rows reach 1 before their end."""
    raw = rng.random((r, r)) * (rng.random((r, r)) < 0.5)
    raw[np.arange(r), rng.integers(0, r, r)] += rng.random(r) + 0.01
    if r > 2:
        raw[rng.random(r) < 0.3, -1] = 0.0
        raw[raw.sum(axis=1) == 0, 0] = 1.0
    transition = raw / raw.sum(axis=1, keepdims=True)
    dos0 = rng.random(r) * (rng.random(r) < 0.4)
    dos0[rng.integers(0, r)] += 0.5
    return dos0 / dos0.sum(), transition


@pytest.mark.parametrize("case", range(60))
def test_simulate_chain_matches_loop(case):
    rng = np.random.default_rng(9000 + case)
    r = (2, 3, 4, 300)[case] if case < 4 else int(rng.integers(2, 301))
    dos0, transition = random_chain(rng, r)
    n = int(rng.integers(2, 4000))
    seed = Seed(int(rng.integers(0, 2**63)))
    states = simulate_chain(dos0, transition, n, seed)
    reference = loop_simulate_chain(dos0, transition, n, seed)
    assert states.dtype == state_dtype(r)
    assert np.array_equal(states, reference)


def test_simulate_chain_point_masses_match_loop():
    # rows that put all mass on the first or the last state
    r = 5
    transition = np.zeros((r, r))
    transition[::2, -1] = 1.0
    transition[1::2, 0] = 1.0
    for dos0 in ([1.0, 0, 0, 0, 0], [0, 0, 0, 0, 1.0]):
        states = simulate_chain(dos0, transition, 50, Seed(12))
        reference = loop_simulate_chain(dos0, transition, 50, Seed(12))
        assert np.array_equal(states, reference)


@pytest.mark.parametrize(
    "r", [2, 3, 4, 17, nullmodels._LOCKSTEP_STATES, nullmodels._LOCKSTEP_STATES + 1, 300]
)
@pytest.mark.parametrize(
    "lanes",
    [nullmodels._LOCKSTEP_LANES - 1, nullmodels._LOCKSTEP_LANES],
    ids=["below-switch", "at-switch"],
)
def test_simulate_sessions_matches_loop(r, lanes):
    # every treatment has its own matrix, like a drive sweep
    treatments = next(t for t in (3, 2, 1) if lanes % t == 0)
    rng = np.random.default_rng(r * 1000 + lanes)
    chains = [random_chain(rng, r) for _ in range(treatments)]
    dos0 = np.array([d for d, _ in chains])
    transitions = np.array([p for _, p in chains])
    sessions = lanes // treatments
    rounds = int(rng.integers(2, 60))
    seed = Seed(int(rng.integers(0, 2**63)))
    states = simulate_sessions(dos0, transitions, sessions, rounds, seed)
    assert states.shape == (treatments, sessions, rounds)
    assert states.dtype == state_dtype(r)
    for t in range(treatments):
        for s in range(sessions):
            reference = loop_simulate_chain(
                dos0[t], transitions[t], rounds, seed.split(t).split(s)
            )
            assert np.array_equal(states[t, s], reference), (t, s)


@pytest.mark.parametrize(
    "sessions", [1, nullmodels._LOCKSTEP_LANES], ids=["per-session", "lockstep"]
)
def test_simulate_sessions_point_masses_match_loop(sessions):
    # rows that put all mass on the first or the last state
    r = 5
    transition = np.zeros((r, r))
    transition[::2, -1] = 1.0
    transition[1::2, 0] = 1.0
    dos0 = np.array([[1.0, 0, 0, 0, 0], [0, 0, 0, 0, 1.0]])
    states = simulate_sessions(dos0, [transition, transition], sessions, 50, Seed(12))
    for t in range(2):
        for s in range(sessions):
            reference = loop_simulate_chain(
                dos0[t], transition, 50, Seed(12).split(t).split(s)
            )
            assert np.array_equal(states[t, s], reference)


def traced_peak(fn, *args, **kwargs) -> int:
    """The peak of the memory tracemalloc traces while fn(*args, **kwargs) runs.
    A draw is made first, so that the modules numpy.random imports on first
    use (about 1 MB, once per process) stay out of the peak."""
    simulate_iid([[1.0]], 1, 2, Seed(0))
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_simulate_bytes_bound_traced_peak(model, treatments, sessions, rounds, r):
    """The bytes simulate checks bound the traced peak of the whole
    _simulate_datasets call: the draw and every dataset it makes."""
    space = square_2x2() if model in ("vnm", "square-cycle") else space_of(r)
    options = cli._MODEL_OPTIONS[model]
    if model == "iid":
        options = {"dos": np.full(r, 1 / r)}
    peak = traced_peak(
        cli._simulate_datasets, model, space, Seed(5), options,
        treatments=treatments, sessions=sessions, rounds=rounds,
    )
    assert peak <= cli._simulate_bytes(model, treatments, sessions, rounds, r)


@pytest.mark.parametrize(
    "treatments, sessions, rounds, r",
    [(2, 3, 20000, 300), (1, 1, 50000, 4), (1, 5000, 2, 300), (8, 25, 2000, 4),
     (1, 2000, 20, 64), (1, 100000, 2, 4)],
    ids=["per-session-300", "per-session-4", "short-sessions-300", "lockstep-4",
         "lockstep-64", "short-sessions-4"],
)
def test_simulate_sessions_bytes_bounds_traced_peak(treatments, sessions, rounds, r):
    rng = np.random.default_rng(r)
    transitions = np.array([random_chain(rng, r)[1] for _ in range(treatments)])
    dos0 = np.full((treatments, r), 1 / r)
    peak = traced_peak(simulate_sessions, dos0, transitions, sessions, rounds, Seed(3))
    assert peak <= simulate_sessions_bytes(treatments, sessions, rounds, r)
    # square-cycle runs on the square, ring on any space
    model = "square-cycle" if r == 4 else "ring"
    assert_simulate_bytes_bound_traced_peak(model, treatments, sessions, rounds, r)


@pytest.mark.parametrize(
    "treatments, sessions, rounds",
    [(1, 10, 100_000), (3, 10, 100_000), (3, 2, 10), (1, 1, 2), (5, 100, 2),
     (2, 1000, 50)],
)
def test_simulate_vnm_bytes_bounds_traced_peak(treatments, sessions, rounds):
    # the i.i.d. models, vnm and iid, draw every treatment in one call
    dos = VnmParams(p=0.4, q=0.6, sessions=sessions, rounds_per_session=rounds).dos
    peak = traced_peak(simulate_iid, np.tile(dos, (treatments, 1)), sessions, rounds, Seed(5))
    assert peak <= simulate_iid_bytes(treatments, sessions, rounds, 4)
    for model in ("vnm", "iid"):
        assert_simulate_bytes_bound_traced_peak(model, treatments, sessions, rounds, 4)


@pytest.mark.parametrize("model", ["vnm", "iid", "ring", "square-cycle"])
def test_simulate_bytes_bound_traced_peak_of_many_short_treatments(model):
    # each dataset's Python objects outweigh its two states many times over
    assert_simulate_bytes_bound_traced_peak(model, 20000, 1, 2, 3 if model == "ring" else 4)


@pytest.mark.parametrize("case", range(40))
def test_simulate_iid_matches_simulate_sessions(case):
    # a tiled DOS is a chain whose every row is the DOS: the same states,
    # in the same type and on the same streams, whether drawn i.i.d. or walked
    rng = np.random.default_rng(7100 + case)
    r = int(rng.integers(2, 81))
    treatments = int(rng.integers(1, 4))
    dos = rng.random((treatments, r)) * (rng.random((treatments, r)) < 0.6)
    dos[np.arange(treatments), rng.integers(0, r, treatments)] += 0.1
    dos /= dos.sum(axis=1, keepdims=True)
    lanes = nullmodels._LOCKSTEP_LANES
    sessions = int(rng.choice([1, lanes // 3, lanes - 1, lanes, lanes + 5]))
    rounds = int(rng.integers(2, 40))
    seed = Seed(int(rng.integers(0, 2**63)))
    walked = simulate_sessions(dos, np.tile(dos[:, None], (1, r, 1)), sessions, rounds, seed)
    drawn = simulate_iid(dos, sessions, rounds, seed)
    assert drawn.dtype == walked.dtype == state_dtype(r)
    assert np.array_equal(drawn, walked)


@pytest.mark.parametrize("treatments", [1, 5])
@pytest.mark.parametrize("generator", ["simulate_iid", "simulate_sessions"])
def test_one_call_constructs_one_philox(monkeypatch, generator, treatments):
    # every (treatment, session) lane re-keys the same bit generator
    made = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        made.append(args or kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    dos = np.full((treatments, 3), 1 / 3)
    if generator == "simulate_iid":
        states = simulate_iid(dos, 4, 6, Seed(9))
    else:
        states = simulate_sessions(dos, np.tile(dos[:, None], (1, 3, 1)), 4, 6, Seed(9))
    assert states.shape == (treatments, 4, 6)
    assert len(made) == 1


def test_simulate_iid_rejects_bad_arguments():
    with pytest.raises(InvalidDistributionError, match="dos"):
        simulate_iid([[0.5, 0.5], [0.5, 0.6]], 2, 10, Seed(0))
    with pytest.raises(ValueError, match="shape"):
        simulate_iid([0.5, 0.5], 2, 10, Seed(0))
    with pytest.raises(ValueError, match="sessions"):
        simulate_iid([[0.5, 0.5]], 0, 10, Seed(0))
    with pytest.raises(ValueError, match="rounds"):
        simulate_iid([[0.5, 0.5]], 2, 1, Seed(0))


def test_simulate_sessions_rejects_bad_distributions():
    transitions = np.stack([np.eye(3), np.full((3, 3), 0.4)])
    with pytest.raises(InvalidDistributionError, match="transition row 0"):
        simulate_sessions(np.full((2, 3), 1 / 3), transitions, 2, 10, Seed(0))
    # the first failing row in treatment-major order: row 2 of treatment 1
    transitions = np.stack([np.eye(3), np.eye(3)])
    transitions[1, 2] = [0.5, 0.25, 0.125]
    with pytest.raises(
        InvalidDistributionError, match=r"transition row 2 .*; got sum 0\.875$"
    ):
        simulate_sessions(np.full((2, 3), 1 / 3), transitions, 2, 10, Seed(0))
    with pytest.raises(InvalidDistributionError, match="dos0"):
        simulate_sessions([[1 / 3] * 3, [0.5, 0.2, 0.2]], [np.eye(3)] * 2, 2, 10, Seed(0))
    # NaN and ±inf fail every comparison they meet, so each must be caught
    for bad in (np.nan, np.inf, -np.inf):
        transitions = np.stack([np.eye(3), np.eye(3)])
        transitions[1, 1] = [bad, 0.5, 0.5]
        with pytest.raises(InvalidDistributionError, match="transition row 1 .*got sum"):
            simulate_sessions(np.full((2, 3), 1 / 3), transitions, 2, 10, Seed(0))
        dos0 = np.full((2, 3), 1 / 3)
        dos0[0, 2] = bad
        with pytest.raises(InvalidDistributionError, match="dos0"):
            simulate_sessions(dos0, [np.eye(3)] * 2, 2, 10, Seed(0))
    with pytest.raises(ValueError, match="shape"):
        simulate_sessions(np.full((2, 3), 1 / 3), [np.eye(3)], 2, 10, Seed(0))


# ---------------------------------------------------------------------------
# write_csv
# ---------------------------------------------------------------------------

ID_ALPHABET = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", " ", "é", "中", " ", "a", "1"]),
    st.characters(blacklist_categories=("Cs",)),
)
ids = st.text(ID_ALPHABET, max_size=6)
session_lengths = st.one_of(
    st.sampled_from([0, 1, 2, 8, 9, 10, 98, 99, 100, 101, 998, 999, 1000, 1001]),
    st.integers(0, 1200),
)


@st.composite
def record_sets(draw):
    """(datasets, encoding): any number of treatments with any ids, unequal
    session lengths, and up to 300 states (4 for the action encoding)."""
    encoding = draw(st.sampled_from(["state", "actions"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    datasets = []
    for _ in range(draw(st.integers(0, 3))):
        if encoding == "actions":
            space = square_2x2()
        else:
            space = space_of(draw(st.sampled_from([2, 4, 9, 10, 11, 100, 300])))
        # session ids may repeat, so the dataset is built from its flat layout
        sessions = [
            (draw(ids), rng.integers(0, space.size, draw(session_lengths)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        states = [np.zeros(0, np.int64), *(s for _, s in sessions)]
        offsets = np.cumsum([0, *(len(s) for _, s in sessions)])
        session_ids = [sid for sid, _ in sessions]
        datasets.append(
            TreatmentDataset(draw(ids), space, np.concatenate(states), offsets, session_ids)
        )
    return datasets, encoding


@settings(max_examples=200, deadline=None)
@given(
    records=record_sets(),
    batch_rows=st.sampled_from([1, 2, 7, 64, dataio._WRITE_BATCH_ROWS]),
)
def test_generated_records_byte_identical_to_loop(tmp_path_factory, records, batch_rows):
    datasets, encoding = records
    folder = tmp_path_factory.mktemp("write")
    with mock.patch.object(dataio, "_WRITE_BATCH_ROWS", batch_rows):
        write_csv(datasets, folder / "new.csv", encoding=encoding)
    loop_write_csv(datasets, folder / "old.csv", encoding=encoding)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
    assert sorted(p.name for p in folder.iterdir()) == ["new.csv", "old.csv"]


@pytest.mark.parametrize("encoding", ["state", "actions"])
def test_sessions_across_the_batch_boundary_byte_identical(tmp_path, encoding):
    batch = dataio._WRITE_BATCH_ROWS
    rng = np.random.default_rng(5)
    sessions = {
        f"s{n}": rng.integers(0, 4, n)
        for n in (batch - 1, batch, batch + 1, 2 * batch + 3, 5)
    }
    datasets = [TreatmentDataset.from_sessions('t,"1"', square_2x2(), sessions)]
    write_csv(datasets, tmp_path / "new.csv", encoding=encoding)
    loop_write_csv(datasets, tmp_path / "old.csv", encoding=encoding)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("treatment_id", IDS + QUOTED_IDS + [7, None])
def test_id_prefix_matches_csv_writer(treatment_id):
    for session_id in IDS + QUOTED_IDS + [7, None]:
        buf = io.StringIO()
        csv.writer(buf).writerow([treatment_id, session_id, "1", "0"])
        expected = buf.getvalue()[: -len("1,0\r\n")]
        assert dataio._csv_prefix(treatment_id, session_id) == expected


def test_empty_dataset_list_writes_the_header(tmp_path):
    write_csv([], tmp_path / "s.csv")
    write_csv([], tmp_path / "a.csv", encoding="actions")
    assert (tmp_path / "s.csv").read_bytes() == b"treatment_id,session_id,round,state\r\n"
    assert (tmp_path / "a.csv").read_bytes() == (
        b"treatment_id,session_id,round,row_action,col_action\r\n"
    )


def _write_peak_bytes(tmp_path, n: int) -> int:
    states = np.random.default_rng(1).integers(0, 4, n)
    datasets = [TreatmentDataset.from_sessions("t", square_2x2(), {"s": states})]
    tracemalloc.start()
    try:
        write_csv(datasets, tmp_path / f"{n}.csv", encoding="actions")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_session_length(tmp_path):
    batch = dataio._WRITE_BATCH_ROWS
    short = _write_peak_bytes(tmp_path, 2 * batch)
    long = _write_peak_bytes(tmp_path, 6 * batch)
    # a whole-session join would hold about three times as much at 6 batches
    assert long < 1.25 * short
