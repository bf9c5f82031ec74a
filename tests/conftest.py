"""Shared builders for the test suite."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")

from chainflux import (
    MarkovEstimate,
    StateSpace,
    TreatmentDataset,
    square_2x2,
    triangle_3,
)
from chainflux.core import action_state
from chainflux.nullmodels import SQUARE_CYCLE_ORDER, cycle_transition

RING_TRANSITION = np.array(
    [
        [0.25, 0.50, 0.25],
        [0.25, 0.25, 0.50],
        [0.50, 0.25, 0.25],
    ]
)

# forward 0.25*log_3(2), the closed-form EPR of the ring above
RING_EPR = 0.25 * np.log(2.0) / np.log(3.0)


def make_dataset(sessions, space=None, treatment_id="t") -> TreatmentDataset:
    """Dataset from plain python lists of state indices."""
    if space is None:
        space = square_2x2()
    by_id = {f"s{i + 1}": s for i, s in enumerate(sessions)}
    return TreatmentDataset.from_sessions(treatment_id=treatment_id, space=space, sessions=by_id)


def sessions_of(data: TreatmentDataset) -> list[tuple[str, np.ndarray]]:
    """(session_id, states) of each session of a dataset, in order."""
    return list(zip(data.session_ids, np.split(data.states, data.offsets[1:-1])))


def independent_play(params, seed) -> np.ndarray:
    """Reference sampler of independent play, the (sessions, rounds) states
    of VnmParams params: each session draws its row actions, then its
    column actions, from seed.generator()."""
    u = seed.generator().random((params.sessions, 2, params.rounds_per_session))
    return action_state(u[:, 0] < params.p, u[:, 1] < params.q)


def ring_estimate() -> MarkovEstimate:
    """Exact 3-state ring: forward 0.5, backward 0.25, stay 0.25, uniform DOS."""
    return MarkovEstimate.from_exact(
        triangle_3(), np.full(3, 1.0 / 3.0), RING_TRANSITION
    )


def square_cycle_estimate(forward=1.0, backward=0.0) -> MarkovEstimate:
    """Exact driven cycle 0 -> 2 -> 3 -> 1 -> 0 on the unit square, uniform DOS."""
    transition = cycle_transition(4, SQUARE_CYCLE_ORDER, forward, backward)
    return MarkovEstimate.from_exact(square_2x2(), np.full(4, 0.25), transition)


def reversible_estimate(rng: np.random.Generator, r: int) -> MarkovEstimate:
    """Random chain satisfying detailed balance exactly: build a symmetric
    flux matrix S, set P_i proportional to its row sums and w_ij = S_ij / W_i."""
    raw = rng.random((r, r)) + 0.05
    flux = (raw + raw.T) / 2.0
    row = flux.sum(axis=1)
    dos = row / row.sum()
    transition = flux / row[:, None]
    space = StateSpace(
        labels=tuple(str(i) for i in range(r)),
        coordinates=rng.random((r, 2)),
    )
    return MarkovEstimate.from_exact(space, dos, transition)


@pytest.fixture
def square_space() -> StateSpace:
    return square_2x2()


@pytest.fixture
def triangle_space() -> StateSpace:
    return triangle_3()


class _FullDisk:
    """A text file that takes `room` characters, then fails like a full disk."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def write(self, text):
        taken = text[: self.room]
        self.fh.write(taken)
        self.room -= len(taken)
        if len(taken) < len(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fill_disk(monkeypatch, room: int) -> None:
    """Make every file that dataio opens for writing fail after `room` chars."""
    import chainflux.dataio as dataio

    monkeypatch.setattr(
        dataio, "open", lambda *a, **k: _FullDisk(open(*a, **k), room), raising=False
    )
