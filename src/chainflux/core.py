"""State spaces, trajectories, and Markov-chain estimation from observed
state sequences.

A treatment is one experimental condition: one or more sessions of play,
each recorded as an ordered sequence of state indices. Chains are estimated
by counting consecutive pairs within sessions (never across boundaries) and
normalizing; the density of states (DOS) is the pooled occupancy frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllSessionsTooShortError, EmptyDataError, StateOutOfRangeError

__all__ = [
    "StateSpace",
    "Trajectory",
    "TreatmentDataset",
    "MarkovEstimate",
    "StationarityDiagnostic",
    "square_2x2",
    "is_square_2x2",
    "triangle_3",
    "chain_from_counts",
    "estimate_markov",
    "stationarity_diagnostic",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateSpace:
    """The r discrete states with display labels and Euclidean coordinates.

    Attributes:
        labels: one display string per state.
        coordinates: (r, d) array; row i is the position of state i, d >= 1.
    """

    labels: tuple[str, ...]
    coordinates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        object.__setattr__(self, "coordinates", _readonly(coords))
        if len(self.labels) < 2:
            raise ValueError("a state space needs at least 2 states")
        if coords.shape[0] != len(self.labels):
            raise ValueError(
                f"{len(self.labels)} labels but {coords.shape[0]} coordinate rows"
            )
        if coords.shape[1] < 1:
            raise ValueError("coordinates need dimension >= 1")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return int(self.coordinates.shape[1])


def square_2x2() -> StateSpace:
    """Canonical two-population 2x2 space: 4 joint states on the unit square,
    index order (0,0), (0,1), (1,0), (1,1), i.e. index = 2*row_action + col_action."""
    return StateSpace(
        labels=("(0,0)", "(0,1)", "(1,0)", "(1,1)"),
        coordinates=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    )


def is_square_2x2(space: StateSpace) -> bool:
    """True for the canonical square space of square_2x2(): 4 states whose
    index is 2*row_action + col_action."""
    return space.size == 4 and np.array_equal(
        space.coordinates, square_2x2().coordinates
    )


def triangle_3() -> StateSpace:
    """Three states on the vertices of a unit equilateral triangle."""
    return StateSpace(
        labels=("A", "B", "C"),
        coordinates=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]),
    )


@dataclass(frozen=True)
class Trajectory:
    """One session's ordered state sequence."""

    session_id: str
    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 1:
            raise ValueError("states must be a 1-D sequence")
        if states.size and states.min() < 0:
            raise ValueError("state indices must be nonnegative")
        object.__setattr__(self, "states", _readonly(states))

    def __len__(self) -> int:
        return int(self.states.size)


@dataclass(frozen=True)
class TreatmentDataset:
    """All sessions of one treatment over a shared state space."""

    treatment_id: str
    space: StateSpace
    sessions: tuple[Trajectory, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sessions", tuple(self.sessions))
        r = self.space.size
        for traj in self.sessions:
            if traj.states.size and traj.states.max() >= r:
                raise StateOutOfRangeError(
                    f"session {traj.session_id!r} of treatment "
                    f"{self.treatment_id!r} contains state "
                    f"{int(traj.states.max())} but the space has r={r}"
                )

    @property
    def n_rounds(self) -> int:
        return sum(len(t) for t in self.sessions)


@dataclass(frozen=True)
class MarkovEstimate:
    """Estimated chain: occupancy DOS and row-normalized transition matrix.

    Attributes:
        dos: length-r occupancy frequencies, sums to 1.
        transition: (r, r) row-stochastic matrix; rows of states that were
            never left are all-zero and marked False in `has_outflow`.
        counts: (r, r) raw transition-pair counts.
        occupancy: length-r raw state counts.
        n_observations: total retained observations across sessions.
        has_outflow: length-r bool; True where the transition row is a
            proper distribution.
    """

    space: StateSpace
    dos: np.ndarray
    transition: np.ndarray
    counts: np.ndarray
    occupancy: np.ndarray
    n_observations: int
    has_outflow: np.ndarray

    def __post_init__(self):
        r = self.space.size
        dos = _readonly(np.asarray(self.dos, dtype=float))
        transition = _readonly(np.asarray(self.transition, dtype=float))
        counts = _readonly(np.asarray(self.counts, dtype=np.int64))
        occupancy = _readonly(np.asarray(self.occupancy, dtype=np.int64))
        outflow = _readonly(np.asarray(self.has_outflow, dtype=bool))
        for name, arr, shape in (
            ("dos", dos, (r,)),
            ("transition", transition, (r, r)),
            ("counts", counts, (r, r)),
            ("occupancy", occupancy, (r,)),
            ("has_outflow", outflow, (r,)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if dos.min() < 0.0 or abs(float(dos.sum()) - 1.0) > 1e-12:
            raise ValueError("dos must be nonnegative and sum to 1 within 1e-12")
        row_sums = transition.sum(axis=1)
        if np.any(np.abs(row_sums[outflow] - 1.0) > 1e-12):
            raise ValueError("active transition rows must sum to 1 within 1e-12")
        if np.any(transition[~outflow] != 0.0):
            raise ValueError("rows of never-left states must be all-zero")
        if np.any((counts.sum(axis=1) > 0) & (occupancy == 0)):
            raise ValueError("counts out of a state imply nonzero occupancy")
        for name, arr in (
            ("dos", dos),
            ("transition", transition),
            ("counts", counts),
            ("occupancy", occupancy),
            ("has_outflow", outflow),
        ):
            object.__setattr__(self, name, arr)

    @classmethod
    def from_exact(
        cls, space: StateSpace, dos: np.ndarray, transition: np.ndarray
    ) -> "MarkovEstimate":
        """Wrap an analytically specified (dos, transition) pair with no
        underlying counts, e.g. for closed-form chains in tests and sweeps."""
        transition = np.asarray(transition, dtype=float)
        r = space.size
        return cls(
            space=space,
            dos=np.asarray(dos, dtype=float),
            transition=transition,
            counts=np.zeros((r, r), dtype=np.int64),
            occupancy=np.zeros(r, dtype=np.int64),
            n_observations=0,
            has_outflow=transition.sum(axis=1) > 0,
        )


@dataclass(frozen=True)
class StationarityDiagnostic:
    """First-half vs second-half DOS comparison. Advisory only."""

    first_half_dos: np.ndarray
    second_half_dos: np.ndarray
    linf_distance: float


def _retained(data: TreatmentDataset, burn_in: int) -> list[np.ndarray]:
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    kept = [t.states[burn_in:] for t in data.sessions]
    return [s for s in kept if s.size > 0]


def chain_from_counts(
    occupancy: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize raw counts into (dos, transition), over any leading batch axes.

    occupancy has shape (..., r) and counts (..., r, r). The DOS is occupancy
    over its total; each transition row is its counts over the row total, and
    rows of never-left states stay all-zero.
    """
    dos = occupancy / occupancy.sum(axis=-1, keepdims=True)
    row_tot = counts.sum(axis=-1, keepdims=True)
    transition = np.divide(
        counts, row_tot, out=np.zeros(counts.shape), where=row_tot > 0
    )
    return dos, transition


def estimate_markov(data: TreatmentDataset, burn_in: int = 0) -> MarkovEstimate:
    """Estimate (dos, transition) from all sessions of a treatment.

    Transitions are consecutive pairs within a session after discarding the
    first `burn_in` rounds; pairs never span session boundaries. The DOS is
    occupancy pooled over sessions divided by the retained observation count.

    Raises:
        EmptyDataError: nothing retained after burn-in.
        AllSessionsTooShortError: retained data contains no transition pair.
    """
    r = data.space.size
    occupancy = np.zeros(r, dtype=np.int64)
    counts = np.zeros((r, r), dtype=np.int64)
    n_obs = 0
    for s in _retained(data, burn_in):
        occupancy += np.bincount(s, minlength=r)
        n_obs += int(s.size)
        if s.size >= 2:
            codes = s[:-1] * r + s[1:]
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


def stationarity_diagnostic(
    data: TreatmentDataset, burn_in: int = 0
) -> StationarityDiagnostic:
    """Compare the DOS of the first and second halves of every session.

    Each retained session is split at its midpoint; first halves are pooled
    against second halves and the L-infinity distance of the two DOS vectors
    is reported. Purely advisory: large values hint at nonstationarity but
    never block analysis. Raises the same errors as estimate_markov.
    """
    r = data.space.size
    sessions = _retained(data, burn_in)
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
        first_half_dos=_readonly(first_dos),
        second_half_dos=_readonly(second_dos),
        linf_distance=float(np.max(np.abs(first_dos - second_dos))),
    )
