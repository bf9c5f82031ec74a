"""State spaces, treatment datasets, and Markov-chain estimation from
observed state sequences.

A treatment is one experimental condition: one or more sessions of play,
each an ordered sequence of state indices, held in one flat layout per
treatment (TreatmentDataset). Chains are estimated by counting consecutive
pairs within sessions (never across boundaries) and normalizing; the
density of states (DOS) is the pooled occupancy frequency. pair_counts,
the one pair-count kernel, serves the data (B = 1) and the Monte-Carlo
nulls' replicate blocks alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllSessionsTooShortError, EmptyDataError, StateOutOfRangeError

__all__ = [
    "StateSpace",
    "TreatmentDataset",
    "MarkovEstimate",
    "StationarityDiagnostic",
    "SQUARE_CYCLE_ORDER",
    "action_state",
    "square_2x2",
    "is_square_2x2",
    "state_dtype",
    "triangle_3",
    "chain_from_counts",
    "pair_counts",
    "estimate_markov",
    "stationarity_diagnostic",
]


def _readonly(arr, dtype=None) -> np.ndarray:
    """A read-only contiguous view of arr as dtype; the caller's array stays
    as it was."""
    arr = np.ascontiguousarray(arr, dtype).view()
    arr.flags.writeable = False
    return arr


def _freeze(obj, **dtypes) -> list[np.ndarray]:
    """Make each named field of a frozen dataclass a read-only array of its
    dtype; return the arrays in order."""
    for name, dtype in dtypes.items():
        object.__setattr__(obj, name, _readonly(getattr(obj, name), dtype))
    return [getattr(obj, name) for name in dtypes]


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
    whose coordinates are each state's (row_action, col_action); state
    action_state(row_action, col_action) has them."""
    return StateSpace(
        labels=("(0,0)", "(0,1)", "(1,0)", "(1,1)"),
        coordinates=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    )


# Square states in driven-cycle order: (0,0) -> (1,0) -> (1,1) -> (0,1).
SQUARE_CYCLE_ORDER = (0, 2, 3, 1)


def action_state(row_action, col_action):
    """The square state of the action pair, each 0 or 1: 2*row + col. Bool
    arrays give uint8 states and int64 arrays int64 ones."""
    return np.uint8(2) * row_action + col_action


def is_square_2x2(space: StateSpace) -> bool:
    """True for the canonical square space of square_2x2(), the only one on
    which action pairs name states."""
    return space.size == 4 and np.array_equal(
        space.coordinates, square_2x2().coordinates
    )


def state_dtype(r: int) -> np.dtype:
    """The type of every states array: the narrowest unsigned one holding [0, r)."""
    return np.min_scalar_type(r - 1)


def triangle_3() -> StateSpace:
    """Three states on the vertices of a unit equilateral triangle."""
    return StateSpace(
        labels=("A", "B", "C"),
        coordinates=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]),
    )


@dataclass(frozen=True)
class TreatmentDataset:
    """All sessions of one treatment over a shared state space, in one flat
    layout: session k is states[offsets[k]:offsets[k + 1]], named
    session_ids[k]. states (held as state_dtype(r)) and offsets (S + 1 int64
    bounds from 0 to states.size) are read-only; an empty session repeats an
    offset."""

    treatment_id: str
    space: StateSpace
    states: np.ndarray
    offsets: np.ndarray
    session_ids: tuple[str, ...]

    def __post_init__(self):
        states, [offsets] = np.asarray(self.states), _freeze(self, offsets=np.int64)
        ids = tuple(self.session_ids)
        object.__setattr__(self, "session_ids", ids)
        if states.ndim != 1:
            raise ValueError("states must be a 1-D sequence")
        if states.size and states.dtype.kind not in "iu":
            raise ValueError(f"state indices must be integers, got {states.dtype}")
        if offsets.ndim != 1 or [*offsets[:1], *offsets[-1:]] != [0, states.size]:
            raise ValueError(f"offsets must run from 0 to {states.size}")
        if (np.diff(offsets) < 0).any():
            raise ValueError("offsets must never decrease")
        if len(ids) != offsets.size - 1:
            raise ValueError(f"{offsets.size - 1} sessions but {len(ids)} session ids")
        r = self.space.size
        if states.size and states.min() < 0:
            raise ValueError("state indices must be nonnegative")
        if states.size and states.max() >= r:
            k = int(np.searchsorted(offsets, np.argmax(states >= r), side="right")) - 1
            raise StateOutOfRangeError(
                f"session {ids[k]!r} of treatment {self.treatment_id!r} "
                f"contains state {int(states[offsets[k] : offsets[k + 1]].max())} "
                f"but the space has r={r}"
            )
        _freeze(self, states=state_dtype(r))

    @classmethod
    def from_sessions(cls, treatment_id: str, space: StateSpace, sessions):
        """Dataset of an ordered mapping {session_id: states}, one session
        per entry, in order."""
        chunks = [np.asarray(states) for states in sessions.values()]
        # empty sessions, [] among them, leave the type to the others
        empty = np.zeros(0, state_dtype(space.size))
        states = np.concatenate([empty, *(c for c in chunks if c.size)])
        offsets = np.cumsum([0, *map(len, chunks)])
        return cls(treatment_id, space, states, offsets, list(sessions))

    @classmethod
    def from_rows(cls, treatment_id: str, space: StateSpace, states: np.ndarray):
        """Dataset of equal-length sessions s1, s2, ...: row k of the
        (sessions, rounds) states is session k + 1."""
        sessions, rounds = states.shape
        offsets = np.arange(sessions + 1) * rounds
        ids = [f"s{k + 1}" for k in range(sessions)]
        return cls(treatment_id, space, states.ravel(), offsets, ids)

    @property
    def n_rounds(self) -> int:
        return int(self.states.size)

    def retained_lengths(self, burn_in: int) -> np.ndarray:
        """Each session's record count once its first burn_in records are
        dropped: the sample design that estimate_markov counts.

        Raises:
            EmptyDataError: nothing retained after burn-in.
            AllSessionsTooShortError: no retained session has two records.
        """
        if burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        lengths = np.maximum(np.diff(self.offsets) - burn_in, 0)
        tid = self.treatment_id
        if not lengths.any():
            raise EmptyDataError(
                f"treatment {tid!r}: no observations after burn_in={burn_in}"
            )
        if not (lengths >= 2).any():
            raise AllSessionsTooShortError(
                f"treatment {tid!r}: no transition pairs after burn_in={burn_in}"
            )
        return lengths


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
        dos, transition, counts, occupancy, outflow = _freeze(
            self,
            dos=float,
            transition=float,
            counts=np.int64,
            occupancy=np.int64,
            has_outflow=bool,
        )
        for name, shape in (
            ("dos", (r,)),
            ("transition", (r, r)),
            ("counts", (r, r)),
            ("occupancy", (r,)),
            ("has_outflow", (r,)),
        ):
            if getattr(self, name).shape != shape:
                raise ValueError(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                )
        if dos.min() < 0.0 or abs(float(dos.sum()) - 1.0) > 1e-12:
            raise ValueError("dos must be nonnegative and sum to 1 within 1e-12")
        row_sums = transition.sum(axis=1)
        if np.any(np.abs(row_sums[outflow] - 1.0) > 1e-12):
            raise ValueError("active transition rows must sum to 1 within 1e-12")
        if np.any(transition[~outflow] != 0.0):
            raise ValueError("rows of never-left states must be all-zero")
        if np.any((counts.sum(axis=1) > 0) & (occupancy == 0)):
            raise ValueError("counts out of a state imply nonzero occupancy")

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


def _parts(data: TreatmentDataset, *widths: np.ndarray) -> np.ndarray:
    """Each state's part of its session as int8: part k holds the next
    widths[k] states of every session, and the widths sum to its length."""
    labels = np.tile(np.arange(len(widths), dtype=np.int8), data.offsets.size - 1)
    return np.repeat(labels, np.column_stack(widths).ravel())


def pair_counts(
    states: np.ndarray, ends: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """(occupancy, pair counts) of B sequences of states, shape (B, n), cut
    into the same nonempty sessions, whose last states are at the indices
    `ends` (increasing, the last n - 1).

    One offset bincount of the pair codes s_t*r + s_{t+1}, computed in the
    narrowest unsigned type that holds every bin, counts all B; a pair that
    crosses a session boundary is coded as one extra bin and dropped. A
    state's occupancy is its row sum of the counts plus the sessions that
    end in it."""
    b = states.shape[0]
    size = b * r * r
    cut = ends[:-1]
    bins = size + (cut.size > 0)
    code_type = np.uint8 if bins <= 2**8 else np.uint16 if bins <= 2**16 else np.int64
    # states lie in [0, r), so narrowing them is exact
    codes = np.multiply(states[:, :-1], r, dtype=code_type, casting="unsafe")
    np.add(codes, states[:, 1:], out=codes, casting="unsafe")
    if b > 1:
        codes += np.arange(0, size, r * r, dtype=code_type)[:, None]
    if cut.size:
        codes[:, cut] = size
    counts = np.bincount(codes.ravel(), minlength=bins)[:size].reshape(b, r, r)
    last = states[:, ends] + np.arange(0, b * r, r)[:, None]
    occupancy = counts.sum(axis=-1) + np.bincount(
        last.ravel(), minlength=b * r
    ).reshape(b, r)
    return occupancy, counts


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
    lengths = data.retained_lengths(burn_in)
    states = data.states
    if burn_in:
        states = states[_parts(data, np.diff(data.offsets) - lengths, lengths) == 1]
    ends = np.cumsum(lengths[lengths > 0]) - 1
    [occupancy], [counts] = pair_counts(states[None], ends, data.space.size)
    dos, transition = chain_from_counts(occupancy, counts)
    return MarkovEstimate(
        space=data.space,
        dos=dos,
        transition=transition,
        counts=counts,
        occupancy=occupancy,
        n_observations=int(states.size),
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
    lengths = data.retained_lengths(burn_in)
    half = lengths // 2
    # code each state with its part: burn-in, first half or second half
    codes = np.multiply(data.states, 3, dtype=np.intp)
    codes += _parts(data, np.diff(data.offsets) - lengths, half, lengths - half)
    _, first, second = np.bincount(codes, minlength=3 * r).reshape(r, 3).T
    first_dos = first / max(int(first.sum()), 1)
    second_dos = second / max(int(second.sum()), 1)
    return StationarityDiagnostic(
        first_half_dos=_readonly(first_dos),
        second_half_dos=_readonly(second_dos),
        linf_distance=float(np.max(np.abs(first_dos - second_dos))),
    )
