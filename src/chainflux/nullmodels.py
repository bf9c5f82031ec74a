"""Monte-Carlo null models and the synthetic-data generators.

Two nulls, one kernel: each replicate draws every record i.i.d. from a DOS,
cut into sessions like a dataset's, and estimates its chain. The i.i.d.
null (the finite-sample baseline for cycle detection) draws from an
empirical DOS as one session. The independent-play null (the randomization
prediction for 2x2 games) draws independent row and column actions with
fixed marginals, so its state is i.i.d. with their product DOS; it plays
equal-length sessions. Replicate k of seed s draws one uniform per record
from Philox keyed by s.split(k).root, so results are identical under any
execution order, chunking, or number of worker processes. The keys of up to
_KEYS_PER_PASS consecutive replicates come from one uint64 splitmix64 pass
over their indices, bit-equal to Seed.split, and one Philox is re-keyed to
each in turn; Seed.split and Seed.generator stay the definition of the
stream.

Replicates are drawn in blocks of B replicates: one (B, n) array of at
most _BLOCK_DRAWS uniforms, mapped to flat (B, n) states, and counted by
core.pair_counts, the kernel estimate_markov uses, with the index of each
session's last state. A block also holds at most _BLOCK_CELLS pair counts
(B·r²), so its (B, r, r) arrays stay small on many states. States are held
as core.state_dtype(r). The counts of consecutive blocks are gathered in
groups of up to _GROUP_CELLS pair counts (a group is never smaller than one
block), and each group's chains and observables are evaluated in one
batched call.

A uniform u maps to the state that counts the cumulative-probability cuts
at or below it (_cuts). The nulls compare whole blocks against the cuts,
and so does simulate_iid, which draws i.i.d. sessions as the nulls draw
replicates: session k of seed s draws from s.split(k). A chain's next row
depends on its current state, so simulate_chain walks one chain with one
bisect per step over plain Python lists. simulate_sessions samples many
sessions, each a lane with its own stream. From _LOCKSTEP_LANES lanes on,
and on at most _LOCKSTEP_STATES states, it walks them in lockstep: one
numpy step per round gathers every lane's current row of cuts and counts
the cuts at or below the lane's uniform. Otherwise it walks each session
with bisect. Distributions must be finite, nonnegative and normalized
before any draw.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import SQUARE_CYCLE_ORDER, action_state, chain_from_counts, pair_counts
from .core import state_dtype
from .errors import InvalidDistributionError
from .observables import ZeroFluxPolicy, entropy_batch, epr_batch

__all__ = [
    "Seed",
    "VnmParams",
    "SQUARE_CYCLE_ORDER",
    "cycle_transition",
    "simulate_chain",
    "simulate_iid",
    "simulate_iid_bytes",
    "simulate_sessions",
    "simulate_sessions_bytes",
    "vnm_null_distribution",
    "dos_baseline",
]

_MASK64 = (1 << 64) - 1
_NORM_TOL = 1e-9
# Uniform draws per replicate block; larger blocks only cost memory.
_BLOCK_DRAWS = 2**15
# Pair counts per replicate block, 8 MiB per int64 (B, r, r) array: caps a
# block's count, transition and flux arrays, which grow as B·r², on many
# states. A cap of _BLOCK_DRAWS or _GROUP_CELLS cells was 1.2-4x slower at
# r = 64-300 (dos_baseline, 400 replicates of 192 records).
_BLOCK_CELLS = 2**20
# Pair counts per evaluation group: enough replicates to amortize the fixed
# cost of evaluating chains when blocks are small, little enough memory.
_GROUP_CELLS = 2**12
# Replicate keys per splitmix64 pass: enough to amortize the fixed cost of
# the pass's numpy calls when each block holds one long replicate.
_KEYS_PER_PASS = 2**9
# simulate_sessions walks in lockstep from _LOCKSTEP_LANES lanes on, on at
# most _LOCKSTEP_STATES states. A lockstep round costs a few numpy calls
# whatever the lane count, and gathers r - 1 cuts per lane; a bisect step
# costs 150-250 ns per lane. Lockstep time over per-session time, medians
# of 15 alternating in-process runs (2-core host, numpy 2.4.6): r = 4 at
# 64 lanes 1.04, at 96 lanes 0.77, at 5000 lanes 0.34; r = 64 at 96
# lanes 0.86; r = 100 at 64 lanes 1.07; r = 200 at 1000 lanes 1.12;
# r = 300 at 1000 lanes 1.05.
_LOCKSTEP_LANES = 96
_LOCKSTEP_STATES = 64
# splitmix64 constants
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _splitmix64(z: int) -> int:
    """splitmix64 finalizer: the counter-to-stream mixing function."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """_splitmix64 of every element of a uint64 array. The arithmetic wraps
    modulo 2**64 like the masked version; every operand is np.uint64, so
    nothing is promoted to float64."""
    z = z + np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


def _split_roots(root: int, lo: int, hi: int) -> np.ndarray:
    """Seed(root).split(k).root for every k in [lo, hi), in one pass. Like
    the masked version, k and k + 2**64 give the same root."""
    k = np.arange(hi - lo, dtype=np.uint64) + np.uint64(lo)
    return _splitmix64_array(_splitmix64_array(k) ^ np.uint64(root))


@dataclass(frozen=True)
class Seed:
    """Root of a deterministic, splittable random stream.

    split(k) derives an independent child stream from (root, k) alone;
    the extra mixing pass keeps split(a).split(b) distinct from
    split(b).split(a). Streams are realized with the Philox counter-based
    bit generator.
    """

    root: int

    def __post_init__(self):
        if not (0 <= int(self.root) <= _MASK64):
            raise ValueError("seed root must be a 64-bit unsigned integer")
        object.__setattr__(self, "root", int(self.root))

    def split(self, k: int) -> "Seed":
        if k < 0:
            raise ValueError("split counter must be >= 0")
        return Seed(_splitmix64(self.root ^ _splitmix64(k)))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.root))


@dataclass(frozen=True)
class VnmParams:
    """Independent-play parameters: per-round action-1 probabilities for the
    row player (p) and column player (q), and the sample size to hold fixed."""

    p: float
    q: float
    sessions: int
    rounds_per_session: int

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("p and q must lie in [0, 1]")
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.rounds_per_session < 2:
            raise ValueError("rounds_per_session must be >= 2")

    @property
    def dos(self) -> np.ndarray:
        """The product DOS P(row) P(col) of independent play on the
        canonical square space (core.action_state)."""
        actions = np.arange(2)
        dos = np.zeros(4)
        dos[action_state(actions[:, None], actions)] = np.outer(
            [1 - self.p, self.p], [1 - self.q, self.q]
        )
        return dos


def _check_distribution(vec: np.ndarray, what: str) -> None:
    # NaN fails no comparison, so finiteness is checked on its own
    if (
        not np.isfinite(vec).all()
        or vec.min() < 0.0
        or abs(float(vec.sum()) - 1.0) > _NORM_TOL
    ):
        raise InvalidDistributionError(
            f"{what} must be finite, nonnegative and sum to 1 within {_NORM_TOL}; "
            f"got sum {float(vec.sum())!r}"
        )


def _cuts(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis with the last one dropped.

    The state a uniform u draws from p is the number of cuts at or below u,
    bisect_right(cuts, u), which equals min(bisect_right(cumsum(p), u), r - 1).
    """
    return np.cumsum(p, axis=-1)[..., :-1]


def cycle_transition(r: int, order, forward: float, backward: float) -> np.ndarray:
    """Row-stochastic matrix driving the states around `order`: probability
    `forward` to the next state, `backward` to the previous, remainder stays.

    Raises:
        InvalidDistributionError: forward or backward is negative or NaN, or
            their sum exceeds 1.
    """
    stay = 1.0 - forward - backward
    # written so that NaN fails it
    if not (forward >= 0 and backward >= 0 and stay >= -1e-12):
        raise InvalidDistributionError(
            f"forward + backward must be <= 1 and nonnegative "
            f"(forward={forward}, backward={backward})"
        )
    stay = max(stay, 0.0)
    transition = np.zeros((r, r))
    k = len(order)
    for pos, state in enumerate(order):
        transition[state, order[(pos + 1) % k]] += forward
        transition[state, order[(pos - 1) % k]] += backward
        transition[state, state] += stay
    return transition


def _chain_cuts(dos0: np.ndarray, transition: np.ndarray):
    """Check dos0 (..., r) and transition (..., r, r) and return their cuts;
    leading axes index treatments.

    Raises:
        InvalidDistributionError: dos0 or a transition row fails
            normalization beyond 1e-9.
    """
    r = dos0.shape[-1]
    if transition.shape != (*dos0.shape, r):
        raise ValueError(f"transition shape {transition.shape} does not match r={r}")
    for index in np.ndindex(dos0.shape[:-1]):
        _check_distribution(dos0[index], "dos0")
        for i, row in enumerate(transition[index]):
            _check_distribution(row, f"transition row {i}")
    return _cuts(dos0), _cuts(transition)


def _bisect_walk(cuts0: list, cuts: list, u: np.ndarray) -> list:
    """One chain's states: s_0 counts the cuts0 at or below u[0], s_{t+1}
    the cuts of row s_t at or below u[t+1]."""
    u = u.tolist()
    s = bisect_right(cuts0, u[0])
    states = [s]
    append = states.append
    for x in itertools.islice(u, 1, None):
        s = bisect_right(cuts[s], x)
        append(s)
    return states


def _walks_in_lockstep(lanes: int, r: int) -> bool:
    return lanes >= _LOCKSTEP_LANES and r <= _LOCKSTEP_STATES


def _lockstep_walk(cuts0: np.ndarray, cuts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The states of every lane, shape (T * sessions, rounds), from cuts0
    of shape (T, r-1), cuts of shape (T, r, r-1) and one row of uniforms
    per lane, treatment-major. Counting a lane's cuts at or below its
    uniform equals bisect_right, because each row of cuts is
    nondecreasing."""
    lanes, rounds = u.shape
    t_count, r = cuts.shape[:2]
    lane_t = np.repeat(np.arange(t_count), lanes // t_count)
    flat = cuts.reshape(t_count * r, r - 1)
    base = lane_t * r
    states = np.empty((lanes, rounds), dtype=state_dtype(r))
    s = states[:, 0] = (cuts0[lane_t] <= u[:, :1]).sum(axis=1)
    for k in range(1, rounds):
        s = states[:, k] = (flat.take(base + s, axis=0) <= u[:, k, None]).sum(axis=1)
    return states


def simulate_chain(dos0, transition, n: int, seed: Seed) -> np.ndarray:
    """Sample the states of an n-step chain: s_0 ~ dos0,
    s_{t+1} ~ transition[s_t].

    Raises:
        InvalidDistributionError: dos0 or a transition row fails
            normalization beyond 1e-9.
    """
    dos0 = np.asarray(dos0, dtype=float)
    transition = np.asarray(transition, dtype=float)
    if n < 2:
        raise ValueError("n must be >= 2")
    cuts0, cuts = _chain_cuts(dos0, transition)
    states = _bisect_walk(cuts0.tolist(), cuts.tolist(), seed.generator().random(n))
    return np.array(states, dtype=state_dtype(dos0.size))


def simulate_sessions(
    dos0, transitions, sessions: int, rounds: int, seed: Seed
) -> np.ndarray:
    """Sample `sessions` chains of `rounds` steps for each of T treatments:
    session s of treatment t starts from dos0[t], steps with
    transitions[t], and draws from seed.split(t).split(s).

    dos0 has shape (T, r) and transitions (T, r, r). Returns the states
    of shape (T, sessions, rounds); states[t, s] equals
    simulate_chain(dos0[t], transitions[t], rounds, seed.split(t).split(s)).

    Raises:
        InvalidDistributionError: a dos0 or transition row fails
            normalization beyond 1e-9.
    """
    dos0 = np.asarray(dos0, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    if dos0.ndim != 2:
        raise ValueError(f"dos0 must have shape (T, r), got {dos0.shape}")
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if rounds < 2:
        raise ValueError("rounds must be >= 2")
    cuts0, cuts = _chain_cuts(dos0, transitions)
    t_count = dos0.shape[0]
    # row s of a treatment's _uniforms is the stream seed.split(t).split(s)
    u = np.empty((t_count, sessions, rounds))
    for t in range(t_count):
        u[t] = _uniforms(seed.split(t))(0, sessions, rounds)
    if _walks_in_lockstep(t_count * sessions, dos0.shape[1]):
        states = _lockstep_walk(cuts0, cuts, u.reshape(-1, rounds))
        return states.reshape(u.shape)
    states = np.empty(u.shape, dtype=state_dtype(dos0.shape[1]))
    for t in range(t_count):
        t_cuts0, t_cuts = cuts0[t].tolist(), cuts[t].tolist()
        for s, row in enumerate(u[t]):
            states[t, s] = _bisect_walk(t_cuts0, t_cuts, row)
        del t_cuts  # so that two treatments' cuts are never held as lists at once
    return states


def simulate_sessions_bytes(treatments: int, sessions: int, rounds: int, r: int) -> int:
    """Bytes simulate_sessions holds at its peak for these sizes: every
    lane's float64 uniforms and states, one treatment's uniforms while they
    are drawn, the transitions and their cuts, 64 KiB for the stream's key
    pass and Philox, plus one lockstep round's gathered cuts, masks and
    indices, or one treatment's cuts and one session's uniforms and states
    as Python objects."""
    lanes = treatments * sessions
    held = (
        (8 + state_dtype(r).itemsize) * lanes * rounds
        + 8 * sessions * rounds
        + 16 * treatments * r * r
        + 2**16
    )
    if _walks_in_lockstep(lanes, r):
        return held + lanes * (9 * (r - 1) + 32)
    return held + 32 * r * r + rounds * (8 + 32 + 36)


def _uniforms(seed: Seed):
    """uniforms(lo, hi, n): row k - lo holds the first n uniforms of
    replicate k's stream, seed.split(k).generator().

    Replicate keys, seed.split(k).root, come from vectorized splitmix64
    passes (_split_roots). The first pass covers the first call only, so a
    stream read once (simulate_iid's, simulate_sessions') makes no key it
    does not use. Each later pass covers as many calls of the current size
    as fit in _KEYS_PER_PASS replicates, so the pass's fixed cost is shared
    even when a block holds a single long replicate. One Philox
    serves every call: it is re-keyed per replicate through its state
    setter, which gives the same stream without the OS-entropy draw that
    constructing a bit generator makes. The state dict holds plain lists,
    which the setter reads faster than arrays. Roots are 64-bit, so
    Philox's 128-bit key is [root, 0]; counter, buffer and buffer position
    are those of a fresh generator.
    """
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    state["state"] = {name: a.tolist() for name, a in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    gen = np.random.Generator(bitgen)
    keys_lo, keys = 0, []

    def uniforms(lo: int, hi: int, n: int) -> np.ndarray:
        nonlocal keys_lo, keys
        if lo < keys_lo or hi > keys_lo + len(keys):
            size = (hi - lo) * (max(1, _KEYS_PER_PASS // (hi - lo)) if keys else 1)
            keys_lo, keys = lo, _split_roots(seed.root, lo, lo + size).tolist()
        u = np.empty((hi - lo, n))
        for row, root in enumerate(keys[lo - keys_lo : hi - keys_lo]):
            key[0] = root
            bitgen.state = state
            gen.random(out=u[row])
        return u

    return uniforms


def _iid_states(u: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The state of each uniform: the number of cuts at or below it. The
    null passes each block's uniforms straight in, so that they are freed
    before the block's pairs are counted."""
    states = np.zeros(u.shape, dtype=state_dtype(cuts.size + 1))
    for cut in cuts:
        states += u >= cut
    return states


def simulate_iid(dos, sessions: int, rounds: int, seed: Seed) -> np.ndarray:
    """Sample `sessions` sessions of `rounds` i.i.d. states from dos with
    the nulls' draw: session s maps the uniforms of seed.split(s) to states.
    Returns the states, shape (sessions, rounds); states[s] equals
    simulate_chain(dos, np.tile(dos, (r, 1)), rounds, seed.split(s)).

    Raises:
        InvalidDistributionError: dos fails normalization beyond 1e-9.
    """
    dos = np.asarray(dos, dtype=float)
    _check_distribution(dos, "dos")
    if sessions < 1 or rounds < 2:
        raise ValueError("sessions must be >= 1 and rounds >= 2")
    return _iid_states(_uniforms(seed)(0, sessions, rounds), _cuts(dos))


def simulate_iid_bytes(treatments: int, sessions: int, rounds: int, r: int) -> int:
    """Bytes held at the peak of drawing `treatments` simulate_iid states
    one after another and keeping each: every treatment's states, each with
    a 160-byte array object; for the one being drawn, its float64 uniforms
    and a one-byte mask per state, 96 bytes of stream keys per session and
    64 KiB for the stream."""
    itemsize = state_dtype(r).itemsize
    per_treatment = itemsize * sessions * rounds + 160
    return treatments * per_treatment + 9 * sessions * rounds + 96 * sessions + 2**16


def _null_chunk(
    dos: np.ndarray,
    ends: np.ndarray,
    policy: ZeroFluxPolicy,
    seed: Seed,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, EPR) samples of the replicates [lo, hi): each draws one
    i.i.d. state from dos per record, in sessions whose last states are at
    the indices `ends` (see core.pair_counts), and estimates its chain.

    A block holds at most _BLOCK_DRAWS uniforms and _BLOCK_CELLS pair
    counts, and at least one replicate. A group gathers the counts of whole
    blocks, up to _GROUP_CELLS pair counts, so that chains and observables
    are evaluated once per group, not once per block.
    """
    r = dos.size
    n = int(ends[-1]) + 1
    cuts = _cuts(dos)
    uniforms = _uniforms(seed)
    block = max(1, min(_BLOCK_DRAWS // n, _BLOCK_CELLS // (r * r)))
    group = block * max(1, _GROUP_CELLS // (block * r * r))
    ent = np.empty(hi - lo)
    pro = np.empty(hi - lo)
    for group_lo in range(lo, hi, group):
        group_hi = min(group_lo + group, hi)
        occupancy = np.empty((group_hi - group_lo, r), dtype=np.int64)
        counts = np.empty((group_hi - group_lo, r, r), dtype=np.int64)
        for start in range(group_lo, group_hi, block):
            stop = min(start + block, group_hi)
            rows = slice(start - group_lo, stop - group_lo)
            occupancy[rows], counts[rows] = pair_counts(
                _iid_states(uniforms(start, stop, n), cuts), ends, r
            )
        group_dos, transition = chain_from_counts(occupancy, counts)
        rows = slice(group_lo - lo, group_hi - lo)
        ent[rows] = entropy_batch(group_dos)
        pro[rows], _ = epr_batch(group_dos[:, :, None] * transition, policy)
    return ent, pro


def _chunk_ranges(reps: int, workers: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(reps, workers * 4)) if workers > 1 else 1
    step = (reps + n_chunks - 1) // n_chunks
    return [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_chunks(
    dos: np.ndarray,
    ends: np.ndarray,
    reps: int,
    policy: ZeroFluxPolicy,
    seed: Seed,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, EPR) samples of `reps` _null_chunk replicates, in replicate
    order, drawn in-process or in a process pool of at most `workers`."""
    if reps < 2:
        raise ValueError("reps must be >= 2")
    workers = min(workers, _usable_cpus())
    ranges = _chunk_ranges(reps, workers)
    args = (dos, ends, policy, seed)
    if workers <= 1 or len(ranges) == 1:
        results = [_null_chunk(*args, lo, hi) for lo, hi in ranges]
    else:
        # imported here: multiprocessing costs every command start-up time
        # and memory, and most runs never start a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
            futures = [pool.submit(_null_chunk, *args, lo, hi) for lo, hi in ranges]
            results = [f.result() for f in futures]
    ent, pro = zip(*results)
    return np.concatenate(ent), np.concatenate(pro)


def vnm_null_distribution(
    params: VnmParams,
    reps: int,
    policy: ZeroFluxPolicy,
    seed: Seed,
    *,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the independent-play null: each replicate draws a dataset of
    params' sessions, estimates its chain, and records entropy and EPR.

    A round's row and column actions are independent, so its state is
    i.i.d. with the product DOS P(row) P(col) on the canonical square space
    (core.action_state): the i.i.d. null of dos_baseline, cut into
    equal-length sessions. Returns float64 (entropy samples, EPR samples),
    `reps` each, in replicate order. `workers` is capped at the number of
    CPUs the process may use.
    """
    rounds = params.rounds_per_session
    ends = np.arange(rounds - 1, params.sessions * rounds, rounds)
    return _run_chunks(params.dos, ends, reps, policy, seed, workers)


def dos_baseline(
    dos,
    n_rounds: int,
    reps: int,
    policy: ZeroFluxPolicy,
    seed: Seed,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Finite-sample EPR baseline: replicates draw an i.i.d. sequence of
    length n_rounds from `dos`, estimate a chain, and record its EPR.

    Returns the float64 EPR samples, `reps` of them in replicate order: the
    corrected zero for a treatment with that DOS and record count; temporal
    order is destroyed while occupancy is preserved. `workers` is capped at
    the number of CPUs the process may use.
    """
    dos = np.asarray(dos, dtype=float)
    _check_distribution(dos, "dos")
    if n_rounds < 2:
        raise ValueError("n_rounds must be >= 2")
    ends = np.array([n_rounds - 1])
    return _run_chunks(dos, ends, reps, policy, seed, workers)[1]
