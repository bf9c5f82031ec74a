"""The four chain observables: entropy, entropy production rate (EPR),
velocity field, and motion.

All logarithms use base r (the state count), so entropy lies in [0, 1].
EPR is the time-reversal-asymmetry measure

    epr = 1/2 * sum_{i != j} (P_i w_ij - P_j w_ji) * log_r(P_i w_ij / P_j w_ji)

which is zero exactly when detailed balance holds. Finite samples routinely
produce pairs where one directed flux is zero and the other is not; the
ZeroFluxPolicy decides what happens to those pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MarkovEstimate
from .errors import OneSidedZeroFluxError

__all__ = [
    "ZeroFluxPolicy",
    "ObservableReport",
    "entropy",
    "entropy_batch",
    "epr",
    "epr_batch",
    "velocity",
    "motion",
    "full_report",
]

_MAX_EPSILON = 1e-3


@dataclass(frozen=True)
class ZeroFluxPolicy:
    """How EPR treats pairs with exactly one zero directed flux.

    skip    -- the pair contributes 0 and is counted in skipped_pairs.
    smooth  -- both directed fluxes of the pair get +epsilon, then the
               ordinary term is evaluated.
    strict  -- raise OneSidedZeroFluxError naming the pair.

    Pairs with both fluxes zero always contribute 0 (the 0*log 0 convention).
    """

    mode: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.mode not in ("skip", "smooth", "strict"):
            raise ValueError(f"unknown zero-flux mode {self.mode!r}")
        if self.mode == "smooth":
            if self.epsilon is None or not (0.0 < self.epsilon <= _MAX_EPSILON):
                raise ValueError(
                    f"smooth requires 0 < epsilon <= {_MAX_EPSILON}, "
                    f"got {self.epsilon!r}"
                )
        elif self.epsilon is not None:
            raise ValueError(f"mode {self.mode!r} takes no epsilon")

    @classmethod
    def skip(cls) -> "ZeroFluxPolicy":
        return cls("skip")

    @classmethod
    def smooth(cls, epsilon: float) -> "ZeroFluxPolicy":
        return cls("smooth", float(epsilon))

    @classmethod
    def strict(cls) -> "ZeroFluxPolicy":
        return cls("strict")

    @classmethod
    def parse(cls, text: str) -> "ZeroFluxPolicy":
        """Parse 'skip', 'strict', or 'smooth=EPS'."""
        text = text.strip()
        if text in ("skip", "strict"):
            return cls(text)
        if text.startswith("smooth="):
            return cls.smooth(float(text.split("=", 1)[1]))
        if text == "smooth":
            raise ValueError("smooth needs an epsilon, e.g. smooth=1e-6")
        raise ValueError(f"unknown zero-flux policy {text!r}")

    def describe(self) -> dict:
        d = {"mode": self.mode}
        if self.epsilon is not None:
            d["epsilon"] = self.epsilon
        return d


@dataclass(frozen=True)
class ObservableReport:
    """Bundle of the four observables for one estimated chain.

    velocity has one row per state (shape (r, d)); skipped_pairs counts the
    unordered state pairs dropped by the skip policy.
    """

    entropy: float
    epr: float
    velocity: np.ndarray
    motion: float
    skipped_pairs: int
    policy_used: str


@lru_cache(maxsize=32)
def _pair_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(r, k=1)


def entropy_batch(dos: np.ndarray) -> np.ndarray:
    """Normalized Shannon entropy of each DOS row: shape (B, r) -> (B,).

    -sum_i P_i log_r P_i in [0, 1]; zero-probability states contribute 0.
    """
    # Sum only the nonzero terms, as one contiguous run per row in state
    # order: numpy's pairwise summation groups terms by position once a row
    # has 8 or more, so interleaved zeros could change the last bit.
    pos = dos > 0.0
    rows, _ = np.nonzero(pos)
    packed = np.zeros(dos.shape)
    packed[rows, np.cumsum(pos, axis=1)[pos] - 1] = dos[pos]
    counts = pos.sum(axis=1)
    out = np.empty(dos.shape[0])
    # set() rather than np.unique, whose first call adds about 1 MB of RSS
    for m in set(counts.tolist()):
        same = counts == m
        p = packed[same, :m]
        out[same] = -(p * np.log(p)).sum(axis=1) / math.log(dos.shape[1])
    return out


def entropy(chain: MarkovEstimate) -> float:
    """Normalized Shannon entropy of the DOS, -sum_i P_i log_r P_i in [0, 1].

    Depends on the DOS only; zero-probability states contribute 0.
    """
    return float(entropy_batch(chain.dos[None])[0])


def epr_batch(
    flux: np.ndarray, policy: ZeroFluxPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """EPR of each of B chains given as directed fluxes flux[k, i, j] =
    P_i w_ij, shape (B, r, r). Returns (epr, skipped_pairs), each shape (B,).

    Each unordered pair {i, j} contributes (a - b) * log_r(a / b) with
    a = P_i w_ij and b = P_j w_ji, which equals the ordered-pair sum with
    its 1/2 prefactor. Every term is nonnegative, so each total is >= 0.

    Raises:
        OneSidedZeroFluxError: strict policy and some pair has exactly one
            zero flux; names the pair of the lowest such chain k.
    """
    if policy is None:
        policy = ZeroFluxPolicy.skip()
    r = flux.shape[-1]
    iu, ju = _pair_indices(r)
    a = flux[:, iu, ju]
    b = flux[:, ju, iu]
    both = (a > 0.0) & (b > 0.0)
    one_sided = (a > 0.0) ^ (b > 0.0)
    ln_r = math.log(r)

    terms = np.zeros(a.shape)
    terms[both] = (a[both] - b[both]) * (np.log(a[both]) - np.log(b[both])) / ln_r

    skipped = np.zeros(a.shape[0], dtype=np.int64)
    if one_sided.any():
        if policy.mode == "strict":
            k, m = np.argwhere(one_sided)[0]
            raise OneSidedZeroFluxError(
                int(iu[m]), int(ju[m]), float(a[k, m]), float(b[k, m])
            )
        if policy.mode == "skip":
            skipped = one_sided.sum(axis=1)
        else:  # smooth
            eps = policy.epsilon
            ae = a[one_sided] + eps
            be = b[one_sided] + eps
            terms[one_sided] = (ae - be) * (np.log(ae) - np.log(be)) / ln_r
    return terms.sum(axis=1), skipped


def epr(
    chain: MarkovEstimate, policy: ZeroFluxPolicy | None = None
) -> tuple[float, int]:
    """Entropy production rate per observation step, with base-r logs:
    epr_batch for the single chain. Returns (epr, skipped_pairs).

    Raises:
        OneSidedZeroFluxError: strict policy and some pair has exactly one
            zero flux.
    """
    values, skipped = epr_batch((chain.dos[:, None] * chain.transition)[None], policy)
    return float(values[0]), int(skipped[0])


def velocity(chain: MarkovEstimate) -> np.ndarray:
    """Net-flow velocity per state and coordinate dimension, shape (r, d):

        v[i, a] = sum_j (P_j w_ji - P_i w_ij) * (x[i, a] - x[j, a])

    Zero everywhere under detailed balance.
    """
    flux = chain.dos[:, None] * chain.transition
    net_in = flux.T - flux
    coords = chain.space.coordinates
    return coords * net_in.sum(axis=1)[:, None] - net_in @ coords


def motion(chain: MarkovEstimate) -> float:
    """DOS-weighted squared velocity magnitude, halved:
    1/2 * sum_{i,a} P_i v[i, a]^2. Nonnegative; quadratic in the coordinates."""
    v = velocity(chain)
    return 0.5 * float((chain.dos[:, None] * v * v).sum())


def full_report(
    chain: MarkovEstimate, policy: ZeroFluxPolicy | None = None
) -> ObservableReport:
    """Compute all four observables; EPR errors propagate."""
    if policy is None:
        policy = ZeroFluxPolicy.skip()
    epr_value, skipped = epr(chain, policy)
    v = velocity(chain)
    v.flags.writeable = False
    return ObservableReport(
        entropy=entropy(chain),
        epr=epr_value,
        velocity=v,
        motion=motion(chain),
        skipped_pairs=skipped,
        policy_used=policy.mode,
    )
