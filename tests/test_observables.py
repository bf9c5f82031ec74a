"""Entropy, EPR, velocity, and motion: frozen examples and invariants.

The brute-force EPR oracle below sums the ordered-pair form directly (all
r*(r-1) ordered terms with the 1/2 prefactor) with plain floats; the
implementation is only trusted where it agrees with this oracle.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainflux import (
    MarkovEstimate,
    StateSpace,
    ZeroFluxPolicy,
    entropy,
    epr,
    estimate_markov,
    full_report,
    motion,
    square_2x2,
    velocity,
)
from chainflux.errors import OneSidedZeroFluxError
from chainflux.observables import entropy_batch

from conftest import (
    RING_EPR,
    make_dataset,
    reversible_estimate,
    ring_estimate,
    square_cycle_estimate,
)


def epr_ordered_bruteforce(dos, transition, r, skip_one_sided=True) -> float:
    """Independent oracle: 1/2 * sum over ordered pairs i != j."""
    total = 0.0
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            a = float(dos[i]) * float(transition[i][j])
            b = float(dos[j]) * float(transition[j][i])
            if a == 0.0 and b == 0.0:
                continue
            if a == 0.0 or b == 0.0:
                if skip_one_sided:
                    continue
                raise AssertionError("one-sided pair in a strict oracle call")
            total += 0.5 * (a - b) * (math.log(a) - math.log(b)) / math.log(r)
    return total


def random_empirical_estimate(rng) -> MarkovEstimate:
    seq = rng.integers(0, 4, size=int(rng.integers(10, 200))).tolist()
    return estimate_markov(make_dataset([seq]))


class TestEntropy:
    def test_uniform_is_exactly_one(self):
        est = MarkovEstimate.from_exact(square_2x2(), [0.25] * 4, np.eye(4))
        assert entropy(est) == 1.0

    def test_degenerate_is_zero(self):
        est = MarkovEstimate.from_exact(square_2x2(), [1.0, 0, 0, 0], np.eye(4))
        assert entropy(est) == 0.0

    def test_two_state_half(self):
        transition = np.zeros((4, 4))
        transition[0, 1] = transition[1, 0] = 1.0
        est = MarkovEstimate.from_exact(square_2x2(), [0.5, 0.5, 0, 0], transition)
        assert entropy(est) == 0.5

    def test_depends_on_dos_only(self):
        dos = [0.4, 0.3, 0.2, 0.1]
        a = MarkovEstimate.from_exact(square_2x2(), dos, np.eye(4))
        other = np.full((4, 4), 0.25)
        b = MarkovEstimate.from_exact(square_2x2(), dos, other)
        assert entropy(a) == entropy(b)

    def test_batch_rows_match_sum_over_visited_states(self):
        # rows of 8+ states with unvisited ones: the sum must run over the
        # visited states alone, as -(nz * log nz).sum() does, to the last bit
        rng = np.random.default_rng(12)
        occupancy = rng.integers(1, 40, size=(300, 12))
        occupancy[rng.random((300, 12)) < 0.4] = 0
        occupancy[:, 0] += 1
        dos = occupancy / occupancy.sum(axis=1, keepdims=True)
        expect = []
        for row in dos:
            nz = row[row > 0.0]
            expect.append(-(nz * np.log(nz)).sum() / math.log(12))
        assert entropy_batch(dos).tolist() == expect

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_bounded_in_unit_interval(self, seq):
        est = estimate_markov(make_dataset([seq]))
        assert 0.0 <= entropy(est) <= 1.0


class TestEpr:
    def test_ring_closed_form_and_oracle(self):
        est = ring_estimate()
        value, skipped = epr(est, ZeroFluxPolicy.strict())
        oracle = epr_ordered_bruteforce(est.dos, est.transition, 3)
        assert abs(value - RING_EPR) <= 1e-12
        assert abs(oracle - RING_EPR) <= 1e-12
        assert abs(value - oracle) <= 1e-15
        assert skipped == 0

    def test_symmetric_transition_uniform_dos_is_zero(self):
        transition = np.array(
            [[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]]
        )
        space = StateSpace(labels=("a", "b", "c"), coordinates=np.eye(3, 2))
        est = MarkovEstimate.from_exact(space, np.full(3, 1 / 3), transition)
        value, _ = epr(est, ZeroFluxPolicy.strict())
        assert value == 0.0

    def test_deterministic_cycle_skip_counts_unordered_pairs(self):
        est = square_cycle_estimate(forward=1.0)
        value, skipped = epr(est, ZeroFluxPolicy.skip())
        assert value == 0.0
        assert skipped == 4

    def test_deterministic_cycle_strict_raises(self):
        est = square_cycle_estimate(forward=1.0)
        with pytest.raises(OneSidedZeroFluxError) as exc:
            epr(est, ZeroFluxPolicy.strict())
        i, j = exc.value.pair
        assert 0 <= i < j < 4

    def test_strict_error_survives_pickling(self):
        # worker processes send their errors back pickled
        est = square_cycle_estimate(forward=1.0)
        with pytest.raises(OneSidedZeroFluxError) as exc:
            epr(est, ZeroFluxPolicy.strict())
        copy = pickle.loads(pickle.dumps(exc.value))
        assert type(copy) is OneSidedZeroFluxError
        assert copy.pair == exc.value.pair
        assert str(copy) == str(exc.value)

    def test_deterministic_cycle_smooth_is_positive(self):
        est = square_cycle_estimate(forward=1.0)
        value, skipped = epr(est, ZeroFluxPolicy.smooth(1e-6))
        assert value > 0.0
        assert skipped == 0

    def test_default_policy_is_skip(self):
        est = square_cycle_estimate(forward=1.0)
        assert epr(est) == epr(est, ZeroFluxPolicy.skip())

    def test_smooth_equals_strict_when_all_fluxes_positive(self):
        est = ring_estimate()
        exact, _ = epr(est, ZeroFluxPolicy.strict())
        for eps in (1e-4, 1e-6, 1e-9):
            smoothed, _ = epr(est, ZeroFluxPolicy.smooth(eps))
            assert smoothed == exact

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_and_matches_oracle_on_empirical_chains(self, seed):
        rng = np.random.default_rng(seed)
        est = random_empirical_estimate(rng)
        value, _ = epr(est, ZeroFluxPolicy.skip())
        oracle = epr_ordered_bruteforce(est.dos, est.transition, 4)
        assert value >= 0.0
        assert abs(value - oracle) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_smooth_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        est = random_empirical_estimate(rng)
        value, _ = epr(est, ZeroFluxPolicy.smooth(1e-5))
        assert value >= 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_detailed_balance_gives_zero(self, seed):
        rng = np.random.default_rng(seed)
        est = reversible_estimate(rng, int(rng.integers(2, 7)))
        value, _ = epr(est, ZeroFluxPolicy.strict())
        assert abs(value) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        seq = rng.integers(0, 4, size=150)
        perm = rng.permutation(4)
        space = square_2x2()
        permuted_space = StateSpace(
            labels=tuple(space.labels[i] for i in np.argsort(perm)),
            coordinates=space.coordinates[np.argsort(perm)],
        )
        est = estimate_markov(make_dataset([seq.tolist()], space=space))
        est_p = estimate_markov(
            make_dataset([perm[seq].tolist()], space=permuted_space)
        )
        assert abs(epr(est)[0] - epr(est_p)[0]) <= 1e-12
        assert abs(entropy(est) - entropy(est_p)) <= 1e-12
        assert abs(motion(est) - motion(est_p)) <= 1e-12
        v, v_p = velocity(est), velocity(est_p)
        assert np.allclose(v, v_p[perm], atol=1e-12)
        assert np.allclose(v_p, v[np.argsort(perm)], atol=1e-12)


class TestVelocityAndMotion:
    def test_reversible_chain_has_zero_velocity(self):
        rng = np.random.default_rng(7)
        est = reversible_estimate(rng, 4)
        assert np.all(np.abs(velocity(est)) <= 1e-12)
        assert motion(est) <= 1e-12

    def test_square_cycle_velocity_hand_value(self):
        est = square_cycle_estimate(forward=1.0)
        v = velocity(est)
        assert v[0].tolist() == [0.25, -0.25]
        assert v.shape == (4, 2)

    def test_absorbing_state_zero_velocity(self):
        est = MarkovEstimate.from_exact(square_2x2(), [1.0, 0, 0, 0], np.eye(4))
        assert np.all(velocity(est) == 0.0)

    def test_square_cycle_motion_exact(self):
        est = square_cycle_estimate(forward=1.0)
        assert motion(est) == 0.0625

    def test_motion_quadratic_in_coordinates(self):
        est = square_cycle_estimate(forward=1.0)
        doubled_space = StateSpace(
            labels=est.space.labels, coordinates=2.0 * est.space.coordinates
        )
        doubled = MarkovEstimate.from_exact(doubled_space, est.dos, est.transition)
        assert motion(doubled) == 4.0 * motion(est)


class TestFullReport:
    def test_uniform_iid_chain(self):
        est = MarkovEstimate.from_exact(
            square_2x2(), [0.25] * 4, np.full((4, 4), 0.25)
        )
        report = full_report(est)
        assert report.entropy == 1.0
        assert report.epr == 0.0
        assert report.motion == 0.0
        assert report.skipped_pairs == 0

    def test_ring_report_echoes_components(self):
        est = ring_estimate()
        report = full_report(est, ZeroFluxPolicy.skip())
        assert abs(report.epr - RING_EPR) <= 1e-12
        assert report.entropy == entropy(est)
        assert report.motion == motion(est)
        assert np.array_equal(report.velocity, velocity(est))

    def test_deterministic_cycle_policy_fields(self):
        report = full_report(square_cycle_estimate(forward=1.0), ZeroFluxPolicy.skip())
        assert report.policy_used == "skip"
        assert report.skipped_pairs == 4

    def test_strict_error_propagates(self):
        with pytest.raises(OneSidedZeroFluxError):
            full_report(square_cycle_estimate(forward=1.0), ZeroFluxPolicy.strict())


class TestZeroFluxPolicy:
    def test_parse_round_trip(self):
        assert ZeroFluxPolicy.parse("skip") == ZeroFluxPolicy.skip()
        assert ZeroFluxPolicy.parse("strict") == ZeroFluxPolicy.strict()
        assert ZeroFluxPolicy.parse("smooth=1e-6") == ZeroFluxPolicy.smooth(1e-6)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            ZeroFluxPolicy.smooth(0.0)
        with pytest.raises(ValueError):
            ZeroFluxPolicy.smooth(0.1)
        with pytest.raises(ValueError):
            ZeroFluxPolicy("smooth")
        with pytest.raises(ValueError):
            ZeroFluxPolicy("skip", epsilon=1e-6)
        with pytest.raises(ValueError):
            ZeroFluxPolicy.parse("smooth")
        with pytest.raises(ValueError):
            ZeroFluxPolicy.parse("sometimes")
