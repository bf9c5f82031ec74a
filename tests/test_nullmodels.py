"""Monte-Carlo generators: determinism, marginal constraints, bias behavior."""

from __future__ import annotations

import concurrent.futures
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from scipy.stats import ks_2samp

import chainflux.nullmodels as nullmodels
from chainflux import (
    MarkovEstimate,
    Seed,
    StateSpace,
    TreatmentDataset,
    VnmParams,
    ZeroFluxPolicy,
    cycle_transition,
    dos_baseline,
    entropy,
    epr,
    estimate_markov,
    simulate_chain,
    simulate_iid,
    square_2x2,
    vnm_null_distribution,
)
from chainflux.errors import InvalidDistributionError, OneSidedZeroFluxError

from conftest import RING_TRANSITION, independent_play

SKIP = ZeroFluxPolicy.skip()
SMOOTH = ZeroFluxPolicy.smooth(1e-6)
STRICT = ZeroFluxPolicy.strict()


def loop_null(dos, lengths, reps, policy, seed):
    """Reference null, one replicate at a time: replicate k draws one
    uniform per record from seed.split(k), maps each to an i.i.d. state of
    dos, cuts the records into sessions of `lengths`, estimates the
    dataset's chain and takes its entropy and EPR."""
    dos = np.asarray(dos, dtype=float)
    r = dos.size
    space = StateSpace(tuple(str(i) for i in range(r)), np.arange(r, dtype=float))
    cum = np.cumsum(dos)
    ent, pro = [], []
    for k in range(reps):
        u = seed.split(k).generator().random(sum(lengths))
        states = np.minimum(np.searchsorted(cum, u, side="right"), r - 1)
        sessions = np.split(states, np.cumsum(lengths)[:-1])
        data = TreatmentDataset.from_sessions(
            "null", space, {f"s{i + 1}": s for i, s in enumerate(sessions)}
        )
        est = estimate_markov(data)
        ent.append(entropy(est))
        pro.append(epr(est, policy)[0])
    return np.array(ent), np.array(pro)


def product_dos(p, q):
    """The independent-play DOS on the square: state 2*row + col has
    probability P(row) P(col)."""
    return [(1 - p) * (1 - q), (1 - p) * q, p * (1 - q), p * q]


def draw_vnm(params, seed):
    """Treatment 0 of a `simulate --model vnm` file: simulate_iid of params'
    product DOS."""
    return simulate_iid([params.dos], params.sessions, params.rounds_per_session, seed)[0]


def _sparse_dos(r):
    """r-state DOS with weights 0, 1, 2, 0, 1, 2, ...: every third state,
    from state 0 on, has zero probability."""
    w = (np.arange(r) % 3).astype(float)
    return w / w.sum()


class TestSeed:
    def test_root_must_be_64_bit(self):
        Seed(0)
        Seed((1 << 64) - 1)
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(1 << 64)

    def test_split_is_deterministic(self):
        assert Seed(42).split(7) == Seed(42).split(7)
        assert Seed(42).split(7) != Seed(42).split(8)
        assert Seed(42).split(7) != Seed(43).split(7)

    def test_split_composition_not_commutative(self):
        s = Seed(987654321)
        assert s.split(1).split(2) != s.split(2).split(1)

    def test_generator_streams_are_reproducible(self):
        a = Seed(5).generator().random(8)
        b = Seed(5).generator().random(8)
        assert np.array_equal(a, b)

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            Seed(5).split(-1)

    def test_rekeyed_philox_matches_generator(self):
        """_uniforms re-keys one Philox; Seed.generator() defines the stream."""
        rng = np.random.default_rng(11)
        pool = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
        pool += rng.integers(0, 1 << 63, size=20).tolist()
        uniforms = nullmodels._uniforms()
        for n in (1, 3, 4, 5, 192, 1001):
            roots = rng.choice(pool, size=int(rng.integers(1, 12))).tolist()
            fast = uniforms(np.array(roots, dtype=np.uint64), n)
            slow = [Seed(root).generator().random(n) for root in roots]
            assert np.array_equal(fast, np.array(slow))
        grid = np.array(pool[:6], dtype=np.uint64).reshape(2, 3)
        fast = uniforms(grid, 7)
        assert fast.shape == (2, 3, 7)
        for index, root in np.ndenumerate(grid):
            assert np.array_equal(fast[index], Seed(int(root)).generator().random(7))

    @pytest.mark.parametrize("root", [0, 1 << 63, (1 << 64) - 1, 0x5DEECE66D])
    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 40), (7, 9), ((1 << 32) - 3, (1 << 32) + 4), (1 << 40, (1 << 40) + 2),
         ((1 << 64) - 5, (1 << 64) - 1)],
    )
    def test_block_roots_match_split(self, root, lo, hi):
        """One vectorized splitmix64 pass gives every Seed.split(k).root,
        with uint64 wraparound and no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = nullmodels._split_roots(root, lo, hi)
        assert roots.dtype == np.uint64
        assert roots.tolist() == [Seed(root).split(k).root for k in range(lo, hi)]

    @pytest.mark.parametrize("root", [0, 1 << 63, (1 << 64) - 1])
    @pytest.mark.parametrize(
        "t_lo, t_hi, s_lo, s_hi",
        [(0, 3, 0, 5), ((1 << 64) - 4, (1 << 64) - 1, 0, 2),
         (0, 2, (1 << 64) - 3, (1 << 64) - 1), ((1 << 32) + 5, (1 << 32) + 8, 7, 9)],
    )
    def test_grid_roots_match_split_of_split(self, root, t_lo, t_hi, s_lo, s_hi):
        """Split roots of an array of roots: the (T, S) grid of stream keys
        is every Seed(root).split(t).split(s).root, with uint64 wraparound
        and no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = nullmodels._split_roots(
                nullmodels._split_roots(root, t_lo, t_hi), s_lo, s_hi
            )
        assert grid.dtype == np.uint64
        assert grid.tolist() == [
            [Seed(root).split(t).split(s).root for s in range(s_lo, s_hi)]
            for t in range(t_lo, t_hi)
        ]


def test_cli_import_leaves_process_pool_unloaded():
    """multiprocessing is imported only when a pool starts."""
    probe = (
        "import sys, chainflux.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    # the child imports the same chainflux as this test
    src = os.path.dirname(os.path.dirname(nullmodels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


class TestSimulateChain:
    def test_deterministic_cycle_exact_sequence(self):
        transition = np.zeros((4, 4))
        cycle = {0: 2, 2: 3, 3: 1, 1: 0}
        for i, j in cycle.items():
            transition[i, j] = 1.0
        states = simulate_chain([1.0, 0, 0, 0], transition, 8, Seed(99))
        expect = [0]
        for _ in range(7):
            expect.append(cycle[expect[-1]])
        assert states.tolist() == expect

    def test_identity_transition_absorbs(self):
        states = simulate_chain([0, 0, 1.0, 0], np.eye(4), 5, Seed(1))
        assert states.tolist() == [2, 2, 2, 2, 2]

    def test_bad_row_normalization(self):
        bad = np.full((3, 3), 0.4)
        with pytest.raises(InvalidDistributionError):
            simulate_chain([1 / 3] * 3, bad, 10, Seed(0))

    def test_bad_dos0(self):
        with pytest.raises(InvalidDistributionError):
            simulate_chain([0.5, 0.2, 0.2], np.eye(3), 10, Seed(0))

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            simulate_chain([1.0, 0.0], np.eye(2), 1, Seed(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distributions_rejected(self, bad):
        # NaN passes `< 0` and the normalization check; bisect would then
        # draw from an unsorted list
        with pytest.raises(InvalidDistributionError, match="dos0 must be finite"):
            simulate_chain([bad, 0.5, 0.25, 0.25], np.eye(4), 10, Seed(0))
        transition = np.eye(4)
        transition[2] = [0.5, bad, 0.25, 0.25]
        with pytest.raises(InvalidDistributionError, match="transition row 2"):
            simulate_chain([0.25] * 4, transition, 10, Seed(0))

    def test_iid_uniform_occupancy_concentrates(self):
        uniform = np.full((4, 4), 0.25)
        states = simulate_chain([0.25] * 4, uniform, 1_000_000, Seed(314))
        freq = np.bincount(states, minlength=4) / states.size
        assert np.all(np.abs(freq - 0.25) < 0.002)

    def test_same_seed_same_trajectory(self):
        states1 = simulate_chain([1 / 3] * 3, RING_TRANSITION, 500, Seed(8))
        states2 = simulate_chain([1 / 3] * 3, RING_TRANSITION, 500, Seed(8))
        assert np.array_equal(states1, states2)

    def test_estimator_recovers_transitions_within_binomial_error(self):
        rng = np.random.default_rng(17)
        raw = rng.random((4, 4)) + 0.1
        transition = raw / raw.sum(axis=1, keepdims=True)
        n = 200_000
        states = simulate_chain([0.25] * 4, transition, n, Seed(2718))
        est = estimate_markov(
            TreatmentDataset.from_sessions("sim", square_2x2(), {"sim": states})
        )
        for i in range(4):
            visits = int(est.counts[i].sum())
            for j in range(4):
                se = np.sqrt(transition[i, j] * (1 - transition[i, j]) / visits)
                assert abs(est.transition[i, j] - transition[i, j]) < 4 * se + 1e-12


class TestCycleTransition:
    def test_ring_matches_closed_form(self):
        assert np.array_equal(
            cycle_transition(3, (0, 1, 2), 0.5, 0.25), RING_TRANSITION
        )

    @pytest.mark.parametrize(
        "forward, backward", [(0.9, 0.5), (-0.1, 0.2), (np.nan, 0.2), (0.5, np.nan)]
    )
    def test_bad_drive_raises(self, forward, backward):
        with pytest.raises(InvalidDistributionError, match="forward"):
            cycle_transition(4, (0, 2, 3, 1), forward, backward)


class TestSimulateVnm:
    @pytest.mark.parametrize("p, q", [(0.4, 0.6), (0.1, 0.75), (1.0, 0.0)])
    def test_dos_is_the_product_dos(self, p, q):
        assert VnmParams(p, q, 1, 2).dos.tolist() == product_dos(p, q)

    def test_degenerate_probabilities(self):
        params = VnmParams(p=1.0, q=1.0, sessions=2, rounds_per_session=50)
        assert np.all(draw_vnm(params, Seed(3)) == 3)

    def test_zero_probabilities(self):
        params = VnmParams(p=0.0, q=0.0, sessions=1, rounds_per_session=30)
        assert np.all(draw_vnm(params, Seed(3)) == 0)

    def test_shape_matches_params(self):
        params = VnmParams(p=0.4, q=0.6, sessions=3, rounds_per_session=20)
        states = draw_vnm(params, Seed(12))
        assert states.shape == (3, 20)
        assert states.dtype == np.uint8

    def test_param_validation(self):
        with pytest.raises(ValueError):
            VnmParams(p=1.2, q=0.5, sessions=1, rounds_per_session=10)
        with pytest.raises(ValueError):
            VnmParams(p=0.5, q=0.5, sessions=0, rounds_per_session=10)
        with pytest.raises(ValueError):
            VnmParams(p=0.5, q=0.5, sessions=1, rounds_per_session=1)

    def test_half_half_transition_converges_to_quarter(self):
        params = VnmParams(p=0.5, q=0.5, sessions=1, rounds_per_session=1_000_000)
        states = draw_vnm(params, Seed(2025))
        est = estimate_markov(TreatmentDataset.from_rows("vnm", square_2x2(), states))
        assert np.all(np.abs(est.transition - 0.25) < 0.005)

    def test_exact_product_chain_has_zero_epr(self):
        # the infinite-data limit of independent play: w_ij = P_j
        p, q = 0.5, 0.5
        dos = np.array([(1 - p) * (1 - q), (1 - p) * q, p * (1 - q), p * q])
        est = MarkovEstimate.from_exact(square_2x2(), dos, np.tile(dos, (4, 1)))
        value, _ = epr(est, ZeroFluxPolicy.strict())
        assert value == 0.0

    def test_marginal_frequency_matches_p(self):
        params = VnmParams(p=0.7, q=0.3, sessions=2, rounds_per_session=5000)
        states = draw_vnm(params, Seed(55))
        p_hat = float(np.mean(states // 2))
        q_hat = float(np.mean(states % 2))
        n = states.size
        assert abs(p_hat - 0.7) < 4 * np.sqrt(0.7 * 0.3 / n)
        assert abs(q_hat - 0.3) < 4 * np.sqrt(0.7 * 0.3 / n)

    def test_marginal_constraint_pooled_over_replicates(self):
        params = VnmParams(p=0.6, q=0.45, sessions=1, rounds_per_session=300)
        root = Seed(314159)
        pooled = np.concatenate([
            draw_vnm(params, root.split(k)).ravel()
            for k in range(60)
        ])
        n = pooled.size
        p_hat = float(np.mean(pooled // 2))
        assert abs(p_hat - 0.6) < 4 * np.sqrt(0.6 * 0.4 / n)


class TestVnmNullDistribution:
    def test_identical_seed_bitwise_identical(self):
        params = VnmParams(p=0.5, q=0.5, sessions=1, rounds_per_session=100)
        a_ent, a_epr = vnm_null_distribution(params, 40, SKIP, Seed(7))
        b_ent, b_epr = vnm_null_distribution(params, 40, SKIP, Seed(7))
        assert np.array_equal(a_ent, b_ent)
        assert np.array_equal(a_epr, b_epr)

    def test_workers_do_not_change_samples(self):
        params = VnmParams(p=0.6, q=0.4, sessions=2, rounds_per_session=80)
        serial = vnm_null_distribution(params, 30, SKIP, Seed(21), workers=1)
        parallel = vnm_null_distribution(params, 30, SKIP, Seed(21), workers=2)
        assert np.array_equal(serial[0], parallel[0])
        assert np.array_equal(serial[1], parallel[1])

    def test_mean_entropy_near_one_at_large_rounds(self):
        params = VnmParams(p=0.5, q=0.5, sessions=1, rounds_per_session=10_000)
        ent, _ = vnm_null_distribution(params, 300, SKIP, Seed(99))
        assert abs(ent.mean() - 1.0) < 0.001

    def test_finite_sample_epr_bias_is_positive(self):
        # true product-chain EPR is 0, but estimates at finite rounds are not
        params = VnmParams(p=0.5, q=0.5, sessions=1, rounds_per_session=200)
        _, pro = vnm_null_distribution(params, 200, SKIP, Seed(123))
        assert pro.mean() > 0.0
        assert np.all(pro >= 0.0)

    def test_reps_float64_samples_each(self):
        params = VnmParams(p=0.25, q=0.75, sessions=2, rounds_per_session=50)
        ent, pro = vnm_null_distribution(params, 10, SKIP, Seed(4))
        assert ent.shape == pro.shape == (10,)
        assert ent.dtype == pro.dtype == np.float64

    def test_reps_floor(self):
        params = VnmParams(p=0.5, q=0.5, sessions=1, rounds_per_session=10)
        with pytest.raises(ValueError):
            vnm_null_distribution(params, 1, SKIP, Seed(0))

    @pytest.mark.parametrize("p, q, rounds", [(0.4, 0.6, 192), (0.1, 0.75, 50)])
    def test_one_session_is_dos_baseline_of_product_dos(self, p, q, rounds):
        params = VnmParams(p=p, q=q, sessions=1, rounds_per_session=rounds)
        _, pro = vnm_null_distribution(params, 300, SKIP, Seed(11))
        baseline = dos_baseline(product_dos(p, q), rounds, 300, SKIP, Seed(11))
        assert np.array_equal(pro, baseline)

    def test_same_law_as_simulate_vnm_datasets(self):
        # the reference sampler draws each session's row actions, then its
        # column actions: two uniforms per record against the null's one
        params = VnmParams(p=0.4, q=0.6, sessions=4, rounds_per_session=100)
        ent, pro = vnm_null_distribution(params, 2000, SKIP, Seed(2101))
        space = square_2x2()
        drawn_ent, drawn_pro = [], []
        for k in range(2000):
            states = independent_play(params, Seed(2102).split(k))
            data = TreatmentDataset.from_sessions(
                "vnm", space, {f"s{s + 1}": row for s, row in enumerate(states)}
            )
            est = estimate_markov(data)
            drawn_ent.append(entropy(est))
            drawn_pro.append(epr(est, SKIP)[0])
        assert ks_2samp(ent, drawn_ent).pvalue > 0.01
        assert ks_2samp(pro, drawn_pro).pvalue > 0.01


class TestDosBaseline:
    def test_degenerate_dos_gives_all_zero(self):
        samples = dos_baseline([1.0, 0, 0, 0], 100, 25, SKIP, Seed(6))
        assert np.all(samples == 0.0)

    def test_identical_seed_identical_samples(self):
        a = dos_baseline([0.25] * 4, 200, 50, SKIP, Seed(31))
        b = dos_baseline([0.25] * 4, 200, 50, SKIP, Seed(31))
        assert np.array_equal(a, b)

    def test_workers_do_not_change_samples(self):
        a = dos_baseline([0.25] * 4, 150, 40, SKIP, Seed(77), workers=1)
        b = dos_baseline([0.25] * 4, 150, 40, SKIP, Seed(77), workers=2)
        assert np.array_equal(a, b)

    def test_bias_decays_with_rounds(self):
        # finite-sample EPR bias must drop by well over 5x from n=200 to n=5000
        short = dos_baseline([0.25] * 4, 200, 400, SKIP, Seed(88))
        long = dos_baseline([0.25] * 4, 5000, 400, SKIP, Seed(89))
        assert short.mean() > 5.0 * long.mean()

    def test_invalid_dos(self):
        with pytest.raises(InvalidDistributionError):
            dos_baseline([0.5, 0.2, 0.2, 0.2], 100, 10, SKIP, Seed(0))

    def test_nan_dos_rejected(self):
        with pytest.raises(InvalidDistributionError, match="dos must be finite"):
            dos_baseline([np.nan, 0.5, 0.25, 0.25], 100, 10, SKIP, Seed(0))

    def test_parameter_floors(self):
        with pytest.raises(ValueError):
            dos_baseline([0.25] * 4, 1, 10, SKIP, Seed(0))
        with pytest.raises(ValueError):
            dos_baseline([0.25] * 4, 100, 1, SKIP, Seed(0))

    def test_memory_bounded_on_many_states(self):
        # a block's (B, r, r) arrays are capped at 2**20 cells, which keeps
        # the peak near 36 MiB; blocks of 170 replicates peak near 540 MiB
        tracemalloc.start()
        try:
            dos_baseline(np.full(300, 1 / 300), 192, 400, SKIP, Seed(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestBlockKernelMatchesLoop:
    @pytest.mark.parametrize("policy", [SKIP, SMOOTH], ids=["skip", "smooth"])
    @pytest.mark.parametrize(
        "dos, n_rounds, reps",
        [
            ([0.5, 0.5], 2, 30),
            ([0.0, 0.4, 0.6], 7, 30),
            ([0.2, 0.3, 0.5], 300, 30),
            ([0.5, 0.5, 0.0, 0.0], 50, 30),
            # 170 replicates per block at 192 records: three blocks
            ([0.1, 0.2, 0.3, 0.4], 192, 400),
            # pair-code widths: B*r*r = 256 (uint8) and 289 (uint16) at B = 1
            (_sparse_dos(16), 20000, 3),
            (_sparse_dos(17), 20000, 3),
            # uint8 states with uint16 codes, then int64 states and codes
            (_sparse_dos(256), 20000, 3),
            (_sparse_dos(257), 20000, 3),
            # per-replicate offsets: B*r*r = 256 at B = 16 (uint8), B = 2
            # (uint16), B = 11 and B = 819 (int64)
            (_sparse_dos(4), 2048, 40),
            (_sparse_dos(16), 16384, 4),
            (_sparse_dos(300), 1000, 40),
            (_sparse_dos(16), 40, 900),
            # evaluation groups of 42 six-replicate blocks: 252, 252, 96
            (_sparse_dos(4), 5000, 600),
            # 2**20 pair counts cap blocks at 46 replicates where 2**15 draws
            # allow 170: blocks of 46, 46 and 8
            (np.full(150, 1 / 150), 192, 100),
        ],
    )
    def test_dos_baseline_bit_identical(self, dos, n_rounds, reps, policy):
        batched = dos_baseline(dos, n_rounds, reps, policy, Seed(606))
        _, reference = loop_null(dos, [n_rounds], reps, policy, Seed(606))
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("policy", [SKIP, SMOOTH], ids=["skip", "smooth"])
    @pytest.mark.parametrize(
        "p, q, sessions, rounds, reps",
        [
            # 170 replicates per block at 16x12: two blocks
            (0.5, 0.5, 16, 12, 200),
            (0.3, 0.8, 1, 150, 30),
            (0.6, 0.4, 3, 2, 30),
            (1.0, 0.0, 2, 5, 10),
            # one 170-replicate block per evaluation group: 170, 170, 170, 90
            (0.4, 0.7, 16, 12, 600),
        ],
    )
    def test_vnm_null_bit_identical(self, p, q, sessions, rounds, reps, policy):
        params = VnmParams(p=p, q=q, sessions=sessions, rounds_per_session=rounds)
        ent, pro = vnm_null_distribution(params, reps, policy, Seed(607))
        ref_ent, ref_pro = loop_null(
            product_dos(p, q), [rounds] * sessions, reps, policy, Seed(607)
        )
        assert np.array_equal(ent, ref_ent)
        assert np.array_equal(pro, ref_pro)

    def test_strict_names_first_failing_replicate_and_pair(self):
        with pytest.raises(OneSidedZeroFluxError) as batched:
            dos_baseline([0.25] * 4, 60, 400, STRICT, Seed(2024))
        with pytest.raises(OneSidedZeroFluxError) as reference:
            loop_null([0.25] * 4, [60], 400, STRICT, Seed(2024))
        assert batched.value.pair == reference.value.pair
        assert str(batched.value) == str(reference.value)

    def test_strict_vnm_matches_loop(self):
        params = VnmParams(p=0.5, q=0.5, sessions=2, rounds_per_session=12)
        with pytest.raises(OneSidedZeroFluxError) as batched:
            vnm_null_distribution(params, 50, STRICT, Seed(5))
        with pytest.raises(OneSidedZeroFluxError) as reference:
            loop_null(product_dos(0.5, 0.5), [12, 12], 50, STRICT, Seed(5))
        assert str(batched.value) == str(reference.value)

    def test_golden_samples(self):
        # captured from the per-replicate implementation
        dos = dos_baseline([0.1, 0.2, 0.3, 0.4], 192, 4, SKIP, Seed(2024))
        assert dos.tolist() == [
            0.012916509576862299,
            0.02298895353952771,
            0.03290101543917385,
            9.417126564601104e-05,
        ]
        smoothed = dos_baseline([0.0, 0.4, 0.6], 7, 4, SMOOTH, Seed(2024))
        assert smoothed.tolist() == [
            1.5434546097467383,
            0.05272432091836322,
            1.5434546097467383,
            0.03514954727890881,
        ]
        # captured from loop_null with the product DOS
        params = VnmParams(p=0.4, q=0.6, sessions=3, rounds_per_session=12)
        ent, pro = vnm_null_distribution(params, 4, SKIP, Seed(2024))
        assert ent.tolist() == [
            0.9718400513719626,
            0.9319131950454079,
            0.9773429734731779,
            0.9199603639621071,
        ]
        assert pro.tolist() == [
            0.17974786896406442,
            0.061374270847355805,
            0.034208811192136035,
            0.04669941023440809,
        ]
        with pytest.raises(OneSidedZeroFluxError, match=r"\(1, 2\).*forward=0\.01666"):
            dos_baseline([0.25] * 4, 60, 50, STRICT, Seed(2024))


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor; records max_workers and
    starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestPoolSize:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        # _run_chunks imports the pool class from concurrent.futures only
        # when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        return _RecordingPool

    def test_capped_at_usable_cpus(self, pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        capped = dos_baseline([0.25] * 4, 50, 40, SKIP, Seed(3), workers=10**6)
        assert pool.sizes == [3]
        serial = dos_baseline([0.25] * 4, 50, 40, SKIP, Seed(3))
        assert np.array_equal(capped, serial)

    def test_capped_at_chunk_count(self, pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        params = VnmParams(p=0.5, q=0.5, sessions=1, rounds_per_session=10)
        vnm_null_distribution(params, 2, SKIP, Seed(3), workers=6)
        assert pool.sizes == [2]

    def test_cpu_count_fallback(self, pool, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        dos_baseline([0.25] * 4, 50, 40, SKIP, Seed(3), workers=64)
        assert pool.sizes == [2]

    def test_single_cpu_runs_in_process(self, pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        dos_baseline([0.25] * 4, 50, 40, SKIP, Seed(3), workers=4)
        assert pool.sizes == []
