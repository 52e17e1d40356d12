import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pppa import (FactorState, GenSpec, ParamState, Partition, PivotDecision,
                  QpInstance, Stats, SymMatrix, apply_pivot, compute_bars,
                  enumerate_active_sets, gen_sbar_random, gen_tridiagonal, kkt_residual,
                  ratio_test_tau, recession_check, reductions, second_ratio_test,
                  solution_at_tau, solve_pd, solve_psd, solve_sbar)
from pppa.errors import PppaError, PreconditionViolated
from pppa.pivoting import ALPHA, BETA, GAMMA, _BandedBars, _DenseBars
from pppa.tolerances import TOL_RATIO

from helpers import (banded_family, dense_of_band, make_instance, objectives_match, random_pd,
                     random_sbar)


def _state(partition, qbar, pbar, factor=None, mug=None):
    return ParamState(partition=partition,
                      qbar=np.asarray(qbar, dtype=float),
                      pbar=np.asarray(pbar, dtype=float),
                      factor=factor, stats=Stats(), mug=mug)


class TestComputeBars:
    def test_mixed_partition(self):
        # Independent dense solve of the basic system, then substitution.
        inst = make_instance([[2, 1], [1, 2]], [-3, -3], [np.inf, 1.0])
        part = Partition(alpha=(0,), beta=(), gamma=(1,))
        qbar, pbar = compute_bars(inst, part, np.array([2.0, 2.0]))
        assert qbar == pytest.approx([-1.0, 0.0])
        assert pbar == pytest.approx([1.0, 1.0])

    def test_empty_alpha_gamma(self):
        inst = make_instance([[2, 1], [1, 2]], [-3, -3], [1.0, 1.0])
        qbar, pbar = compute_bars(inst, Partition.initial(2), np.array([2.0, 2.0]))
        assert qbar == pytest.approx([-3.0, -3.0])
        assert pbar == pytest.approx([2.0, 2.0])

    def test_identity_full_alpha(self):
        inst = make_instance(np.eye(3), [1.0, -2.0, 0.5], np.full(3, np.inf))
        part = Partition(alpha=(0, 1, 2), beta=(), gamma=())
        qbar, pbar = compute_bars(inst, part, np.ones(3))
        assert qbar == pytest.approx(inst.q)
        assert pbar == pytest.approx(np.ones(3))

    def test_factor_and_direct_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            m = random_sbar(rng, n)
            u = np.where(rng.uniform(size=n) < 0.5, np.inf, rng.uniform(1.0, 3.0, size=n))
            inst = QpInstance(m, rng.uniform(-2, 2, size=n), u)
            labels = rng.integers(0, 3, size=n)
            labels[~np.isfinite(u)] = np.minimum(labels[~np.isfinite(u)], 1)
            part = Partition(alpha=tuple(np.flatnonzero(labels == 0)),
                             beta=tuple(np.flatnonzero(labels == 1)),
                             gamma=tuple(np.flatnonzero(labels == 2)))
            p = rng.uniform(0, 2, size=n)
            direct = compute_bars(inst, part, p)
            factor = FactorState.for_alpha(m, part.alpha)
            via_factor = compute_bars(inst, part, p, factor)
            assert direct[0] == pytest.approx(via_factor[0], abs=1e-9)
            assert direct[1] == pytest.approx(via_factor[1], abs=1e-9)


class TestRatioTest:
    def test_single_positive_ratio(self):
        st = _state(Partition.initial(2), [-3.0, 2.0], [1.0, 1.0])
        tau, kind, i = ratio_test_tau(st, np.full(2, np.inf))
        assert (tau, kind, i) == (3.0, "from_lower", 0)

    def test_all_nonnegative_is_optimal(self):
        st = _state(Partition.initial(2), [1.0, 0.0], [1.0, 1.0])
        tau, kind, i = ratio_test_tau(st, np.full(2, np.inf))
        assert (tau, kind, i) == (0.0, "optimal", None)

    def test_empty_is_optimal(self):
        st = _state(Partition.initial(0), [], [])
        assert ratio_test_tau(st, np.zeros(0)) == (0.0, "optimal", None)

    def test_alpha_upper_bound_candidate(self):
        st = _state(Partition(alpha=(0,), beta=(), gamma=()), [-2.0], [1.0])
        tau, kind, i = ratio_test_tau(st, np.array([1.0]))
        assert (tau, kind, i) == (1.0, "to_upper", 0)

    def test_beta_preferred_on_exact_tie(self):
        st = _state(Partition(alpha=(0,), beta=(1,), gamma=()),
                    [-2.0, -1.0], [1.0, 1.0])
        tau, kind, i = ratio_test_tau(st, np.array([1.0, np.inf]))
        assert (tau, kind, i) == (1.0, "from_lower", 1)

    def test_smallest_index_on_tie(self):
        st = _state(Partition.initial(3), [-2.0, -2.0, -1.0], [1.0, 1.0, 1.0])
        tau, kind, i = ratio_test_tau(st, np.full(3, np.inf))
        assert (tau, kind, i) == (2.0, "from_lower", 0)


class TestSecondRatioTest:
    def test_exchange_to_lower(self):
        inst = make_instance(np.eye(2), [0.0, 0.0], [np.inf, 4.0])
        st = _state(Partition(alpha=(0,), beta=(1,), gamma=()), [-2.0, 0.0], [1.0, 0.0])
        rho, kind, j = second_ratio_test(st, inst, 1, 1.0, np.array([1.0, 0.0]))
        assert (rho, kind, j) == (1.0, "exchange_to_lower", 0)

    def test_exchange_to_upper(self):
        inst = make_instance(np.eye(2), [0.0, 0.0], [3.0, np.inf])
        st = _state(Partition(alpha=(0,), beta=(1,), gamma=()), [-2.0, 0.0], [1.0, 0.0])
        rho, kind, j = second_ratio_test(st, inst, 1, 1.0, np.array([-1.0, 0.0]))
        assert (rho, kind, j) == (2.0, "exchange_to_upper", 0)

    def test_unbounded_when_no_candidates(self):
        inst = make_instance(np.eye(2), [0.0, 0.0], [np.inf, np.inf])
        st = _state(Partition(alpha=(0,), beta=(1,), gamma=()), [-2.0, 0.0], [1.0, 0.0])
        rho, kind, j = second_ratio_test(st, inst, 1, 1.0, np.array([-1.0, 0.0]))
        assert kind == "unbounded" and np.isinf(rho)

    def test_finite_upper_bound_wins_ties(self):
        inst = make_instance(np.eye(2), [0.0, 0.0], [np.inf, 1.0])
        st = _state(Partition(alpha=(0,), beta=(1,), gamma=()), [-2.0, 0.0], [1.0, 0.0])
        rho, kind, j = second_ratio_test(st, inst, 1, 1.0, np.array([1.0, 0.0]))
        assert (rho, kind, j) == (1.0, "at_ub", None)


class TestApplyPivot:
    def test_from_lower(self):
        st = _state(Partition(alpha=(), beta=(0, 1), gamma=()), [0.0, 0.0], [0.0, 0.0])
        new = apply_pivot(st, PivotDecision(kind="from_lower", i_bar=0, tau_new=1.0))
        assert new.partition == Partition(alpha=(0,), beta=(1,), gamma=())
        assert new.stats.pivots == 1 and new.stats.two_by_two == 0

    def test_to_upper(self):
        st = _state(Partition(alpha=(0,), beta=(1,), gamma=()), [0.0, 0.0], [0.0, 0.0])
        new = apply_pivot(st, PivotDecision(kind="to_upper", i_bar=0, tau_new=1.0))
        assert new.partition == Partition(alpha=(), beta=(1,), gamma=(0,))

    def test_exchange_to_upper(self):
        st = _state(Partition(alpha=(0,), beta=(1,), gamma=()), [0.0, 0.0], [0.0, 0.0])
        new = apply_pivot(st, PivotDecision(kind="exchange_to_upper", i_bar=1, j_bar=0,
                                            tau_new=1.0))
        assert new.partition == Partition(alpha=(1,), beta=(), gamma=(0,))
        assert new.stats.two_by_two == 1

    def test_exchange_to_lower(self):
        st = _state(Partition(alpha=(0,), beta=(1, 2), gamma=()), [0.0] * 3, [0.0] * 3)
        new = apply_pivot(st, PivotDecision(kind="exchange_to_lower", i_bar=1, j_bar=0,
                                            tau_new=1.0))
        assert new.partition == Partition(alpha=(1,), beta=(0, 2), gamma=())

    def test_at_ub(self):
        st = _state(Partition(alpha=(), beta=(0,), gamma=()), [0.0], [0.0])
        new = apply_pivot(st, PivotDecision(kind="at_ub", i_bar=0, tau_new=1.0))
        assert new.partition == Partition(alpha=(), beta=(), gamma=(0,))


class TestSolutionAtTau:
    def test_all_beta(self):
        inst = make_instance(np.eye(3), np.zeros(3), np.full(3, np.inf))
        st = _state(Partition.initial(3), np.zeros(3), np.zeros(3))
        assert solution_at_tau(st, inst, 5.0) == pytest.approx(np.zeros(3))

    def test_all_gamma(self):
        inst = make_instance(np.eye(2), np.zeros(2), [2.0, 3.0])
        st = _state(Partition(alpha=(), beta=(), gamma=(0, 1)), np.zeros(2), np.zeros(2))
        assert solution_at_tau(st, inst, 1.0) == pytest.approx([2.0, 3.0])

    def test_alpha_linear_in_tau(self):
        inst = make_instance(np.eye(1), np.zeros(1), [np.inf])
        st = _state(Partition(alpha=(0,), beta=(), gamma=()), [-2.0], [1.0])
        assert solution_at_tau(st, inst, 1.0) == pytest.approx([1.0])


class TestSolvePsd:
    def test_one_variable_clipped(self):
        inst = make_instance([[2.0]], [-3.0], [1.0])
        out = solve_psd(inst, [1.0])
        assert out.status == "optimal"
        assert out.x == pytest.approx([1.0])
        assert out.objective == pytest.approx(-2.0)

    def test_start_condition_violation(self):
        inst = make_instance([[1, -1], [-1, 1]], [1.0, -2.0], [np.inf, np.inf])
        with pytest.raises(PreconditionViolated):
            solve_psd(inst, [0.0, 0.0])

    def test_matches_oracle_on_box(self):
        inst = make_instance([[2, 1], [1, 2]], [-3.0, -3.0], [1.0, 1.0])
        out = solve_psd(inst, [2.0, 2.0])
        ref = enumerate_active_sets(inst)
        assert out.x == pytest.approx([1.0, 1.0])
        assert objectives_match(out.objective, ref.objective)
        assert out.objective == pytest.approx(-3.0)

    def test_two_by_two_unbounded_branch(self):
        inst = make_instance([[1, -1], [-1, 1]], [-1.0, -1.0], [np.inf, np.inf])
        out = solve_psd(inst, [1.0, 1.0])
        assert out.status == "unbounded"
        assert recession_check(inst, out.ray)

    def test_two_by_two_bound_swap(self):
        inst = make_instance([[1, -1], [-1, 1]], [-1.0, -1.0], [np.inf, 2.0])
        out = solve_psd(inst, [1.0, 1.0])
        assert out.status == "optimal"
        assert kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(inst.q)))
        assert out.stats.two_by_two >= 1
        ref = enumerate_active_sets(inst)
        assert objectives_match(out.objective, ref.objective)


class TestSolvePd:
    def test_separable_identity(self):
        q = np.array([1.0, -2.0, 0.0, -0.5])
        inst = make_instance(np.eye(4), q, np.full(4, np.inf))
        out = solve_pd(inst, np.ones(4))
        assert out.x == pytest.approx(np.maximum(-q, 0.0))

    def test_clip_at_upper_bound(self):
        inst = make_instance([[1.0]], [-5.0], [2.0])
        out = solve_pd(inst, [1.0])
        assert out.x == pytest.approx([2.0])

    def test_requires_positive_p(self):
        inst = make_instance(np.eye(2), [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(PreconditionViolated):
            solve_pd(inst, [1.0, 0.0])

    def test_random_stieltjes_matches_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = 5
            a = -np.abs(rng.uniform(0.1, 1.0, size=(n, n)))
            a = np.tril(a, -1) + np.tril(a, -1).T
            np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + rng.uniform(0.2, 1.0, size=n))
            u = rng.uniform(0.5, 2.0, size=n)
            inst = make_instance(a, rng.uniform(-3, 3, size=n), u)
            d = np.linalg.solve(a, np.ones(n))
            p = a @ d  # = ones; any Stieltjes dominance vector works
            out = solve_pd(inst, p)
            ref = enumerate_active_sets(inst)
            assert out.status == ref.status == "optimal"
            assert objectives_match(out.objective, ref.objective)
            assert out.stats.two_by_two == 0

    def test_no_two_by_two_on_pd(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = random_sbar(rng, n)  # dominance margins > 0 make it pd
            u = np.where(rng.uniform(size=n) < 0.5, np.inf, rng.uniform(0.5, 2, size=n))
            inst = QpInstance(m, rng.uniform(-3, 3, size=n), u)
            mbar = _comparison(m)
            d = np.linalg.solve(mbar, np.ones(n))
            p = 0.5 * (m.full() + mbar) @ d
            out = solve_pd(inst, p)
            assert out.stats.two_by_two == 0


def _comparison(m):
    a = -np.abs(m.full())
    np.fill_diagonal(a, m.diagonal())
    return a


class TestEngineProperties:
    def _random_instance(self, rng):
        n = int(rng.integers(2, 8))
        m = random_sbar(rng, n)
        u = np.where(rng.uniform(size=n) < 0.4, np.inf, rng.uniform(0.5, 3.0, size=n))
        q = rng.uniform(-4.0, 4.0, size=n)
        mbar = _comparison(m)
        d = np.linalg.solve(mbar, np.ones(n))
        p = 0.5 * (m.full() + mbar) @ d
        return QpInstance(m, q, u), p

    def test_kkt_certificate_and_tau_monotone(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            inst, p = self._random_instance(rng)
            taus = []
            gammas = []

            def watch(state, tau_new, decision):
                taus.append(tau_new)
                gammas.append(set(state.partition.gamma))

            out = solve_psd(inst, p, callback=watch)
            assert out.status == "optimal"
            assert kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(inst.q)))
            assert all(b <= a + 1e-9 for a, b in zip(taus, taus[1:]))
            assert all(g1 <= g2 for g1, g2 in zip(gammas, gammas[1:]))

    def test_pivot_bound_two_n(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            inst, p = self._random_instance(rng)
            out = solve_psd(inst, p)
            assert out.stats.pivots <= 2 * inst.n

    def test_piecewise_parametric_kkt(self):
        # Each segment endpoint solves the parametric problem at its tau.
        rng = np.random.default_rng(47)
        for _ in range(20):
            inst, p = self._random_instance(rng)
            checks = []

            def watch(state, tau_new, decision):
                if state.qbar is None:
                    return
                x = solution_at_tau(state, inst, tau_new)
                shifted = QpInstance(inst.m, inst.q + tau_new * p, inst.u)
                checks.append(kkt_residual(shifted, np.clip(x, 0.0, inst.u)))

            out = solve_psd(inst, p, callback=watch)
            assert out.status == "optimal"
            assert checks and max(checks) <= 1e-7 * (1 + np.max(np.abs(inst.q)) + np.max(p))

    def test_two_by_two_only_at_zero_schur_diagonal(self):
        # Drive the singular 2-variable family through the 2x2 branch and
        # verify every 2x2 decision happened at a vanished Schur diagonal.
        rng = np.random.default_rng(53)
        two_by_two_seen = 0
        for _ in range(60):
            c = rng.uniform(0.5, 2.0)
            m = SymMatrix.from_dense([[c, -c], [-c, c]])
            q = rng.uniform(-3.0, -0.1, size=2)
            kind = rng.integers(0, 3)
            if kind == 0:
                u = np.array([np.inf, rng.uniform(0.5, 3.0)])
            elif kind == 1:
                u = np.array([rng.uniform(0.5, 3.0), np.inf])
            else:
                u = rng.uniform(0.5, 3.0, size=2)
            inst = QpInstance(m, q, u)
            p = np.ones(2)
            events = []

            def watch(state, tau_new, decision, inst=inst):
                if decision is None:
                    return
                if decision.kind in ("at_ub", "exchange_to_lower", "exchange_to_upper"):
                    a = inst.m.full()
                    alpha = list(state.partition.alpha)
                    i = decision.i_bar
                    sigma = a[i, i]
                    if alpha:
                        sigma -= a[i, alpha] @ np.linalg.solve(
                            a[np.ix_(alpha, alpha)], a[alpha, i])
                    events.append(abs(sigma))

            out = solve_psd(inst, p, callback=watch)
            two_by_two_seen += out.stats.two_by_two
            assert len(events) == out.stats.two_by_two
            assert all(s <= 1e-10 * inst.m.scale() for s in events)
            if out.status == "optimal":
                assert kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(q)))
                ref = enumerate_active_sets(inst)
                assert objectives_match(out.objective, ref.objective)
            else:
                assert recession_check(inst, out.ray)
                assert enumerate_active_sets(inst).status == "unbounded"
        assert two_by_two_seen >= 10


class TestDenseFactorAlongTheSolve:
    """The in-place factor tracks the partition at every pivot and never writes M."""

    @staticmethod
    def _watch(kinds):
        def watch(state, tau_new, decision):
            factor = state.factor
            assert sorted(factor.alpha) == state.partition.alpha.tolist()
            assert factor.residual() <= 1e-8
            if decision is not None:
                kinds.add(decision.kind)
        return watch

    @pytest.mark.parametrize("seed", [7, 8])
    def test_sbar_random(self, monkeypatch, seed):
        inst = gen_sbar_random(GenSpec(family="sbar_random", n=200, rho=0.2, seed=seed))
        kinds, originals = set(), []

        def traced(sub, *args, **kwargs):
            originals.append((sub.m, sub.m.full().copy()))
            return solve_psd(sub, *args, callback=self._watch(kinds), **kwargs)

        monkeypatch.setattr(reductions, "solve_psd", traced)
        before = inst.m.full().copy()
        assert solve_sbar(inst, check=False).status == "optimal"
        assert {"from_lower", "to_upper"} <= kinds
        assert inst.m.full().tobytes() == before.tobytes()
        assert all(m.full().tobytes() == a.tobytes() for m, a in originals)

    def test_finite_bounds_and_exchanges(self):
        # A box that sends basic variables to their upper bounds, then the
        # singular 2-variable family, whose exchanges remove and add at once.
        rng = np.random.default_rng(11)
        n = 40
        box = [(random_pd(rng, n), rng.uniform(-5.0, 1.0, size=n), rng.uniform(0.025, 0.05, size=n))]
        pairs = []
        for _ in range(30):
            c = rng.uniform(0.5, 2.0)
            pairs.append(([[c, -c], [-c, c]], rng.uniform(-3.0, -0.1, size=2),
                          rng.uniform(0.5, 3.0, size=2)))
        for cases, expected in ((box, "to_upper"), (pairs, "exchange_to_upper")):
            kinds = set()
            for m, q, u in cases:
                inst = make_instance(m, q, u)
                before = inst.m.full().copy()
                solve_psd(inst, np.ones(inst.n), callback=self._watch(kinds))
                assert inst.m.full().tobytes() == before.tobytes()
            assert expected in kinds


def test_dense_iteration_flops_count_the_alpha_kernels():
    n, k = 600, 300
    inst = make_instance(np.eye(n), np.zeros(n), np.full(n, np.inf))
    part = Partition(alpha=range(k), beta=range(k, n), gamma=())
    engine = _DenseBars(inst, np.ones(n), _state(part, np.zeros(n), np.zeros(n), mug=np.zeros(n)))
    assert engine.factor.k == k
    # 2 columns x 2 flops x (k^2 + (n-k)k) for the bars, 2k^2 each for the
    # factor's column solve and rank-one update, 8n for the vector work;
    # a full n x n product per column would charge 4n^2 = 1_440_000 alone.
    assert engine.flops() == 720_000 + 360_000 + 4_800


class TestBandedAgainstDense:
    """The run-local banded path against the dense factor path on the same matrices."""

    def test_family_agrees(self):
        kinds, unbounded = set(), 0

        def watch(state, tau_new, decision):
            if decision is not None:
                kinds.add(decision.kind)

        for d, e, q, u, p in banded_family():
            banded = QpInstance(SymMatrix.from_banded(d, e), q, u)
            dense = QpInstance(SymMatrix.from_dense(dense_of_band(d, e)), q, u)
            ob = solve_psd(banded, p, callback=watch)
            od = solve_psd(dense, p)
            assert ob.status == od.status
            if ob.status == "optimal":
                assert abs(ob.objective - od.objective) <= 1e-7 * max(1.0, abs(od.objective))
            else:
                unbounded += 1
                assert recession_check(banded, ob.ray) and recession_check(dense, od.ray)
            assert banded.m._dense is None
        assert kinds == {"from_lower", "to_upper", "at_ub", "exchange_to_lower",
                         "exchange_to_upper"}
        assert unbounded >= 8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="solve_psd checks neither its direction nor the KKT residual")
def test_solve_psd_with_a_foreign_direction_is_not_a_wrong_optimum():
    # p = 10 + |q| is nonnegative with q + tau0 p >= 0, but it is not the
    # class construction's direction: solve_psd returns objective 147.53 with
    # KKT residual 16.4, where solve_sbar finds -71.20.
    d, e, q, u, p = banded_family()[372]
    inst = QpInstance(SymMatrix.from_banded(d, e), q, u)
    assert objectives_match(solve_sbar(inst).objective, -71.19538371335557)
    try:
        out = solve_psd(inst, p)
    except PppaError:
        return
    assert out.status != "optimal" or kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(q)))


def _bars_watch(instance, p, seen):
    """A callback that checks the in-place bars against a full recomputation
    and the pivot the kept candidates chose against a fresh ratio test."""
    def watch(state, tau_new, decision):
        qbar, pbar = compute_bars(instance, state.partition, p, None, mug=state.mug)
        assert state.qbar.tobytes() == qbar.tobytes()
        assert state.pbar.tobytes() == pbar.tobytes()
        if decision is not None:
            tau, _, i_bar = ratio_test_tau(state, instance.u)
            assert (tau, i_bar) == (tau_new, decision.i_bar)
        seen.append(decision)
    return watch


class TestBandedBarsInvariant:
    """At every callback the run-local bars equal compute_bars(factor=None) bitwise."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
    def test_tridiagonal(self, monkeypatch, n):
        seen = []

        def traced(sub, p, **kwargs):
            return solve_psd(sub, p, callback=_bars_watch(sub, np.asarray(p, dtype=float), seen),
                             **kwargs)

        monkeypatch.setattr(reductions, "solve_psd", traced)
        inst = gen_tridiagonal(GenSpec(family="tridiagonal", n=n, seed=n))
        out = solve_sbar(inst, check=False)
        assert out.status == "optimal"
        assert seen and len([dec for dec in seen if dec is not None]) == out.stats.pivots

    def test_family(self):
        seen = []
        for d, e, q, u, p in banded_family():
            inst = QpInstance(SymMatrix.from_banded(d, e), q, u)
            solve_psd(inst, p, callback=_bars_watch(inst, p, seen))
        assert len(seen) == 4450


class TestEngineContract:
    """Both bar engines give the same Schur diagonal and column at every callback."""

    def test_family(self):
        checked = 0
        for d, e, q, u, p in banded_family():
            banded = QpInstance(SymMatrix.from_banded(d, e), q, u)
            dense = QpInstance(SymMatrix.from_dense(dense_of_band(d, e)), q, u)
            scale = banded.m.scale()

            def watch(state, tau_new, decision, banded=banded, dense=dense, p=p, scale=scale):
                nonlocal checked
                def at():
                    return _state(Partition(labels=state.partition.labels.copy()), [], [],
                                  mug=state.mug.copy())

                engine_b, engine_d = _BandedBars(banded, p, at()), _DenseBars(dense, p, at())
                for i in state.partition.beta:
                    (mhat_b, sigma_b), (mhat_d, sigma_d) = engine_b.border(i), engine_d.border(i)
                    assert abs(sigma_b - sigma_d) <= 1e-10 * max(abs(sigma_d), scale)
                    col_b, col_d = engine_b.column(i, mhat_b), engine_d.column(i, mhat_d)
                    assert np.max(np.abs(col_b - col_d)) <= 1e-10 * max(np.max(np.abs(col_d)), 1.0)
                    checked += 1

            solve_psd(banded, p, callback=watch)
        assert checked > 10_000


def test_banded_iteration_flops_count_one_window():
    # alpha = {9, 10}; 11 enters: the window 10..12 widens to 9..12 (the
    # run 9..11 and index 12), the bars cover 8..13 and, the largest |pbar|
    # staying at index 0, the candidates are rebuilt there alone and pbar
    # is not scanned: the only passes over n are the two argmax of the selection.
    n = 20
    d = np.full(n, 3.0)
    e = np.full(n - 1, -1.0)
    q = np.full(n, -1.0)
    p = np.ones(n)
    p[0] = 100.0
    inst = QpInstance(SymMatrix.from_banded(d, e), q, np.full(n, np.inf))
    part = Partition(alpha=[9, 10], beta=[k for k in range(n) if k not in (9, 10)], gamma=[])
    mug = np.zeros(n)
    bars = _BandedBars(inst, p, _state(part, [], [], mug=mug))
    bars.ratio_test(0.0)
    part.labels[11] = ALPHA
    bars.refresh(PivotDecision(kind="from_lower", i_bar=11))
    bars.ratio_test(0.0)
    assert (bars.solved, bars.window, bars.rebuilt) == (4, (8, 14), 6)
    assert bars.flops() == 2 * (4 + 6 + 6) + 2 * n
    qbar, pbar = compute_bars(inst, part, p, None, mug=mug)
    assert bars.qbar.tobytes() == qbar.tobytes() and bars.pbar.tobytes() == pbar.tobytes()
    fresh = _BandedBars(inst, p, _state(part, [], [], mug=mug))
    fresh.ratio_test(0.0)
    assert bars.cand_b.tobytes() == fresh.cand_b.tobytes()
    assert bars.cand_a.tobytes() == fresh.cand_a.tobytes()


@st.composite
def _relabel_walks(draw):
    """A tridiagonal instance, a start partition and steps that relabel one or two indices.

    The diagonal dominates, so every M_aa is nonsingular; zero couplings
    split alpha runs and some bounds are infinite.
    """
    n = draw(st.integers(1, 8))

    def vector(size, *options):
        return draw(st.lists(st.one_of(*options), min_size=size, max_size=size))

    def floats(lo, hi):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False)

    # Entries below 1e-3 become zero: a subnormal p would overflow -qbar/pbar.
    data = floats(-2.0, 2.0).map(lambda v: v if abs(v) >= 1e-3 else 0.0)
    d = vector(n, floats(1.0, 4.0))
    e = vector(n - 1, st.just(0.0), floats(-0.45, 0.45))
    q, p = vector(n, data), vector(n, data)
    u = vector(n, st.just(math.inf), floats(0.5, 3.0))
    label, index = st.sampled_from([BETA, ALPHA, GAMMA]), st.integers(0, n - 1)
    start = vector(n, label)
    steps = draw(st.lists(st.one_of(st.tuples(index, label),
                                    st.tuples(index, label, index, label)), max_size=8))
    return d, e, q, p, u, start, steps


class TestBandedBarsRelabel:
    """_BandedBars after label rewrites the solver never forms: windows at
    either end, runs over the whole range, split runs, exchanges."""

    @settings(max_examples=300, deadline=None)
    @given(_relabel_walks())
    # One alpha run over the whole range, cut and rejoined at index 0.
    @example(([2.0] * 5, [-0.4] * 4, [-1.0] * 5, [1.0] * 5, [1.0] * 5, [ALPHA] * 5,
              [(0, BETA), (0, ALPHA), (4, GAMMA, 0, BETA)]))
    # Every pbar <= threshold: no candidate, an optimal ratio test.
    @example(([2.0] * 4, [0.3] * 3, [1.0] * 4, [-1.0] * 4, [math.inf] * 4, [BETA] * 4,
              [(3, ALPHA), (0, ALPHA, 3, BETA)]))
    # Uncoupled, so pbar_i is p_i off alpha and p_i / 2 on it.  The largest
    # |pbar| is p_3 = 2 and falls to 1 when 3 enters alpha: the window 1..5
    # holds it, and only a scan of pbar finds the new largest, p_7 = 1.5.
    @example(([2.0] * 8, [0.0] * 7, [-1.0] * 8, [1.0, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5, 1.5],
              [1.0] * 8, [BETA] * 8, [(3, ALPHA)]))
    # The largest |pbar| is p_0 = 2 until 7 leaves alpha: its pbar grows
    # from 1.5 to 3 in the window 5..7, away from the kept index.
    @example(([2.0] * 8, [0.0] * 7, [-1.0] * 8, [2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 3.0],
              [1.0] * 8, [BETA] * 7 + [ALPHA], [(7, BETA)]))
    # The same two with the largest |pbar| at the most negative pbar.
    @example(([2.0] * 8, [0.0] * 7, [1.0] * 8, [-1.0, -0.5, -0.5, -2.0, -0.5, -0.5, -0.5, -1.5],
              [1.0] * 8, [BETA] * 8, [(3, ALPHA)]))
    @example(([2.0] * 8, [0.0] * 7, [1.0] * 8, [-2.0, -0.5, -0.5, -0.5, -0.5, -0.5, -0.5, -3.0],
              [1.0] * 8, [BETA] * 7 + [ALPHA], [(7, BETA)]))
    def test_random_relabelings(self, walk):
        d, e, q, p, u, start, steps = walk
        inst = QpInstance(SymMatrix.from_banded(np.array(d), np.array(e)), q, u)
        p, labels, mug = np.array(p), np.empty(len(d), dtype=np.int8), np.empty(len(d))
        part = Partition(labels=labels)

        def relabel(moves):
            # An index with an infinite bound never reaches gamma on the solver path.
            for i, lab in moves:
                labels[i] = BETA if lab == GAMMA and math.isinf(u[i]) else lab
            mug[:] = inst.m.matvec(np.where(labels == GAMMA, inst.u, 0.0))

        def check():
            qbar, pbar = compute_bars(inst, part, p, None, mug=mug)
            assert bars.qbar.tobytes() == qbar.tobytes()
            assert bars.pbar.tobytes() == pbar.tobytes()
            assert bars.ratio_test(0.0) == ratio_test_tau(_state(part, qbar, pbar), inst.u)
            assert bars.threshold == TOL_RATIO * np.max(np.abs(pbar))

        relabel(enumerate(start))
        bars = _BandedBars(inst, p, _state(part, [], [], mug=mug))
        check()
        for step in steps:
            moves = list(zip(step[0::2], step[1::2]))
            relabel(moves)
            bars.refresh(PivotDecision(kind="from_lower", i_bar=moves[0][0],
                                       j_bar=moves[1][0] if len(moves) > 1 else None))
            check()
