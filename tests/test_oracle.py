import numpy as np
import pytest

from pppa import (QpInstance, class_level, enumerate_active_sets, kkt_residual,
                  recession_check, save_qpb, solve_sbar, solve_sbar_nk)
from pppa.cli import main
from pppa.errors import TooLarge

from helpers import cyclic_family, make_instance, objectives_match, random_sbar


class TestEnumerateActiveSets:
    def test_clip_at_upper(self):
        out = enumerate_active_sets(make_instance([[1.0]], [-5.0], [2.0]))
        assert out.status == "optimal" and out.x == pytest.approx([2.0])

    def test_corner_gradient(self):
        out = enumerate_active_sets(make_instance([[2, 1], [1, 2]], [-3, -3], [1, 1]))
        assert out.x == pytest.approx([1.0, 1.0])
        assert out.objective == pytest.approx(-3.0)

    def test_unbounded_kernel_direction(self):
        inst = make_instance([[1, -1], [-1, 1]], [1.0, -2.0], [np.inf, np.inf])
        out = enumerate_active_sets(inst)
        assert out.status == "unbounded"
        assert recession_check(inst, out.ray)

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            enumerate_active_sets(make_instance(np.eye(11), np.zeros(11), np.ones(11)))

    def test_self_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = random_sbar(rng, n)
            u = np.where(rng.uniform(size=n) < 0.3, np.inf, rng.uniform(0.5, 3.0, size=n))
            inst = QpInstance(m, rng.uniform(-3, 3, size=n), u)
            out = enumerate_active_sets(inst)
            if out.status == "optimal":
                assert kkt_residual(inst, out.x) <= 1e-10 * (1 + np.max(np.abs(inst.q)))


class TestKktResidual:
    def test_zero_at_origin_with_nonnegative_q(self):
        inst = make_instance(np.eye(2), [1.0, 0.0], [np.inf, np.inf])
        assert kkt_residual(inst, np.zeros(2)) == 0.0

    def test_negative_gradient_at_lower_bound(self):
        inst = make_instance([[1.0]], [-1.0], [np.inf])
        assert kkt_residual(inst, np.zeros(1)) == pytest.approx(1.0)

    def test_solved_instances_have_small_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            inst = QpInstance(random_sbar(rng, n), rng.uniform(-3, 3, size=n),
                              rng.uniform(0.5, 2.0, size=n))
            out = solve_sbar(inst)
            assert kkt_residual(inst, out.x) <= 1e-8 * (1 + np.max(np.abs(inst.q)))

    def test_flags_bound_and_complementarity_violations(self):
        inst = make_instance(np.eye(2), [1.0, -1.0], [1.0, 1.0])
        assert kkt_residual(inst, np.array([-0.5, 0.0])) >= 0.5   # below lower bound
        assert kkt_residual(inst, np.array([0.5, 0.0])) >= 0.5    # x1 free, w1 > 0
        assert kkt_residual(inst, np.array([0.0, 0.5])) >= 0.25   # w2 < 0 interior


class TestRecessionCheck:
    def test_valid_direction(self):
        inst = make_instance([[1, -1], [-1, 1]], [1.0, -2.0], [np.inf, np.inf])
        assert recession_check(inst, np.array([1.0, 1.0]))

    def test_rejects_support_on_finite_bound(self):
        inst = make_instance([[1, -1], [-1, 1]], [1.0, -2.0], [np.inf, 5.0])
        assert not recession_check(inst, np.array([1.0, 1.0]))

    def test_rejects_nonkernel_direction(self):
        inst = make_instance([[1, -1], [-1, 1]], [1.0, -2.0], [np.inf, np.inf])
        assert not recession_check(inst, np.array([1.0, 0.0]))

    def test_rejects_zero_and_negative(self):
        inst = make_instance([[1, -1], [-1, 1]], [1.0, -2.0], [np.inf, np.inf])
        assert not recession_check(inst, np.zeros(2))
        assert not recession_check(inst, np.array([-1.0, -1.0]))


class TestAgreementWithSolver:
    def test_statuses_and_objectives_agree(self):
        rng = np.random.default_rng(11)
        optimal = unbounded = 0
        for _ in range(120):
            n = int(rng.integers(2, 8))
            if rng.random() < 0.25:
                # singular family with unbounded potential
                w = rng.integers(1, 9, size=(n, n)) / 8.0
                a = -(np.tril(w, -1) + np.tril(w, -1).T)
                np.fill_diagonal(a, -a.sum(axis=1))
                m = a
                u = np.full(n, np.inf)
            else:
                m = random_sbar(rng, n).full()
                u = np.where(rng.uniform(size=n) < 0.4, np.inf,
                             rng.uniform(0.5, 3.0, size=n))
            inst = make_instance(m, rng.uniform(-3, 3, size=n), u)
            got = solve_sbar(inst, check=False)
            ref = enumerate_active_sets(inst)
            assert got.status == ref.status
            if got.status == "optimal":
                optimal += 1
                assert objectives_match(got.objective, ref.objective)
            else:
                unbounded += 1
                assert got.ray is not None and recession_check(inst, got.ray)
        assert optimal > 40 and unbounded > 5


@pytest.mark.parametrize("n", range(3, 11))
def test_cyclic_family_agrees_with_the_oracle(n, tmp_path):
    # The oracle enumerates 3^n active sets (about 0.3 s per instance at
    # n = 10), so the largest sizes run fewer seeds.
    for idx, inst in enumerate(cyclic_family(n, seeds=range(8 if n <= 8 else 2))):
        assert class_level(inst.m) == 1
        ref = enumerate_active_sets(inst)
        out = solve_sbar_nk(inst, 1, check=True)
        path, answer = tmp_path / f"c{idx}.qpb", tmp_path / f"c{idx}.txt"
        save_qpb(path, inst)
        code = main(["solve", str(path), "--method", "auto", "--out", str(answer)])
        vector = np.array([float(t) for t in answer.read_text().split()])
        assert out.status == ref.status
        assert code == {"optimal": 0, "unbounded": 2}[ref.status]
        if ref.status == "optimal":
            assert objectives_match(out.objective, ref.objective)
            assert objectives_match(inst.objective(vector), ref.objective)
        else:
            assert recession_check(inst, out.ray) and recession_check(inst, vector)
