"""Pivot-sequence golden tests, partition-update properties, ratio-test references.

The expected digests pin the exact ``(kind, i_bar, j_bar)`` sequence that
``solve_psd`` reports through its ``callback`` hook.  They were recorded
with the earlier tuple-based partition (numpy 2.4, OpenBLAS, x86-64), the
banded family's with the full per-pivot banded bar solve; a change of the
partition's representation or of how the bars are updated must leave
every one unchanged.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pppa import (GenSpec, ParamState, Partition, PivotDecision, QpInstance, Stats,
                  SymMatrix, apply_pivot, gen_sbar_random, gen_tridiagonal, ratio_test_tau,
                  second_ratio_test, solve_psd, solve_sbar)
from pppa.tolerances import TOL_RATIO
from pppa import reductions

from helpers import banded_family


def _digest(events) -> str:
    text = ";".join(f"{k}:{i}:{j}" for k, i, j in events)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sbar_sequence(monkeypatch, instance):
    """Every pivot of ``solve_sbar`` on ``instance``, across its subsolves."""
    events = []

    def record(state, tau_new, decision):
        if decision is not None:
            events.append((decision.kind, decision.i_bar, decision.j_bar))

    def traced(*args, **kwargs):
        return solve_psd(*args, callback=record, **kwargs)

    monkeypatch.setattr(reductions, "solve_psd", traced)
    out = solve_sbar(instance, check=False)
    assert out.status == "optimal"
    assert len(events) == out.stats.pivots
    return events


@pytest.mark.parametrize("seed, pivots, digest", [
    (1, 1048, "d4011752c018c2f0"),
    (2, 1000, "4d74b13b0ad46091"),
    (3, 1034, "a19cfc44edf917a8"),
])
def test_tridiagonal_sequence(monkeypatch, seed, pivots, digest):
    inst = gen_tridiagonal(GenSpec(family="tridiagonal", n=1000, seed=seed))
    events = _sbar_sequence(monkeypatch, inst)
    assert (len(events), _digest(events)) == (pivots, digest)


@pytest.mark.parametrize("seed, pivots, digest", [
    (7, 174, "e189d8add47085da"),
    (8, 179, "355231587edc7a41"),
])
def test_sbar_random_sequence(monkeypatch, seed, pivots, digest):
    inst = gen_sbar_random(GenSpec(family="sbar_random", n=200, rho=0.2, seed=seed))
    events = _sbar_sequence(monkeypatch, inst)
    assert (len(events), _digest(events)) == (pivots, digest)


def test_two_by_two_family_sequence():
    # The singular 2-variable family of
    # test_pivoting.py::TestEngineProperties::test_two_by_two_only_at_zero_schur_diagonal.
    rng = np.random.default_rng(53)
    events = []

    def record(state, tau_new, decision):
        if decision is None:
            events.append(("stop", -1, None))
        else:
            events.append((decision.kind, decision.i_bar, decision.j_bar))

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
        solve_psd(QpInstance(m, q, u), np.ones(2), callback=record)
    kinds = {e[0] for e in events}
    assert {"at_ub", "exchange_to_upper"} <= kinds
    assert (len(events), _digest(events)) == (195, "bc9fb85f6b06dc0f")


def test_banded_family_sequence():
    # The banded-vs-dense family of
    # test_pivoting.py::TestBandedAgainstDense, solved on banded storage.
    events = []

    def record(state, tau_new, decision):
        if decision is None:
            events.append(("stop", -1, None))
        else:
            events.append((decision.kind, decision.i_bar, decision.j_bar))

    for d, e, q, u, p in banded_family():
        solve_psd(QpInstance(SymMatrix.from_banded(d, e), q, u), p, callback=record)
    assert {"at_ub", "exchange_to_lower", "exchange_to_upper"} <= {e[0] for e in events}
    assert (len(events), _digest(events)) == (4450, "7ef7d8a6b655c119")


KINDS = ("to_upper", "from_lower", "at_ub", "exchange_to_lower", "exchange_to_upper")


@st.composite
def _pivot_case(draw):
    """A partition and a decision of any kind that is legal on it."""
    n = draw(st.integers(2, 12))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(KINDS))
    i = draw(st.integers(0, n - 1))
    j = None
    labels[i] = 1 if kind == "to_upper" else 0
    if kind.startswith("exchange"):
        j = draw(st.integers(0, n - 1).filter(lambda k: k != i))
        labels[j] = 1
    part = Partition(alpha=np.flatnonzero(labels == 1), beta=np.flatnonzero(labels == 0),
                     gamma=np.flatnonzero(labels == 2))
    return part, PivotDecision(kind=kind, i_bar=i, j_bar=j, tau_new=1.0)


# Where each decision kind sends i_bar and, for the exchanges, j_bar.
TARGETS = {"to_upper": ("gamma", None), "from_lower": ("alpha", None),
           "at_ub": ("gamma", None), "exchange_to_lower": ("alpha", "beta"),
           "exchange_to_upper": ("alpha", "gamma")}


@settings(max_examples=300, deadline=None)
@given(_pivot_case())
def test_apply_pivot_keeps_a_partition(case):
    part, decision = case
    n = part.labels.size
    before = part.labels.copy()
    state = ParamState(partition=part, qbar=np.zeros(n), pbar=np.zeros(n),
                       factor=None, stats=Stats())
    new = apply_pivot(state, decision).partition
    sets = [new.alpha, new.beta, new.gamma]
    for s in sets:
        assert s.dtype.kind == "i" and np.all(np.diff(s) > 0)
    assert np.array_equal(np.sort(np.concatenate(sets)), np.arange(n))
    i, j = decision.i_bar, decision.j_bar
    assert set(np.flatnonzero(new.labels != before).tolist()) <= {i, j}
    to_i, to_j = TARGETS[decision.kind]
    assert i in getattr(new, to_i)
    if j is not None:
        assert j in getattr(new, to_j)


def _reference_ratio_test(labels, qbar, pbar, u, tau_eps):
    """ratio_test_tau as a loop over indices, one candidate at a time."""
    tol = TOL_RATIO * max([abs(v) for v in pbar] + [0.0])
    best = {0: (-np.inf, None), 1: (-np.inf, None)}
    for k, label in enumerate(labels):
        if pbar[k] <= tol or label == 2 or (label == 1 and not np.isfinite(u[k])):
            continue
        ratio = (-qbar[k] if label == 0 else -(u[k] + qbar[k])) / pbar[k]
        if ratio > best[label][0]:
            best[label] = (ratio, k)
    (best_b, i_b), (best_a, i_a) = best[0], best[1]
    tau = max(best_b, best_a, 0.0)
    if tau <= tau_eps:
        return 0.0, "optimal", None
    return (tau, "from_lower", i_b) if best_b >= best_a else (tau, "to_upper", i_a)


def _reference_second_ratio_test(labels, qbar, pbar, u, i_bar, tau, mhat):
    """second_ratio_test as a loop over alpha, one candidate at a time."""
    mtol = TOL_RATIO * max([abs(v) for v in mhat] + [0.0])
    rho_u = u[i_bar]
    best = (np.inf, None, None)
    for k in range(len(labels)):
        if labels[k] != 1:
            continue
        if mhat[k] > mtol:
            rho, kind = max(-qbar[k] - tau * pbar[k], 0.0) / mhat[k], "exchange_to_lower"
        elif mhat[k] < -mtol and np.isfinite(u[k]):
            rho, kind = max(u[k] + qbar[k] + tau * pbar[k], 0.0) / -mhat[k], "exchange_to_upper"
        else:
            continue
        if rho < best[0]:
            best = (rho, kind, k)
    if not np.isfinite(min(best[0], rho_u)):
        return np.inf, "unbounded", None
    if rho_u <= best[0]:
        return rho_u, "at_ub", None
    return best


# Coarse values so that exact ties, zero pbar and zero mhat entries are common.
_coarse = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _bars(draw):
    n = draw(st.integers(1, 8))
    vec = st.lists(_coarse, min_size=n, max_size=n)
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int8)
    u = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0, np.inf]), min_size=n, max_size=n)))
    return labels, np.array(draw(vec)), np.array(draw(vec)), u, np.array(draw(vec))


@settings(max_examples=300, deadline=None)
@given(_bars(), st.sampled_from([0.0, 0.5]))
def test_ratio_test_matches_loop_reference(bars, tau_eps):
    labels, qbar, pbar, u, _ = bars
    state = ParamState(partition=Partition(labels=labels), qbar=qbar,
                       pbar=pbar, factor=None, stats=Stats())
    assert ratio_test_tau(state, u, tau_eps) == _reference_ratio_test(labels, qbar, pbar, u,
                                                                      tau_eps)


@settings(max_examples=300, deadline=None)
@given(_bars(), st.sampled_from([0.5, 1.0]), st.data())
def test_second_ratio_test_matches_loop_reference(bars, tau, data):
    labels, qbar, pbar, u, mhat = bars
    i_bar = data.draw(st.integers(0, labels.size - 1))
    labels[i_bar] = 0
    mhat[i_bar] = 0.0
    state = ParamState(partition=Partition(labels=labels), qbar=qbar,
                       pbar=pbar, factor=None, stats=Stats())
    inst = QpInstance(SymMatrix.from_dense(np.eye(labels.size)), qbar, u)
    assert second_ratio_test(state, inst, i_bar, tau, mhat) == \
        _reference_second_ratio_test(labels, qbar, pbar, u, i_bar, tau, mhat)
