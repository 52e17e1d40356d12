"""Correctness checks on the CLI's answers, run outside the timed region.

A solve passes when its exit code matches the status the case reaches
by construction and the answer file holds a valid certificate: an x
whose KKT residual is within tol * (1 + ||q||_inf), or a ray that
``recession_check`` accepts.  For n <= ORACLE_MAX_N the enumeration
oracle must also agree on the status and, for optimal cases, on the
objective.
"""

from __future__ import annotations

import numpy as np

from pppa.cli import EXIT_OPTIMAL, EXIT_UNBOUNDED
from pppa.oracle import ORACLE_MAX_N, enumerate_active_sets, kkt_residual, recession_check

from workloads import OPTIMAL, UNBOUNDED, Case

EXPECTED_EXIT = {OPTIMAL: EXIT_OPTIMAL, UNBOUNDED: EXIT_UNBOUNDED}
ORACLE_REL_TOL = 1e-8


def parse_vector(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split()], dtype=float)


class Checker:
    """Checks solves of a fixed case list; oracle answers are computed once per case."""

    def __init__(self, cases: list[Case], tol: float):
        self.cases = cases
        self.tol = tol
        self._oracle: dict[int, object] = {}

    def _reference(self, idx: int):
        if idx not in self._oracle:
            self._oracle[idx] = enumerate_active_sets(self.cases[idx].instance)
        return self._oracle[idx]

    def failure(self, idx: int, code, answer: str | None) -> str | None:
        """None when the solve of case ``idx`` is correct, else the reason."""
        case = self.cases[idx]
        inst = case.instance
        if code != EXPECTED_EXIT[case.expected]:
            return f"exit code {code}, expected {EXPECTED_EXIT[case.expected]} ({case.expected})"
        if not answer:
            return "no answer file"
        try:
            vec = parse_vector(answer)
        except ValueError as exc:
            return f"unparsable answer file: {exc}"
        if vec.shape != (inst.n,) or not np.all(np.isfinite(vec)):
            return f"answer has shape {vec.shape} or non-finite entries"
        if case.expected == OPTIMAL:
            bound = self.tol * (1.0 + float(np.max(np.abs(inst.q), initial=0.0)))
            residual = kkt_residual(inst, vec)
            if not residual <= bound:
                return f"kkt residual {residual:.3e} above {bound:.3e}"
        elif not recession_check(inst, vec, self.tol):
            return "ray rejected by recession_check"
        if inst.n <= ORACLE_MAX_N:
            ref = self._reference(idx)
            if ref.status != case.expected:
                return f"oracle status {ref.status}"
            if case.expected == OPTIMAL:
                obj = inst.objective(vec)
                if abs(obj - ref.objective) > ORACLE_REL_TOL * (1.0 + abs(ref.objective)):
                    return f"objective {obj!r} differs from oracle {ref.objective!r}"
        return None
