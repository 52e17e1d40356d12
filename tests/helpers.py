"""Shared construction helpers for the test suite."""

import numpy as np

from pppa import QpInstance, SymMatrix, comparison_matrix, is_in_sbar_plus, is_sbar_nk


def random_symmetric(rng, n, spread=1.0):
    a = rng.uniform(-spread, spread, size=(n, n))
    return SymMatrix.from_dense(np.tril(a) + np.tril(a, -1).T)


def random_pd(rng, n):
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return SymMatrix.from_dense(a @ a.T + n * np.eye(n))


def random_sbar(rng, n, rho=0.5):
    """Comparison-psd matrix via diagonal dominance; mixed off-diagonal signs."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a = np.tril(a, -1)
    a[rng.uniform(size=(n, n)) > rho] = 0.0
    a = a + a.T
    margins = rng.uniform(0.0, 1.0, size=n)
    np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + margins)
    return SymMatrix.from_dense(a)


def random_z_psd(rng, n):
    """Random symmetric psd Z-matrix (Stieltjes or singular Laplacian-like)."""
    a = -np.abs(rng.uniform(0.0, 1.0, size=(n, n)))
    a = np.tril(a, -1)
    a[rng.uniform(size=(n, n)) > 0.7] = 0.0
    a = a + a.T
    margins = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.uniform(0.1, 1.0, size=n))
    np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + margins)
    return SymMatrix.from_dense(a)


def random_tridiagonal_sym(rng, n, dominant=False):
    diag = rng.uniform(-1.0, 1.0, size=n)
    sub = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    if dominant:
        diag = np.abs(diag)
        if n > 1:
            diag[:-1] += np.abs(sub)
            diag[1:] += np.abs(sub)
    return SymMatrix.from_banded(diag, sub)


def dyadic_laplacian(rng, n, flip_edges_from=None):
    """Weighted complete-graph Laplacian with dyadic weights (exact row sums).

    ``flip_edges_from`` positivizes random edges not touching the listed
    rows, which keeps those rows fully nonpositive.
    """
    w = rng.integers(1, 9, size=(n, n)) / 8.0
    a = -(np.tril(w, -1) + np.tril(w, -1).T)
    np.fill_diagonal(a, -a.sum(axis=1))
    if flip_edges_from is not None:
        protected = set(flip_edges_from)
        for i in range(n):
            for j in range(i):
                if i in protected or j in protected:
                    continue
                if rng.random() < 0.5 and a[i, j] != 0.0:
                    a[i, j] = -a[i, j]
                    a[j, i] = a[i, j]
    return SymMatrix.from_dense(a)


def make_instance(m, q, u):
    return QpInstance(m if isinstance(m, SymMatrix) else SymMatrix.from_dense(m),
                      np.asarray(q, dtype=float), np.asarray(u, dtype=float))


def objectives_match(a, b, tol=1e-8):
    return abs(a - b) <= tol * (1.0 + abs(b))


def banded_family(count=400, seed=3):
    """Seeded tridiagonal instances (d, e, q, u, p) for banded-vs-dense checks.

    n runs from 1 to 29; about 20% of the couplings are zero, so the
    matrix splits into blocks; about half the matrices are singular
    (d = |e_left| + |e_right|, an isolated index gets a positive d);
    about 40% of the bounds are infinite; p = 10 + |q| is positive.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 30))
        e = rng.uniform(-1.0, 1.0, size=n - 1)
        e[rng.uniform(size=n - 1) < 0.2] = 0.0
        d = np.zeros(n)
        d[:-1] += np.abs(e)
        d[1:] += np.abs(e)
        if rng.uniform() < 0.5:
            d += rng.uniform(0.1, 1.0, size=n)
        d[d == 0.0] = rng.uniform(0.5, 1.5)
        q = rng.uniform(-4.0, 4.0, size=n)
        u = np.where(rng.uniform(size=n) < 0.4, np.inf, rng.uniform(0.5, 3.0, size=n))
        out.append((d, e, q, u, 10.0 + np.abs(q)))
    return out


def dense_of_band(d, e):
    """The n x n array of the symmetric tridiagonal matrix with diagonal d and couplings e."""
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def mixed_level_blocks():
    """diag(level-1 4x4, Laplacian 2x2, comparison-psd 3x3) with q = -1, u = 2.

    Each block has a level but the whole matrix has none: removing k
    indices outside the first block leaves it beyond comparison-psd.
    """
    a = np.zeros((9, 9))
    a[:4, :4] = 0.45
    a[4:6, 4:6] = [[1.0, -1.0], [-1.0, 1.0]]
    a[6:, 6:] = 0.3
    np.fill_diagonal(a, 1.0)
    return make_instance(a, -np.ones(9), np.full(9, 2.0))


def cyclic_family(n, seeds=range(8), fractions=(0.1, 0.0)):
    """Frustrated signed n-cycles shifted to level 1, one per (seed, fraction).

    B is a signed n-cycle whose sign product makes it frustrated, plus a
    small random diagonal.  With lambda the least eigenvalue and C_B the
    comparison matrix, M = B + (-lambda(B) + f (lambda(B) - lambda(C_B))) I
    is psd with comparison(M) indefinite: f = 0.1 is the strict variant
    (M positive definite), f = 0 the boundary one (M singular).  Removing
    one index leaves a path, which is comparison-psd, so M is at level 1.
    q ~ U(-1, 1); half of the bounds are infinite, the rest ~ U(0.5, 2).
    """
    out = []
    for seed in seeds:
        for f in fractions:
            rng = np.random.default_rng([n, seed])
            w = rng.uniform(0.5, 1.5, n)
            s = rng.choice([-1.0, 1.0], n)
            if np.prod(-s) > 0:
                s[0] = -s[0]
            a = np.zeros((n, n))
            nxt = (np.arange(n) + 1) % n
            a[np.arange(n), nxt] = a[nxt, np.arange(n)] = s * w
            b = a + np.diag(rng.uniform(0.0, 0.2, n))
            lb = np.linalg.eigvalsh(b)[0]
            lc = np.linalg.eigvalsh(comparison_matrix(b).full())[0]
            q = rng.uniform(-1.0, 1.0, n)
            u = rng.uniform(0.5, 2.0, n)
            u[rng.permutation(n)[:n // 2]] = np.inf
            out.append(make_instance(b + (-lb + f * (lb - lc)) * np.eye(n), q, u))
    return out


def laplacian_bump(rng, n):
    """A Laplacian plus a rank-one bump v v' with v'1 = 0, just past comparison-psd.

    The bump doubles until the matrix leaves comparison-psd; the all-ones
    kernel vector survives it, so with u = inf and q'1 = -1 the problem is
    unbounded.  None when that first matrix is not at level 1.
    """
    base = dyadic_laplacian(rng, n).full()
    v = rng.uniform(-1.0, 1.0, size=n)
    v -= v.mean()
    eps = 0.125 * float(np.max(np.diag(base))) / float(np.max(np.abs(v))) ** 2
    for _ in range(40):
        m = SymMatrix.from_dense(base + eps * np.outer(v, v))
        if not is_in_sbar_plus(m):
            if not is_sbar_nk(m, 1):
                return None
            q = rng.uniform(-3.0, 3.0, size=n)
            q -= (q.sum() + 1.0) / n
            return QpInstance(m, q, np.full(n, np.inf))
        eps *= 2.0
    return None
