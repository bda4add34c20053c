import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

from lrmeq import numkit
from lrmeq import precond as pc

from oracles import adi_error_bound, rand_spd


def symmetric_bound_1d(ps, grid):
    """max over the grid of prod |(x - p)/(x + p)| (symmetric shift sets)."""
    r = np.ones_like(grid)
    for p in ps:
        r = r * np.abs((grid - p) / (grid + p))
    return r.max()


def brute_force_symmetric(J, a, b, n_grid=200, restarts=3):
    """Best symmetric shift set found by multi-start Nelder-Mead over log
    parameters, evaluated on a log grid (the brute-force reference)."""
    grid = np.geomspace(a, b, n_grid)

    def obj(logp):
        return symmetric_bound_1d(np.exp(logp), grid)

    best = None
    inits = [np.log(np.geomspace(a * (b / a) ** 0.25, b * (a / b) ** 0.25, J))]
    rng = np.random.default_rng(0)
    for _ in range(restarts):
        inits.append(np.log(a) + np.log(b / a) * np.sort(rng.uniform(size=J)))
    for x0 in inits:
        res = minimize(obj, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        if best is None or res.fun < best.fun:
            best = res
    return np.exp(best.x), best.fun


def test_point_spectra_single_shift():
    s = pc.wachspress_shifts(1.0, 1.0, 1.0, 1.0, 1)
    assert s == ((1.0, -1.0),)


def test_one_shift_symmetric_geometric_mean():
    s = pc.wachspress_shifts(1.0, 100.0, 1.0, 100.0, 1)
    p, q = s[0]
    assert abs(p - 10.0) <= 1e-8
    assert abs(q + 10.0) <= 1e-8
    # J=1 minimax brute force over a log grid confirms the optimum
    grid = np.geomspace(1.0, 100.0, 400)
    vals = [symmetric_bound_1d([c], grid) for c in np.geomspace(1, 100, 400)]
    c_best = np.geomspace(1, 100, 400)[int(np.argmin(vals))]
    assert abs(np.log(c_best / 10.0)) <= 0.02


@pytest.mark.parametrize("J", [2, 4])
def test_symmetric_grid_minimax(J):
    s = pc.wachspress_shifts(1.0, 100.0, 1.0, 100.0, J)
    lam = np.geomspace(1.0, 100.0, 200)
    ours = adi_error_bound(s, lam, lam).max()
    ps, _ = brute_force_symmetric(J, 1.0, 100.0)
    ref = adi_error_bound([(p, -p) for p in ps], lam, lam).max()
    assert ours <= 1.1 * ref


def test_asymmetric_shifts_admissible_and_effective():
    a, b, c, d = 0.5, 80.0, 2.0, 300.0
    s = pc.wachspress_shifts(a, b, c, d, 5)
    assert len(s) == 5
    for p, q in s:
        assert a <= p <= b
        assert -d <= q <= -c
    lam = np.geomspace(a, b, 120)
    mu = np.geomspace(c, d, 120)
    assert adi_error_bound(s, lam, mu).max() < 5e-3


def test_degenerate_single_sides():
    s = pc.wachspress_shifts(2.0, 2.0, 1.0, 9.0, 4)
    assert s[0][0] == 2.0
    s = pc.wachspress_shifts(1.0, 9.0, 2.0, 2.0, 4)
    assert s[0][1] == -2.0


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        pc.wachspress_shifts(0.0, 1.0, 1.0, 2.0, 1)
    with pytest.raises(ValueError):
        pc.wachspress_shifts(2.0, 1.0, 1.0, 2.0, 1)
    with pytest.raises(ValueError):
        pc.wachspress_shifts(1.0, 2.0, 1.0, 2.0, 0)


# ---------------------------------------------------------------------------
# spectral intervals
# ---------------------------------------------------------------------------


def test_interval_diagonal():
    a, b = pc.spectral_interval(np.diag(np.arange(1.0, 11.0)), None)
    assert a <= 1.0 and b >= 10.0
    assert a >= 0.5 and b <= 20.0


def test_interval_equal_pencil(rng):
    A = rand_spd(12, rng)
    a, b = pc.spectral_interval(A, numkit.SpdFactorization(A))
    assert 0.5 <= a <= 1.0 and 1.0 <= b <= 2.0


def test_interval_contains_generalized_spectrum(rng):
    A = rand_spd(50, rng, cond=200.0)
    E = rand_spd(50, rng, cond=5.0)
    a, b = pc.spectral_interval(A, numkit.SpdFactorization(E))
    lam = np.linalg.eigvals(np.linalg.solve(E, A)).real
    assert a <= lam.min() + 1e-12
    assert b >= lam.max() - 1e-12


def test_interval_lanczos_path(rng):
    # force the Lanczos branch with a sparse matrix above the dense cutoff
    n = 400
    main = 2.0 + rng.uniform(size=n)
    off = -np.ones(n - 1)
    A = sp.diags([off, main + 2.0, off], [-1, 0, 1]).tocsr()
    a, b = pc.spectral_interval(A, None)
    lam = np.linalg.eigvalsh(A.toarray())
    assert a <= lam[0] and b >= lam[-1]
    assert a >= lam[0] / 2 and b <= 2 * lam[-1]


def test_interval_lanczos_breakdown(rng, monkeypatch):
    """For ``A = 2 E`` above the dense cutoff the pencil operator is ``2 I``:
    the first Lanczos step leaves no residual, the run stops there, and the
    bracket is the safety margin around 2."""
    n = 300
    off = -rng.uniform(0.2, 1.0, size=n - 1)
    E = sp.diags([off, 3.0 + rng.uniform(size=n), off], [-1, 0, 1]).tocsr()
    fact = numkit.SpdFactorization(E)
    applies = []
    c_solve = numkit.SpdFactorization.c_solve

    def counted(self, b):
        applies.append(b.shape)
        return c_solve(self, b)

    monkeypatch.setattr(numkit.SpdFactorization, "c_solve", counted)
    a, b = pc.spectral_interval((2.0 * E).tocsr(), fact)
    assert applies == [(n,)]
    assert a == pytest.approx(1.8, rel=1e-12) and b == pytest.approx(2.2, rel=1e-12)
