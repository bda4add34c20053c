"""The evaluation at a rank increase's grown point, built from the
evaluation at X and the increase's own products
(``equations.evaluate_grown``), against a fresh ``evaluate`` there."""

import numpy as np
import pytest

from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import problems as pb
from lrmeq import solver_rram as rr

from oracles import rand_band_spd

RTOL = 1e-12


def assert_matches_fresh(op, F, X_up, grown, dense):
    """The grown evaluation ``grown`` equals ``evaluate`` at the grown point
    ``X_up`` to ``RTOL``, and carries its residual densely exactly when
    ``dense``."""
    fresh = eqs.evaluate(op, X_up, F)
    assert grown.dense == fresh.dense == dense
    assert grown.f == pytest.approx(fresh.f, rel=RTOL)
    assert grown.norm == pytest.approx(fresh.norm, rel=RTOL)
    for name in ("UAU", "VBV", "AUS", "BV", "RtU", "RtV"):
        a, b = getattr(grown, name), getattr(fresh, name)
        assert a.shape == b.shape, name
        assert np.linalg.norm(a - b) <= RTOL * np.linalg.norm(b), name
    Rd = fresh.R.densify(force=True)
    assert np.linalg.norm(grown.R.densify(force=True) - Rd) <= RTOL * np.linalg.norm(Rd)


def increase_from(m, n, ell, r_F, r, r_up, rng):
    """A rank increase of ``r_up`` from a random rank-r point in a banded
    Kronecker metric, with the evaluation at the point."""
    inst = pb.gen_synthetic(m, n, ell, r_F=r_F, seed=3)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric(rand_band_spd(m, 2, rng), rand_band_spd(n, 1, rng))
    X = geo.random_point(m, n, r, met, rng)
    ev = eqs.evaluate(op, X, F)
    up = rr.rank_increase(X, op, ev.R, r_up)
    assert up[0].r == r + r_up
    return op, F, X, ev, up


@pytest.mark.parametrize("m, n, ell, r, dense_before, dense_after", [
    (30, 28, 2, 2, False, False),   # factored throughout
    (30, 8, 3, 3, True, True),      # dense, m >= n: a rank-l k update
    (8, 30, 3, 3, True, True),      # dense, m < n
    (30, 12, 3, 2, False, True),    # factored -> dense: one dense product
    (12, 30, 3, 2, False, True),
])
def test_grown_evaluation_matches_a_fresh_evaluate(m, n, ell, r, dense_before, dense_after, rng):
    op, F, X, ev, (X_up, alpha, AY, order) = increase_from(m, n, ell, 2, r, 2, rng)
    assert ev.dense == dense_before
    grown = eqs.evaluate_grown(F, ev, X_up, order, alpha, AY)
    assert_matches_fresh(op, F, X_up, grown, dense_after)


@pytest.mark.parametrize("m, n, ell, r", [(30, 28, 2, 2), (30, 8, 3, 3), (8, 30, 3, 3)])
def test_grown_evaluation_of_a_negative_step(m, n, ell, r, rng):
    """The exact step along a B-normal direction is positive, so the
    opposite step ``X - alpha Y`` is built from a real increase: it holds
    ``-NU`` where the increase holds ``NU``, and the same singular values
    and order.  Its grown evaluation matches, factored and dense."""
    op, F, X, ev, (X_up, alpha, AY, order) = increase_from(m, n, ell, 2, r, 2, rng)
    assert alpha > 0
    U = X_up.U.copy()
    U[:, order >= r] *= -1.0
    back = geo.FixedRankPoint(U, X_up.sigma, X_up.V, X.metric)
    Y = geo.FactoredMatrix(X_up.U[:, order >= r] * X_up.sigma[order >= r],
                           X_up.V[:, order >= r])
    step = back.densify(force=True) - X.densify(force=True)
    assert np.linalg.norm(step + Y.densify(force=True)) <= 1e-12 * np.linalg.norm(step)
    down = eqs.evaluate_grown(F, ev, back, order, -alpha, AY)
    assert_matches_fresh(op, F, back, down, ev.dense)


def test_grown_columns_interleave_with_the_old_ones(rng):
    """X's singular values spread over six decades, so the new ones fall
    between them: the grown point's columns interleave X's and Y's, and the
    blocks still match."""
    inst = pb.gen_synthetic(24, 20, 2, r_F=1, seed=4)
    op, F = inst.op, inst.F
    X0 = geo.random_point(24, 20, 3, geo.KroneckerMetric(), rng)
    X = geo.FixedRankPoint(X0.U, np.array([1e2, 1e-1, 1e-4]), X0.V, X0.metric)
    ev = eqs.evaluate(op, X, F)
    X_up, alpha, AY, order = rr.rank_increase(X, op, ev.R, 2)
    new = np.flatnonzero(order >= X.r)
    assert 0 < new[0] and new[-1] < X_up.r - 1
    grown = eqs.evaluate_grown(F, ev, X_up, order, alpha, AY)
    assert_matches_fresh(op, F, X_up, grown, ev.dense)


def test_grown_point_keeps_a_singular_value_below_the_floor(rng):
    """A point whose last singular value, 1e-17, lies below the sigma floor
    of the retraction: the grown point is exactly ``X + alpha Y`` and keeps
    it, and its grown evaluation matches a fresh one."""
    inst = pb.gen_synthetic(16, 14, 2, r_F=1, seed=5)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric()
    U, _ = np.linalg.qr(rng.standard_normal((16, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((14, 2)))
    X = geo.FixedRankPoint(U, np.array([1.0, 1e-17]), V, met)
    ev = eqs.evaluate(op, X, F)
    X_up, alpha, AY, order = rr.rank_increase(X, op, ev.R, 2)
    assert X_up.r == 4
    assert X_up.sigma[-1] == X.sigma[-1]
    grown = eqs.evaluate_grown(F, ev, X_up, order, alpha, AY)
    assert_matches_fresh(op, F, X_up, grown, ev.dense)
