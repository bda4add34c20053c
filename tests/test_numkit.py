import numpy as np
import pytest
import scipy.sparse as sp

from lrmeq import numkit as nk

from oracles import rand_spd


def test_svd_identity():
    U, s, V = nk.svd_thin(np.eye(2))
    assert np.allclose(U, np.eye(2))
    assert np.allclose(V, np.eye(2))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_diagonal_with_zero():
    U, s, V = nk.svd_thin(np.diag([3.0, -0.0]))
    assert np.allclose(s, [3.0, 0.0])


def test_svd_reconstruction(rng):
    A = rng.standard_normal((5, 3))
    U, s, V = nk.svd_thin(A)
    assert np.linalg.norm(U @ np.diag(s) @ V.T - A) <= 1e-13 * np.linalg.norm(A)
    assert np.linalg.norm(U.T @ U - np.eye(3)) < 1e-13
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_sign_convention(rng):
    A = rng.standard_normal((6, 4))
    U, _, _ = nk.svd_thin(A)
    for j in range(4):
        col = U[:, j]
        idx = np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        assert col[idx] >= 0


def test_qr_orthonormal_input(rng):
    Q0, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    Q, R = nk.qr_thin(Q0)
    # Q equals Q0 up to column signs, R diagonal +-1 with positive diag
    assert np.allclose(np.abs(R), np.eye(3), atol=1e-13)
    assert np.all(np.diag(R) > 0)
    assert np.allclose(Q @ R, Q0)


def test_qr_column_vector():
    Q, R = nk.qr_thin(np.array([[2.0], [0.0]]))
    assert np.allclose(Q, [[1.0], [0.0]])
    assert np.allclose(R, [[2.0]])


def test_qr_reconstruction(rng):
    A = rng.standard_normal((6, 2))
    Q, R = nk.qr_thin(A)
    assert np.linalg.norm(A - Q @ R) <= 1e-13 * np.linalg.norm(A)
    assert np.all(np.diag(R) >= 0)
    assert np.allclose(np.triu(R), R)


def test_spd_scaled_identity():
    f = nk.spd_factorize(4.0 * np.eye(3))
    e1 = np.zeros(3); e1[0] = 1.0
    assert np.allclose(f.solve(e1), 0.25 * e1)


def test_spd_tridiag_matches_dense_inverse():
    n = 5
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    f = nk.spd_factorize(A)
    Ainv = np.linalg.inv(A.toarray())
    B = np.eye(n)
    assert np.linalg.norm(f.solve(B) - Ainv) <= 1e-12


def test_spd_rejects_indefinite():
    with pytest.raises(nk.NotSpdError):
        nk.spd_factorize(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(nk.NotSpdError) as err:
        nk.spd_factorize(sp.diags([np.array([1.0, -1.0, 2.0])], [0]).tocsr())
    assert err.value.index != 0


def test_sqrt_factor_roundtrip(rng):
    A = rand_spd(8, rng, cond=100.0)
    f = nk.spd_factorize(A)
    C = f.c_mul(np.eye(8))
    assert np.linalg.norm(C.T @ C - A) <= 1e-12 * np.linalg.norm(A)
    X = rng.standard_normal((8, 3))
    assert np.linalg.norm(f.c_solve(f.c_mul(X)) - X) < 1e-12
    assert np.linalg.norm(f.ct_solve(f.ct_mul(X)) - X) < 1e-12


def test_sparse_permuted_band(rng):
    n = 40
    A = sp.diags([-np.ones(n - 1), 3 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    p = rng.permutation(n)
    As = A[p][:, p].tocsr()
    f = nk.spd_factorize(As)
    x = rng.standard_normal(n)
    assert np.linalg.norm(f.solve(As @ x) - x) < 1e-12
    C = f.c_mul(np.eye(n))
    assert np.linalg.norm(C.T @ C - As.toarray()) < 1e-11


def test_eig_sym_diagonal():
    Q, lam = nk.eig_sym(np.diag([1.0, 2.0]))
    assert np.allclose(lam, [1.0, 2.0])
    assert np.allclose(np.abs(Q), np.eye(2))


def test_eig_sym_swap():
    Q, lam = nk.eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [-1.0, 1.0])


def test_eig_sym_residual(rng):
    A = rng.standard_normal((4, 4))
    A = A + A.T
    Q, lam = nk.eig_sym(A)
    assert np.linalg.norm(A @ Q - Q @ np.diag(lam)) <= 1e-12 * np.linalg.norm(A)


def test_factorizations_deterministic(rng):
    A = rand_spd(10, rng)
    f1 = nk.spd_factorize(A.copy())
    f2 = nk.spd_factorize(A.copy())
    b = rng.standard_normal(10)
    assert np.array_equal(f1.solve(b), f2.solve(b))


def test_solve_roundtrip_conditioned(rng):
    for cond in (10.0, 1e4, 1e6):
        A = rand_spd(12, rng, cond=cond)
        f = nk.spd_factorize(A)
        x = rng.standard_normal(12)
        assert np.linalg.norm(f.solve(A @ x) - x) <= 1e-10 * np.linalg.norm(x)


def test_svd_vs_eig_consistency(rng):
    for _ in range(10):
        A = rng.standard_normal((8, 5))
        _, s, _ = nk.svd_thin(A)
        _, lam = nk.eig_sym(A.T @ A)
        assert np.allclose(np.sort(s**2), np.sort(lam), atol=1e-10 * max(1, lam[-1]))
