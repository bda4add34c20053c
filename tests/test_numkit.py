import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from lrmeq import numkit as nk
from lrmeq import precond as pc

from oracles import rand_band_spd, rand_spd


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


def loop_sign_fix(U, V):
    """The sign rule of ``svd_thin`` column by column, as a reference."""
    U, V = U.copy(), V.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        amax = np.max(np.abs(col))
        if amax == 0.0:
            continue
        idx = np.argmax(np.abs(col) > 1e-12 * amax)
        if col[idx] < 0.0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    return U, V


def test_svd_sign_fix_matches_column_loop_bitwise(rng, monkeypatch):
    """The vectorized sign fix gives the column loop's U and V bit for bit,
    with rows below the threshold, an all-zero column and -0.0 entries."""
    A = rng.standard_normal((9, 5))
    A[:2] *= 1e-14          # leading entries of U below 1e-12 of the column max
    U0, s0, Vt0 = np.linalg.svd(A, full_matrices=False)
    U, s, V = nk.svd_thin(A)
    U_ref, V_ref = loop_sign_fix(U0, Vt0.T)
    assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref) and np.array_equal(s, s0)
    # the sign fix on crafted factors: a negligible first entry of the other
    # sign than the first one that counts, both ways, and a zero column
    U0[:, 0] = [1e-15, -1e-14, -0.5, 0.1, 0.0, 0.3, -0.2, 0.4, 0.1]
    U0[:, 1] = [-1e-15, 1e-14, 0.5, 0.1, 0.0, 0.3, -0.2, 0.4, 0.1]
    U0[:, 3] = 0.0
    U0[:, 4] = -0.0
    monkeypatch.setattr(np.linalg, "svd", lambda M, full_matrices: (U0.copy(), s0, Vt0.copy()))
    U, s, V = nk.svd_thin(A)
    U_ref, V_ref = loop_sign_fix(U0, Vt0.T)
    assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)
    assert U[2, 0] == 0.5 and U[2, 1] == 0.5 and np.array_equal(V[:, 3], Vt0[3])
    assert np.array_equal(np.signbit(U[:, 3:]), np.signbit(U0[:, 3:]))


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


# (m, k, rank, seed): tall, square and wide input, of full or lower rank,
# within one QR panel (``numkit.QR_PANEL`` = 32 columns) or over several,
# up to about 100 columns
qr_cases = st.one_of(
    st.tuples(
        st.integers(1, 14), st.integers(1, 14), st.integers(0, 14), st.integers(0, 2**32 - 1)
    ),
    st.tuples(
        st.integers(1, 110), st.integers(33, 110), st.integers(0, 110), st.integers(0, 2**32 - 1)
    ),
)


@given(qr_cases)
@example((200, 100, 100, 0))
@example((100, 100, 100, 1))
@example((64, 100, 64, 2))
@example((100, 97, 40, 3))
@example((40, 100, 25, 4))
@example((1, 100, 1, 5))
def test_qr_thin_matches_numpy_qr(case):
    """Tall, wide and rank-deficient input: ``Q R = A`` with orthonormal Q,
    ``R[i, i] >= 0`` and the shapes of ``np.linalg.qr``, whose factors it
    equals up to the signs of Q's columns where R's diagonal is nonzero;
    ``qr_r`` gives the same R up to the signs of its rows."""
    m, k, rank, seed = case
    rng = np.random.default_rng(seed)
    rank = min(rank, m, k)
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, k))
    Q, R = nk.qr_thin(A)
    Q_np, R_np = np.linalg.qr(A)
    p = min(m, k)
    assert Q.shape == Q_np.shape == (m, p) and R.shape == R_np.shape == (p, k)
    scale = max(np.linalg.norm(A), 1.0)
    assert np.linalg.norm(Q @ R - A) <= 1e-13 * scale
    assert np.linalg.norm(Q.T @ Q - np.eye(p)) <= 1e-13
    assert np.all(np.diag(R) >= 0) and np.array_equal(np.triu(R), R)
    # on the leading full-rank columns the factorization is unique up to signs
    lead = min(rank, p)
    signs = np.sign(np.diag(R_np)[:lead])
    assert np.allclose(R[:lead], signs[:, None] * R_np[:lead], atol=1e-12 * scale)
    assert np.allclose(Q[:, :lead], Q_np[:, :lead] * signs, atol=1e-10)
    R_only = nk.qr_r(A)
    assert R_only.shape == (p, k) and np.array_equal(np.triu(R_only), R_only)
    assert np.allclose(np.abs(R_only), np.abs(R), rtol=0.0, atol=1e-13 * scale)


def test_qr_thin_rejects_nonfinite():
    with pytest.raises(ValueError):
        nk.qr_thin(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        nk.qr_r(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_spd_scaled_identity():
    f = nk.SpdFactorization(4.0 * np.eye(3))
    e1 = np.zeros(3); e1[0] = 1.0
    assert np.allclose(f.solve(e1), 0.25 * e1)


def test_spd_tridiag_matches_dense_inverse():
    n = 5
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    f = nk.SpdFactorization(A)
    Ainv = np.linalg.inv(A.toarray())
    B = np.eye(n)
    assert np.linalg.norm(f.solve(B) - Ainv) <= 1e-12


def test_spd_rejects_indefinite():
    with pytest.raises(nk.NotSpdError):
        nk.SpdFactorization(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(nk.NotSpdError, match="2-th leading minor not positive definite"):
        nk.SpdFactorization(sp.diags([np.array([1.0, -1.0, 2.0])], [0]).tocsr())


def test_sqrt_factor_roundtrip(rng):
    A = rand_spd(8, rng, cond=100.0)
    f = nk.SpdFactorization(A)
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
    f = nk.SpdFactorization(As)
    x = rng.standard_normal(n)
    assert np.linalg.norm(f.solve(As @ x) - x) < 1e-12
    C = f.c_mul(np.eye(n))
    assert np.linalg.norm(C.T @ C - As.toarray()) < 1e-11


@pytest.mark.parametrize("bw", [1, 2])
def test_rcm_bands_keeps_natural_order_of_a_band(rng, bw):
    """Tridiagonal and pentadiagonal input: RCM would only reverse it."""
    n = 30
    A = rand_band_spd(n, bw, rng)
    E = rand_band_spd(n, 1, rng)
    perm, (ab_A, ab_E) = nk.rcm_bands(A, E)
    assert perm is None
    assert ab_A.shape == ab_E.shape == (bw + 1, n)
    assert np.array_equal(ab_A[bw], A.diagonal())
    assert np.array_equal(ab_A[0, bw:], A.diagonal(bw))
    assert np.array_equal(ab_E[bw - 1, 1:], E.diagonal(1))


@pytest.mark.parametrize("bw", [1, 2])
def test_rcm_bands_keeps_a_narrowing_permutation(rng, bw):
    n = 30
    p = rng.permutation(n)
    A = rand_band_spd(n, bw, rng)[p][:, p].tocsr()
    perm, (ab,) = nk.rcm_bands(A)
    assert perm is not None
    assert ab.shape == (bw + 1, n)
    assert np.array_equal(ab[bw], A[perm][:, perm].diagonal())


def test_factorizations_deterministic(rng):
    A = rand_spd(10, rng)
    f1 = nk.SpdFactorization(A.copy())
    f2 = nk.SpdFactorization(A.copy())
    b = rng.standard_normal(10)
    assert np.array_equal(f1.solve(b), f2.solve(b))


def test_solve_roundtrip_conditioned(rng):
    for cond in (10.0, 1e4, 1e6):
        A = rand_spd(12, rng, cond=cond)
        f = nk.SpdFactorization(A)
        x = rng.standard_normal(12)
        assert np.linalg.norm(f.solve(A @ x) - x) <= 1e-10 * np.linalg.norm(x)


def test_svd_vs_eig_consistency(rng):
    for _ in range(10):
        A = rng.standard_normal((8, 5))
        _, s, _ = nk.svd_thin(A)
        lam = np.linalg.eigvalsh(A.T @ A)
        assert np.allclose(np.sort(s**2), np.sort(lam), atol=1e-10 * max(1, lam[-1]))


# ---------------------------------------------------------------------------
# banded backend: properties over bandwidths 0, 1 (tridiagonal) and 2-5
# ---------------------------------------------------------------------------

banded_cases = st.tuples(
    st.integers(1, 40),            # n
    st.integers(0, 5),             # bandwidth
    st.booleans(),                 # randomly permuted
    st.integers(0, 2**32 - 1),     # seed of the entries
)


@given(banded_cases, st.integers(0, 4))
def test_banded_solve_matches_dense_solve(case, nrhs):
    n, bw, permute, seed = case
    rng = np.random.default_rng(seed)
    A = rand_band_spd(n, bw, rng, permute)
    if not permute:
        assert nk.rcm_bands(A)[0] is None   # a band in natural order is kept
    f = nk.SpdFactorization(A)
    b = rng.standard_normal(n) if nrhs == 0 else rng.standard_normal((n, nrhs))
    x = f.solve(b)
    assert x.shape == b.shape
    ref = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


@given(banded_cases)
def test_banded_square_root_round_trips(case):
    n, bw, permute, seed = case
    rng = np.random.default_rng(seed)
    A = rand_band_spd(n, bw, rng, permute)
    if not permute:
        assert nk.rcm_bands(A)[0] is None
    f = nk.SpdFactorization(A)
    C = f.c_mul(np.eye(n))
    assert np.linalg.norm(C.T @ C - A.toarray()) <= 1e-12 * np.linalg.norm(A.toarray())
    assert np.allclose(f.ct_mul(np.eye(n)), C.T, rtol=0.0, atol=1e-14 * np.abs(C).max())
    X = rng.standard_normal((n, 3))
    assert np.linalg.norm(f.c_solve(f.c_mul(X)) - X) <= 1e-11 * np.linalg.norm(X)
    assert np.linalg.norm(f.ct_solve(f.ct_mul(X)) - X) <= 1e-11 * np.linalg.norm(X)
    x = X[:, 0]
    assert np.allclose(f.c_solve(f.c_mul(x)), x, rtol=1e-11, atol=1e-11)


@given(st.integers(1, 40), st.data())
def test_indefinite_tridiagonal_raises(n, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    bad = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(seed)
    A = rand_band_spd(n, 1, rng).tolil()
    A[bad, bad] = -rng.uniform(0.1, 2.0)    # e_bad.T A e_bad < 0
    with pytest.raises(nk.NotSpdError):
        nk.SpdFactorization(A.tocsr())


def test_tridiagonal_band_factors_without_banded_cholesky(rng, monkeypatch):
    """A tridiagonal band is factored by ``pttrf`` alone; its square root
    comes from that ``L diag(d) L.T`` when a square-root method asks."""
    def banded_cholesky(*args, **kwargs):
        raise AssertionError("banded Cholesky of a tridiagonal band")

    monkeypatch.setattr(nk.sla, "cholesky_banded", banded_cholesky)
    n = 30
    A = rand_band_spd(n, 1, rng)
    f = nk.SpdFactorization(A)
    b = rng.standard_normal((n, 2))
    ref = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(f.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    C = f.c_mul(np.eye(n))
    assert np.linalg.norm(C.T @ C - A.toarray()) <= 1e-12 * np.linalg.norm(A.toarray())
    assert np.linalg.norm(f.c_solve(C) - np.eye(n)) <= 1e-11 * np.sqrt(n)


def test_banded_solve_rejects_nonfinite_rhs():
    n = 6
    A = sp.diags([-np.ones(n - 1), 3 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    f = nk.SpdFactorization(A)
    b = np.ones(n)
    b[2] = np.nan
    for solve in (f.solve, f.c_solve, f.ct_solve):
        with pytest.raises(ValueError):
            solve(b)


# ---------------------------------------------------------------------------
# dense input: its own full band in natural order
# ---------------------------------------------------------------------------

dense_cases = st.tuples(
    st.integers(1, 40),            # n
    st.integers(0, 6),             # bandwidth of the nonzeros; 6: no exact zeros
    st.integers(0, 2**32 - 1),     # seed of the entries
)


def dense_spd(n, bw, rng):
    """Dense SPD array, full or with exact zeros outside a permuted band."""
    if bw == 6:
        return rand_spd(n, rng)
    return rand_band_spd(n, bw, rng, permute=True).toarray()


@given(dense_cases, st.booleans(), st.floats(0.0, 10.0))
def test_dense_input_factors_as_a_full_band(case, with_E, shift):
    """``SpdFactorization`` of a dense A, and the pencil ``A + shift E`` of a
    dense A with a sparse or missing E, solve like ``np.linalg.solve`` and
    have a square root with ``C.T C`` equal to the matrix."""
    n, bw, seed = case
    rng = np.random.default_rng(seed)
    A = dense_spd(n, bw, rng)
    E = rand_band_spd(n, 1, rng) if with_E else None
    perm, (ab,) = nk.rcm_bands(A)
    assert perm is None and ab.shape == (n, n)
    pencil = A + shift * (E.toarray() if with_E else np.eye(n))
    b = rng.standard_normal((n, 3))
    for f, M in ((nk.SpdFactorization(A), A),
                 (pc.ShiftedPencilFactory(A, E).factor(shift), pencil)):
        ref = np.linalg.solve(M, b)
        assert np.linalg.norm(f.solve(b) - ref) <= 1e-11 * max(1.0, np.linalg.norm(ref))
        C = f.c_mul(np.eye(n))
        assert np.linalg.norm(C.T @ C - M) <= 1e-12 * np.linalg.norm(M)
        X = b[:, :2]
        assert np.linalg.norm(f.c_solve(f.c_mul(X)) - X) <= 1e-11 * np.linalg.norm(X)
        assert np.linalg.norm(f.ct_solve(f.ct_mul(X)) - X) <= 1e-11 * np.linalg.norm(X)


def test_dense_indefinite_reports_pivot_index():
    with pytest.raises(nk.NotSpdError, match="2-th leading minor not positive definite"):
        nk.SpdFactorization(np.diag([1.0, -1.0, 2.0]))
