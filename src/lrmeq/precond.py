"""Tangent-space preconditioners for SPD multiterm matrix equations.

Implements exact inversion of the projected preconditioners

*   ``P X = E X D``           (Kronecker / metric preconditioner),
*   ``P X = A X + X B``       (Sylvester),
*   ``P X = A X D + E X B``   (generalized Sylvester, via a metric split),

and an approximate ADI-type fixed-point iteration on the tangent space
(``tangadi_apply``) together with Wachspress' elliptic-integral shift
parameters and spectral-interval estimation for SPD pencils.

All exact solves reduce to r shifted sparse solves plus small dense
algebra; shifted factorizations come from ``ShiftedPencilFactory``.  The
ADI preconditioners (tangADI, fADI), whose shifts are fixed, factor each
shift pair once, on their first application.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import numkit
from .geometry import FactoredMatrix, FixedRankPoint, TangentVector

_LANCZOS_STEPS = 30
_SAFETY_LO, _SAFETY_HI = 0.9, 1.1
_DENSE_EIG_LIMIT = 256


class ShiftedPencilFactory:
    """SPD factorizations of ``A + shift * E`` for varying shifts.

    For sparse input the fill-reducing permutation and band extraction
    are computed once from the union of the sparsity patterns; each shift
    then costs one banded Cholesky.  ``E=None`` means the identity.
    """

    def __init__(self, A, E=None):
        n = A.shape[0]
        if sp.issparse(A) and (E is None or sp.issparse(E)):
            E = sp.identity(n, format="csr") if E is None else E.tocsr()
            self._perm, (self._A, self._E) = numkit.rcm_bands(A.tocsr(), E)
            self.kind = "banded"
        else:
            self._A = numkit.as_dense(A)
            self._E = np.eye(n) if E is None else numkit.as_dense(E)
            self.kind = "dense"

    def factor(self, shift):
        """Factorize ``A + shift * E``; nothing is kept between calls."""
        if self.kind == "dense":
            return numkit.spd_factorize(self._A + shift * self._E)
        return numkit.SpdFactorization.from_banded(self._A + shift * self._E, self._perm)


# ---------------------------------------------------------------------------
# Exact tangent-space solves
# ---------------------------------------------------------------------------


def solve_kron(X: FixedRankPoint, eta: TangentVector, E, D, fact_E=None, fact_D=None):
    """Solve ``Proj_X(E xi D) = eta`` on the tangent space (standard metric).

    Costs r linear solves with each of E and D plus O(r^2 (m + n)) work.
    """
    if eta.point is not X:
        raise ValueError("eta not based at X")
    U, V = X.U, X.V
    fact_E = fact_E or (numkit.spd_factorize(E) if E is not None else None)
    fact_D = fact_D or (numkit.spd_factorize(D) if D is not None else None)
    EU = E @ U if E is not None else U
    DV = D @ V if D is not None else V
    S_E = U.T @ EU
    S_D = V.T @ DV

    rhs_u = eta.Up + U @ eta.M
    W = fact_E.solve(rhs_u) if fact_E is not None else rhs_u
    U_xi = _solve_spd_small(S_D, (W - U @ (U.T @ W)).T).T

    rhs_v = eta.Vp + V @ eta.M.T
    W = fact_D.solve(rhs_v) if fact_D is not None else rhs_v
    V_xi = _solve_spd_small(S_E, (W - V @ (V.T @ W)).T).T

    inner = eta.M - (EU.T @ U_xi) @ S_D - S_E @ (V_xi.T @ DV)
    M_xi = _solve_spd_small(S_D, _solve_spd_small(S_E, inner).T).T
    return TangentVector(M_xi, U_xi, V_xi, X)


def _solve_spd_small(S, B):
    try:
        c = sla.cho_factor(S)
    except sla.LinAlgError as exc:
        raise numkit.NotSpdError(
            f"projected small system not SPD ({exc}); corrupted point?"
        ) from exc
    return sla.cho_solve(c, B)


def _solve_projected_sylvester(X, eta, A, B, factory_AE, factory_BD):
    """Shared core for the (generalized) projected Sylvester solve.

    Works in the geometry of ``X``: its metric supplies ``E, D`` through
    the ``EU = E U`` and ``DV = D V`` products cached on ``X``; the identity
    metric yields the plain Sylvester case.
    """
    if eta.point is not X:
        raise ValueError("eta not based at X")
    U, V, r = X.U, X.V, X.r
    AU = A @ U
    BV = B @ V
    S_A = U.T @ AU
    S_B = V.T @ BV
    lamA, QA = np.linalg.eigh(0.5 * (S_A + S_A.T))
    lamB, QB = np.linalg.eigh(0.5 * (S_B + S_B.T))

    AUb = AU @ QA
    EUb = X.EU @ QA
    BVb = BV @ QB
    DVb = X.DV @ QB
    GU = AUb - EUb * lamA[None, :]
    GV = BVb - DVb * lamB[None, :]

    E_Ueta_b = eta.E_Up @ QB
    D_Veta_b = eta.D_Vp @ QA
    Meta_b = QA.T @ eta.M @ QB

    m, n = X.shape
    W_u = np.empty((m, r))
    W_v = np.empty((n, r))
    C_u = []
    C_v = []
    LamB_blocks = []
    LamA_blocks = []
    for i in range(r):
        fact = factory_AE.factor(lamB[i])
        sol = fact.solve(np.hstack([EUb, GU, E_Ueta_b[:, i : i + 1]]))
        W1, W2, w3 = sol[:, :r], sol[:, r : 2 * r], sol[:, 2 * r]
        S_u = -(EUb.T @ W1)
        corr = np.linalg.solve(S_u, np.hstack([EUb.T @ W2, (EUb.T @ w3)[:, None]]))
        Cu = W2 + W1 @ corr[:, :r]
        W_u[:, i] = w3 + W1 @ corr[:, r]
        C_u.append(Cu)
        LamB_blocks.append(lamB[i] * np.eye(r) - AUb.T @ Cu)
    for j in range(r):
        fact = factory_BD.factor(lamA[j])
        sol = fact.solve(np.hstack([DVb, GV, D_Veta_b[:, j : j + 1]]))
        W1, W2, w3 = sol[:, :r], sol[:, r : 2 * r], sol[:, 2 * r]
        S_v = -(DVb.T @ W1)
        corr = np.linalg.solve(S_v, np.hstack([DVb.T @ W2, (DVb.T @ w3)[:, None]]))
        Cv = W2 + W1 @ corr[:, :r]
        W_v[:, j] = w3 + W1 @ corr[:, r]
        C_v.append(Cv)
        LamA_blocks.append(lamA[j] * np.eye(r) - BVb.T @ Cv)

    R = Meta_b - AUb.T @ W_u - (BVb.T @ W_v).T
    T = np.zeros((r * r, r * r))
    for i in range(r):
        T[r * i : r * (i + 1), r * i : r * (i + 1)] += LamB_blocks[i]
    stride = np.arange(r) * r
    for j in range(r):
        T[np.ix_(j + stride, j + stride)] += LamA_blocks[j]
    Mb = np.linalg.solve(T, R.flatten(order="F")).reshape((r, r), order="F")

    Ub_xi = W_u - np.column_stack([C_u[i] @ Mb[:, i] for i in range(r)])
    Vb_xi = W_v - np.column_stack([C_v[j] @ Mb[j, :] for j in range(r)])

    U_xi = Ub_xi @ QB.T
    V_xi = Vb_xi @ QA.T
    M_xi = QA @ Mb @ QB.T
    # numerical hygiene: enforce the weighted-orthogonality constraints
    U_xi -= U @ (X.EU.T @ U_xi)
    V_xi -= V @ (X.DV.T @ V_xi)
    return TangentVector(M_xi, U_xi, V_xi, X)


def solve_sylvester(X, eta, A, B, factory_A=None, factory_B=None):
    """Solve ``Proj_X(A xi + xi B) = eta`` exactly (standard metric)."""
    if not X.metric.is_identity:
        raise ValueError("Sylvester preconditioning expects the standard metric")
    factory_A = factory_A or ShiftedPencilFactory(A)
    factory_B = factory_B or ShiftedPencilFactory(B)
    return _solve_projected_sylvester(X, eta, A, B, factory_A, factory_B)


def solve_gen_sylvester(X, eta, A, B, D, E, factory_AE=None, factory_BD=None):
    """Solve ``Proj_X^B(E^{-1} A xi + xi B D^{-1}) = eta`` exactly.

    ``X`` lives in the weighted geometry of the metric ``B X = E X D``;
    only pencils ``A + lam E`` and ``B + lam D`` are ever factorized.
    """
    factory_AE = factory_AE or ShiftedPencilFactory(A, E)
    factory_BD = factory_BD or ShiftedPencilFactory(B, D)
    return _solve_projected_sylvester(X, eta, A, B, factory_AE, factory_BD)


# ---------------------------------------------------------------------------
# tangADI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftSet:
    """ADI shift pairs (p_j, q_j) with the spectral intervals that produced
    them; admissibility requires q_j < a and p_j > -c."""

    pairs: tuple
    interval_ae: tuple
    interval_bd: tuple

    def __len__(self):
        return len(self.pairs)

    def pair(self, j):
        return self.pairs[j % len(self.pairs)]


def adi_factors(A, B, D, E, shifts, steps):
    """Factorizations ``(A - q_j E, B + p_j D)`` of the shift pairs that
    ``steps`` ADI sweeps use; ``D`` or ``E`` None means the identity."""
    factory_AE = ShiftedPencilFactory(A, E)
    factory_BD = ShiftedPencilFactory(B, D)
    return [(factory_AE.factor(-q), factory_BD.factor(p)) for p, q in shifts.pairs[:steps]]


def tangadi_apply(X, eta, A, B, D=None, E=None, shifts=None, steps=None, factors=None, xi0=None):
    """Approximate ``P_X^{-1} eta`` for ``P X = A X D + E X B`` by tangADI.

    Runs ``steps`` sweeps of the tangent-space ADI fixed-point iteration
    starting from zero (or ``xi0``), cycling through the shift pairs.
    Each step costs r sparse solves with ``A - q_j E`` and ``B + p_j D``
    plus O(r^2 (m + n)) dense work; ``factors`` (from ``adi_factors``)
    saves factorizing the pencils on every call.
    """
    if not X.metric.is_identity:
        raise ValueError("tangADI operates in the standard metric")
    if shifts is None or len(shifts) == 0:
        raise ValueError("tangADI needs a nonempty shift set")
    steps = len(shifts) if steps is None else int(steps)
    factors = factors or adi_factors(A, B, D, E, shifts, steps)

    U, V, r = X.U, X.V, X.r
    m, n = X.shape
    AU = A @ U
    BV = B @ V
    EU = E @ U if E is not None else U
    DV = D @ V if D is not None else V
    S_AU = U.T @ AU
    S_EU = U.T @ EU
    S_BV = V.T @ BV
    S_DV = V.T @ DV
    UpUM_eta = eta.Up + U @ eta.M
    VpVM_eta = eta.Vp + V @ eta.M.T

    if xi0 is not None:
        Mj, Uj, Vj = xi0.M, xi0.Up, xi0.Vp
        first = False
    else:
        Mj = np.zeros((r, r))
        Uj = np.zeros((m, r))
        Vj = np.zeros((n, r))
        first = True
    for j in range(steps):
        p, q = shifts.pair(j)
        # (A - q E), SPD for q < a, and (B + p D), SPD for p > -c
        fact_A, fact_B = factors[j % len(shifts)]
        K_U = S_AU - q * S_EU
        K_V = S_BV + p * S_DV
        if first:
            ZjV = np.zeros((m, r))
            ZjtU = np.zeros((n, r))
            UtZjV = np.zeros((r, r))
            first = False
        else:
            # Z_j = (A - p E) xi^{(j-1)} (B + q D) through the rank-2r factors
            Y = np.hstack([U, Uj])
            W = np.hstack([V @ Mj.T + Vj, V])
            AY = A @ Y - p * (E @ Y if E is not None else Y)
            BW = B @ W + q * (D @ W if D is not None else W)
            ZjV = AY @ (BW.T @ V)
            ZjtU = BW @ (AY.T @ U)
            UtZjV = U.T @ ZjV
        pq = p - q
        rhs_u = ZjV + pq * UpUM_eta
        rhs_v = ZjtU + pq * VpVM_eta
        M_rho = UtZjV + pq * eta.M

        W = fact_A.solve(rhs_u)
        Uj = _solve_spd_small(K_V, (W - U @ (U.T @ W)).T).T
        W = fact_B.solve(rhs_v)
        Vj = _solve_spd_small(K_U, (W - V @ (V.T @ W)).T).T
        EpU = AU - q * EU            # (A - q E) U, reused in the M update
        DpV = BV + p * DV            # (B + p D) V
        inner = M_rho - (EpU.T @ Uj) @ K_V - K_U @ (Vj.T @ DpV)
        Mj = _solve_spd_small(K_V, _solve_spd_small(K_U, inner).T).T
    return TangentVector(Mj, Uj, Vj, X)


# ---------------------------------------------------------------------------
# Wachspress shifts and spectral intervals
# ---------------------------------------------------------------------------


def wachspress_shifts(a, b, c, d, J):
    """(Sub)optimal ADI shift pairs for spectra in [a, b] x [c, d].

    Solves the classical rational minimax problem via a Moebius
    transformation onto symmetric intervals followed by Zolotarev's
    elliptic-function solution: zeros at ``dn((2j-1) K / (2J), k)``.
    Returns pairs (p_j, q_j) with p_j in [a, b] and q_j in [-d, -c].
    """
    if not (0 < a <= b and 0 < c <= d):
        raise ValueError("need 0 < a <= b and 0 < c <= d")
    if J < 1:
        raise ValueError("need at least one shift")
    if a == b and c == d:
        return ShiftSet(((float(a), float(-c)),), (a, b), (c, d))
    if a == b:
        return ShiftSet(((float(a), -float(np.sqrt(c * d))),), (a, b), (c, d))
    if c == d:
        return ShiftSet(((float(np.sqrt(a * b)), float(-c)),), (a, b), (c, d))

    gamma = (a + c) * (b + d) / ((a + d) * (b + c))
    s = 2.0 / gamma - 1.0
    kp = 1.0 / (s + np.sqrt(s * s - 1.0))  # stable root in (0, 1)

    with mp.workdps(40):
        kp_mp = mp.mpf(kp)
        m_par = 1 - kp_mp**2
        K = mp.ellipk(m_par)
        ws = [mp.ellipfun("dn", (2 * j - 1) * K / (2 * J), m_par) for j in range(1, J + 1)]
        ws = [float(w) for w in ws]

    def pull_back(w):
        # invert the Moebius map fixed by the cross-ratio anchors
        s_w = 2.0 * (w + kp) / ((w + 1.0) * (1.0 + kp))
        t_w = s_w * (b + c) / (b + d)
        return (t_w * d - c) / (1.0 - t_w)

    pairs = tuple((pull_back(w), pull_back(-w)) for w in ws)
    return ShiftSet(pairs, (a, b), (c, d))


def adi_error_bound(shifts: ShiftSet, lam, mu):
    """Product bound ``prod |(lam - p)(mu + q)| / |(lam - q)(mu + p)|`` on a
    grid; lam, mu are 1-d arrays, result is a (len(lam), len(mu)) array."""
    lam = np.asarray(lam, dtype=float)[:, None]
    mu = np.asarray(mu, dtype=float)[None, :]
    out = np.ones((lam.shape[0], mu.shape[1]))
    for p, q in shifts.pairs:
        out *= np.abs((lam - p) * (mu + q)) / (np.abs((lam - q) * (mu + p)))
    return out


def spectral_interval(A, E=None, steps=_LANCZOS_STEPS):
    """Bracket the spectrum of the SPD pencil (A, E) with a safety margin.

    Small problems use a dense solve; larger ones a short Lanczos run on
    ``C_E^{-T} A C_E^{-1}`` with a deterministic start vector, falling
    back to Gershgorin-type bounds on breakdown.
    """
    m = A.shape[0]
    fact_E = numkit.spd_factorize(E) if E is not None else None

    def opmul(X):
        Y = X if fact_E is None else fact_E.c_solve(X)
        Y = A @ Y
        return Y if fact_E is None else fact_E.ct_solve(Y)

    if m <= _DENSE_EIG_LIMIT:
        S = opmul(np.eye(m))
        w = np.linalg.eigvalsh(0.5 * (S + S.T))
        return _SAFETY_LO * float(w[0]), _SAFETY_HI * float(w[-1])

    v = np.ones(m) + 1e-3 * np.sin(np.arange(m))
    v /= np.linalg.norm(v)
    Vb = np.zeros((m, steps))
    alphas, betas = [], []
    beta = 0.0
    v_prev = np.zeros(m)
    try:
        for k in range(steps):
            Vb[:, k] = v
            w = opmul(v)
            alpha = float(v @ w)
            w = w - alpha * v - beta * v_prev
            w -= Vb[:, : k + 1] @ (Vb[:, : k + 1].T @ w)  # full reorthogonalization
            alphas.append(alpha)
            beta = float(np.linalg.norm(w))
            if beta < 1e-13 * max(abs(alpha), 1.0):
                break
            betas.append(beta)
            v_prev = v
            v = w / beta
        theta = sla.eigh_tridiagonal(
            np.array(alphas), np.array(betas[: len(alphas) - 1]), eigvals_only=True
        )
        return _SAFETY_LO * float(theta[0]), _SAFETY_HI * float(theta[-1])
    except Exception:
        lo_A, hi_A = _gershgorin(A)
        if E is None:
            lo_E = hi_E = 1.0
        else:
            lo_E, hi_E = _gershgorin(E)
        lo = max(lo_A, 1e-300) / max(hi_E, 1e-300)
        hi = max(hi_A, 1e-300) / max(lo_E, 1e-300)
        if lo <= 0 or not np.isfinite(hi):
            raise ValueError("could not bracket the pencil spectrum")
        return _SAFETY_LO * lo, _SAFETY_HI * hi


def _gershgorin(A):
    Ad = numkit.as_dense(A) if A.shape[0] <= 4096 else None
    if Ad is None:
        A = A.tocsr()
        diag = A.diagonal()
        off = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    else:
        diag = np.diag(Ad)
        off = np.sum(np.abs(Ad), axis=1) - np.abs(diag)
    return float(np.min(diag - off)), float(np.max(diag + off))


# ---------------------------------------------------------------------------
# Preconditioner objects used by the solvers
# ---------------------------------------------------------------------------


class IdentityPrecond:
    """No preconditioning; works for tangent vectors and factored matrices."""

    def apply_inv_tangent(self, eta):
        return eta

    def apply_inv_ambient(self, Z):
        return Z


class KronPrecond:
    """Exact inverse of ``P X = E X D`` (tangent and ambient application)."""

    def __init__(self, E=None, D=None):
        self.E, self.D = E, D
        self.fact_E = numkit.spd_factorize(E) if E is not None else None
        self.fact_D = numkit.spd_factorize(D) if D is not None else None

    def apply_inv_tangent(self, eta):
        return solve_kron(eta.point, eta, self.E, self.D, self.fact_E, self.fact_D)

    def apply_inv_ambient(self, Z):
        left = Z.left if self.fact_E is None else self.fact_E.solve(Z.left)
        right = Z.right if self.fact_D is None else self.fact_D.solve(Z.right)
        return FactoredMatrix(left, right)


class SylvesterPrecond:
    """Exact inverse of the projected Sylvester preconditioner A xi + xi B."""

    def __init__(self, A, B):
        self.A, self.B = A, B
        self.factory_A = ShiftedPencilFactory(A)
        self.factory_B = ShiftedPencilFactory(B)

    def apply_inv_tangent(self, eta):
        return solve_sylvester(
            eta.point, eta, self.A, self.B, self.factory_A, self.factory_B
        )


class GenSylvesterPrecond:
    """Exact inverse of ``E^{-1} A xi + xi B D^{-1}`` in the (E, D) metric."""

    def __init__(self, A, B, D, E):
        self.A, self.B, self.D, self.E = A, B, D, E
        self.factory_AE = ShiftedPencilFactory(A, E)
        self.factory_BD = ShiftedPencilFactory(B, D)

    def apply_inv_tangent(self, eta):
        return solve_gen_sylvester(
            eta.point, eta, self.A, self.B, self.D, self.E,
            self.factory_AE, self.factory_BD,
        )


class TangAdiPrecond:
    """Approximate inverse of ``P X = A X D + E X B`` by tangADI sweeps."""

    def __init__(self, A, B, D, E, shifts: ShiftSet, steps=None):
        self.A, self.B, self.D, self.E = A, B, D, E
        self.shifts = shifts
        self.steps = steps
        self._factors = None    # made on the first apply, not in set-up

    def apply_inv_tangent(self, eta):
        if self._factors is None:
            self._factors = adi_factors(self.A, self.B, self.D, self.E, self.shifts, self.steps)
        return tangadi_apply(
            eta.point, eta, self.A, self.B, self.D, self.E,
            self.shifts, self.steps, self._factors,
        )


class FadiAmbientPrecond:
    """Factored ADI approximation of the ambient generalized Sylvester solve.

    Used as the truncated-CG preconditioner: applies ``steps`` ADI sweeps
    to a factored right-hand side, recompressing after each sweep when a
    truncation hook is installed.
    """

    def __init__(self, A, B, D=None, E=None, shifts=None, steps=None, truncate_fn=None):
        self.A, self.B, self.D, self.E = A, B, D, E
        self.shifts = shifts
        self.steps = len(shifts) if steps is None else int(steps)
        self.truncate_fn = truncate_fn
        self._factors = None    # made on the first apply, not in set-up

    def apply_inv_ambient(self, Z: FactoredMatrix) -> FactoredMatrix:
        if self._factors is None:
            self._factors = adi_factors(self.A, self.B, self.D, self.E, self.shifts, self.steps)
        m, n = Z.shape
        Xl = np.zeros((m, 0))
        Xr = np.zeros((n, 0))
        for j in range(self.steps):
            p, q = self.shifts.pair(j)
            fa, fb = self._factors[j % len(self.shifts)]
            new_l = [fa.solve((p - q) * Z.left)]
            new_r = [fb.solve(Z.right)]
            if Xl.shape[1]:
                AX = self.A @ Xl - p * (self.E @ Xl if self.E is not None else Xl)
                BX = self.B @ Xr + q * (self.D @ Xr if self.D is not None else Xr)
                new_l.append(fa.solve(AX))
                new_r.append(fb.solve(BX))
            Xl = np.hstack(new_l)
            Xr = np.hstack(new_r)
            if self.truncate_fn is not None:
                Zt = self.truncate_fn(FactoredMatrix(Xl, Xr))
                Xl, Xr = Zt.left, Zt.right
        return FactoredMatrix(Xl, Xr)
