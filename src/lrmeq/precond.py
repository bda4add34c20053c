"""Tangent-space preconditioners for SPD multiterm matrix equations.

Every preconditioner is a case of the projected operator
``P X = A X D + E X B``, with one term or two:

*   ``P X = E X D``           (Kronecker / metric preconditioner),
*   ``P X = A X D + E X B``   (generalized Sylvester, via a metric split;
    ``E = D = I`` gives the Sylvester preconditioner ``A X + X B``),

inverted exactly on the tangent space, and an approximate ADI-type
fixed-point iteration on the tangent space (``tangADI``, whose half-steps
are exact Kronecker-structured solves with the shifted pencils
``(A - q E, B + p D)``) together with Wachspress' elliptic-integral shift
parameters and spectral-interval estimation for SPD pencils.

All exact solves reduce to r shifted sparse solves plus small dense
algebra; shifted factorizations come from ``ShiftedPencilFactory``.  The
ADI preconditioners (tangADI, fADI), whose shifts are fixed, factor each
shift pair once, on their first application.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import numkit
from .geometry import FactoredMatrix, KroneckerMetric, TangentVector

_LANCZOS_STEPS = 30
_SAFETY_LO, _SAFETY_HI = 0.9, 1.1
_DENSE_EIG_LIMIT = 256


class ShiftedPencilFactory:
    """SPD factorizations of ``A + shift * E`` for varying shifts.

    The band-narrowing permutation (if any), its inverse and the band
    extraction are computed once from the union of the sparsity patterns
    (``numkit.rcm_bands``); each shift then costs one banded Cholesky.
    ``E=None`` means the identity.
    """

    def __init__(self, A, E=None):
        E = sp.identity(A.shape[0], format="csr") if E is None else E
        self._perm, (self._A, self._E) = numkit.rcm_bands(A, E)
        self._iperm = None if self._perm is None else np.argsort(self._perm)

    def factor(self, shift):
        """Factorize ``A + shift * E``; nothing is kept between calls."""
        return numkit.SpdFactorization.from_banded(
            self._A + shift * self._E, self._perm, self._iperm
        )


# ---------------------------------------------------------------------------
# Kernels of the exact tangent-space solves
# ---------------------------------------------------------------------------


def _kron_tangent_solve(U, V, LU, RV, S_L, S_R, fact_L, fact_R, rhs_u, rhs_v, M):
    """Exact solve of ``Proj_X(L xi R) = Proj_X(rho)`` for SPD ``L, R`` at
    ``X = U S V^T`` in the standard metric.

    Takes ``LU = L U``, ``RV = R V``, ``S_L = U^T L U``, ``S_R = V^T R V``,
    the factorizations of L and R (None for the identity) and the
    projections ``rhs_u = rho V``, ``rhs_v = rho^T U``, ``M = U^T rho V``;
    returns the factors ``(M_xi, U_xi, V_xi)`` of ``xi``.
    """
    S_L_inv = _inv_spd_small(S_L)
    S_R_inv = _inv_spd_small(S_R)
    W = fact_L.solve(rhs_u) if fact_L is not None else rhs_u
    U_xi = (W - U @ (U.T @ W)) @ S_R_inv
    W = fact_R.solve(rhs_v) if fact_R is not None else rhs_v
    V_xi = (W - V @ (V.T @ W)) @ S_L_inv
    inner = M - (LU.T @ U_xi) @ S_R - S_L @ (V_xi.T @ RV)
    return S_L_inv @ inner @ S_R_inv, U_xi, V_xi


def _inv_spd_small(S):
    """Inverse of a small SPD matrix through its Cholesky factor, so that
    solves with tall right-hand sides ``W`` become one product ``W @ S^-1``."""
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(S))
    except np.linalg.LinAlgError as exc:
        raise numkit.NotSpdError(
            f"projected small system not SPD ({exc}); corrupted point?"
        ) from exc
    return L_inv.T @ L_inv


def _bordered_shifted_solves(factory, shifts, Ub, Y, H, K):
    """One bordered solve with the pencil ``A + s_i E`` per shift ``s_i``.

    Column ``i`` solves ``(A + s_i E) w = H[:, i] - G m + Y c`` subject to
    ``Y^T w = 0``, where ``Y = E Ub`` and ``G = K - Y diag(lam)`` for
    ``K = A Ub``, as an affine function ``w = W[:, i] - C_i m`` of the core
    column ``m`` that is not known yet.  Because ``(A + s E)^{-1} G =
    Ub - W1 (s I + diag(lam))`` with ``W1 = (A + s E)^{-1} Y``, each shift
    solves only ``[Y, H[:, i]]``, and ``C_i = Ub + W1 S^{-1} Y^T Ub`` with
    ``S = -Y^T W1``.  Returns ``W``, the ``C_i`` and the blocks
    ``s_i I - K^T C_i`` with which ``m`` enters the core system.
    """
    r = Y.shape[1]
    YK = np.hstack([Y, K])
    YtU, KtU = np.vsplit(YK.T @ Ub, 2)
    W = np.empty((Y.shape[0], r))
    C = []
    blocks = []
    for i, s in enumerate(shifts):
        sol = factory.factor(s).solve(np.hstack([Y, H[:, i : i + 1]]))
        W1 = sol[:, :r]
        YKt_sol = YK.T @ sol
        corr = np.linalg.solve(-YKt_sol[:r, :r], np.hstack([YtU, YKt_sol[:r, r:]]))
        C.append(Ub + W1 @ corr[:, :r])
        W[:, i] = sol[:, r] + W1 @ corr[:, r]
        blocks.append(s * np.eye(r) - KtU - YKt_sol[r:, :r] @ corr[:, :r])
    return W, C, blocks


# ---------------------------------------------------------------------------
# ADI shifts and spectral intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftSet:
    """ADI shift pairs (p_j, q_j); for spectra in [a, b] x [c, d]
    admissibility requires q_j < a and p_j > -c."""

    pairs: tuple

    def __len__(self):
        return len(self.pairs)

    def pair(self, j):
        return self.pairs[j % len(self.pairs)]


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
        return ShiftSet(((float(a), float(-c)),))
    if a == b:
        return ShiftSet(((float(a), -float(np.sqrt(c * d))),))
    if c == d:
        return ShiftSet(((float(np.sqrt(a * b)), float(-c)),))

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
    return ShiftSet(pairs)


def spectral_interval(A, E=None):
    """Bracket the spectrum of the SPD pencil (A, E) with a safety margin.

    Small problems use a dense solve; larger ones a short Lanczos run on
    ``C_E^{-T} A C_E^{-1}`` with a deterministic start vector, falling
    back to Gershgorin-type bounds on breakdown.
    """
    m = A.shape[0]
    fact_E = numkit.SpdFactorization(E) if E is not None else None

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
    Vb = np.zeros((m, _LANCZOS_STEPS))
    alphas, betas = [], []
    beta = 0.0
    v_prev = np.zeros(m)
    try:
        for k in range(_LANCZOS_STEPS):
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
    A = sp.csr_matrix(A)
    diag = A.diagonal()
    off = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
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
    """Exact inverse of ``P X = E X D`` (tangent and ambient application)
    for the pair ``(E, D)`` of a ``KroneckerMetric``, whose factorizations
    it uses."""

    def __init__(self, kron: KroneckerMetric):
        self.kron = kron

    def apply_inv_tangent(self, eta):
        """Solve ``Proj_X(E xi D) = eta`` on the tangent space at
        ``X = eta.point`` (standard metric).

        Costs r linear solves with each of E and D plus O(r^2 (m + n)) work.
        """
        X, kron = eta.point, self.kron
        U, V = X.U, X.V
        EU = kron.apply_E(U)
        DV = kron.apply_D(V)
        M_xi, U_xi, V_xi = _kron_tangent_solve(
            U, V, EU, DV, U.T @ EU, V.T @ DV, kron.fact_E, kron.fact_D,
            eta.Up + U @ eta.M, eta.Vp + V @ eta.M.T, eta.M,
        )
        return TangentVector(M_xi, U_xi, V_xi, X)

    def apply_inv_ambient(self, Z):
        return FactoredMatrix(self.kron.solve_E(Z.left), self.kron.solve_D(Z.right))


class GenSylvesterPrecond:
    """Exact inverse of ``E^{-1} A xi + xi B D^{-1}`` in the metric ``(E, D)``;
    the identity metric gives the Sylvester ``A xi + xi B``.  It applies
    only at points of a metric that holds the same E and D objects."""

    def __init__(self, A, B, metric: KroneckerMetric):
        self.A, self.B, self.metric = A, B, metric
        self.factory_AE = ShiftedPencilFactory(A, metric.E)
        self.factory_BD = ShiftedPencilFactory(B, metric.D)

    def apply_inv_tangent(self, eta):
        """Solve ``Proj_X^B(E^{-1} A xi + xi B D^{-1}) = eta`` exactly at
        ``X = eta.point``.

        Only pencils ``A + lam E`` and ``B + lam D`` are ever factorized,
        r shifts of each, and each shifted solve takes r + 1 right-hand
        sides.
        """
        X = eta.point
        if X.metric.E is not self.metric.E or X.metric.D is not self.metric.D:
            raise ValueError("point's metric holds other E or D than the preconditioner's")
        A, B = self.A, self.B
        U, V, r = X.U, X.V, X.r
        AU = A @ U
        BV = B @ V
        S_A = U.T @ AU
        S_B = V.T @ BV
        lamA, QA = np.linalg.eigh(0.5 * (S_A + S_A.T))
        lamB, QB = np.linalg.eigh(0.5 * (S_B + S_B.T))

        E_Ueta_b = eta.E_Up @ QB
        D_Veta_b = eta.D_Vp @ QA
        Meta_b = QA.T @ eta.M @ QB

        AUb, BVb = AU @ QA, BV @ QB
        W_u, C_u, LamB_blocks = _bordered_shifted_solves(
            self.factory_AE, lamB, U @ QA, X.EU @ QA, E_Ueta_b, AUb
        )
        W_v, C_v, LamA_blocks = _bordered_shifted_solves(
            self.factory_BD, lamA, V @ QB, X.DV @ QB, D_Veta_b, BVb
        )

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


class _AdiPrecond:
    """Shift pairs and sweep count of an ADI preconditioner for
    ``P X = A X D + E X B`` (``D`` or ``E`` None means the identity), with
    the factorizations of its shifted pencils made on the first apply."""

    def __init__(self, A, B, D, E, shifts: ShiftSet, steps=None):
        if shifts is None or len(shifts) == 0:
            raise ValueError("ADI needs a nonempty shift set")
        self.steps = len(shifts) if steps is None else int(steps)
        if self.steps < 1:
            raise ValueError(f"ADI needs steps >= 1, got {steps}")
        self.A, self.B, self.D, self.E = A, B, D, E
        self.shifts = shifts

    @cached_property
    def factors(self):
        """Factorizations ``(A - q_j E, B + p_j D)`` of the shift pairs that
        ``steps`` sweeps use."""
        factory_AE = ShiftedPencilFactory(self.A, self.E)
        factory_BD = ShiftedPencilFactory(self.B, self.D)
        return [
            (factory_AE.factor(-q), factory_BD.factor(p))
            for p, q in self.shifts.pairs[: self.steps]
        ]


class TangAdiPrecond(_AdiPrecond):
    """Approximate inverse of ``P X = A X D + E X B`` by tangADI sweeps."""

    def apply_inv_tangent(self, eta):
        """Approximate ``P_X^{-1} eta`` at ``X = eta.point`` by ``steps``
        sweeps of the tangent-space ADI fixed-point iteration, starting from
        zero and cycling through the shift pairs.

        Each step costs r sparse solves with ``A - q_j E`` and ``B + p_j D``,
        products of A, E, B, D with the r columns of the last iterate's
        ``Up`` and ``Vp`` (``A U``, ``E U``, ``B V``, ``D V`` are formed once
        per apply) and O(r^2 (m + n)) dense work.
        """
        X = eta.point
        if not X.metric.is_identity:
            raise ValueError("tangADI operates in the standard metric")
        A, B, D, E = self.A, self.B, self.D, self.E
        shifts, factors = self.shifts, self.factors

        U, V = X.U, X.V
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

        xi = None
        for j in range(self.steps):
            p, q = shifts.pair(j)
            # (A - q E), SPD for q < a, and (B + p D), SPD for p > -c
            fact_A, fact_B = factors[j % len(shifts)]
            # the half-step is the Kronecker tangent solve with L = A - q E,
            # R = B + p D and rho = Z_j + (p - q) eta
            pq = p - q
            rhs_u, rhs_v, rhs_m = pq * UpUM_eta, pq * VpVM_eta, pq * eta.M
            if xi is not None:
                # Z_j = (A - p E) xi (B + q D) for xi = U M V^T + Up V^T + U Vp^T;
                # (A - p E) U and (B + q D) V come from the products above
                Mj, Uj, Vj = xi
                AU_p, S_A = AU - p * EU, S_AU - p * S_EU
                BV_q, S_B = BV + q * DV, S_BV + q * S_DV
                AUj = A @ Uj - p * (E @ Uj if E is not None else Uj)
                BVj = B @ Vj + q * (D @ Vj if D is not None else Vj)
                UtAUj = U.T @ AUj
                core = Mj @ S_B + BVj.T @ V              # U^T xi (B + q D) V
                rhs_u += AU_p @ core + AUj @ S_B         # Z_j V
                rhs_v += (BV_q @ Mj.T + BVj) @ S_A + BV_q @ UtAUj.T   # Z_j^T U
                rhs_m += S_A @ core + UtAUj @ S_B        # U^T Z_j V
            xi = _kron_tangent_solve(
                U, V, AU - q * EU, BV + p * DV, S_AU - q * S_EU, S_BV + p * S_DV,
                fact_A, fact_B, rhs_u, rhs_v, rhs_m,
            )
        return TangentVector(*xi, X)


class FadiAmbientPrecond(_AdiPrecond):
    """Factored ADI approximation of the ambient generalized Sylvester solve.

    Used as the truncated-CG preconditioner: applies ``steps`` ADI sweeps
    to a factored right-hand side, recompressing after each sweep when a
    truncation hook is installed.
    """

    def __init__(self, A, B, D=None, E=None, shifts=None, steps=None, truncate_fn=None):
        super().__init__(A, B, D, E, shifts, steps)
        self.truncate_fn = truncate_fn

    def apply_inv_ambient(self, Z: FactoredMatrix) -> FactoredMatrix:
        m, n = Z.shape
        Xl = np.zeros((m, 0))
        Xr = np.zeros((n, 0))
        for j in range(self.steps):
            p, q = self.shifts.pair(j)
            fa, fb = self.factors[j % len(self.shifts)]
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
