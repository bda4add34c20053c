"""Preconditioners for SPD multiterm matrix equations.

Every preconditioner is a case of the operator ``P X = A X D + E X B``,
with one term or two:

*   ``P X = A X D + E X B``   (generalized Sylvester, via a metric split;
    ``E = D = I`` gives the Sylvester preconditioner ``A X + X B``),
    inverted exactly on the tangent space, and by an approximate ADI-type
    fixed-point iteration on the tangent space (``tangADI``, whose sweeps
    are exact solves with the shifted pencils ``(A - q E, B + p D)`` that
    multiply only E and D, by the ADI identity ``(A - q E)^{-1} (A - p E) =
    I + (q - p) (A - q E)^{-1} E``) with Wachspress' elliptic-integral
    shift parameters and spectral-interval estimation for SPD pencils;
*   ``P X = E X D``           (Kronecker), inverted on factored matrices
    for truncated CG (``KronPrecond``).  The Riemannian solvers apply it
    as a change of the ambient metric (``KroneckerMetric(E, D)``), not as
    a solve on the tangent space.

All exact solves reduce to r shifted sparse solves plus small dense
algebra; shifted factorizations come from ``ShiftedPencilFactory``.  The
ADI preconditioners (tangADI, fADI) run one sweep per shift pair; their
shifts are fixed, so they factor each pair once, on their first application.
"""

from __future__ import annotations

from functools import cached_property

import mpmath as mp
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

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


def _inv_spd_small(S):
    """Inverse of a small SPD matrix (or of each in a stack) by Cholesky, so
    that solves with tall right-hand sides ``W`` become one product ``W @ S^-1``."""
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(S))
    except np.linalg.LinAlgError as exc:
        raise numkit.NotSpdError(
            f"projected small system not SPD ({exc}); corrupted point?"
        ) from exc
    return np.swapaxes(L_inv, -1, -2) @ L_inv


def _bordered_shifted_solves(factory, shifts, Ub, Y, H, K):
    """One bordered solve with the pencil ``A + s_i E`` per shift ``s_i``.

    Column ``i`` solves ``(A + s_i E) w = H[:, i] - G m + Y c`` subject to
    ``Y^T w = 0``, where ``Y = E Ub`` and ``G = K - Y diag(lam)`` for
    ``K = A Ub``, as an affine function ``w = W[:, i] - C_i m`` of the core
    column ``m`` that is not known yet.  Because ``(A + s E)^{-1} G =
    Ub - W1 (s I + diag(lam))`` with ``W1 = (A + s E)^{-1} Y``, each shift
    factors its pencil and solves only ``[Y, H[:, i]]``, into row ``i`` of
    a new stack ``sol`` of shape ``(k, r + 1, n)``; all other algebra runs
    once, batched over the shifts.  With ``S = -Y^T W1`` and ``w_h`` the
    solution for ``H[:, i]``, the bordering gives ``corr = S^{-1} [Y^T Ub,
    Y^T w_h]``, ``C_i = Ub + W1 corr[:, :r]`` and ``W[:, i] = w_h + W1
    corr[:, r]``.

    Leaves ``[W1, w_h]^T`` in ``sol[i]`` and returns ``(sol, corr, KtW,
    blocks)``: the stacked ``corr`` (``(k, r, r + 1)``), from which and
    ``sol`` ``_bordered_columns`` forms the columns once ``m`` is known,
    ``K^T W`` (row ``i`` is ``K^T W[:, i]``) and the blocks ``s_i I - K^T
    C_i`` with which ``m`` enters the core system.
    """
    (n, r), k = Y.shape, len(shifts)
    rhs = np.empty((n, r + 1), order="F")
    rhs[:, :r] = Y
    sol = np.empty((k, r + 1, n))
    for i, s in enumerate(shifts):
        rhs[:, r] = H[:, i]
        sol[i] = factory.factor(s).solve(rhs).T
    YK = np.hstack([Y, K])
    # P[i, c] = [Y, K]^T sol_i[:, c], for all shifts in one product
    P = (sol.reshape(k * (r + 1), n) @ YK).reshape(k, r + 1, 2 * r)
    YtU, KtU = Y.T @ Ub, K.T @ Ub
    YtW1 = P[:, :r, :r].transpose(0, 2, 1)
    KtW1 = P[:, :r, r:].transpose(0, 2, 1)
    border = np.concatenate([np.broadcast_to(YtU, (k, r, r)), P[:, r, :r, None]], axis=2)
    corr = np.linalg.solve(-YtW1, border)
    KtW = P[:, r, r:] + (KtW1 @ corr[:, :, r:])[:, :, 0]
    blocks = shifts[:, None, None] * np.eye(r) - KtU - KtW1 @ corr[:, :, :r]
    return sol, corr, KtW, blocks


def _bordered_columns(sol, corr, M):
    """The columns ``W[:, i] - C_i M[:, i]`` of ``_bordered_shifted_solves``
    without forming ``C_i``, up to a component in ``span(Ub)``: ``w_h + W1
    (corr[:, r] - corr[:, :r] m)``.  The term ``- Ub m`` is left out because
    the E-projection that ends ``apply_inv_tangent`` removes it."""
    r = sol.shape[1] - 1
    q = corr[:, :, r] - (corr[:, :, :r] @ M.T[:, :, None])[:, :, 0]
    cols = sol[:, r] + (q[:, None, :] @ sol[:, :r])[:, 0]
    return cols.T


# ---------------------------------------------------------------------------
# ADI shifts and spectral intervals
# ---------------------------------------------------------------------------


def wachspress_shifts(a, b, c, d, J):
    """(Sub)optimal ADI shift pairs for spectra in [a, b] x [c, d].

    Solves the classical rational minimax problem via a Moebius
    transformation onto symmetric intervals followed by Zolotarev's
    elliptic-function solution: zeros at ``dn((2j-1) K / (2J), k)``.
    Returns a tuple of pairs (p_j, q_j) with p_j in [a, b] and q_j in
    [-d, -c], one per ADI sweep; admissibility for spectra in [a, b] x
    [c, d] requires q_j < a and p_j > -c.
    """
    if not (0 < a <= b and 0 < c <= d):
        raise ValueError("need 0 < a <= b and 0 < c <= d")
    if J < 1:
        raise ValueError("need at least one shift")
    if a == b and c == d:
        return ((float(a), float(-c)),)
    if a == b:
        return ((float(a), -float(np.sqrt(c * d))),)
    if c == d:
        return ((float(np.sqrt(a * b)), float(-c)),)

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

    return tuple((pull_back(w), pull_back(-w)) for w in ws)


def spectral_interval(A, fact_E):
    """Bracket the spectrum of the SPD pencil (A, E) with a safety margin.

    ``fact_E`` is E's ``SpdFactorization`` (a ``KroneckerMetric``'s
    ``fact_E`` or ``fact_D``), None for the identity.  Small problems use a
    dense solve; larger ones a short Lanczos run on ``C_E^{-T} A C_E^{-1}``
    with a deterministic start vector, stopped early on breakdown.  A lower
    end that is not positive raises ``NotSpdError``.

    Lanczos may bracket well above the smallest eigenvalue (fd diffusion at
    n = 2000: 125.7 against 13.87), yet its shifts serve tangADI better: fd-tangadi
    seeds 0-4 take 39/40/39/39/41 R-NLCG iterations, and 42/41/42/40/43 with
    0.9 times the true smallest eigenvalue as lower end.
    """
    m = A.shape[0]

    def opmul(X):
        Y = X if fact_E is None else fact_E.c_solve(X)
        Y = A @ Y
        return Y if fact_E is None else fact_E.ct_solve(Y)

    if m <= _DENSE_EIG_LIMIT:
        S = opmul(np.eye(m))
        theta = np.linalg.eigvalsh(0.5 * (S + S.T))
    else:
        v = np.ones(m) + 1e-3 * np.sin(np.arange(m))
        v /= np.linalg.norm(v)
        Vb = np.zeros((m, _LANCZOS_STEPS))
        alphas, betas = [], []
        beta = 0.0
        v_prev = np.zeros(m)
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
    if not theta[0] > 0.0:
        raise numkit.NotSpdError(f"pencil not SPD: smallest eigenvalue estimate {theta[0]:.3e}")
    return _SAFETY_LO * float(theta[0]), _SAFETY_HI * float(theta[-1])


def adi_shifts(A, B, kron: KroneckerMetric, J):
    """J Wachspress shift pairs for ``P X = A X D + E X B``, with ``(E, D)``
    the pair of ``kron``, from the spectral intervals of the pencils
    ``(A, E)`` and ``(B, D)``."""
    a, b = spectral_interval(A, kron.fact_E)
    c, d = spectral_interval(B, kron.fact_D)
    return wachspress_shifts(a, b, c, d, J)


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
    """Exact inverse of ``P X = E X D`` on factored matrices, for the pair
    ``(E, D)`` of a ``KroneckerMetric``, whose factorizations it uses:
    truncated CG's ambient preconditioner.  The Riemannian solvers apply
    the same operator as a change of metric (``metric=KroneckerMetric(E,
    D)``)."""

    def __init__(self, kron: KroneckerMetric):
        self.kron = kron

    def apply_inv_ambient(self, Z):
        return FactoredMatrix(self.kron.solve_E(Z.left), self.kron.solve_D(Z.right))


class GenSylvesterPrecond:
    """Exact inverse of ``E^{-1} A xi + xi B D^{-1}`` in the metric ``(E, D)``;
    the identity metric gives the Sylvester ``A xi + xi B``.  It applies
    only at points of a metric that holds the same E and D objects.
    """

    def __init__(self, A, B, metric: KroneckerMetric):
        self.A, self.B, self.metric = A, B, metric
        self.factory_AE = ShiftedPencilFactory(A, metric.E)
        self.factory_BD = ShiftedPencilFactory(B, metric.D)

    def apply_inv_tangent(self, eta):
        """Solve ``Proj_X^B(E^{-1} A xi + xi B D^{-1}) = eta`` exactly at
        ``X = eta.point``.

        Only pencils ``A + lam E`` and ``B + lam D`` are ever factorized,
        r shifts of each, and each shifted solve takes r + 1 right-hand
        sides; the algebra around the solves runs once per side, over
        arrays stacked along the shift axis.
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
        Ub, Vb = U @ QA, V @ QB
        sol_u, corr_u, KtW_u, LamB_blocks = _bordered_shifted_solves(
            self.factory_AE, lamB, Ub, X.EU @ QA, E_Ueta_b, AUb
        )
        sol_v, corr_v, KtW_v, LamA_blocks = _bordered_shifted_solves(
            self.factory_BD, lamA, Vb, X.DV @ QB, D_Veta_b, BVb
        )

        R = Meta_b - KtW_u.T - KtW_v
        # T acts on Mb.flatten("F"): T4[i, a, j, b] couples Mb[a, i] to Mb[b, j];
        # column i of Mb meets LamB_blocks[i], row j meets LamA_blocks[j]
        T = np.zeros((r * r, r * r))
        T4 = T.reshape(r, r, r, r)
        idx = np.arange(r)
        T4[idx, :, idx, :] = LamB_blocks
        T4[:, idx, :, idx] += LamA_blocks
        # T is SPD; T.T is its storage in the Fortran order LAPACK factors in place
        _, mb, info = lapack.dposv(T.T, R.flatten(order="F"), overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise numkit.NotSpdError(
                f"generalized Sylvester core not SPD: {info}-th leading minor"
            )
        Mb = mb.reshape((r, r), order="F")

        Ub_xi = _bordered_columns(sol_u, corr_u, Mb)
        Vb_xi = _bordered_columns(sol_v, corr_v, Mb.T)

        U_xi = Ub_xi @ QB.T
        V_xi = Vb_xi @ QA.T
        M_xi = QA @ Mb @ QB.T
        # the weighted-orthogonality constraints: this removes the span(U)
        # and span(V) components that _bordered_columns leaves in
        U_xi -= U @ (X.EU.T @ U_xi)
        V_xi -= V @ (X.DV.T @ V_xi)
        return TangentVector(M_xi, U_xi, V_xi, X)


class _AdiPrecond:
    """Shift pairs of an ADI preconditioner for ``P X = A X D + E X B``, with
    ``(E, D)`` the pair of a ``KroneckerMetric``: one sweep per pair, and the
    factorizations of its shifted pencils made on the first apply."""

    def __init__(self, A, B, kron: KroneckerMetric, shifts):
        if not shifts:
            raise ValueError("ADI needs a nonempty shift set")
        self.A, self.B, self.kron = A, B, kron
        self.shifts = tuple(shifts)

    @cached_property
    def factors(self):
        """Factorizations ``(A - q_j E, B + p_j D)`` of the shift pairs."""
        factory_AE = ShiftedPencilFactory(self.A, self.kron.E)
        factory_BD = ShiftedPencilFactory(self.B, self.kron.D)
        return [(factory_AE.factor(-q), factory_BD.factor(p)) for p, q in self.shifts]


class TangAdiPrecond(_AdiPrecond):
    """Approximate inverse of ``P X = A X D + E X B`` by tangADI sweeps."""

    def apply_inv_tangent(self, eta):
        """Approximate ``P_X^{-1} eta`` at ``X = eta.point`` by one sweep of
        the tangent-space ADI fixed-point iteration per shift pair, starting
        from zero.

        The sweep with the pair (p, q) solves ``Proj_X(L xi R) = Proj_X((A -
        p E) xi_j (B + q D)) + (p - q) eta`` for ``L = A - q E``, ``R = B + p
        D`` and the last iterate ``xi_j = U Mj V^T + Uj V^T + U Vj^T``.  By
        the ADI identity ``L^{-1} (A - p E) = I + (q - p) L^{-1} E``, and
        since ``(I - U U^T) Y = Uj S_B`` for ``Y = xi_j (B + q D) V``,
        ``U_xi = [Uj S_B + (p - q) (I - U U^T) L^{-1} (eta V - E Y)] S_R^{-1}``;
        ``V_xi`` follows from ``R^{-1} (B + q D) = I + (q - p) R^{-1} D``.
        So a sweep multiplies only E and D by r columns, besides r sparse solves
        with each of L and R and O(r^2 (m + n)) dense work; A and B multiply U
        and V once per apply.
        """
        X = eta.point
        if not X.metric.is_identity:
            raise ValueError("tangADI operates in the standard metric")
        kron, U, V, r = self.kron, X.U, X.V, X.r
        AEU = np.hstack([self.A @ U, kron.apply_E(U)])
        BDV = np.hstack([self.B @ V, kron.apply_D(V)])
        # [U^T A; U^T E] U and [V^T B; V^T D] V, as A, B, E, D are symmetric
        GU, GV = AEU.T @ U, BDV.T @ V
        ps, qs = np.array(self.shifts).T[:, :, None, None]
        # U^T (A - q E) U and V^T (B + p D) V of every pair, inverted in one batch:
        # A - q E is SPD for q < a, and B + p D for p > -c
        S_L, S_R = GU[:r] - qs * GU[r:], GV[:r] + ps * GV[r:]
        S_L_inv, S_R_inv = _inv_spd_small(S_L), _inv_spd_small(S_R)
        eta_u, eta_v = eta.Up + U @ eta.M, eta.Vp + V @ eta.M.T   # eta V, eta^T U

        xi = None
        for j, ((p, q), (fact_L, fact_R)) in enumerate(zip(self.shifts, self.factors)):
            rhs_u, rhs_v, rhs_m = eta_u, eta_v, (p - q) * eta.M
            if xi is not None:
                # PU = [U^T A; U^T E] Uj and PV = [V^T B; V^T D] Vj, from the last sweep
                Mj, Uj, Vj = xi
                S_A, S_B = GU[:r] - p * GU[r:], GV[:r] + q * GV[r:]
                UtAUj, VtBVj = PU[:r] - p * PU[r:], PV[:r] + q * PV[r:]
                core_u = Mj @ S_B + VtBVj.T        # U^T Y
                core_v = Mj.T @ S_A + UtAUj.T      # V^T xi_j^T (A - p E) U
                rhs_u = eta_u - AEU[:, r:] @ core_u - kron.apply_E(Uj) @ S_B
                rhs_v = eta_v - BDV[:, r:] @ core_v - kron.apply_D(Vj) @ S_A
                rhs_m += S_A @ core_u + UtAUj @ S_B
            W = fact_L.solve(rhs_u)
            U_xi = (W - U @ (U.T @ W)) @ ((p - q) * S_R_inv[j])
            W = fact_R.solve(rhs_v)
            V_xi = (W - V @ (V.T @ W)) @ ((p - q) * S_L_inv[j])
            if xi is not None:
                U_xi += Uj @ (S_B @ S_R_inv[j])
                V_xi += Vj @ (S_A @ S_L_inv[j])
            PU, PV = AEU.T @ U_xi, BDV.T @ V_xi
            # U^T L U_xi and V^T R V_xi close the exact tangent solve's core
            inner = (rhs_m - (PU[:r] - q * PU[r:]) @ S_R[j]
                     - S_L[j] @ (PV[:r] + p * PV[r:]).T)
            xi = S_L_inv[j] @ inner @ S_R_inv[j], U_xi, V_xi
        return TangentVector(*xi, X)


class FadiAmbientPrecond(_AdiPrecond):
    """Factored ADI approximation of the ambient generalized Sylvester solve.

    Used as the truncated-CG preconditioner: applies one ADI sweep per
    shift pair to a factored right-hand side, recompressing after each
    sweep when a truncation hook is installed.
    """

    def __init__(self, A, B, kron: KroneckerMetric, shifts, truncate_fn=None):
        super().__init__(A, B, kron, shifts)
        self.truncate_fn = truncate_fn

    def apply_inv_ambient(self, Z: FactoredMatrix) -> FactoredMatrix:
        m, n = Z.shape
        Xl = np.zeros((m, 0))
        Xr = np.zeros((n, 0))
        for (p, q), (fa, fb) in zip(self.shifts, self.factors):
            new_l = [fa.solve((p - q) * Z.left)]
            new_r = [fb.solve(Z.right)]
            if Xl.shape[1]:
                AX = self.A @ Xl - p * self.kron.apply_E(Xl)
                BX = self.B @ Xr + q * self.kron.apply_D(Xr)
                new_l.append(fa.solve(AX))
                new_r.append(fb.solve(BX))
            Xl = np.hstack(new_l)
            Xr = np.hstack(new_r)
            if self.truncate_fn is not None:
                Zt = self.truncate_fn(FactoredMatrix(Xl, Xr))
                Xl, Xr = Zt.left, Zt.right
        return FactoredMatrix(Xl, Xr)
