"""Per-layer tracing from outside the package.

``Tracer.installed()`` replaces each boundary below with a wrapper that
records a span (name, start, end, parent) and restores the original objects
on exit, so untraced code runs unpatched.  A function that some module
imports by name is patched at every such import site, because that copy is
the one its callers look up.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time

from lrmeq import equations, geometry, numkit, precond, problems
from lrmeq import solver_rnlcg, solver_rram, trunc_cg


def _rhs_cols(tracer, args, out):
    b = args[1]
    tracer.counters["numkit.spd_solve.rhs_cols"] += b.shape[1] if b.ndim == 2 else 1


def _reset(tracer, args, out):
    tracer.counters["solver_rnlcg.resets"] += bool(out[2])


# (span name, owner, attribute, hook run on (tracer, args, result))
BOUNDARIES = (
    ("numkit.spd_solve", numkit.SpdFactorization, "solve", _rhs_cols),
    ("numkit.factor", numkit.SpdFactorization, "__init__", None),
    ("numkit.factor_banded", numkit.SpdFactorization, "from_banded", None),
    ("numkit.sqrt_mul", numkit.SpdFactorization, "c_mul", None),
    ("numkit.sqrt_mul", numkit.SpdFactorization, "ct_mul", None),
    ("numkit.sqrt_solve", numkit.SpdFactorization, "c_solve", None),
    ("numkit.sqrt_solve", numkit.SpdFactorization, "ct_solve", None),
    ("numkit.qr", numkit, "qr_thin", None),
    ("numkit.svd", numkit, "svd_thin", None),
    ("geometry.factored_norm", geometry, "factored_norm", None),
    ("geometry.factored_norm", equations, "factored_norm", None),
    ("geometry.factored_norm", trunc_cg, "factored_norm", None),
    ("geometry.factored_inner", geometry, "factored_inner", None),
    ("geometry.factored_inner", trunc_cg, "factored_inner", None),
    ("geometry.weighted_qr", geometry, "weighted_qr", None),
    ("geometry.weighted_svd", geometry, "weighted_svd", None),
    ("geometry.project", geometry, "project", None),
    ("geometry.riemannian_gradient", geometry, "riemannian_gradient", None),
    ("geometry.transport", geometry, "transport", None),
    ("geometry.retraction_setup", geometry.LineSearchRetraction, "__init__", None),
    ("geometry.retraction_at", geometry.LineSearchRetraction, "at", None),
    ("equations.evaluate", equations, "evaluate", None),
    ("equations.apply", equations.MultitermOperator, "apply", None),
    ("equations.residual", equations, "residual", None),
    ("precond.gen_sylvester", precond.GenSylvesterPrecond, "apply_inv_tangent", None),
    ("precond.tangadi", precond.TangAdiPrecond, "apply_inv_tangent", None),
    ("precond.kron_ambient", precond.KronPrecond, "apply_inv_ambient", None),
    ("precond.pencil_factor", precond.ShiftedPencilFactory, "factor", None),
    ("precond.spectral_interval", precond, "spectral_interval", None),
    ("precond.wachspress_shifts", precond, "wachspress_shifts", None),
    ("solver_rnlcg.step", solver_rnlcg.RnlcgState, "step", None),
    ("solver_rnlcg.search_direction", solver_rnlcg, "search_direction", _reset),
    ("solver_rnlcg.initial_step", solver_rnlcg, "initial_step", None),
    ("solver_rnlcg.line_search", solver_rnlcg, "armijo_backtrack", None),
    ("solver_rnlcg.res_rel", solver_rnlcg.RnlcgState, "res_rel", None),
    ("solver_rram.hutchpp", solver_rram, "hutchpp_residual_norm", None),
    ("solver_rram.rank_increase", solver_rram, "rank_increase", None),
    ("solver_rram.rank_decrease", solver_rram, "rank_decrease", None),
    ("solver_rram.plateau_detect", solver_rram, "plateau_detect", None),
    ("trunc_cg.truncate", trunc_cg, "truncate_factored", None),
    ("problems.generate", problems, "gen_fd_diffusion_paper", None),
    ("problems.generate", problems, "gen_stoch_galerkin", None),
)

# Boundary names in report order, each listed once.
LAYERS = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))


class Tracer:
    """Records nested spans of one traced episode (a set-up and its solve)."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = collections.Counter()

    @contextlib.contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        spans.append(rec)
        stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn, hook):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for name, owner, attr, hook in BOUNDARIES:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(name, raw, hook)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def episode_s(self):
        """Seconds spanned by the top-level spans (set-up plus solve)."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def self_times(self):
        """Per-name call counts and self seconds (span minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for (name, t0, t1, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (t1 - t0) - inner
        return calls, self_s
