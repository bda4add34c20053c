"""Per-iteration solve traces with a stable CSV schema.

Schema (one row per iteration or event):
``iter,f,res_rel,res_kind,rank,beta,alpha,backtracks,time_s,event``.
The truncated-CG solver appends ``rank_x,rank_r,rank_p`` columns, and RRAM
appends ``sig_ratio``, the iterate's ``sigma_r / sigma_1``.
``time_s`` counts seconds from the trace's construction; golden
comparisons exclude it.  ``counts`` holds what the solve formed:
``evaluations`` and ``gradients``.
"""

from __future__ import annotations

import collections
import csv
import io
import time

BASE_COLUMNS = (
    "iter", "f", "res_rel", "res_kind", "rank",
    "beta", "alpha", "backtracks", "time_s", "event",
)
TIME_COLUMNS = ("time_s",)


class SolveTrace:
    """Append-only record of solver iterations; indices strictly increase.

    Rows are stamped with the seconds since construction, and a solve
    ends through ``finish``.  ``counts`` tallies the solve's work by name.
    """

    def __init__(self, extra_columns=()):
        self.columns = BASE_COLUMNS + tuple(extra_columns)
        self.rows = []
        self.counts = collections.Counter()
        self._t0 = time.perf_counter()

    def append(self, **kw):
        row = {c: kw.get(c, "") for c in self.columns}
        row["time_s"] = time.perf_counter() - self._t0
        if self.rows and row["iter"] <= self.rows[-1]["iter"]:
            raise ValueError("iteration indices must strictly increase")
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def last(self):
        return self.rows[-1] if self.rows else None

    def tag_last(self, event):
        """Attach an event tag to the most recent row."""
        if not self.rows:
            raise ValueError("no rows to tag")
        prev = self.rows[-1]["event"]
        self.rows[-1]["event"] = f"{prev}+{event}" if prev else event

    def finish(self, X, status):
        """End a solve: tag the last row with ``status`` and return the
        solver result ``(X, trace, status)``."""
        self.tag_last(status)
        return X, self, status

    def update_last(self, **kw):
        """Overwrite fields of the most recent row (e.g. an exact residual
        in place of truncated CG's recursive one)."""
        if not self.rows:
            raise ValueError("no rows to update")
        for key, val in kw.items():
            if key not in self.columns:
                raise KeyError(key)
            self.rows[-1][key] = val

    def column(self, name):
        return [r[name] for r in self.rows]

    def _format(self, v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def to_csv_string(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        for r in self.rows:
            w.writerow([self._format(r[c]) for c in self.columns])
        return buf.getvalue()

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_string())

    def rows_without_time(self):
        """Rows with volatile wall-clock columns stripped, for golden diffs."""
        keep = [c for c in self.columns if c not in TIME_COLUMNS]
        return [tuple(self._format(r[c]) for c in keep) for r in self.rows]
