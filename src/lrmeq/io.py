"""Instance export/import: Matrix Market files plus a JSON manifest.

An instance directory holds one ``.mtx`` file per coefficient matrix,
right-hand-side factor, and preconditioner matrix, and a
``manifest.json`` with the term list, metadata and sha256 content hashes.
Matrices are written with 17 significant digits so that a round trip is
bit-exact for doubles.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from . import numkit
from .equations import LowRankRhs, MultitermOperator
from .problems import ProblemInstance, _canonical

_MM_PRECISION = 17
# the matrices each preconditioner kind needs; a missing E or D is the identity
_PRECOND_NEEDS = {"kron": (), "sylv": ("A", "B"), "gen_sylv": ("A", "B")}


class InstanceError(OSError):
    """An instance directory that cannot be read back: an unknown manifest
    format or preconditioner kind, a manifest that lacks a required key
    or preconditioner matrix, a file whose content does not match its
    stored hash, matrices that do not fit together, or a preconditioner
    matrix that is not symmetric positive definite."""


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_matrix(path, A):
    sio.mmwrite(path, A, precision=_MM_PRECISION)


def _read_matrix(path):
    A = sio.mmread(path)
    if sp.issparse(A):
        return _canonical(A.tocsr())
    return np.asarray(A, dtype=float)


def export_instance(inst: ProblemInstance, out_dir):
    """Write an instance directory; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}

    def save(name, A):
        fname = f"{name}.mtx"
        _write_matrix(os.path.join(out_dir, fname), A)
        files[name] = fname

    for i, (Ai, Bi) in enumerate(zip(inst.op.A, inst.op.B)):
        save(f"A{i}", Ai)
        save(f"B{i}", Bi)
    save("FL", inst.F.left)
    save("FR", inst.F.right)
    precond = {}
    for label, spec in (("p1", inst.p1), ("p2", inst.p2)):
        if spec is None:
            continue
        entry = {"kind": spec["kind"], "matrices": {}}
        for key, mat in spec.items():
            if key == "kind":
                continue
            if mat is None:
                entry["matrices"][key] = None
            else:
                save(f"{label}_{key}", mat)
                entry["matrices"][key] = f"{label}_{key}"
        precond[label] = entry
    manifest = {
        "format": "lrmeq-instance-v1",
        "ell": inst.op.ell,
        "m": inst.op.m,
        "n": inst.op.n,
        "meta": inst.meta,
        "files": files,
        "precond": precond,
        "sha256": {name: _sha256(os.path.join(out_dir, f)) for name, f in files.items()},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def import_instance(in_dir) -> ProblemInstance:
    """Read back an instance directory written by ``export_instance``.

    Every file is checked against its sha256 in the manifest; a mismatch,
    a missing manifest key, a manifest entry of the wrong JSON type, an
    unknown manifest format or preconditioner kind, a preconditioner spec
    without a matrix its kind needs, matrices whose count or shapes do not
    form one equation, or a preconditioner matrix that is not symmetric
    raise ``InstanceError``.
    """
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        manifest = json.load(fh)

    def json_object(value, what):
        if not isinstance(value, dict):
            raise InstanceError(f"{in_dir}: {what} is not a JSON object")
        return value

    if json_object(manifest, "the manifest").get("format") != "lrmeq-instance-v1":
        raise InstanceError(f"{in_dir}: unrecognized instance manifest")

    def required(mapping, key, what):
        try:
            return mapping[key]
        except (KeyError, TypeError):
            raise InstanceError(f"{in_dir}: manifest lacks {what}") from None

    files = json_object(required(manifest, "files", "'files'"), "'files'")
    hashes = json_object(manifest.get("sha256", {}), "'sha256'")

    def load(name):
        path = os.path.join(in_dir, required(files, name, f"the file entry {name!r}"))
        if _sha256(path) != hashes.get(name):
            raise InstanceError(f"{path}: content does not match its sha256 in the manifest")
        return _read_matrix(path)

    ell = required(manifest, "ell", "'ell'")
    if type(ell) is not int or ell < 1:   # a bool is an int too
        raise InstanceError(f"{in_dir}: 'ell' is {ell!r}, not a positive integer")
    try:
        op = MultitermOperator([load(f"A{i}") for i in range(ell)],
                               [load(f"B{i}") for i in range(ell)])
        F = LowRankRhs(np.atleast_2d(load("FL")), np.atleast_2d(load("FR")))
    except ValueError as exc:
        raise InstanceError(f"{in_dir}: {exc}") from None
    for side in "AB":
        count = sum(re.fullmatch(side + r"\d+", name) is not None for name in files)
        if count != ell:
            raise InstanceError(f"{in_dir}: 'ell' is {ell}, but 'files' holds {count} {side} terms")

    def check_shape(what, M, shape):
        if M.shape != shape:
            raise InstanceError(f"{in_dir}: {what} is {M.shape[0]}x{M.shape[1]}, "
                                f"the operator needs {shape[0]}x{shape[1]}")

    check_shape("the right-hand side", F, (op.m, op.n))
    # A and E act on the m side of X, B and D on the n side
    sides = {"A": op.m, "E": op.m, "B": op.n, "D": op.n}
    preconds = {}
    for label, entry in json_object(manifest.get("precond", {}), "'precond'").items():
        kind = required(entry, "kind", f"the {label!r} preconditioner's 'kind'")
        if not isinstance(kind, str) or kind not in _PRECOND_NEEDS:
            raise InstanceError(f"{in_dir}: the {label!r} preconditioner's kind {kind!r} is unknown")
        spec = {"kind": kind}
        what = f"the {label!r} preconditioner's 'matrices'"
        matrices = json_object(required(entry, "matrices", what), what)
        for key in _PRECOND_NEEDS[kind]:
            if matrices.get(key) is None:
                raise InstanceError(f"{in_dir}: manifest lacks the {label!r} preconditioner's {key}")
        for key, name in matrices.items():
            spec[key] = None if name is None else load(name)
            if spec[key] is not None and key in sides:
                what = f"the {label!r} preconditioner's {key}"
                check_shape(what, spec[key], (sides[key],) * 2)
                try:
                    numkit.check_symmetric(spec[key], name=what)
                except ValueError as exc:
                    raise InstanceError(f"{in_dir}: {exc}") from None
        preconds[label] = spec
    return ProblemInstance(
        op, F,
        p1=preconds.get("p1"), p2=preconds.get("p2"),
        meta=manifest.get("meta", {}),
    )
