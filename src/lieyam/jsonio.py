"""JSON file formats for algebras, representations, and operators.

Algebra files list structure constants sparsely::

    {"dim": 2,
     "basis": ["e1", "e2"],
     "binary":  [{"i": 0, "j": 1, "value": {"0": "1"}}],
     "ternary": [{"i": 0, "j": 1, "k": 1, "value": {"0": "1"}}]}

Indices are 0-based; only entries with i < j are required -- the loader
antisymmetrizes and rejects conflicting duplicates.  Rationals are
strings "p" or "p/q" (JSON integers are read too); polynomial scalars
serialize as {"poly": ["c0", "c1", ...]} (lowest degree first, degree at
most scalars.MAX_POLY_DEGREE).

A representation file names its algebra (inline object or path relative
to the file) and either gives rho/mu matrices explicitly or asks for a
special construction::

    {"algebra": "A2.json", "module_dim": 2, "special": "adjoint"}
    {"algebra": {...}, "module_dim": 2,
     "rho": [[["0","1"],["0","0"]], ...], "mu": [[[...], ...], ...]}

Matrices are arrays of rows with string-rational entries.  Operator
files are {"rows": r, "cols": c, "entries": [row-major strings]}.

Files are parsed into exact arrays (structure constants, rho and mu
tables, operators) and written from them.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .algebra import LieYamagutiAlgebra
from .errors import ConflictingEntryError, DimMismatchError, ParseError
from .linalg import Matrix
from .reps import LieYRepPair, Representation, adjoint_rep, coadjoint_rep
from .scalars import format_scalar, parse_scalar


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, over-long integers, deep nesting
        raise ParseError(f"{path}: {exc}") from exc


#: Largest `dim` of an algebra file, `module_dim` of a pair file and
#: `rows`/`cols` of an operator file (operators act on g or V).  The
#: structure-constant tables take dim^3 entries and the law checks run over
#: dim^5 basis tuples, so larger values are rejected before any allocation.
MAX_DIM = 16


def _int_field(obj, key, where, default=None, minimum=None, maximum=None):
    """The integer field `key` of a JSON object, read by `_int_value`; a
    missing field takes `default`."""
    return _int_value(obj.get(key, default), key, where, minimum, maximum)


def _int_value(value, key, where, minimum=None, maximum=None):
    """The integer `value` of a field or command-line option named `key`;
    anything else is a ParseError.

    Takes what int() takes (JSON integers, decimal strings) except bools
    and fractional floats.  Values outside [minimum, maximum] are a
    ParseError too.
    """
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise TypeError(value)
        out = int(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {key!r} must be an integer, got {value!r}") from exc
    if minimum is not None and out < minimum:
        raise ParseError(f"{where}: {key!r} must be >= {minimum}, got {out}")
    if maximum is not None and out > maximum:
        raise ParseError(f"{where}: {key!r} must be <= {maximum}, got {out}")
    return out


def _parse_value_vector(dim, value, where):
    if not isinstance(value, dict):
        raise ParseError(f"{where}: value must be an object mapping index -> rational")
    vec = np.zeros(dim, dtype=object)
    for key, sval in value.items():
        try:
            idx = int(key)
        except ValueError as exc:
            raise ParseError(f"{where}: bad component index {key!r}") from exc
        if not 0 <= idx < dim:
            raise ParseError(f"{where}: component index {idx} out of range")
        vec[idx] = parse_scalar(sval)
    return vec


def algebra_from_dict(data) -> LieYamagutiAlgebra:
    if not isinstance(data, dict) or "dim" not in data:
        raise ParseError("algebra object needs a 'dim' field")
    dim = _int_field(data, "dim", "algebra", minimum=0, maximum=MAX_DIM)
    names = data.get("basis")
    if names is not None and not (isinstance(names, list) and len(names) == dim
                                  and all(isinstance(n, str) for n in names)):
        raise ParseError(f"algebra: 'basis' must be an array of {dim} names")
    for key in ("binary", "ternary"):
        if not isinstance(data.get(key, []), list):
            raise ParseError(f"algebra: {key!r} must be an array")
    # the constants as object arrays, and which vectors a file entry has set
    binary, ternary = np.zeros((dim,) * 3, dtype=object), np.zeros((dim,) * 4, dtype=object)
    seen2, seen3 = np.zeros((dim,) * 2, dtype=bool), np.zeros((dim,) * 3, dtype=bool)

    def put(table, seen, idx, vec, where):
        """Set table[idx] = vec and its mirror (first two slots swapped) = -vec."""
        i, j, *rest = idx
        if not all(0 <= k < dim for k in idx):
            raise ParseError(f"{where}: index out of range")
        if i == j and (vec != 0).any():
            what = "bracket on a repeated index" if not rest else "ternary bracket on repeated first slots"
            raise ConflictingEntryError(f"{where}: nonzero {what}")
        mirror = (j, i, *rest)
        shown = ",".join(map(str, idx))
        if seen[idx] and (table[idx] - vec != 0).any():
            raise ConflictingEntryError(f"{where}: conflicting duplicate for ({shown})")
        table[idx], seen[idx] = vec, True
        if seen[mirror] and (table[mirror] + vec != 0).any():
            shown = ",".join(map(str, mirror))
            raise ConflictingEntryError(f"{where}: entry ({shown}) violates antisymmetry")
        table[mirror], seen[mirror] = -vec, True

    for pos, entry in enumerate(data.get("binary", [])):
        where = f"binary[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: needs integer 'i' and 'j'")
        idx = tuple(_int_field(entry, key, where) for key in "ij")
        put(binary, seen2, idx, _parse_value_vector(dim, entry.get("value", {}), where), where)
    for pos, entry in enumerate(data.get("ternary", [])):
        where = f"ternary[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: needs integer 'i', 'j', 'k'")
        idx = tuple(_int_field(entry, key, where) for key in "ijk")
        put(ternary, seen3, idx, _parse_value_vector(dim, entry.get("value", {}), where), where)
    return LieYamagutiAlgebra(dim, binary, ternary, basis_names=names)


def load_algebra(path) -> LieYamagutiAlgebra:
    return algebra_from_dict(_read_json(path))


def algebra_to_dict(alg: LieYamagutiAlgebra):
    b, t = alg.b_arr.tolist(), alg.t_arr.tolist()
    binary = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if any(v != 0 for v in b[i][j]):
                binary.append({
                    "i": i, "j": j,
                    "value": {str(k): format_scalar(v) for k, v in enumerate(b[i][j]) if v != 0},
                })
    ternary = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(alg.dim):
                if any(v != 0 for v in t[i][j][k]):
                    ternary.append({
                        "i": i, "j": j, "k": k,
                        "value": {str(l): format_scalar(v) for l, v in enumerate(t[i][j][k]) if v != 0},
                    })
    return {"dim": alg.dim, "basis": alg.basis_names, "binary": binary, "ternary": ternary}


def matrix_from_rows(rows, where="matrix") -> Matrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{where}: expected an array of rows")
    return Matrix([[parse_scalar(x) for x in r] for r in rows])


def array_to_text(arr):
    """An exact array's entries as nested lists of exact strings."""
    def text(x):
        return [text(y) for y in x] if isinstance(x, list) else format_scalar(x)
    return text(arr.tolist())


def load_operator(path) -> Matrix:
    data = _read_json(path)
    if not isinstance(data, dict) or "entries" not in data:
        raise ParseError(f"{path}: operator file needs 'rows', 'cols', 'entries'")
    rows, cols = (_int_field(data, key, path, minimum=0, maximum=MAX_DIM) for key in ("rows", "cols"))
    entries = data["entries"]
    if not isinstance(entries, list):
        raise ParseError(f"{path}: 'entries' must be an array")
    if entries and isinstance(entries[0], list):
        mat = matrix_from_rows(entries, where=path)
    else:
        if len(entries) != rows * cols:
            raise ParseError(f"{path}: need {rows * cols} entries, got {len(entries)}")
        mat = Matrix([[parse_scalar(entries[i * cols + j]) for j in range(cols)] for i in range(rows)], cols)
    if mat.rows != rows or mat.cols != cols:
        raise ParseError(f"{path}: entry grid does not match rows/cols")
    return mat


def operator_to_dict(mat: Matrix):
    return {"rows": mat.rows, "cols": mat.cols, "entries": array_to_text(mat.arr.ravel())}


def representation_from_dict(data, base_dir=".") -> tuple[LieYamagutiAlgebra, Representation]:
    if not isinstance(data, dict):
        raise ParseError("representation file must be a JSON object")
    algref = data.get("algebra")
    if isinstance(algref, str):
        alg = load_algebra(os.path.join(base_dir, algref))
    elif isinstance(algref, dict):
        alg = algebra_from_dict(algref)
    else:
        raise ParseError("representation file needs an 'algebra' (path or inline object)")
    special = data.get("special")
    if special == "adjoint":
        return alg, adjoint_rep(alg, check=False)
    if special == "coadjoint":
        return alg, coadjoint_rep(alg, check=False)
    if special == "zero":
        m = _int_field(data, "module_dim", "representation", default=alg.dim, minimum=0, maximum=MAX_DIM)
        return alg, Representation.zero(alg.dim, m)
    if special is not None:
        raise ParseError(f"unknown special representation {special!r}")
    m = _int_field(data, "module_dim", "representation", minimum=0, maximum=MAX_DIM)
    rho = data.get("rho")
    mu = data.get("mu")
    if not isinstance(rho, list) or len(rho) != alg.dim:
        raise ParseError("'rho' must list one matrix per basis vector")
    if not isinstance(mu, list) or len(mu) != alg.dim:
        raise ParseError("'mu' must be a dim x dim table of matrices")
    mats = [matrix_from_rows(r, where=f"rho[{i}]") for i, r in enumerate(rho)]
    for i, row in enumerate(mu):
        if not isinstance(row, list) or len(row) != alg.dim:
            raise ParseError(f"mu[{i}] must list dim matrices")
        mats.extend(matrix_from_rows(x, where=f"mu[{i}][{j}]") for j, x in enumerate(row))
    if any(mat.arr.shape != (m, m) for mat in mats):
        raise DimMismatchError(f"representation matrices must be {m}x{m}")
    # rho(e_0), ..., then mu(e_0, e_0), mu(e_0, e_1), ...
    table = np.stack([mat.arr for mat in mats]) if mats else np.zeros((0, m, m), dtype=object)
    n = alg.dim
    return alg, Representation(n, m, table[:n], table[n:].reshape(n, n, m, m))


def load_representation(path) -> tuple[LieYamagutiAlgebra, Representation]:
    """The (algebra, representation) of a file, its algebra path relative to the file."""
    return representation_from_dict(_read_json(path), base_dir=os.path.dirname(path) or ".")


def load_pair(path, validate=True) -> LieYRepPair:
    return LieYRepPair(*load_representation(path), validate=validate)


def pair_to_dict(pair: LieYRepPair):
    return {
        "algebra": algebra_to_dict(pair.algebra),
        "module_dim": pair.dim_v,
        "rho": array_to_text(pair.rep.rho_arr),
        "mu": array_to_text(pair.rep.mu_arr),
    }


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
