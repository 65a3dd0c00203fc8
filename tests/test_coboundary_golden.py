"""Golden coboundary matrices of the classical and the pair complex.

The classical coboundaries delta_1..delta_3 of a2, sl2, so3 and heis3,
each with its adjoint, coadjoint and 2-dim zero representation, and
delta_1..delta_2 of the 4-dim semidirect product a2 (+) ad with its
adjoint; the pair coboundaries delta_1..delta_3 of (a2, adjoint) and
(a2, coadjoint) and delta_1..delta_2 of (sl2, 2-dim zero rep).  Each
matrix is stored as its shape and its nonzero entries [row, col,
"value"] in row-major order; the rendering must match
coboundary.golden.json byte for byte.  Regenerate the file with

    PYTHONPATH=src python3 tests/test_coboundary_golden.py --write

only when a change to the coboundaries is intended.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from lieyam import LieYRepPair, Representation, adjoint_rep, coadjoint_rep, semidirect
from lieyam.paircomplex import pair_delta_matrix
from lieyam.search import catalog_algebra
from lieyam.yamaguti import delta_matrix

GOLDEN = Path(__file__).with_name("coboundary.golden.json")
REPS = (
    ("adjoint", adjoint_rep),
    ("coadjoint", coadjoint_rep),
    ("zero2", lambda alg: Representation.zero(alg.dim, 2)),
)


def _a2_ad():
    a2 = catalog_algebra("a2")
    return semidirect(a2, adjoint_rep(a2))


def _classical():
    for name in ("a2", "sl2", "so3", "heis3"):
        alg = catalog_algebra(name)
        for rep_name, build in REPS:
            yield name, rep_name, alg, build(alg), (1, 2, 3)
    sd = _a2_ad()
    yield "a2+ad", "adjoint", sd, adjoint_rep(sd), (1, 2)


def _pairs():
    a2, sl2 = catalog_algebra("a2"), catalog_algebra("sl2")
    yield "a2", "adjoint", LieYRepPair(a2, adjoint_rep(a2)), (1, 2, 3)
    yield "a2", "coadjoint", LieYRepPair(a2, coadjoint_rep(a2)), (1, 2, 3)
    yield "sl2", "zero2", LieYRepPair(sl2, Representation.zero(3, 2)), (1, 2)


def _record(complex_, algebra, rep, degree, mat):
    return {
        "complex": complex_,
        "algebra": algebra,
        "rep": rep,
        "degree": degree,
        "shape": [mat.rows, mat.cols],
        "nonzeros": [[i, j, str(Fraction(x))] for i, row in enumerate(mat.data)
                     for j, x in enumerate(row) if x != 0],
    }


def coboundary_cases():
    """One record per coboundary matrix, in a fixed order."""
    out = []
    for name, rep_name, alg, rep, degrees in _classical():
        for p in degrees:
            out.append(_record("classical", name, rep_name, p, delta_matrix(alg, rep, p)))
    for name, rep_name, pair, degrees in _pairs():
        for p in degrees:
            out.append(_record("pair", name, rep_name, p, pair_delta_matrix(pair, p)))
    return out


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_coboundaries_match_golden():
    assert render(coboundary_cases()) == GOLDEN.read_text()


def test_golden_is_not_trivial():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(records) == 4 * 3 * 3 + 2 + 3 + 3 + 2
    assert all(r["nonzeros"] for r in records if r["rep"] != "zero2")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_coboundary_golden.py --write")
    GOLDEN.write_text(render(coboundary_cases()))
