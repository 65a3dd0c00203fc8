"""Golden witnesses of the laws over the polynomial ring Q[t].

Seeded failures of the identities that are decided as polynomials in t:

* the t-family of a trivial deformation with one perturbed entry of phi,
  phi1, phi2, varrho, varpi1 or varpi2: its axioms LY1-LY4 and its
  representation conditions rep1-rep5 (linear_deformation_report);
* equivalence_witness with a perturbed N or S, or with the true (N, S)
  against a perturbed deformation: the pair-homomorphism law of
  (Id + tN, Id + tS) from the family to the undeformed pair;
* `lieyam check algebra` and `lieyam check pair` on pair files whose
  structure constants and rho/mu tables are genuine {"poly": ...}
  scalars: the t-families above, written out as files.

The pairs are a2 with its adjoint and coadjoint representation, in the
catalog basis and in a seeded basis of determinant 1/2 (fractional
structure constants), and the 4-dim semidirect product a2 (+) ad with
its adjoint.  The Nijenhuis structures are lambda Id on both sides, and
N = S = 2 E_12 on a2 with its adjoint.  The checks (law, status, first
violating tuple, exact residual) must match poly_witnesses.golden.json
byte for byte.  Regenerate the file with

    PYTHONPATH=src python3 tests/test_poly_golden.py --write

only when a change to the witnesses is intended.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from lieyam import LieYRepPair, Matrix, adjoint_rep, coadjoint_rep, semidirect
from lieyam.cli import main
from lieyam.deform import (
    DeformationData,
    NijenhuisStructure,
    deformed_pair_structures,
    equivalence_witness,
    linear_deformation_report,
    trivial_deformation_from,
)
from lieyam.jsonio import dump_json, pair_to_dict
from lieyam.report import _jsonable
from lieyam.search import catalog_algebra, change_basis, random_invertible

GOLDEN = Path(__file__).with_name("poly_witnesses.golden.json")
STEPS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
FIELDS = ("phi", "phi1", "phi2", "varrho", "varpi1", "varpi2")
LAMBDAS = (Fraction(3, 2), Fraction(-2))


def _rational_a2():
    """a2 in the inverse of a seeded basis of determinant 2, as
    tests/test_search.py builds it.  a2 keeps integral constants in every
    integral basis ([Pe1, Pe2] = det(P) e1), so it takes the inverse."""
    alg = catalog_algebra("a2")
    p = random_invertible(alg.dim, random.Random(1)) * Matrix.diag([1, 2])
    moved = change_basis(alg, p.invert())
    assert any(isinstance(x, Fraction) for x in (*moved.b_arr.ravel(), *moved.t_arr.ravel()))
    return moved


def _pairs():
    a2, a2q = catalog_algebra("a2"), _rational_a2()
    sd = semidirect(a2, adjoint_rep(a2))
    return {
        "a2/adjoint": LieYRepPair(a2, adjoint_rep(a2)),
        "a2/coadjoint": LieYRepPair(a2, coadjoint_rep(a2)),
        "a2-half/adjoint": LieYRepPair(a2q, adjoint_rep(a2q)),
        "a2-half/coadjoint": LieYRepPair(a2q, coadjoint_rep(a2q)),
        "a2+ad/adjoint": LieYRepPair(sd, adjoint_rep(sd)),
    }


def _structures(key, pair):
    """(label, NijenhuisStructure) of the pair, in a fixed order."""
    n, m = pair.dim_g, pair.dim_v
    lams = LAMBDAS[:1] if pair.dim_g > 2 else LAMBDAS
    out = [(f"lambda={lam}", NijenhuisStructure(pair, Matrix.identity(n).scale(lam),
                                                Matrix.identity(m).scale(lam))) for lam in lams]
    if key == "a2/adjoint":
        e12 = Matrix([[0, 2], [0, 0]])
        out.append(("2E12", NijenhuisStructure(pair, e12, e12)))
    return out


def _bump(m: Matrix, rng) -> Matrix:
    rows = [[Fraction(x) for x in row] for row in m.data]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice(STEPS)
    return Matrix(rows, m.cols)


def _perturbed(d: DeformationData, field, rng) -> DeformationData:
    """d with one seeded entry of `field` moved by a step; phi, phi1 and phi2
    keep their antisymmetry in the first two slots (the mirror moves too)."""
    arr = np.array(getattr(d, field), dtype=object)
    idx = [rng.randrange(k) for k in arr.shape]
    step = rng.choice(STEPS)
    if field.startswith("phi"):
        idx[:2] = rng.sample(range(arr.shape[0]), 2)
        arr[(idx[1], idx[0], *idx[2:])] -= step
    arr[tuple(idx)] += step
    return DeformationData(**{f: arr if f == field else getattr(d, f) for f in FIELDS})


def _checks(report):
    return report.to_dict()["checks"]


def family_cases(pairs):
    out = []
    for p, (key, pair) in enumerate(pairs.items()):
        for s, (label, ns) in enumerate(_structures(key, pair)):
            d = trivial_deformation_from(pair, ns)
            for f, field in enumerate(FIELDS):
                rng = random.Random(11000 + 100 * p + 10 * s + f)
                report = linear_deformation_report(pair, _perturbed(d, field, rng))
                out.append({"law": "t-family", "pair": key, "structure": label, "perturbed": field,
                            "checks": _checks(report)})
    return out


def equivalence_cases(pairs):
    """(Id + tN, Id + tS) from the family of d to the undeformed pair: with N,
    S or both bumped, and with the true (N, S) against a perturbed d."""
    out = []
    for p, (key, pair) in enumerate(pairs.items()):
        zero = DeformationData.zero(pair)
        for s, (label, ns) in enumerate(_structures(key, pair)):
            d = trivial_deformation_from(pair, ns)
            rng = random.Random(12000 + 100 * p + 10 * s)
            for bumped in ("N", "S", "N+S"):
                nmap = _bump(ns.nmap, rng) if "N" in bumped else ns.nmap
                smap = _bump(ns.smap, rng) if "S" in bumped else ns.smap
                wit = equivalence_witness(pair, d, zero, nmap, smap)
                out.append({"law": "equivalence", "pair": key, "structure": label, "perturbed": bumped,
                            "witness": _jsonable(wit)})
            for field in FIELDS:
                wit = equivalence_witness(pair, _perturbed(d, field, rng), zero, ns.nmap, ns.smap)
                out.append({"law": "equivalence", "pair": key, "structure": label, "perturbed": field,
                            "witness": _jsonable(wit)})
    return out


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *argv])
    return code, json.loads(out.getvalue())["checks"]


def file_cases(pairs):
    """The t-families of the first structure of every pair as pair files with
    {"poly": ...} scalars: valid and with phi, phi1 or varpi1 perturbed at
    dim 2, with phi perturbed on a2 (+) ad (at dim 2, LY1 and LY2 hold for
    every antisymmetric bracket)."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for p, (key, pair) in enumerate(pairs.items()):
            label, ns = _structures(key, pair)[0]
            d = trivial_deformation_from(pair, ns)
            rng = random.Random(13000 + p)
            for field in (None, "phi", "phi1", "varpi1") if pair.dim_g == 2 else ("phi",):
                alg_t, rep_t = deformed_pair_structures(
                    pair, d if field is None else _perturbed(d, field, rng))
                path = Path(tmp, f"family-{p}-{field}.json")
                data = pair_to_dict(LieYRepPair(alg_t, rep_t, validate=False))
                assert "poly" in json.dumps(data)
                dump_json(data, path)
                dump_json(data["algebra"], path.with_suffix(".algebra.json"))
                for kind, target in (("algebra", path.with_suffix(".algebra.json")), ("pair", path)):
                    code, checks = _run_cli(["check", kind, str(target)])
                    out.append({"law": f"check {kind}", "pair": key, "structure": label,
                                "perturbed": field, "exit": code, "checks": checks})
    return out


def witness_cases():
    """One record per seeded case, in a fixed order."""
    pairs = _pairs()
    return family_cases(pairs) + equivalence_cases(pairs) + file_cases(pairs)


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_poly_witnesses_match_golden():
    assert render(witness_cases()) == GOLDEN.read_text()


def test_golden_fails_every_polynomial_check():
    """Every law decided over Q[t] fails somewhere in the golden file.  The
    D identity of the pair homomorphism is left out: over derived operators
    it follows from the binary, rho and mu identities, so it never fails
    first."""
    failing = set()
    for line in GOLDEN.read_text().splitlines():
        case = json.loads(line)
        for check in case.get("checks", []):
            if check["status"] == "fail":
                failing.add((case["law"], check["name"]))
        if case.get("witness") is not None:
            failing.add((case["law"], case["witness"]["identity"]))
    family = {f"t-family {law}" for law in ("LY1", "LY2", "LY3", "LY4")}
    family |= {f"t-family rep{k}" for k in range(1, 6)}
    assert failing >= {("t-family", name) for name in family}
    assert failing >= {("equivalence", name) for name in ("binary", "ternary", "rho", "mu")}
    assert failing >= {("check algebra", law) for law in ("LY1", "LY2", "LY3", "LY4")}
    assert failing >= {("check pair", law) for law in ("LY1", "LY2", "LY3", "LY4")}
    assert failing >= {("check pair", f"rep{k}") for k in range(1, 6)}
    assert failing >= {("check pair", f"der{k}") for k in range(1, 4)}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_poly_golden.py --write")
    GOLDEN.write_text(render(witness_cases()))
