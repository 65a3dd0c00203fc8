"""Golden witnesses of the algebra, operator, form and deformation laws.

Seeded perturbations of valid data at dims 2, 3 and 4 (a2, sl2, so3,
their triple-system versions and the 4-dim semidirect product a2 (+) ad)
are run through every law that reports a first violating tuple:

* LY1-LY4, the homomorphism law and the Nijenhuis law;
* rb-binary/ternary, compatibility, the strong condition and the twist
  conditions;
* the rho/mu conditions of a Nijenhuis structure;
* invariance of a form and the transport identities of its index map;
* the pair-homomorphism law and the five first-order difference
  identities.

The witnesses (law, status, first violating tuple, exact residual) must
match law_witnesses.golden.json byte for byte.  Every operator has
Fraction entries, as the CLI's have.  Regenerate the file with

    PYTHONPATH=src python3 tests/test_law_golden.py --write

only when a change to the witnesses is intended.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from lieyam import LieYamagutiAlgebra, LieYRepPair, Matrix, adjoint_rep, coadjoint_rep, semidirect
from lieyam.algebra import homomorphism_witness, nijenhuis_witness
from lieyam.deform import (
    DeformationData,
    NijenhuisStructure,
    deformation_difference_report,
    nijenhuis_structure_report,
    trivial_deformation_from,
)
from lieyam.quadratic import QuadraticForm, invariance_transport, invariant_form_report
from lieyam.report import VerificationReport, _jsonable
from lieyam.reps import pair_homomorphism_witness
from lieyam.rotabaxter import (
    RelativeRBOperator,
    append_twist_conditions,
    compatibility_witness,
    relative_rb_report,
    strong_witness,
)
from lieyam.search import CATALOG_FORMS, catalog_algebra, search_rb_operators

GOLDEN = Path(__file__).with_name("law_witnesses.golden.json")
STEPS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
VALUES = (Fraction(-1), Fraction(0), Fraction(1))


def _a2_ad():
    a2 = catalog_algebra("a2")
    return semidirect(a2, adjoint_rep(a2))


ALGEBRAS = {
    "a2": lambda: catalog_algebra("a2"),
    "a2lts": lambda: catalog_algebra("a2lts"),
    "sl2": lambda: catalog_algebra("sl2"),
    "so3": lambda: catalog_algebra("so3"),
    "sl2lts": lambda: catalog_algebra("sl2lts"),
    "a2+ad": _a2_ad,
}


def _frac(m: Matrix) -> Matrix:
    return Matrix([[Fraction(x) for x in row] for row in m.data], m.cols)


def _random_matrix(rng, rows, cols, values=VALUES):
    return Matrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)], cols)


def _bump(m: Matrix, rng, times=1) -> Matrix:
    rows = [[Fraction(x) for x in row] for row in m.data]
    for _ in range(times):
        rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice(STEPS)
    return Matrix(rows, m.cols)


def _perturbed_algebra(alg, rng, ternary_only=False):
    n = alg.dim
    binary, ternary = np.array(alg.b_arr, dtype=object), np.array(alg.t_arr, dtype=object)
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(n), 2)
        step = rng.choice(STEPS)
        if not ternary_only and rng.random() < 0.4:
            out = rng.randrange(n)
            binary[i, j, out] += step
            binary[j, i, out] -= step
        else:
            k, out = rng.randrange(n), rng.randrange(n)
            ternary[i, j, k, out] += step
            ternary[j, i, k, out] -= step
    return LieYamagutiAlgebra(n, binary, ternary)


def _checks(report: VerificationReport):
    return report.to_dict()["checks"]


def _pairs():
    out = {}
    for name in ("a2", "a2lts", "sl2", "a2+ad"):
        alg = ALGEBRAS[name]()
        out[f"{name}/adjoint"] = LieYRepPair(alg, adjoint_rep(alg))
        if name in ("a2", "sl2"):
            out[f"{name}/coadjoint"] = LieYRepPair(alg, coadjoint_rep(alg))
    return out


def _rb_operators(pair):
    """Nonzero Rota-Baxter operators of a small grid, with Fraction entries."""
    values = VALUES if pair.dim_g * pair.dim_v <= 4 else (Fraction(0), Fraction(1))
    return [_frac(t) for t in search_rb_operators(pair, values, limit=12) if not t.is_zero()]


def axiom_cases():
    out = []
    for a, name in enumerate(("a2", "sl2", "so3", "a2+ad")):
        alg = ALGEBRAS[name]()
        for k in range(4):
            bad = _perturbed_algebra(alg, random.Random(1000 + 10 * a + k))
            out.append({"law": "axioms", "algebra": name, "case": k,
                        "checks": _checks(bad.check_axioms())})
    return out


def homomorphism_cases():
    out = []
    for a, name in enumerate(("a2", "a2lts", "sl2", "sl2lts", "a2+ad")):
        alg = ALGEBRAS[name]()
        n = alg.dim
        for k in range(3):
            rng = random.Random(2000 + 10 * a + k)
            phi = Matrix.identity(n).scale(Fraction(2)) if k == 0 else _bump(Matrix.identity(n), rng)
            out.append({"law": "homomorphism", "algebra": name, "case": k,
                        "witness": _jsonable(homomorphism_witness(phi, alg, alg))})
    return out


def nijenhuis_cases():
    """Every N is Nijenhuis on a2, a2lts and sl2lts, so their triple-system
    versions get a perturbed ternary bracket: the binary law then holds
    and the ternary one is what fails."""
    out = []
    for a, name in enumerate(("a2", "a2lts", "sl2", "sl2lts", "a2+ad")):
        alg = ALGEBRAS[name]()
        for k in range(3):
            rng = random.Random(3000 + 10 * a + k)
            if name.endswith("lts"):
                alg = _perturbed_algebra(ALGEBRAS[name](), rng, ternary_only=True)
            nmap = _random_matrix(rng, alg.dim, alg.dim)
            out.append({"law": "nijenhuis", "algebra": name, "case": k,
                        "witness": _jsonable(nijenhuis_witness(alg, nmap))})
    return out


def rb_cases(pairs):
    out = []
    for p, (key, pair) in enumerate(pairs.items()):
        for k in range(3):
            tmap = _random_matrix(random.Random(4000 + 10 * p + k), pair.dim_g, pair.dim_v)
            out.append({"law": "rb", "pair": key, "case": k,
                        "checks": _checks(relative_rb_report(pair, tmap))})
    return out


def operator_cases(pairs):
    """Compatibility, the strong condition and the twist conditions on Rota-Baxter T."""
    out = []
    for p, key in enumerate(("a2/adjoint", "a2/coadjoint", "a2lts/adjoint", "sl2/adjoint")):
        pair = pairs[key]
        ops = _rb_operators(pair)
        rng = random.Random(5000 + p)
        for k in range(4):
            t1, t2 = rng.sample(ops, 2)
            out.append({"law": "compatible", "pair": key, "case": k,
                        "witness": _jsonable(compatibility_witness(pair, t1, t2))})
        for k in range(3):
            tmap = rng.choice(ops)
            smap = _random_matrix(rng, pair.dim_v, pair.dim_v)
            wit = strong_witness(pair, RelativeRBOperator(pair, tmap), smap)
            out.append({"law": "strong", "pair": key, "case": k, "witness": _jsonable(wit)})
        for k in range(3):
            tmap = rng.choice(ops)
            smap = _random_matrix(rng, pair.dim_v, pair.dim_v)
            nmap = _random_matrix(rng, pair.dim_g, pair.dim_g)
            report = VerificationReport(subject="twist")
            append_twist_conditions(report, pair, tmap, smap, nmap)
            out.append({"law": "twist", "pair": key, "case": k, "checks": _checks(report)})
    return out


def structure_cases(pairs):
    out = []
    for p, (key, pair) in enumerate(pairs.items()):
        n, m = pair.dim_g, pair.dim_v
        for k in range(3):
            rng = random.Random(6000 + 10 * p + k)
            lam = rng.choice(STEPS)
            nmap = Matrix.identity(n).scale(lam) if k else _random_matrix(rng, n, n)
            smap = _bump(Matrix.identity(m).scale(lam), rng)
            out.append({"law": "structure", "pair": key, "case": k,
                        "checks": _checks(nijenhuis_structure_report(pair, nmap, smap))})
    return out


def form_cases():
    out = []
    for a, name in enumerate(("so3", "sl2", "so3lts", "sl2lts")):
        alg = catalog_algebra(name)
        good = _frac(CATALOG_FORMS[name])
        for k in range(3):
            rng = random.Random(7000 + 10 * a + k)
            i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
            rows = [list(row) for row in good.data]
            step = rng.choice(STEPS)
            rows[i][j] += step
            if i != j:
                rows[j][i] += step
            b = Matrix(rows)
            out.append({"law": "invariance", "algebra": name, "case": k,
                        "checks": _checks(invariant_form_report(alg, b))})
            qf = QuadraticForm(alg, good)
            qf.b_sharp = _bump(qf.b_sharp, rng)
            out.append({"law": "transport", "algebra": name, "case": k,
                        "checks": _checks(invariance_transport(qf, raise_on_failure=False))})
    return out


def pair_homomorphism_cases(pairs):
    out = []
    keys = list(pairs)
    for p, key in enumerate(keys):
        src = pairs[key]
        dst = pairs[key.replace("adjoint", "coadjoint")] if key.endswith("/adjoint") and \
            key.replace("adjoint", "coadjoint") in pairs else src
        for k in range(3):
            rng = random.Random(8000 + 10 * p + k)
            phi = Matrix.identity(src.dim_g)
            if k == 0:
                phi = _bump(phi, rng)
            elif k == 1 and key.startswith("a2lts"):
                phi = phi.scale(Fraction(2))
            psi = _bump(Matrix.identity(src.dim_v), rng, times=k + 1)
            for target, label in ((src, "self"), (dst, "dual")):
                out.append({"law": "pair-homomorphism", "pair": key, "target": label, "case": k,
                            "witness": _jsonable(pair_homomorphism_witness(phi, psi, src, target))})
    return out


def difference_cases(pairs):
    out = []
    for p, key in enumerate(("a2/adjoint", "a2/coadjoint", "sl2/adjoint", "a2+ad/adjoint")):
        pair = pairs[key]
        n, m = pair.dim_g, pair.dim_v
        for k in range(3):
            rng = random.Random(9000 + 10 * p + k)
            lam = rng.choice(STEPS)
            ns = NijenhuisStructure(pair, Matrix.identity(n).scale(lam), Matrix.identity(m).scale(lam))
            d = trivial_deformation_from(pair, ns)
            nmap, smap = ns.nmap, ns.smap
            if k != 1:
                nmap = _bump(nmap, rng)
            if k != 2:
                smap = _bump(smap, rng)
            report = deformation_difference_report(pair, d, DeformationData.zero(pair), nmap, smap)
            out.append({"law": "difference", "pair": key, "case": k, "checks": _checks(report)})
    return out


def witness_cases():
    """One record per seeded case, in a fixed order."""
    pairs = _pairs()
    return (axiom_cases() + homomorphism_cases() + nijenhuis_cases() + rb_cases(pairs)
            + operator_cases(pairs) + structure_cases(pairs) + form_cases()
            + pair_homomorphism_cases(pairs) + difference_cases(pairs))


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_law_witnesses_match_golden():
    assert render(witness_cases()) == GOLDEN.read_text()


def test_golden_covers_every_law():
    failing = set()
    for line in GOLDEN.read_text().splitlines():
        case = json.loads(line)
        for check in case.get("checks", []):
            if check["status"] == "fail":
                failing.add((case["law"], check["name"]))
        wit = case.get("witness")
        if wit is not None:
            failing.add((case["law"], wit.get("identity", "")))
    assert failing >= {
        ("axioms", "LY1"), ("axioms", "LY2"), ("axioms", "LY3"), ("axioms", "LY4"),
        ("homomorphism", "binary"), ("homomorphism", "ternary"),
        ("nijenhuis", "binary"), ("nijenhuis", "ternary"),
        ("rb", "rb-binary"), ("rb", "rb-ternary"),
        ("compatible", "binary"), ("compatible", "ternary-12"), ("compatible", "ternary-21"),
        ("strong", ""),
        ("twist", "twist-compat"), ("twist", "deformed-binary"), ("twist", "deformed-ternary"),
        ("structure", "rho-compat"), ("structure", "mu-compat"),
        ("invariance", "binary-invariance"), ("invariance", "ternary-invariance"),
        ("transport", "transport-ad"), ("transport", "transport-right"),
        ("transport", "transport-left"),
        ("pair-homomorphism", "binary"), ("pair-homomorphism", "ternary"),
        ("pair-homomorphism", "rho"), ("pair-homomorphism", "mu"),
        ("difference", "diff-binary"), ("difference", "diff-ternary"),
        ("difference", "diff-rho"), ("difference", "diff-mu"), ("difference", "diff-D"),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_law_golden.py --write")
    GOLDEN.write_text(render(witness_cases()))
