"""Golden witnesses of the representation and derived-identity reports.

The adjoint and coadjoint representations of a2, so3, sl2 and the
4-dim semidirect product a2 (+) ad are perturbed at a few seeded entries
of rho and mu; the `checks` lists of check_representation and
check_derived_identities on each perturbation must match
rep_witnesses.golden.json byte for byte (law, status, first violating
tuple and exact residual).  Regenerate the file with

    PYTHONPATH=src python3 tests/test_rep_golden.py --write

only when a change to the witnesses is intended.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from lieyam import (
    Representation,
    adjoint_rep,
    check_derived_identities,
    check_representation,
    coadjoint_rep,
    semidirect,
)
from lieyam.search import catalog_algebra

GOLDEN = Path(__file__).with_name("rep_witnesses.golden.json")
# der1 holds for every representation of a2, so3 and sl2 (on their basis
# tuples the cyclic sum cancels by the skew-symmetry of D), so the
# semidirect product is what makes it fail.
ALGEBRAS = (
    ("a2", lambda: catalog_algebra("a2")),
    ("so3", lambda: catalog_algebra("so3")),
    ("sl2", lambda: catalog_algebra("sl2")),
    ("a2+ad", lambda: semidirect(catalog_algebra("a2"), adjoint_rep(catalog_algebra("a2")))),
)
BASES = (("adjoint", adjoint_rep), ("coadjoint", coadjoint_rep))
CASES_PER_REP = 3
STEPS = (Fraction(1), Fraction(-1), Fraction(1, 2))


def _perturbed(rep: Representation, rng: random.Random) -> Representation:
    n, dv = rep.algebra_dim, rep.module_dim
    rho, mu = np.array(rep.rho_arr, dtype=object), np.array(rep.mu_arr, dtype=object)
    for _ in range(rng.randint(1, 3)):
        r, c, step = rng.randrange(dv), rng.randrange(dv), rng.choice(STEPS)
        if rng.random() < 0.4:
            i = rng.randrange(n)
            rho[i, r, c] += step
        else:
            i, j = rng.randrange(n), rng.randrange(n)
            mu[i, j, r, c] += step
    return Representation(n, dv, rho, mu)


def witness_cases():
    """One record per seeded perturbation, in a fixed order."""
    out = []
    for a, (name, make) in enumerate(ALGEBRAS):
        alg = make()
        for b, (base, build) in enumerate(BASES):
            rep = build(alg)
            for k in range(CASES_PER_REP):
                cand = _perturbed(rep, random.Random(100 * a + 10 * b + k))
                out.append({
                    "algebra": name,
                    "rep": base,
                    "case": k,
                    "representation": check_representation(alg, cand).to_dict()["checks"],
                    "derived": check_derived_identities(alg, cand).to_dict()["checks"],
                })
    return out


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_rep_witnesses_match_golden():
    assert render(witness_cases()) == GOLDEN.read_text()


def test_golden_covers_every_law():
    failing = {c["name"] for line in GOLDEN.read_text().splitlines()
               for key in ("representation", "derived") for c in json.loads(line)[key]
               if c["status"] == "fail"}
    assert failing == {"rep1", "rep2", "rep3", "rep4", "rep5", "der1", "der2", "der3"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_rep_golden.py --write")
    GOLDEN.write_text(render(witness_cases()))
