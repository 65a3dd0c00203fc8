"""Golden values of the pair complex's direct coboundary formulas and of a
deformation payload.

pair_delta_direct at degrees 1 and 2 on (a2, adjoint), (a2, coadjoint),
(sl2, 2-dim zero rep) and on heis3 with its coadjoint in a seeded basis
of determinant 2 (so that some structure constants are not integers),
each on 3 seeded cochains: one integer-valued, two Fraction-valued.  The
last two records are the JSON payloads, as `lieyam deform --out` writes
them, of the trivial deformations of fixtures/A2-adjoint.json generated
by the Nijenhuis structure (fixtures/N-lam2.json, fixtures/S-lam2.json),
whose data vanish, and by N = S = 3/2 Id, whose data do not.  The
rendering must match direct.golden.json byte for byte.  Regenerate the
file with

    PYTHONPATH=src python3 tests/test_direct_golden.py --write

only when a change to the direct formulas or the payload is intended.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from lieyam import LieYRepPair, Matrix, Representation, adjoint_rep, coadjoint_rep
from lieyam.cli import _deformation_to_dict
from lieyam.deform import NijenhuisStructure, trivial_deformation_from
from lieyam.jsonio import load_operator, load_pair
from lieyam.paircomplex import PairCochain, pair_cochain_dim, pair_delta_direct
from lieyam.search import catalog_algebra, change_basis, random_invertible

GOLDEN = Path(__file__).with_name("direct.golden.json")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 20250810


def _rational_basis(name, seed):
    """A catalog algebra in a seeded basis of determinant 2 (as in test_search)."""
    alg = catalog_algebra(name)
    p = random_invertible(alg.dim, random.Random(seed)) * Matrix.diag([1] * (alg.dim - 1) + [2])
    return change_basis(alg, p)


def _pairs():
    a2, sl2 = catalog_algebra("a2"), catalog_algebra("sl2")
    yield "a2", "adjoint", LieYRepPair(a2, adjoint_rep(a2))
    yield "a2", "coadjoint", LieYRepPair(a2, coadjoint_rep(a2))
    yield "sl2", "zero2", LieYRepPair(sl2, Representation.zero(3, 2))
    heis = _rational_basis("heis3", 0)
    yield "heis3-det2", "coadjoint", LieYRepPair(heis, coadjoint_rep(heis))


def _text(entries):
    return [str(Fraction(x)) for x in entries]


def _cochain(pair, degree, rng, rational):
    size = pair_cochain_dim(pair.dim_g, pair.dim_v, degree)
    if rational:
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(size)]
    else:
        coords = [rng.randint(-3, 3) for _ in range(size)]
    return PairCochain.unflatten(degree, pair.dim_g, pair.dim_v, coords)


def direct_cases():
    """One record per (pair, degree, cochain), in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for name, rep_name, pair in _pairs():
        for degree in (1, 2):
            for k in range(3):
                c = _cochain(pair, degree, rng, rational=k > 0)
                out.append({
                    "algebra": name,
                    "rep": rep_name,
                    "degree": degree,
                    "cochain": _text(c.flatten()),
                    "delta": _text(pair_delta_direct(pair, c).flatten()),
                })
    return out


def deformation_cases():
    pair = load_pair(str(FIXTURES / "A2-adjoint.json"))
    lam = Matrix.identity(2).scale(Fraction(3, 2))
    out = []
    for nmap, smap in ((load_operator(str(FIXTURES / "N-lam2.json")),
                        load_operator(str(FIXTURES / "S-lam2.json"))), (lam, lam)):
        ns = NijenhuisStructure(pair, nmap, smap)
        out.append({"deformation": _deformation_to_dict(trivial_deformation_from(pair, ns))})
    return out


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_direct_formulas_match_golden():
    assert render(direct_cases() + deformation_cases()) == GOLDEN.read_text()


def test_golden_is_not_trivial():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(records) == 4 * 2 * 3 + 2
    deltas = [r["delta"] for r in records[:-2]]
    assert all(any(x != "0" for x in d) for d in deltas)
    assert any("/" in x for d in deltas for x in d)
    payload = records[-1]["deformation"]
    assert any("/" in x for x in payload["phi"] + payload["phi2"])
    assert any(x != "0" for mat in payload["varrho"] for row in mat for x in row)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_direct_golden.py --write")
    GOLDEN.write_text(render(direct_cases() + deformation_cases()))
