"""Expected answers for the benchmark, cached in expected.json.

Cohomology: for each catalog instance in the cohomology mix, the coboundary
matrices of the catalog basis are assembled and their ranks are taken by
sympy's DomainMatrix over QQ, an elimination independent of lieyam's:

    dim H^p = (cols(d_p) - rank d_p) - rank d_(p-1)    (rank d_0 = 0)

Dimensions are basis invariants, so they are the expected answers for every
basis the generator produces.

Search: counts of `search rbo` / `search rbn` on the catalog pairs,
recorded once with lieyam's own search functions.  Signed permutations of
the basis permute a symmetric value grid, so the counts hold for every seed.

Run `python3 perfbench/oracle.py` from the repository root (with `src` on
PYTHONPATH) to rebuild expected.json; it takes under a minute.
"""

from __future__ import annotations

import json
import os
import sys

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from lieyam.paircomplex import pair_delta_matrix  # noqa: E402
from lieyam.reps import LieYRepPair, Representation, adjoint_rep, coadjoint_rep  # noqa: E402
from lieyam.search import search_rb_operators, search_rbn_triples  # noqa: E402
from lieyam.yamaguti import delta_matrix  # noqa: E402


def catalog_pair(inst, special) -> LieYRepPair:
    alg = gen.instance_algebra(inst)
    if special == "adjoint":
        rep = adjoint_rep(alg)
    elif special == "coadjoint":
        rep = coadjoint_rep(alg)
    else:
        rep = Representation.zero(alg.dim, gen.module_dim(alg.dim, special))
    return LieYRepPair(alg, rep)


def sympy_rank(mat) -> int:
    if mat.rows == 0 or mat.cols == 0:
        return 0
    rows = [[QQ(int(x.numerator), int(x.denominator)) for x in row]
            for row in mat.rational_rows()]
    return DomainMatrix(rows, (mat.rows, mat.cols), QQ).rank()


def cohomology_dim(inst, special, complex_, degree) -> int:
    pair = catalog_pair(inst, special)

    def coboundary(p):
        if complex_ == "pair":
            return pair_delta_matrix(pair, p, cap=p + 1)
        return delta_matrix(pair.algebra, pair.rep, p, cap=max(4, p + 1))

    dp = coboundary(degree)
    dim = dp.cols - sympy_rank(dp)
    if degree > 1:
        dim -= sympy_rank(coboundary(degree - 1))
    return dim


def search_count(what, inst, special, grid, limit) -> int:
    pair = catalog_pair(inst, special)
    values = tuple(int(v) for v in grid.split(","))
    if what == "rbo":
        return len(search_rb_operators(pair, values, limit=limit))
    return len(search_rbn_triples(pair, values, limit=limit))


def cohomology_cases():
    return sorted({(inst, sp, cx, deg) for inst, sp, _, cx, deg, _ in gen.COHOMOLOGY_MIX})


def search_cases():
    return sorted({(what, inst, sp, grid, limit) for what, inst, sp, grid, limit, _ in gen.SEARCH_MIX
                   if what != "quadratic"}, key=str)


def build(cohomology=None, search=None):
    out = {"cohomology": {}, "search": {}}
    for case in cohomology if cohomology is not None else cohomology_cases():
        out["cohomology"][gen.cohomology_key(*case)] = cohomology_dim(*case)
        print("cohomology", case, out["cohomology"][gen.cohomology_key(*case)], flush=True)
    for case in search if search is not None else search_cases():
        out["search"][gen.search_key(*case)] = search_count(*case)
        print("search", case, out["search"][gen.search_key(*case)], flush=True)
    return out


def main():
    data = build()
    with open(gen.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
