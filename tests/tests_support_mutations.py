"""Deterministic mutation families for the negative-control suite.

Each generated case is a small perturbation of a verified-valid fixture
together with the verdict of the corresponding checker.  The suite is
deterministic for a fixed Random instance, and the acceptance test
asserts that every one of the 100 cases fails its check.
"""

import random

import numpy as np

from lieyam import (
    LieYamagutiAlgebra,
    LieYRepPair,
    Matrix,
    Representation,
    adjoint_rep,
    check_derived_identities,
    check_representation,
)
from lieyam.algebra import is_nijenhuis
from lieyam.deform import DeformationData, linear_deformation_report
from lieyam.linalg import exact
from lieyam.quadratic import QuadraticForm, is_rb_nijenhuis, is_skew_endomorphism
from lieyam.rotabaxter import is_relative_rb
from lieyam.search import catalog_algebra


def _mutate_ternary(alg, i, j, k, out, delta):
    tern = np.array(alg.t_arr, dtype=object)
    tern[i, j, k, out] += delta
    tern[j, i, k, out] -= delta
    return LieYamagutiAlgebra(alg.dim, alg.b_arr, tern)


def _mutate_binary(alg, i, j, out, delta):
    binary = np.array(alg.b_arr, dtype=object)
    binary[i, j, out] += delta
    binary[j, i, out] -= delta
    return LieYamagutiAlgebra(alg.dim, binary, alg.t_arr)


def random_noncocycle_deformation(pair: LieYRepPair, rng: random.Random) -> DeformationData:
    """A first-order ternary perturbation that is not a deformation."""
    n = pair.dim_g
    d = DeformationData.zero(pair)
    flat = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    i, j = 0, 1
    k = rng.randrange(n)
    out = rng.randrange(n)
    delta = rng.choice((1, -1, 2))
    flat[i][j][k][out] = delta
    flat[j][i][k][out] = -delta
    phi1 = exact(flat)
    return DeformationData(d.phi, phi1, d.phi2, d.varrho, d.varpi1, d.varpi2)


def mutation_cases(rng: random.Random):
    """Exactly 100 (label, failed_as_expected) entries."""
    so3 = catalog_algebra("so3")
    sl2 = catalog_algebra("sl2")
    a2 = catalog_algebra("a2")
    pair_a2 = LieYRepPair(a2, adjoint_rep(a2))
    cases = []

    # 30 ternary perturbations of valid 3-dim algebras
    for idx in range(30):
        alg = so3 if idx % 2 == 0 else sl2
        i, j = 0, 1 if rng.random() < 0.5 else 2
        if i == j:
            j = 2
        k, out = rng.randrange(3), rng.randrange(3)
        delta = rng.choice((1, -1, 2))
        mutated = _mutate_ternary(alg, i, j, k, out, delta)
        cases.append((f"ternary[{i}{j}{k}->{out}]+{delta}", not mutated.check_axioms().passed))

    # 20 binary perturbations
    for idx in range(20):
        alg = so3 if idx % 2 == 0 else sl2
        j = rng.choice((1, 2))
        out = rng.randrange(3)
        delta = rng.choice((1, -1, 2))
        mutated = _mutate_binary(alg, 0, j, out, delta)
        cases.append((f"binary[0{j}->{out}]+{delta}", not mutated.check_axioms().passed))

    # 15 representation-table perturbations of the adjoint of so3
    adj3 = adjoint_rep(so3)
    for _ in range(15):
        which = rng.choice(("rho", "mu"))
        r, c = rng.randrange(3), rng.randrange(3)
        delta = rng.choice((1, -1))
        bump = [[0] * 3 for _ in range(3)]
        bump[r][c] = delta
        if which == "rho":
            rho = np.array(adj3.rho_arr, dtype=object)
            ix = rng.randrange(3)
            rho[ix] += np.array(bump)
            cand = Representation(3, 3, rho, adj3.mu_arr)
            label = f"rho[{ix}][{r}{c}]+{delta}"
        else:
            i, j = rng.randrange(3), rng.randrange(3)
            mu = np.array(adj3.mu_arr, dtype=object)
            mu[i, j] += np.array(bump)
            cand = Representation(3, 3, adj3.rho_arr, mu)
            label = f"mu[{i}{j}][{r}{c}]+{delta}"
        failed = not (check_representation(so3, cand).passed
                      and check_derived_identities(so3, cand).passed)
        cases.append((label, failed))

    # 10 non-Nijenhuis operators on so3 (scalar maps excluded: those are valid)
    count = 0
    while count < 10:
        n = Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        if n == Matrix.identity(3).scale(n[0, 0]):
            continue
        cases.append((f"nijenhuis-candidate{count}", not is_nijenhuis(so3, n)))
        count += 1

    # 10 perturbed Rota-Baxter operators (entries proven to break the identity)
    for idx in range(10):
        t = [[0, 1], [0, 0]]
        pos = rng.choice(((0, 0), (1, 0)))
        t[pos[0]][pos[1]] += rng.choice((1, -1, 2))
        cases.append((f"rb-perturbed{idx}", not is_relative_rb(pair_a2, Matrix(t))))

    # 5 symmetric candidates for a skew-symmetric endomorphism
    qf = QuadraticForm(catalog_algebra("abelian2"), Matrix.identity(2))
    for idx in range(5):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        if a == b == c == 0:
            a = 1
        sym = Matrix([[a, c], [c, b]])
        cases.append((f"symmetric-endo{idx}", not is_skew_endomorphism(qf, sym)))

    # 5 non-deformations of the base pair
    for idx in range(5):
        bad = random_noncocycle_deformation(pair_a2, rng)
        cases.append((f"non-deformation{idx}", not linear_deformation_report(pair_a2, bad).passed))

    # 5 incompatible diagonal companions to the operator family
    for idx in range(5):
        a = rng.randint(-2, 3)
        b = a + rng.choice((1, 2))
        rmap = Matrix([[0, rng.choice((1, 2, -1))], [0, 0]])
        cases.append((f"diag({a},{b})-vs-R", not is_rb_nijenhuis(a2, rmap, Matrix.diag([a, b]))))

    assert len(cases) == 100
    return cases
