from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest

from lieyam import LieYamagutiAlgebra, Matrix, deformed_algebra, deformed_brackets
from lieyam.algebra import (bracket_images, is_homomorphism, is_nijenhuis, nijenhuis_deformation_tensors,
                            triple_images)
from lieyam.errors import AntisymmetryError, DimMismatchError
from lieyam.linalg import exact, polynomial
from lieyam.search import catalog_algebra


def test_a2_bracket_values(a2):
    b = a2.b_arr
    assert b[0, 1].tolist() == [1, 0]
    assert b[0, 0].tolist() == [0, 0]
    assert b[1, 0].tolist() == [-1, 0]


def test_a2_triple_values(a2):
    t = a2.t_arr
    assert t[0, 1, 1].tolist() == [1, 0]
    assert t[1, 0, 1].tolist() == [-1, 0]
    assert t[0, 1, 0].tolist() == [0, 0]


def test_bracket_dim_mismatch(a2):
    z = (0, 0)
    with pytest.raises(DimMismatchError):
        LieYamagutiAlgebra(2, [[(0, 0, 0)] * 2] * 2, a2.t_arr)
    with pytest.raises(DimMismatchError):
        LieYamagutiAlgebra(2, a2.b_arr, [[[z, (1,)], [z, z]]] * 2)


def test_antisymmetry_validated():
    z = (0, 0)
    with pytest.raises(AntisymmetryError):
        LieYamagutiAlgebra(2, [[z, (1, 0)], [(1, 0), z]], [[[z, z]] * 2] * 2)
    with pytest.raises(AntisymmetryError):
        # nonzero diagonal bracket
        LieYamagutiAlgebra(2, [[(1, 0), z], [z, z]], [[[z, z]] * 2] * 2)


def test_axioms_pass_on_fixtures(a2, so3, sl2):
    for alg in (a2, so3, sl2, LieYamagutiAlgebra.abelian(4), catalog_algebra("heis3"),
                catalog_algebra("so3lts"), catalog_algebra("a2lts")):
        rep = alg.check_axioms()
        assert rep.passed, rep.to_text()


def test_axioms_fail_with_witness(a2):
    # ternary constant <<e1,e2,e2>> changed from e1 to e2
    z = (0, 0)
    bad = LieYamagutiAlgebra(
        2,
        [[z, (1, 0)], [(-1, 0), z]],
        [[[z, z], [z, (0, 1)]], [[z, (0, -1)], [z, z]]],
    )
    rep = bad.check_axioms()
    assert not rep.passed
    assert not rep.check("LY3").ok
    wit = rep.check("LY3").witness
    assert wit is not None and "tuple" in wit and "residual" in wit


def test_homomorphism_examples(a2):
    ident = Matrix.identity(2)
    zero = Matrix.zero(2)
    swap = Matrix([[0, 1], [1, 0]])
    assert is_homomorphism(ident, a2, a2)
    assert is_homomorphism(zero, a2, a2)
    assert not is_homomorphism(swap, a2, a2)
    with pytest.raises(DimMismatchError):
        is_homomorphism(Matrix.zero(3), a2, a2)


def test_deformed_brackets_trivial_cases(a2):
    b0, t0 = deformed_brackets(a2, Matrix.zero(2))
    assert not (b0 != 0).any() and not (t0 != 0).any()
    b1, t1 = deformed_brackets(a2, Matrix.identity(2))
    assert b1.tolist() == a2.b_arr.tolist()
    assert t1.tolist() == a2.t_arr.tolist()


def _bracket(alg, x, y):
    """[x, y] for coordinate vectors, summed over the constants as Python lists."""
    b, n = alg.b_arr.tolist(), alg.dim
    return tuple(sum(x[i] * y[j] * b[i][j][k] for i in range(n) for j in range(n)) for k in range(n))


def _triple(alg, x, y, z):
    t, n = alg.t_arr.tolist(), alg.dim
    return tuple(sum(x[i] * y[j] * z[k] * t[i][j][k][l] for i, j, k in product(range(n), repeat=3))
                 for l in range(n))


def _apply(mat, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in mat.data)


def test_deformed_brackets_against_term_expansion(a2):
    """Brute-force expansion of the three defining sums, written separately."""
    nmap = Matrix([[0, 2], [0, 0]])
    n = a2.dim
    ncol = [tuple(r[i] for r in nmap.data) for i in range(n)]
    bas = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    got_b, got_t = deformed_brackets(a2, nmap)
    for i, j in product(range(n), repeat=2):
        want = tuple(
            p + q - r
            for p, q, r in zip(
                _bracket(a2, ncol[i], bas[j]), _bracket(a2, bas[i], ncol[j]),
                _apply(nmap, _bracket(a2, bas[i], bas[j])),
            )
        )
        assert tuple(got_b[i, j].tolist()) == want
    for i, j, k in product(range(n), repeat=3):
        aux = tuple(
            p + q + r - s
            for p, q, r, s in zip(
                _triple(a2, ncol[i], bas[j], bas[k]),
                _triple(a2, bas[i], ncol[j], bas[k]),
                _triple(a2, bas[i], bas[j], ncol[k]),
                _apply(nmap, _triple(a2, bas[i], bas[j], bas[k])),
            )
        )
        want = tuple(
            p + q + r - s
            for p, q, r, s in zip(
                _triple(a2, ncol[i], ncol[j], bas[k]),
                _triple(a2, bas[i], ncol[j], ncol[k]),
                _triple(a2, ncol[i], bas[j], ncol[k]),
                _apply(nmap, aux),
            )
        )
        assert tuple(got_t[i, j, k].tolist()) == want


def test_nijenhuis_examples(a2, so3):
    assert is_nijenhuis(a2, Matrix.identity(2).scale(Fraction(5, 3)))
    assert is_nijenhuis(a2, Matrix([[0, 2], [0, 0]]))
    # on this 2-dim algebra every operator is Nijenhuis (grid-verified);
    # genuine negatives need dimension 3
    assert is_nijenhuis(a2, Matrix([[0, 1], [1, 0]]))
    assert not is_nijenhuis(so3, Matrix([[-1, -1, -1]] * 3))
    assert not is_nijenhuis(so3, Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))


def test_nijenhuis_deformation_is_algebra(a2, so3, rng):
    cases = [(a2, Matrix([[0, 2], [0, 0]])), (a2, Matrix.identity(2).scale(3))]
    for _ in range(10):
        lam = rng.randint(-3, 3)
        cases.append((so3, Matrix.identity(3).scale(lam)))
    for alg, nmap in cases:
        assert is_nijenhuis(alg, nmap)
        deformed = deformed_algebra(alg, nmap)
        assert deformed.check_axioms().passed
        # a Nijenhuis operator is a homomorphism deformed -> original
        assert is_homomorphism(nmap, deformed, alg)


def test_bracket_multilinearity(a2, rng):
    """The brackets of images (bracket_images, triple_images) are linear in each map."""
    def rand(den=1):
        return exact([[Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(2)]
                      for _ in range(2)])

    for _ in range(30):
        x, x2, y = rand(3), rand(), rand()
        al, be = exact(Fraction(rng.randint(-3, 3), 2)), exact(Fraction(rng.randint(-3, 3)))
        mix = x * al + x2 * be
        b, t = a2.b_arr, a2.t_arr
        lhs = bracket_images(b, mix, y)
        rhs = bracket_images(b, x, y) * al + bracket_images(b, x2, y) * be
        assert not (lhs - rhs != 0).any()
        lhs3 = triple_images(t, x, mix, y)
        rhs3 = triple_images(t, x, x, y) * al + triple_images(t, x, x2, y) * be
        assert not (lhs3 - rhs3 != 0).any()


@pytest.mark.parametrize("over", ["Q", "Q[t]"])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_a_none_map_is_the_identity(rng, batch, over):
    """A map None in any slots of bracket_images or triple_images gives what
    the identity matrix there gives, in value, shape and axis order; the
    other maps are unbatched or stacked, over Q or over Q[t]."""
    def rand(*shape):
        entries = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(prod(shape))]
        return exact(np.array(entries, dtype=object).reshape(shape))

    def rand_map(rows):
        m = rand(*batch, rows, 2)
        return m if over == "Q" else polynomial([m, rand(*batch, rows, 2)])

    for images, table in ((bracket_images, rand(2, 3, 5)), (triple_images, rand(2, 3, 4, 5))):
        dims = table.shape[:-1]
        maps = [rand_map(d) for d in dims]
        for none in product((False, True), repeat=len(dims)):
            got = images(table, *(None if k else m for k, m in zip(none, maps)))
            want = images(table, *(exact(np.identity(d, dtype=np.int64)) if k else m
                                   for k, d, m in zip(none, dims, maps)))
            assert got.shape == want.shape and not (got != want).any(), (images.__name__, none)


def test_antisymmetrized_from_lie(sl2):
    # <<x,y,z>> = [[x,y],z] construction stays antisymmetric and valid
    assert sl2.check_axioms().passed
    tens = nijenhuis_deformation_tensors(sl2, Matrix.identity(3))
    assert tens[0].tolist() == sl2.b_arr.tolist()
