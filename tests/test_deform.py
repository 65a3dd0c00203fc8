from fractions import Fraction

import numpy as np
import pytest

from lieyam import Matrix
from lieyam.deform import (
    DeformationData,
    NijenhuisStructure,
    are_equivalent_deformations,
    cocycle_witness,
    deformation_cocycle,
    deformation_difference_report,
    derived_deformation_terms,
    equivalence_witness,
    hat_rep,
    is_deformation_of_pair,
    is_linear_deformation,
    is_nijenhuis_structure,
    linear_deformation_report,
    nijenhuis_structure_report,
    semidirect_nijenhuis,
    trivial_deformation_from,
)
from lieyam.errors import NotNijenhuisError
from lieyam.linalg import exact
from lieyam.paircomplex import PairCochain, pair_delta_direct, pair_delta_lifted
from lieyam.reps import check_representation
from lieyam.scalars import Poly


NMAT = Matrix([[0, 2], [0, 0]])


def test_nijenhuis_structure_examples(a2_adjoint):
    P = a2_adjoint
    assert is_nijenhuis_structure(P, NMAT, NMAT)
    assert is_nijenhuis_structure(P, Matrix.zero(2), Matrix.zero(2))
    lam = Fraction(3, 2)
    assert is_nijenhuis_structure(P, Matrix.identity(2).scale(lam), Matrix.identity(2).scale(lam))
    # genuine negative: S must interact correctly with rho
    rep = nijenhuis_structure_report(P, Matrix.zero(2), Matrix.diag([1, 0]))
    assert not rep.passed
    assert not rep.check("rho-compat").ok
    assert rep.check("rho-compat").witness is not None


def test_structure_wrapper_rejects(a2_adjoint):
    with pytest.raises(NotNijenhuisError):
        NijenhuisStructure(a2_adjoint, Matrix.zero(2), Matrix.diag([1, 0]))


def test_zero_deformation_valid(a2_adjoint):
    d0 = DeformationData.zero(a2_adjoint)
    assert is_linear_deformation(a2_adjoint, d0)
    assert is_deformation_of_pair(a2_adjoint, d0)
    assert deformation_cocycle(a2_adjoint, d0).is_zero()


def test_trivial_deformation_roundtrip(a2_adjoint):
    P = a2_adjoint
    cases = [
        (Matrix.zero(2), Matrix.zero(2)),
        (Matrix.identity(2).scale(Fraction(5, 2)), Matrix.identity(2).scale(Fraction(5, 2))),
        (NMAT, NMAT),
    ]
    for nmap, smap in cases:
        ns = NijenhuisStructure(P, nmap, smap)
        d = trivial_deformation_from(P, ns)
        assert is_linear_deformation(P, d)
        assert is_deformation_of_pair(P, d)
        assert are_equivalent_deformations(P, d, DeformationData.zero(P), nmap, smap)
        coc = deformation_cocycle(P, d)
        assert pair_delta_lifted(P, coc, cap=3).is_zero()
        # exactness witness: the cocycle is the coboundary of (N, S)
        one = PairCochain.degree1(nmap, smap)
        assert pair_delta_direct(P, one) == coc
        assert deformation_difference_report(P, d, DeformationData.zero(P), nmap, smap).passed


def test_scalar_rescaling_structure(a2_adjoint):
    lam = Fraction(2)
    ns = NijenhuisStructure(a2_adjoint, Matrix.identity(2).scale(lam), Matrix.identity(2).scale(lam))
    d = trivial_deformation_from(a2_adjoint, ns)
    # phi = 2 lambda [x,y] - lambda [x,y] = lambda [x,y]
    alg = a2_adjoint.algebra
    assert d.phi.tolist() == (np.array(alg.b_arr, dtype=object) * lam).tolist()


def test_noncocycle_perturbation_reports_witness(a2_adjoint):
    P = a2_adjoint
    d = DeformationData.zero(P)
    phi = np.array(d.phi, dtype=object)
    phi[0, 1, 1] += 1
    phi[1, 0, 1] -= 1
    bad = DeformationData(exact(phi), d.phi1, d.phi2, d.varrho, d.varpi1, d.varpi2)
    rep = linear_deformation_report(P, bad)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.ok]
    assert failing[0].witness is not None
    residual = failing[0].witness["residual"]
    assert any(isinstance(x, Poly) and x for x in residual)  # t-coefficients visible
    assert cocycle_witness(P, bad) == {"block": "c1f", "tuple": (0, 0), "residual": (1, 0)}


def test_equivalence_negative(a2_adjoint):
    P = a2_adjoint
    lam = Matrix.identity(2).scale(2)
    ns = NijenhuisStructure(P, lam, lam)
    d = trivial_deformation_from(P, ns)
    assert not d.is_zero()
    assert not are_equivalent_deformations(P, d, DeformationData.zero(P),
                                           Matrix.zero(2), Matrix.zero(2))


def test_nilpotent_family_degenerates_to_zero(a2_adjoint):
    # for this algebra the nilpotent operator generates the zero family
    ns = NijenhuisStructure(a2_adjoint, NMAT, NMAT)
    assert trivial_deformation_from(a2_adjoint, ns).is_zero()


def _random_deformation(P, rng):
    """Antisymmetry-respecting but otherwise arbitrary deformation data."""
    n = P.dim_g

    def anti3():
        flat = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = [rng.randint(-2, 2) for _ in range(n)]
                flat[i][j] = v
                flat[j][i] = [-x for x in v]
        return exact(flat)

    def anti4():
        flat = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    v = [rng.randint(-2, 2) for _ in range(n)]
                    flat[i][j][k] = v
                    flat[j][i][k] = [-x for x in v]
        return exact(flat)

    m = P.dim_v
    rnd_mat = lambda: [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]  # noqa: E731
    return DeformationData(
        anti3(), anti4(), anti4(),
        exact([rnd_mat() for _ in range(n)]),
        exact([[rnd_mat() for _ in range(n)] for _ in range(n)]),
        exact([[rnd_mat() for _ in range(n)] for _ in range(n)]),
    )


def test_random_data_is_usually_not_a_deformation(a2_adjoint, rng):
    hits = sum(
        is_linear_deformation(a2_adjoint, _random_deformation(a2_adjoint, rng))
        for _ in range(10)
    )
    assert hits <= 2


def test_semidirect_nijenhuis_block(a2_adjoint):
    ns = NijenhuisStructure(a2_adjoint, NMAT, NMAT)
    block = semidirect_nijenhuis(a2_adjoint, ns)
    assert block.rows == 4
    assert block[0, 1] == 2 and block[2, 3] == 2 and block[0, 2] == 0
    zero = NijenhuisStructure(a2_adjoint, Matrix.zero(2), Matrix.zero(2))
    assert semidirect_nijenhuis(a2_adjoint, zero).is_zero()


def test_hat_rep_cases(a2_adjoint):
    P = a2_adjoint
    zero = NijenhuisStructure(P, Matrix.zero(2), Matrix.zero(2))
    h0 = hat_rep(P, zero)
    assert not (h0.rho_arr != 0).any() and not (h0.mu_arr != 0).any()

    ident = NijenhuisStructure(P, Matrix.identity(2), Matrix.identity(2))
    h1 = hat_rep(P, ident)
    assert h1.rho_arr.tolist() == P.rep.rho_arr.tolist()
    assert h1.mu_arr.tolist() == P.rep.mu_arr.tolist()

    ns = NijenhuisStructure(P, NMAT, NMAT)
    hn = hat_rep(P, ns)  # all consequence asserts run inside
    from lieyam.algebra import deformed_algebra

    assert check_representation(deformed_algebra(P.algebra, NMAT), hn).passed


def test_derived_deformation_terms_match_polynomial_route(a2_adjoint):
    """D_t computed from the polynomial family splits as D + t D1 + t^2 D2."""
    from lieyam.deform import deformed_pair_structures
    from lieyam.reps import derived_D

    P = a2_adjoint
    ns = NijenhuisStructure(P, NMAT, NMAT)
    d = trivial_deformation_from(P, ns)
    d1, d2 = derived_deformation_terms(P, d)
    alg_t, rep_t = deformed_pair_structures(P, d)
    dt = derived_D(alg_t, rep_t)
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for c in range(2):
                    poly = dt.arr[i, j, r, c]
                    p = poly if isinstance(poly, Poly) else Poly([poly])
                    assert p.coeff(0) == P.d.arr[i, j, r, c]
                    assert p.coeff(1) == d1[i][j][r, c]
                    assert p.coeff(2) == d2[i][j][r, c]


def test_equivalence_maps_are_pair_homomorphisms_at_sampled_t(a2_adjoint):
    """At a sampled rational t, (Id+tN, Id+tS) is a pair homomorphism
    from the deformed pair to the original one."""
    from lieyam.deform import deformed_pair_structures
    from lieyam.reps import LieYRepPair, is_pair_homomorphism
    from lieyam.scalars import Poly

    P = a2_adjoint
    lam = Matrix.identity(2).scale(2)
    ns = NijenhuisStructure(P, lam, lam)
    d = trivial_deformation_from(P, ns)
    alg_t, rep_t = deformed_pair_structures(P, d)
    for t0 in (Fraction(1, 2), Fraction(-1, 3)):
        ev = np.frompyfunc(lambda s: s.eval(t0) if isinstance(s, Poly) else s, 1, 1)
        alg0 = type(P.algebra)(2, ev(np.asarray(alg_t.b_arr)), ev(np.asarray(alg_t.t_arr)))
        rep0 = type(P.rep)(2, 2, ev(np.asarray(rep_t.rho_arr)), ev(np.asarray(rep_t.mu_arr)))
        deformed_at_t = LieYRepPair(alg0, rep0)
        phi = Matrix.identity(2) + ns.nmap.scale(t0)
        psi = Matrix.identity(2) + ns.smap.scale(t0)
        assert is_pair_homomorphism(phi, psi, deformed_at_t, P)


def test_nn_structure_iff_nijenhuis_operator_on_adjoint(a2_adjoint, rng):
    """(N, N) is a structure on the adjoint pair exactly when N is Nijenhuis."""
    from lieyam import LieYRepPair, adjoint_rep
    from lieyam.algebra import is_nijenhuis
    from lieyam.search import catalog_algebra

    so3 = catalog_algebra("so3")
    P3 = LieYRepPair(so3, adjoint_rep(so3))
    for _ in range(40):
        nmap = Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        assert is_nijenhuis(so3, nmap) == is_nijenhuis_structure(P3, nmap, nmap)
    for _ in range(25):
        nmap = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        # on this 2-dim algebra every operator is Nijenhuis, so every (N, N)
        # must validate as a structure on the adjoint pair
        assert is_nijenhuis_structure(a2_adjoint, nmap, nmap)


def test_equivalence_and_cocycle_witnesses(a2_adjoint):
    P = a2_adjoint
    lam = Matrix.identity(2).scale(2)
    d = trivial_deformation_from(P, NijenhuisStructure(P, lam, lam))
    zero = DeformationData.zero(P)
    assert equivalence_witness(P, d, zero, lam, lam) is None
    wit = equivalence_witness(P, d, zero, Matrix.zero(2), Matrix.zero(2))
    # indexes g: [e1, e2] is scaled by 1 + 2t on one side only
    assert wit["identity"] == "binary" and wit["tuple"] == (0, 1)
    assert wit["residual"][0] == Poly([0, 2])
    assert cocycle_witness(P, d) is None


def test_deformation_data_from_nested_lists(a2_adjoint, rng):
    """DeformationData takes its six terms through exact: nested lists of
    ints and Fractions give the report of the same terms as ExactArrays."""
    lam = Matrix.identity(2).scale(Fraction(3, 2))
    cases = [trivial_deformation_from(a2_adjoint, NijenhuisStructure(a2_adjoint, lam, lam)),
             _random_deformation(a2_adjoint, rng)]
    for d in cases:
        listed = DeformationData(*(x.tolist() for x in d.arrays()))
        assert all(type(x) is type(y) for x, y in zip(listed.arrays(), d.arrays()))
        want = linear_deformation_report(a2_adjoint, d).to_dict()
        got = linear_deformation_report(a2_adjoint, listed).to_dict()
        assert {**got, "runtime_ms": 0} == {**want, "runtime_ms": 0}
    assert [linear_deformation_report(a2_adjoint, d).passed for d in cases] == [True, False]
