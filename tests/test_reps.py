from fractions import Fraction
from itertools import product

import pytest

from lieyam import (
    LieYamagutiAlgebra,
    LieYRepPair,
    Matrix,
    Representation,
    adjoint_rep,
    check_derived_identities,
    check_representation,
    coadjoint_rep,
    derived_D,
    dual_rep,
    is_pair_homomorphism,
    pair_homomorphism_witness,
    semidirect,
)
from lieyam.errors import DimMismatchError, InternalConsistencyError, InvalidRepresentationError
from lieyam.reps import REP_LAWS


def test_adjoint_matrices(a2):
    adj = adjoint_rep(a2)
    assert adj.rho[0] == Matrix([[0, 1], [0, 0]])
    assert adj.rho[1] == Matrix([[-1, 0], [0, 0]])
    assert adj.mu[1][1] == Matrix([[1, 0], [0, 0]])
    assert adj.mu[1][0].is_zero()
    assert adj.mu[0][0].is_zero()
    assert adj.mu[0][1] == Matrix([[0, -1], [0, 0]])


def test_derived_d_adjoint(a2):
    adj = adjoint_rep(a2)
    d = derived_D(a2, adj)
    # D(e1,e2) acts as z -> <<e1,e2,z>>: e2 -> e1, e1 -> 0
    assert d.at(0, 1) == Matrix([[0, 1], [0, 0]])
    assert d.at(1, 0) == Matrix([[0, -1], [0, 0]])
    assert d.at(0, 0).is_zero()


def test_derived_d_zero_rep(a2):
    zero = Representation.zero(2, 3)
    d = derived_D(a2, zero)
    assert all(d.at(i, j).is_zero() for i in range(2) for j in range(2))


def test_derived_d_cancellation():
    # symmetric mu and commuting rho with rho([x,y]) = 0 force D = 0
    ab = LieYamagutiAlgebra.abelian(2)
    mu = Matrix([[1, 2], [2, 1]])
    rep = Representation(2, 2, [Matrix.identity(2), Matrix.identity(2).scale(3)],
                         [[mu, mu], [mu, mu]])
    d = derived_D(ab, rep)
    assert all(d.at(i, j).is_zero() for i in range(2) for j in range(2))


def test_check_representation_fixtures(a2, so3, sl2):
    for alg in (a2, so3, sl2):
        for rep in (adjoint_rep(alg), coadjoint_rep(alg), Representation.zero(alg.dim, 2)):
            assert check_representation(alg, rep).passed
            assert check_derived_identities(alg, rep).passed


def test_check_representation_perturbed(a2):
    adj = adjoint_rep(a2)
    mu = [row[:] for row in adj.mu]
    mu[1][1] = mu[1][1] + Matrix([[0, 0], [1, 0]])
    broken = Representation(2, 2, adj.rho, mu)
    rep = check_representation(a2, broken)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.ok]
    assert failing and failing[0].witness is not None


def test_adjoint_consistency_guard(so3):
    # on an invalid algebra the adjoint derived-D identity fails loudly
    tern = [[[list(so3.t[a][b][c]) for c in range(3)] for b in range(3)] for a in range(3)]
    tern[0][1][2][0] += 1
    tern[1][0][2][0] -= 1
    bad = LieYamagutiAlgebra(3, so3.b, tern)
    assert not bad.check_axioms().passed
    with pytest.raises(InternalConsistencyError):
        adjoint_rep(bad)
    adjoint_rep(bad, check=False)  # explicit opt-out for broken fixtures


def test_dual_rep_involution(a2, so3):
    for alg in (a2, so3):
        rep = adjoint_rep(alg)
        dd = dual_rep(dual_rep(rep))
        assert all(dd.rho[i] == rep.rho[i] for i in range(alg.dim))
        assert all(
            dd.mu[i][j] == rep.mu[i][j] for i in range(alg.dim) for j in range(alg.dim)
        )


def test_dual_of_zero_is_zero():
    z = Representation.zero(3, 2)
    dz = dual_rep(z)
    assert all(m.is_zero() for m in dz.rho)
    assert all(m.is_zero() for row in dz.mu for m in row)


def test_coadjoint_valid(a2, so3, sl2):
    for alg in (a2, so3, sl2):
        co = coadjoint_rep(alg)
        assert check_representation(alg, co).passed


def test_semidirect_fixtures(a2):
    for rep in (adjoint_rep(a2), coadjoint_rep(a2)):
        sd = semidirect(a2, rep)
        assert sd.dim == 4
        assert sd.check_axioms().passed
    ab = LieYamagutiAlgebra.abelian(2)
    sd = semidirect(ab, Representation.zero(2, 2))
    assert sd.binary_tensor.is_zero() and sd.ternary_tensor.is_zero()


def test_pair_semidirect_reuses_its_d(a2, monkeypatch):
    """LieYRepPair.semidirect() builds the product of semidirect() from pair.d."""
    import lieyam.reps as reps

    pair = LieYRepPair(a2, coadjoint_rep(a2))
    calls = []
    monkeypatch.setattr(reps, "derived_D", lambda *args: calls.append(args))
    sd = pair.semidirect()
    monkeypatch.undo()
    assert not calls
    want = semidirect(a2, coadjoint_rep(a2))
    assert sd.binary_tensor == want.binary_tensor and sd.ternary_tensor == want.ternary_tensor
    assert sd.basis_names == want.basis_names


def test_semidirect_rejects_invalid_rep(a2):
    adj = adjoint_rep(a2)
    mu = [row[:] for row in adj.mu]
    mu[0][1] = mu[0][1] + Matrix([[1, 0], [0, 0]])
    broken = Representation(2, 2, adj.rho, mu)
    with pytest.raises(InvalidRepresentationError):
        semidirect(a2, broken)


def test_semidirect_iff_fuzz(a2, rng):
    """Invalid representation data always breaks some semidirect axiom."""
    adj = adjoint_rep(a2)
    checked_invalid = 0
    for _ in range(40):
        rho = [m + Matrix([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
               for m in adj.rho]
        mu = [[m + Matrix([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
               for m in row] for row in adj.mu]
        cand = Representation(2, 2, rho, mu)
        valid = check_representation(a2, cand).passed
        sd = semidirect(a2, cand, validate_rep=False)
        sd_valid = sd.check_axioms().passed
        assert valid == sd_valid
        checked_invalid += not valid
    assert checked_invalid > 0


def test_pair_homomorphism_examples(a2_adjoint):
    ident = Matrix.identity(2)
    zero = Matrix.zero(2)
    assert is_pair_homomorphism(ident, ident, a2_adjoint, a2_adjoint)
    assert is_pair_homomorphism(zero, zero, a2_adjoint, a2_adjoint)
    swapped = Matrix([[0, 1], [1, 0]])
    assert not is_pair_homomorphism(swapped, ident, a2_adjoint, a2_adjoint)


def test_lieyrep_pair_validates(a2):
    adj = adjoint_rep(a2)
    LieYRepPair(a2, adj)
    mu = [row[:] for row in adj.mu]
    mu[1][1] = mu[1][1] + Matrix([[0, 0], [1, 0]])
    with pytest.raises(InvalidRepresentationError):
        LieYRepPair(a2, Representation(2, 2, adj.rho, mu))


def test_mu_stored_on_ordered_pairs(a2):
    # mu is on ordered pairs: mu(e2,e2) nonzero while mu(e2,e1) zero
    adj = adjoint_rep(a2)
    assert adj.mu[1][1] != adj.mu[1][0]
    # and mu_vec is genuinely bilinear in both slots
    x = (Fraction(2), Fraction(-1))
    y = (Fraction(1, 2), Fraction(3))
    acc = Matrix.zero(2)
    for i, j in product(range(2), repeat=2):
        acc = acc + adj.mu[i][j].scale(x[i] * y[j])
    assert adj.mu_vec(x, y) == acc


def test_pair_homomorphism_witness_names_law_and_first_tuple(a2, a2_adjoint):
    ident = Matrix.identity(2)
    assert pair_homomorphism_witness(ident, ident, a2_adjoint, a2_adjoint) is None
    # binary: the swap sends [e1,e2] = e1 to e2 but [e2,e1] = -e1
    wit = pair_homomorphism_witness(Matrix([[0, 1], [1, 0]]), ident, a2_adjoint, a2_adjoint)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("binary", (0, 1), (1, 1))
    # ternary: same bracket, ternary bracket doubled on the target
    doubled = LieYamagutiAlgebra(2, a2.b, [[[tuple(2 * x for x in v) for v in row] for row in plane]
                                           for plane in a2.t])
    target = LieYRepPair(doubled, a2_adjoint.rep, validate=False)
    wit = pair_homomorphism_witness(ident, ident, a2_adjoint, target)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("ternary", (0, 1, 1), (-1, 0))
    # rho: psi = diag(1, 2) does not commute with rho(e1) = ad e1
    wit = pair_homomorphism_witness(ident, Matrix.diag([1, 2]), a2_adjoint, a2_adjoint)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("rho", (0,), ((0, -1), (0, 0)))
    # mu: the target differs from the source only in mu(e2, e1)
    mu = [row[:] for row in a2_adjoint.rep.mu]
    mu[1][0] = mu[1][0] + Matrix([[1, 0], [0, 0]])
    target = LieYRepPair(a2, Representation(2, 2, a2_adjoint.rep.rho, mu), validate=False)
    wit = pair_homomorphism_witness(ident, ident, a2_adjoint, target)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("mu", (1, 0), ((-1, 0), (0, 0)))
    assert not is_pair_homomorphism(ident, ident, a2_adjoint, target)
    with pytest.raises(DimMismatchError):
        pair_homomorphism_witness(ident, Matrix.identity(3), a2_adjoint, a2_adjoint)


def test_derived_identity_failures_carry_witness(so3):
    adj = adjoint_rep(so3)
    mu = [row[:] for row in adj.mu]
    mu[0][2] = mu[0][2] + Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    report = check_derived_identities(so3, Representation(3, 3, adj.rho, mu))
    failing = [c for c in report.checks if not c.ok]
    assert failing
    for c in failing:
        arity = 3 if c.name == "der1" else 4
        assert set(c.witness) == {"tuple", "residual"} and len(c.witness["tuple"]) == arity
        assert not Matrix(c.witness["residual"]).is_zero()


def test_report_check_names_are_the_rep_laws(a2):
    adj = adjoint_rep(a2)
    names = [c.name for c in check_representation(a2, adj).checks]
    names += [c.name for c in check_derived_identities(a2, adj).checks]
    assert names == list(REP_LAWS)
