import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from lieyam import LieYamagutiAlgebra, LieYRepPair, Matrix, Representation
from lieyam.algebra import bracket_images, is_nijenhuis, triple_images
from lieyam.deform import NijenhuisStructure
from lieyam.errors import ConsequenceViolatedError, PreconditionFailedError
from lieyam.linalg import einsum, exact, polynomial
from lieyam.report import VerificationReport
from lieyam.rotabaxter import (
    _induced,
    RBNTriple,
    RelativeRBOperator,
    hat_deformed_brackets,
    is_compatible_pair,
    is_rbn,
    is_relative_rb,
    nijenhuis_from_pair,
    pre_ly_products,
    compatibility_witness,
    rbn_consequences,
    rbn_report,
    relative_rb_report,
    s_deformed_brackets,
    strong_condition,
    strong_witness,
    subadjacent,
)
from lieyam.reps import adjoint_rep, coadjoint_rep
from lieyam.search import CATALOG, catalog_algebra, search_rb_operators, search_rbn_triples

T1 = Matrix([[0, 1], [0, 0]])
NMAT = Matrix([[0, 2], [0, 0]])


def test_relative_rb_examples(a2_adjoint):
    P = a2_adjoint
    assert is_relative_rb(P, Matrix.zero(2))
    assert is_relative_rb(P, T1)
    assert not is_relative_rb(P, Matrix.identity(2))
    with pytest.raises(PreconditionFailedError):
        RelativeRBOperator(P, Matrix.identity(2))


def test_homogeneous_scaling(a2_adjoint, rng):
    ops = search_rb_operators(a2_adjoint, values=(-1, 0, 1), limit=8)
    for t in ops:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * (-1) ** rng.randint(0, 1)
        assert is_relative_rb(a2_adjoint, t.scale(lam))


def test_subadjacent(a2_adjoint):
    zero_sub = subadjacent(RelativeRBOperator(a2_adjoint, Matrix.zero(2)))
    assert not (zero_sub.b_arr != 0).any() and not (zero_sub.t_arr != 0).any()
    sub = subadjacent(RelativeRBOperator(a2_adjoint, T1))
    assert sub.check_axioms().passed


def test_subadjacent_on_coadjoint_search(a2_coadjoint):
    ops = search_rb_operators(a2_coadjoint, values=(-1, 0, 1), limit=6)
    assert ops
    for t in ops:
        assert subadjacent(RelativeRBOperator(a2_coadjoint, t)).check_axioms().passed


def test_pre_ly_products(a2_adjoint):
    top = RelativeRBOperator(a2_adjoint, T1)
    star, brace = pre_ly_products(top)  # consistency asserted inside
    assert star.shape == (2, 2, 2) and brace.shape == (2, 2, 2, 2)
    zero_top = RelativeRBOperator(a2_adjoint, Matrix.zero(2))
    star0, brace0 = pre_ly_products(zero_top)
    assert not (star0 != 0).any() and not (brace0 != 0).any()


def test_s_deformed_brackets_special_cases(a2_adjoint):
    top = RelativeRBOperator(a2_adjoint, T1)
    sub = subadjacent(top)
    b_id, t_id = s_deformed_brackets(top, Matrix.identity(2))
    assert b_id.tolist() == sub.b_arr.tolist() and t_id.tolist() == sub.t_arr.tolist()
    b0, t0 = s_deformed_brackets(top, Matrix.zero(2))
    assert not (b0 != 0).any() and not (t0 != 0).any()


def test_hat_deformed_brackets_special_cases(a2_adjoint):
    top = RelativeRBOperator(a2_adjoint, T1)
    sub = subadjacent(top)
    ident = NijenhuisStructure(a2_adjoint, Matrix.identity(2), Matrix.identity(2))
    b_id, t_id = hat_deformed_brackets(top, ident)
    assert b_id.tolist() == sub.b_arr.tolist() and t_id.tolist() == sub.t_arr.tolist()
    zero = NijenhuisStructure(a2_adjoint, Matrix.zero(2), Matrix.zero(2))
    b0, t0 = hat_deformed_brackets(top, zero)
    assert not (b0 != 0).any() and not (t0 != 0).any()


def test_rbn_family(a2_adjoint):
    P = a2_adjoint
    for a, lam in itertools.product((1, 2, -1, Fraction(3, 2)), repeat=2):
        t = Matrix([[0, a], [0, 0]])
        n = Matrix([[0, lam], [0, 0]])
        assert is_relative_rb(P, t)
        assert is_nijenhuis(P.algebra, n)
        assert is_rbn(P, t, n, n)
    assert is_rbn(P, Matrix.zero(2), Matrix.zero(2), Matrix.zero(2))
    # twist condition fails for N = Id, S = 0
    assert not is_rbn(P, T1, Matrix.zero(2), Matrix.identity(2))


def test_rbn_consequences(a2_adjoint):
    triple = RBNTriple(a2_adjoint, T1, NMAT, NMAT)
    report = rbn_consequences(triple)
    assert report.passed
    names = {c.name for c in report.checks}
    assert {"S-nijenhuis-on-subadjacent", "T-rb-on-deformed", "NT-rb-on-original",
            "deformed-brackets-equal", "deformed-brackets-axioms", "diagram-arrows"} <= names


def test_compatibility(a2_adjoint):
    P = a2_adjoint
    assert is_compatible_pair(P, T1, T1)
    ts = T1 * NMAT
    assert is_compatible_pair(P, T1, ts)
    ab = LieYamagutiAlgebra.abelian(2)
    Pab = LieYRepPair(ab, Representation.zero(2, 2))
    t_a = Matrix([[1, 2], [3, 4]])
    t_b = Matrix([[0, 1], [1, 0]])
    assert is_compatible_pair(Pab, t_a, t_b)
    for args, name in (((Matrix.identity(2), T1), "T1"), ((T1, Matrix.identity(2)), "T2")):
        with pytest.raises(PreconditionFailedError) as err:
            is_compatible_pair(P, *args)
        assert str(err.value) == f"{name} fails the binary Rota-Baxter identity at (0, 1)"
        assert err.value.witness["tuple"] == (0, 1) and err.value.which == "relative-rb"


@pytest.mark.parametrize("name", ["a2", "a2lts", "sl2", "so3", "heis3"])
def test_compatibility_is_rota_baxter_on_the_pencil(name):
    """For Rota-Baxter T1 and T2 the Rota-Baxter residual of T1 + c T2 is
    c P1 + c^2 P2, P1 and P2 the compatibility conditions; so two operators
    of the grid are compatible exactly when T1 + T2 and T1 + 2 T2 are
    Rota-Baxter, and a witness names the condition that fails."""
    alg = catalog_algebra(name)
    seen = set()
    for rep in (adjoint_rep(alg), coadjoint_rep(alg)):
        P = LieYRepPair(alg, rep)
        ops = [t for t in search_rb_operators(P, (-1, 0, 1)) if not t.is_zero()]
        for t1, t2 in itertools.islice(itertools.combinations(ops, 2), 150):
            wit = compatibility_witness(P, t1, t2)
            pencil = all(is_relative_rb(P, t1 + t2.scale(c)) for c in (1, 2))
            assert (wit is None) == pencil, (name, t1, t2, wit)
            assert wit is None or wit["identity"] in ("binary", "ternary-12", "ternary-21")
            seen.add(pencil)
    assert seen == {True, False}


def test_strong_condition_cases(a2_adjoint):
    P = a2_adjoint
    top = RelativeRBOperator(P, T1)
    assert strong_condition(P, top, Matrix.zero(2))
    assert strong_condition(P, top, NMAT)
    assert strong_condition(P, top, Matrix.identity(2))


def test_strong_implies_compatible(a2_adjoint):
    """On validated triples with the strong condition, T and T S are compatible."""
    P = a2_adjoint
    for a, lam in itertools.product((1, -1, 2, Fraction(3, 2)), repeat=2):
        t = Matrix([[0, a], [0, 0]])
        s = Matrix([[0, lam], [0, 0]])
        triple = RBNTriple(P, t, s, s)
        top = RelativeRBOperator(P, t)
        if strong_condition(P, top, s):
            assert is_compatible_pair(P, t, t * s)


def test_nijenhuis_from_pair(a2_adjoint, a2_coadjoint):
    ab = LieYamagutiAlgebra.abelian(2)
    Pab = LieYRepPair(ab, Representation.zero(2, 2))
    t2 = Matrix([[1, 0], [0, 2]])
    assert nijenhuis_from_pair(Pab, t2.scale(2), t2) == Matrix.identity(2).scale(2)
    assert nijenhuis_from_pair(Pab, t2, t2) == Matrix.identity(2)
    # nondegenerate instance: invertible operator on the coadjoint pair
    pi_sharp = Matrix([[0, -1], [1, 0]])
    assert is_relative_rb(a2_coadjoint, pi_sharp)
    n = nijenhuis_from_pair(a2_coadjoint, pi_sharp.scale(3), pi_sharp)
    assert n == Matrix.identity(2).scale(3)
    assert is_nijenhuis(a2_coadjoint.algebra, n)


def test_nijenhuis_from_pair_requires_compat(a2_adjoint):
    P = a2_adjoint
    t2 = Matrix([[0, -1], [1, 0]])  # not Rota-Baxter for the adjoint pair
    with pytest.raises(PreconditionFailedError):
        nijenhuis_from_pair(P, T1, t2)


def test_compatible_nondegenerate_search(a2_coadjoint):
    """Grid search turns up a compatible pair with invertible second member."""
    P = a2_coadjoint
    t2 = Matrix([[0, -1], [1, 0]])
    found = []
    for ent in itertools.product((-1, 0, 1), repeat=4):
        t1 = Matrix([ent[0:2], ent[2:4]])
        if t1.is_zero() or not is_relative_rb(P, t1):
            continue
        try:
            if is_compatible_pair(P, t1, t2):
                found.append(t1)
        except PreconditionFailedError:
            pass
    assert found
    scalars = 0
    for t1 in found:
        n = nijenhuis_from_pair(P, t1, t2)
        assert is_nijenhuis(P.algebra, n)
        scalars += n == Matrix.identity(2).scale(n[0, 0])
    # record that the search yields at least the scalar family
    assert scalars >= 1


def test_rb_report_evaluates_each_identity(a2_adjoint):
    """A binary failure does not hide the ternary one."""
    report = relative_rb_report(a2_adjoint, Matrix([[-1, -1], [-1, -1]]))
    assert report.check("rb-binary").witness["tuple"] == (0, 1)
    ternary = report.check("rb-ternary")
    assert not ternary.ok
    assert ternary.witness["tuple"] == (0, 1, 0)
    assert ternary.witness["residual"] == (2, 2)


def test_rb_witness_is_first_violation(a2_adjoint):
    """The binary witness is the lexicographically first tuple, with its residual."""
    P = a2_adjoint
    b, rho = P.algebra.b_arr.tolist(), P.rep.rho_arr.tolist()

    def rho_of(x, v):  # rho(x) e_v for x in g, as a list over V
        return [sum(x[i] * rho[i][o][v] for i in range(2)) for o in range(2)]

    def bracket(x, y):
        return [sum(x[i] * y[j] * b[i][j][k] for i in range(2) for j in range(2)) for k in range(2)]

    for ent in itertools.product((-1, 0, 1), repeat=4):
        t = Matrix([ent[0:2], ent[2:4]])
        col = [[row[u] for row in t.data] for u in range(2)]
        expected = None
        for u, v in itertools.product(range(2), repeat=2):
            inner = [a - c for a, c in zip(rho_of(col[u], v), rho_of(col[v], u))]
            image = [sum(a * c for a, c in zip(row, inner)) for row in t.data]
            r = tuple(a - c for a, c in zip(bracket(col[u], col[v]), image))
            if any(r):
                expected = {"identity": "binary", "tuple": (u, v), "residual": r}
                break
        assert relative_rb_report(P, t).check("rb-binary").witness == expected
        assert is_relative_rb(P, t) == relative_rb_report(P, t).passed


def test_witnesses_behind_predicates(a2_adjoint):
    P = a2_adjoint
    top = RelativeRBOperator(P, Matrix([[-1, -1], [1, 1]]))
    wit = strong_witness(P, top, Matrix([[-1, -1], [-1, 0]]))
    assert wit["tuple"] == (0, 1, 0) and not strong_condition(P, top, Matrix([[-1, -1], [-1, 0]]))
    assert strong_witness(P, RelativeRBOperator(P, T1), NMAT) is None
    wit = compatibility_witness(P, Matrix([[-1, -1], [1, 1]]), Matrix([[-1, 1], [-1, 1]]))
    assert wit["identity"] == "binary" and wit["tuple"] == (0, 1)
    assert compatibility_witness(P, T1, T1 * NMAT) is None


def test_rbn_triple_carries_failing_report(a2_adjoint):
    with pytest.raises(PreconditionFailedError) as err:
        RBNTriple(a2_adjoint, T1, Matrix.zero(2), Matrix.identity(2))
    report = err.value.report
    assert report.check("twist-compat").witness == {"tuple": (1,), "residual": (1, 0)}
    triple = RBNTriple(a2_adjoint, T1, NMAT, NMAT)
    assert triple.report.passed


@pytest.mark.parametrize("tmap, smap, nmap, failing", [
    (Matrix.identity(2), NMAT, NMAT, ["rb-operator"]),
    (T1, Matrix([[-1, -1], [-1, -1]]), NMAT, ["nijenhuis-structure"]),
    (Matrix.identity(2), Matrix([[-1, -1], [-1, -1]]), NMAT, ["rb-operator", "nijenhuis-structure"]),
    (T1, Matrix.zero(2), Matrix.identity(2), ["twist-compat"]),
])
def test_rbn_triple_refuses_with_the_report_of_rbn_report(a2_adjoint, tmap, smap, nmap, failing):
    """T not Rota-Baxter, (N, S) not a Nijenhuis structure, both, or only a
    twist condition: RBNTriple raises with the report rbn_report gives."""
    with pytest.raises(PreconditionFailedError) as err:
        RBNTriple(a2_adjoint, tmap, smap, nmap)
    report = err.value.report
    assert [c.name for c in report.checks if not c.ok] == failing
    assert report.to_dict() == rbn_report(a2_adjoint, tmap, smap, nmap).to_dict()


def test_twist_conditions_assert_subadjacent_theorems(a2_adjoint, monkeypatch):
    """is_rbn and search rbn still assert the sub-adjacent theorems on V^T."""
    def failing_axioms(self):
        report = VerificationReport(subject="forced")
        report.add("forced", False, "forced failure", {"tuple": (0,), "residual": (1,)})
        return report

    monkeypatch.setattr(LieYamagutiAlgebra, "check_axioms", failing_axioms)
    with pytest.raises(ConsequenceViolatedError):
        is_rbn(a2_adjoint, T1, NMAT, NMAT)
    with pytest.raises(ConsequenceViolatedError):
        search_rbn_triples(a2_adjoint, values=(0, 1), limit=1)
    with pytest.raises(ConsequenceViolatedError):
        RBNTriple(a2_adjoint, T1, NMAT, NMAT)


def test_rbn_consequences_reuse_the_triples_subadjacent(a2_adjoint):
    triple = RBNTriple(a2_adjoint, T1, NMAT, NMAT)
    sub = subadjacent(RelativeRBOperator(a2_adjoint, T1))
    assert triple.subadjacent.b_arr.tolist() == sub.b_arr.tolist()
    assert triple.subadjacent.t_arr.tolist() == sub.t_arr.tolist()
    assert rbn_consequences(triple).passed


# -- the induced brackets against the hand formulas they replace ---------------

def _reference_images(x, tarr):
    """X(Tu, Tv) over (..., u, v) for a bilinear X: g x g -> gl(V) given as x[i, j]."""
    return einsum("...bv,...ubxy->...uvxy", tarr, einsum("...au,abxy->...ubxy", tarr, x))


def _reference_induced_brackets(rho, mu, d, tarr, arity):
    """[u,v]^T = rho(Tu)v - rho(Tv)u and <<u,v,w>>^T = D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v,
    indexed [..., u, v, l] and [..., u, v, w, l], written out from the operator tables."""
    if arity == 2:
        rho_t = einsum("...au,axy->...uxy", tarr, rho)
        return einsum("...uxv->...uvx", rho_t) - einsum("...vxu->...uvx", rho_t)
    d_t, mu_t = _reference_images(d, tarr), _reference_images(mu, tarr)
    return (einsum("...uvxw->...uvwx", d_t) + einsum("...vwxu->...uvwx", mu_t)
            - einsum("...uwxv->...uvwx", mu_t))


def _graph_part(pair, tarr, sarr, arity):
    """The V part of the bracket of the dense semidirect product on the graph
    map [T; S]: V -> g (+) V, T possibly a stack or over Q[t]."""
    t = np.asarray(tarr)
    s = np.broadcast_to(np.asarray(sarr), (*t.shape[:-2], pair.dim_v, pair.dim_v))
    graph = exact(np.concatenate([t, s], axis=-2))
    sd = pair.semidirect()
    if arity == 2:
        return bracket_images(sd.b_arr, graph, graph)[..., pair.dim_g:]
    return triple_images(sd.t_arr, graph, graph, graph)[..., pair.dim_g:]


def _assert_same(got, want):
    assert got.shape == want.shape and not (got != want).any()


def _assert_graph_brackets(pair, tarr, sarr=None):
    """The induced brackets of T, with S on the V slot, equal the reference
    formulas and the graph brackets of the semidirect product."""
    rho, mu, d = pair.rep.rho_arr, pair.rep.mu_arr, pair.d
    if sarr is None:
        for arity in (2, 3):
            got = _induced(pair, tarr, arity)
            _assert_same(got, _reference_induced_brackets(rho, mu, d, tarr, arity))
            _assert_same(got, _graph_part(pair, tarr, np.identity(pair.dim_v, dtype=np.int64), arity))
        return
    got = _induced(pair, tarr, 3, sarr)
    _assert_same(got, _reference_induced_brackets(None, mu @ sarr, d @ sarr, tarr, 3))
    _assert_same(got, _graph_part(pair, tarr, sarr, 3))


def test_induced_brackets_are_graph_brackets_of_the_semidirect_product():
    """On the 18 catalog adjoint and coadjoint pairs, the brackets T induces on
    V (_induced) equal the hand formulas they replace and the V part of the
    semidirect product's brackets on the graph of T: for stacks of grid
    operators, Rota-Baxter and not; for the pencil T1 + t T2 over Q[t]; and,
    for the strong condition, with a seeded S != Id on the V slot.  The
    pre-Lie-Yamaguti products of a Rota-Baxter operator equal theirs too."""
    rng = random.Random(20250810)
    verdicts = set()
    for name in CATALOG:
        alg = catalog_algebra(name)
        for rep in (adjoint_rep(alg), coadjoint_rep(alg)):
            P = LieYRepPair(alg, rep)
            n, m = P.dim_g, P.dim_v
            hits = search_rb_operators(P, (-1, 0, 1), limit=3)
            grid = [Matrix([[rng.choice((-1, 0, 1)) for _ in range(m)] for _ in range(n)]) for _ in range(3)]
            stack = np.stack([t.arr for t in hits + grid])
            verdicts |= {is_relative_rb(P, t) for t in hits + grid}
            _assert_graph_brackets(P, stack)
            t1, t2 = hits[-1], grid[0]
            assert not t2.is_zero()
            _assert_graph_brackets(P, t1.arr)
            _assert_graph_brackets(P, polynomial([t1.arr, t2.arr]))
            s = Matrix([[rng.choice((-1, 0, 1, 2)) for _ in range(m)] for _ in range(m)])
            assert s != Matrix.identity(m)
            _assert_graph_brackets(P, t1.arr, s.arr)
            _assert_graph_brackets(P, stack, s.arr)
            star, brace = pre_ly_products(RelativeRBOperator(P, t1))
            _assert_same(star, einsum("au,axv->uvx", t1.arr, rep.rho_arr))
            _assert_same(brace, einsum("vwxu->uvwx", _reference_images(rep.mu_arr, t1.arr)))
    assert verdicts == {True, False}
