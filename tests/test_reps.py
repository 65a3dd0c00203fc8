import random
from fractions import Fraction

import numpy as np
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
from lieyam.deform import DeformationData, deformed_pair_structures
from lieyam.errors import DimMismatchError, InternalConsistencyError, InvalidRepresentationError
from lieyam.linalg import exact, polynomial
from lieyam.reps import REP_LAWS, _blocks, _der3_residual, _derived, _semidirect, _slice_residual
from lieyam.search import CATALOG, catalog_algebra
from test_rep_golden import _perturbed


def _with(arr, idx, delta):
    """A writable object-array copy of the exact array `arr`, with `delta` added at `idx`."""
    out = np.array(arr, dtype=object)
    out[idx] = out[idx] + np.array(delta, dtype=object)
    return out


def _vanishes(arr):
    return not (arr != 0).any()


def test_adjoint_matrices(a2):
    adj = adjoint_rep(a2)
    assert adj.rho_arr.tolist() == [[[0, 1], [0, 0]], [[-1, 0], [0, 0]]]
    assert adj.mu_arr[1, 1].tolist() == [[1, 0], [0, 0]]
    assert _vanishes(adj.mu_arr[1, 0])
    assert _vanishes(adj.mu_arr[0, 0])
    assert adj.mu_arr[0, 1].tolist() == [[0, -1], [0, 0]]


def test_derived_d_adjoint(a2):
    adj = adjoint_rep(a2)
    d = derived_D(a2, adj)
    # D(e1,e2) acts as z -> <<e1,e2,z>>: e2 -> e1, e1 -> 0
    assert d[0, 1].tolist() == [[0, 1], [0, 0]]
    assert d[1, 0].tolist() == [[0, -1], [0, 0]]
    assert _vanishes(d[0, 0])


def test_derived_d_zero_rep(a2):
    zero = Representation.zero(2, 3)
    d = derived_D(a2, zero)
    assert _vanishes(d) and d.shape == (2, 2, 3, 3)


def test_derived_d_cancellation():
    # symmetric mu and commuting rho with rho([x,y]) = 0 force D = 0
    ab = LieYamagutiAlgebra.abelian(2)
    mu = [[1, 2], [2, 1]]
    rep = Representation(2, 2, [[[1, 0], [0, 1]], [[3, 0], [0, 3]]], [[mu, mu], [mu, mu]])
    d = derived_D(ab, rep)
    assert _vanishes(d)


def test_check_representation_fixtures(a2, so3, sl2):
    for alg in (a2, so3, sl2):
        for rep in (adjoint_rep(alg), coadjoint_rep(alg), Representation.zero(alg.dim, 2)):
            assert check_representation(alg, rep).passed
            assert check_derived_identities(alg, rep).passed


def test_check_representation_perturbed(a2):
    adj = adjoint_rep(a2)
    broken = Representation(2, 2, adj.rho_arr, _with(adj.mu_arr, (1, 1), [[0, 0], [1, 0]]))
    rep = check_representation(a2, broken)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.ok]
    assert failing and failing[0].witness is not None


def test_derived_d_refuses_a_nonzero_diagonal():
    """D(x, x) = -rho([x, x]) vanishes for an antisymmetric bracket; one
    [e_i, e_i] != 0, at any i, makes derived_D refuse its D."""
    sl2 = catalog_algebra("sl2")
    adj = adjoint_rep(sl2)
    for i in range(sl2.dim):
        b = np.asarray(sl2.b_arr).copy()
        b[i, i, (i + 1) % sl2.dim] = 1
        bad = LieYamagutiAlgebra(sl2.dim, b, sl2.t_arr, validate=False)
        with pytest.raises(InternalConsistencyError, match="^derived D is not skew-symmetric$"):
            derived_D(bad, adj)


def test_adjoint_consistency_guard(so3):
    # on an invalid algebra the adjoint derived-D identity fails loudly
    tern = _with(so3.t_arr, (0, 1, 2, 0), 1)
    tern[1, 0, 2, 0] -= 1
    bad = LieYamagutiAlgebra(3, so3.b_arr, tern)
    assert not bad.check_axioms().passed
    with pytest.raises(InternalConsistencyError):
        adjoint_rep(bad)
    adjoint_rep(bad, check=False)  # explicit opt-out for broken fixtures


def test_dual_rep_involution(a2, so3):
    for alg in (a2, so3):
        rep = adjoint_rep(alg)
        dd = dual_rep(dual_rep(rep))
        assert dd.rho_arr.tolist() == rep.rho_arr.tolist()
        assert dd.mu_arr.tolist() == rep.mu_arr.tolist()


def test_dual_of_zero_is_zero():
    z = Representation.zero(3, 2)
    dz = dual_rep(z)
    assert _vanishes(dz.rho_arr) and dz.rho_arr.shape == (3, 2, 2)
    assert _vanishes(dz.mu_arr) and dz.mu_arr.shape == (3, 3, 2, 2)


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
    assert _vanishes(sd.b_arr) and _vanishes(sd.t_arr)


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
    assert sd.b_arr.tolist() == want.b_arr.tolist() and sd.t_arr.tolist() == want.t_arr.tolist()
    assert sd.basis_names == want.basis_names


def test_semidirect_rejects_invalid_rep(a2):
    adj = adjoint_rep(a2)
    broken = Representation(2, 2, adj.rho_arr, _with(adj.mu_arr, (0, 1), [[1, 0], [0, 0]]))
    with pytest.raises(InvalidRepresentationError):
        semidirect(a2, broken)


def test_semidirect_iff_fuzz(a2, rng):
    """Invalid representation data always breaks some semidirect axiom."""
    adj = adjoint_rep(a2)
    checked_invalid = 0
    for _ in range(40):
        rho = [_with(m, (), [[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
               for m in adj.rho_arr]
        mu = [[_with(m, (), [[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
               for m in row] for row in adj.mu_arr]
        cand = Representation(2, 2, rho, mu)
        valid = check_representation(a2, cand).passed
        sd = _semidirect(a2, cand, _derived(a2, cand))
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
    mu = _with(adj.mu_arr, (1, 1), [[0, 0], [1, 0]])
    with pytest.raises(InvalidRepresentationError):
        LieYRepPair(a2, Representation(2, 2, adj.rho_arr, mu))


def test_mu_stored_on_ordered_pairs(a2):
    # mu is on ordered pairs: mu(e2,e2) nonzero while mu(e2,e1) zero
    adj = adjoint_rep(a2)
    assert adj.mu_arr[1, 1].tolist() != adj.mu_arr[1, 0].tolist()
    # and the pair's mu is not symmetrized: mu(x, y) = mu(y, x) fails on vectors
    x, y = exact([Fraction(2), Fraction(-1)]), exact([Fraction(1, 2), Fraction(3)])
    mu_xy = np.einsum("j,jab->ab", y, np.einsum("i,ijab->jab", x, adj.mu_arr))
    mu_yx = np.einsum("j,jab->ab", x, np.einsum("i,ijab->jab", y, adj.mu_arr))
    assert (mu_xy != mu_yx).any()


def test_pair_homomorphism_witness_names_law_and_first_tuple(a2, a2_adjoint):
    ident = Matrix.identity(2)
    assert pair_homomorphism_witness(ident, ident, a2_adjoint, a2_adjoint) is None
    # binary: the swap sends [e1,e2] = e1 to e2 but [e2,e1] = -e1
    wit = pair_homomorphism_witness(Matrix([[0, 1], [1, 0]]), ident, a2_adjoint, a2_adjoint)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("binary", (0, 1), (1, 1))
    # ternary: same bracket, ternary bracket doubled on the target
    doubled = LieYamagutiAlgebra(2, a2.b_arr, np.array(a2.t_arr, dtype=object) * 2)
    target = LieYRepPair(doubled, a2_adjoint.rep, validate=False)
    wit = pair_homomorphism_witness(ident, ident, a2_adjoint, target)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("ternary", (0, 1, 1), (-1, 0))
    # rho: psi = diag(1, 2) does not commute with rho(e1) = ad e1
    wit = pair_homomorphism_witness(ident, Matrix.diag([1, 2]), a2_adjoint, a2_adjoint)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("rho", (0,), ((0, -1), (0, 0)))
    # mu: the target differs from the source only in mu(e2, e1)
    mu = _with(a2_adjoint.rep.mu_arr, (1, 0), [[1, 0], [0, 0]])
    target = LieYRepPair(a2, Representation(2, 2, a2_adjoint.rep.rho_arr, mu), validate=False)
    wit = pair_homomorphism_witness(ident, ident, a2_adjoint, target)
    assert (wit["identity"], wit["tuple"], wit["residual"]) == ("mu", (1, 0), ((-1, 0), (0, 0)))
    assert not is_pair_homomorphism(ident, ident, a2_adjoint, target)
    with pytest.raises(DimMismatchError):
        pair_homomorphism_witness(ident, Matrix.identity(3), a2_adjoint, a2_adjoint)


def test_derived_identity_failures_carry_witness(so3):
    adj = adjoint_rep(so3)
    mu = _with(adj.mu_arr, (0, 2), [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    report = check_derived_identities(so3, Representation(3, 3, adj.rho_arr, mu))
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


# -- the representation laws as slices of LY2-LY4, against the hand formulas --

def _reference_residuals(alg, rep, dd):
    """The eight laws of REP_LAWS written out by hand, each over a block s of
    first indices x = e_i: the reference the slices of the axioms must equal
    in value, axis order and sign.  Matrix products X(..) Y(..) over free
    indices are einsums "..ab,..bc->..ac"."""
    b, t, rho, mu = alg.b_arr, alg.t_arr, rep.rho_arr, rep.mu_arr

    def mu_t(s):  # mu(<<x,y,z>>, w) over (i, j, k, w)
        return np.einsum("ijkm,mwab->ijkwab", t[s], mu)

    return {
        "rep1": lambda s: np.einsum("ijm,mkab->ijkab", b[s], mu)
        - np.einsum("ikab,jbc->ijkac", mu[s], rho) + np.einsum("jkab,ibc->ijkac", mu, rho[s]),
        "rep2": lambda s: np.einsum("jkm,imab->ijkab", b, mu[s])
        - np.einsum("jab,ikbc->ijkac", rho, mu[s]) + np.einsum("kab,ijbc->ijkac", rho, mu[s]),
        "rep3": lambda s: np.einsum("ijkm,mab->ijkab", t[s], rho)
        - np.einsum("ijab,kbc->ijkac", dd[s], rho) + np.einsum("kab,ijbc->ijkac", rho, dd[s]),
        "rep4": lambda s: np.einsum("kwab,ijbc->ijkwac", mu, mu[s])
        - np.einsum("jwab,ikbc->ijkwac", mu, mu[s]) - np.einsum("jkwm,imab->ijkwab", t, mu[s])
        + np.einsum("jkab,iwbc->ijkwac", dd, mu[s]),
        "rep5": lambda s: mu_t(s) + np.einsum("ijwm,kmab->ijkwab", t[s], mu)
        - np.einsum("ijab,kwbc->ijkwac", dd[s], mu) + np.einsum("kwab,ijbc->ijkwac", mu, dd[s]),
        "der1": lambda s: np.einsum("ijm,mkab->ijkab", b[s], dd)
        + np.einsum("jkm,miab->ijkab", b, dd[:, s]) + np.einsum("kim,mjab->ijkab", b[:, s], dd),
        "der2": lambda s: np.einsum("ijkm,mwab->ijkwab", t[s], dd) + np.einsum("ijwm,kmab->ijkwab", t[s], dd)
        - np.einsum("ijab,kwbc->ijkwac", dd[s], dd) + np.einsum("kwab,ijbc->ijkwac", dd, dd[s]),
        "der3": lambda s: mu_t(s) - np.einsum("iwab,kjbc->ijkwac", mu[s], mu)
        + np.einsum("jwab,kibc->ijkwac", mu, mu[:, s]) + np.einsum("kwab,ijbc->ijkwac", mu, dd[s]),
    }


def _oracle_corpus():
    """(name, algebra, representation): the catalog algebras and a2 (+) ad and
    a2 (+) coad, each with its adjoint and coadjoint as they are and at three
    seeded perturbations of rho and mu, then one Q[t] family of a2's adjoint."""
    a2 = catalog_algebra("a2")
    algebras = [(name, catalog_algebra(name)) for name in CATALOG]
    # built unvalidated, so that the laws under test judge nothing here
    algebras += [(name, _semidirect(a2, rep, _derived(a2, rep)))
                 for name, rep in (("a2+ad", adjoint_rep(a2)), ("a2+coad", coadjoint_rep(a2)))]
    out = []
    for a, (name, alg) in enumerate(algebras):
        for b, base in enumerate((adjoint_rep(alg), coadjoint_rep(alg))):
            out.append((name, alg, base))
            out.extend((name, alg, _perturbed(base, random.Random(1000 * a + 10 * b + k))) for k in range(3))
    rng = random.Random(7)

    def draw(*shape):
        return np.array([rng.randint(-1, 1) for _ in range(int(np.prod(shape)))], dtype=np.int64).reshape(shape)

    phi, phi1, phi2 = draw(2, 2, 2), draw(2, 2, 2, 2), draw(2, 2, 2, 2)
    d = DeformationData(phi - phi.transpose(1, 0, 2), phi1 - phi1.transpose(1, 0, 2, 3),
                        phi2 - phi2.transpose(1, 0, 2, 3), draw(2, 2, 2), draw(2, 2, 2, 2), draw(2, 2, 2, 2))
    alg_t, rep_t = deformed_pair_structures(LieYRepPair(a2, adjoint_rep(a2), validate=False), d)
    assert rep_t.mu_arr.poly and alg_t.t_arr.poly
    return out + [("a2 t-family", alg_t, rep_t)]


def test_representation_laws_are_slices_of_the_axioms():
    """Each law of REP_LAWS, as reps evaluates it (a slice of LY2-LY4 over
    the brackets of g (+) V, or der3's own residual), equals its hand formula
    on every input of the corpus, entry for entry and in the same axis order.
    Enough of the residuals are nonzero that the comparison has content;
    der1 is nonzero only on the semidirect algebras."""
    nonzero = {name: [] for name in REP_LAWS}
    for name, alg, rep in _oracle_corpus():
        dd = _derived(alg, rep)
        blocks = _blocks(alg, rep, dd)
        reference = _reference_residuals(alg, rep, dd)
        for law, (_, axiom_slice) in REP_LAWS.items():
            arity, residual = (_slice_residual(blocks, *axiom_slice) if axiom_slice
                               else (4, _der3_residual(alg, rep, dd)))
            got, want = residual(slice(None)), reference[law](slice(None))
            assert got.shape == want.shape == (alg.dim,) * arity + (rep.module_dim,) * 2, (name, law)
            assert not (got != want).any(), (name, law)
            if (want != 0).any():
                nonzero[law].append(name)
    assert all(len(hits) >= 25 for law, hits in nonzero.items() if law != "der1"), nonzero
    assert len(nonzero["der1"]) >= 5 and set(nonzero["der1"]) <= {"a2+ad", "a2+coad"}, nonzero["der1"]
    assert all("a2 t-family" in nonzero[law] for law in REP_LAWS if law != "der1")


# -- the laws of a map pair as slices of one law on g (+) V --------------------
# The hand formulas these laws had before they were read off the typed
# homomorphism law and deformation tensors of algebra, kept here as the oracle.


def _reference_hat_linear(smap, x_n, x):
    """x_n + X S - S X: hat-rho(x) for x_n = rho(Nx), X = rho(x); X1 for a bilinear X."""
    return x_n + x @ smap - smap @ x


def _reference_hat_bilinear(smap, x_n, x, x_nn):
    """(X1, hat-X) of a bilinear X from x_n = X(Nx,y) + X(x,Ny), x = X(x,y), x_nn = X(Nx,Ny)."""
    x1 = _reference_hat_linear(smap, x_n, x)
    return x1, x_n @ smap + x_nn - smap @ x1


def _reference_rho_parts(rho, narr):
    return np.einsum("ax,aij->xij", narr, rho), rho


def _reference_bilinear_parts(x, narr):
    x_nx = np.einsum("ax,ayij->xyij", narr, x)
    return x_nx + np.einsum("ay,xaij->xyij", narr, x), x, np.einsum("ay,xaij->xyij", narr, x_nx)


def _reference_intertwining_residual(p, q, x, x_dst):
    """psi X(..) - X'(phi .., ..) psi over all basis tuples, for phi = p and psi = q
    (with the same leading batch axes, or none)."""
    if len(x.shape) == 3:
        img = np.einsum("...ai,axy->...ixy", p, x_dst)
    else:
        img = np.einsum("...bj,...ibxy->...ijxy", p, np.einsum("...ai,abxy->...ibxy", p, x_dst))
    qs = q.reshape(*q.shape[:-2], *(1,) * (len(x.shape) - 2), *q.shape[-2:])
    return qs @ x - img @ qs


def _reference_tables(pair, narr, sarr):
    """{X: (X, its reshaped tables)} of the reference formulas, for rho, mu and D."""
    hat = {"rho": [_reference_hat_linear(sarr, *_reference_rho_parts(pair.rep.rho_arr, narr))]}
    for name, x in (("mu", pair.rep.mu_arr), ("D", pair.d)):
        hat[name] = list(_reference_hat_bilinear(sarr, *_reference_bilinear_parts(x, narr)))
    return {"rho": (pair.rep.rho_arr, hat["rho"]), "mu": (pair.rep.mu_arr, hat["mu"]), "D": (pair.d, hat["D"])}


def _same(got, want):
    return got.shape == want.shape and not (got != want).any()


def _oracle_pairs():
    """(name, pair) over the catalog algebras, each with its adjoint and coadjoint."""
    return [(f"{name}/{which.__name__}", LieYRepPair(alg, which(alg)))
            for name in CATALOG for alg in (catalog_algebra(name),) for which in (adjoint_rep, coadjoint_rep)]


def _reference_of(pair, law):
    """The operator table X (rho, mu or D) of a pair."""
    return {"rho": pair.rep.rho_arr, "mu": pair.rep.mu_arr, "D": pair.d}[law]


def test_pair_laws_are_slices_of_the_semidirect_law():
    """The conditions on S of a Nijenhuis structure, the reshaped tables
    (hat-rho, varpi1, hat-mu, D1, hat-D) and the pair-homomorphism laws of
    rho, mu and D, as lieyam reads them off the typed Nijenhuis law,
    deformation tensors and homomorphism law on g (+) V, equal the hand
    formulas they replaced on every catalog adjoint and coadjoint pair, in
    value, shape and axis order: for Nijenhuis N with S = N and a seeded
    random S, for identities and basis changes (which pass) and random maps
    (which mostly fail), for a stack of maps, and for (Id + tN, Id + tS)
    between two Q[t] families, as equivalence_witness builds them."""
    from lieyam.algebra import G, V, _nijenhuis_residual
    from lieyam.deform import NijenhuisStructure, _family_pair, _reshaped, trivial_deformation_from
    from lieyam.reps import OPERATORS, _operator, _pair_law, change_basis, change_rep_basis
    from lieyam.search import search_nijenhuis_operators

    rng = random.Random(33)

    def draw(n, invertible=False):
        while True:
            m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if not invertible or m.rank() == n:
                return m

    structures, failing, homs, passing = 0, 0, 0, 0
    for name, pair in _oracle_pairs():
        n, br = pair.dim_g, pair.brackets
        for nmap in search_nijenhuis_operators(pair.algebra, values=(-1, 0, 1), limit=4):
            for smap in (nmap, draw(n)):
                maps = {G: nmap.arr, V: smap.arr}
                reference = _reference_tables(pair, nmap.arr, smap.arr)
                holds = True
                for law, (x, hat) in reference.items():
                    got = -_operator(law, _nijenhuis_residual(br, maps, OPERATORS[law][0])(slice(None)))
                    want = -_reference_intertwining_residual(nmap.arr, smap.arr, hat[-1], x)
                    assert _same(got, want), (name, law)
                    assert all(_same(g, w) for g, w in zip(_reshaped(br, maps, law), hat, strict=True)), (name, law)
                    holds = holds and not (want != 0).any()
                structures, failing = structures + 1, failing + (not holds)
        p, q = draw(n, invertible=True), draw(n, invertible=True)
        moved = LieYRepPair(change_basis(pair.algebra, p), change_rep_basis(pair.rep, p, q))
        moves = [(Matrix.identity(n), Matrix.identity(n), pair), (p, q, moved), (draw(n), draw(n), pair)]
        for phi, psi, src in moves:
            for law in OPERATORS:
                want = _reference_intertwining_residual(phi.arr, psi.arr, _reference_of(src, law),
                                                        _reference_of(pair, law))
                assert _same(_pair_law(phi.arr, psi.arr, src.brackets, br, law)(slice(None)), want), (name, law)
            homs, passing = homs + 1, passing + is_pair_homomorphism(phi, psi, src, pair)
        stack = [np.stack([m.arr for m in maps]) for maps in zip(*[move[:2] for move in moves])]
        for law in OPERATORS:
            x = _reference_of(pair, law)
            assert _same(_pair_law(*stack, br, br, law)(slice(None)),
                         _reference_intertwining_residual(*stack, x, x)), (name, law)
    assert structures > 100 and structures // 3 < failing < structures, (structures, failing)
    assert 2 * len(_oracle_pairs()) <= passing < homs, (homs, passing)

    # one Q[t] family: (Id + tN, Id + tN) between the trivial deformation of
    # the Nijenhuis structure (N, N) on a2's adjoint and the undeformed pair,
    # which it maps onto that pair but not back
    a2 = dict(_oracle_pairs())["a2/adjoint_rep"]
    nmap = next(x for x in search_nijenhuis_operators(a2.algebra, values=(-1, 0, 1)) if not x.is_zero())
    family = _family_pair(a2, trivial_deformation_from(a2, NijenhuisStructure(a2, nmap, nmap)))
    phi = (Matrix.identity(2) + Matrix.from_array(polynomial([0, nmap.arr]))).arr
    assert family.rep.mu_arr.poly and phi.poly
    for law in OPERATORS:
        for src, dst in ((family, a2), (a2, family)):
            want = _reference_intertwining_residual(phi, phi, _reference_of(src, law), _reference_of(dst, law))
            assert _same(_pair_law(phi, phi, src.brackets, dst.brackets, law)(slice(None)), want), law
            assert (want != 0).any() == (src is a2), law
