"""Representations (rho, mu), the derived operator D, and constructions.

A representation of a Lie-Yamaguti algebra g on V is a pair of maps
rho: g -> gl(V) and mu: (x,y) -> gl(V) (mu is on ordered pairs, no
symmetry) subject to five conditions; rho is stored as one array of the
matrices rho(e_i) and mu as one array of the matrices mu(e_i, e_j).

The derived operator is

    D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y])

and is skew-symmetric by construction.

rho, mu and D are kept as exact arrays, and only as those (rho_arr[i],
mu_arr[i, j], d[i, j]; see linalg.exact_array: ExactArrays over the
rationals or over Q[t]).  Every law is a residual array over a block of
first basis indices, scanned by report.first_violation.  (V; rho, mu) is
a representation of a Lie-Yamaguti algebra g exactly when g (+) V is one,
and rep1-rep5, der1 and der2 are slices of LY2-LY4 with one slot in V
(REP_LAWS, algebra.axiom_residual over the brackets _blocks of g (+) V,
which _semidirect places).  der3 keeps its own residual.  (phi, psi) is a
pair homomorphism exactly when phi (+) psi is one of g (+) V: its rho, mu
and D laws are slices of algebra._homomorphism_residual over _blocks, on
the slots of OPERATORS (_pair_law, for pair_homomorphism_witness and
pair_derivations).

Conventions fixed here and relied on elsewhere:

* semidirect basis order is g-part first, then V-part;
* a basis change (change_basis, change_rep_basis) transports the
  constants along invertible maps, each input slot contracted with the
  map and the output slot with its inverse;
* duality uses the standard coordinate pairing <e_i*, e_j> = delta_ij,
  under which the dual representation is rho'(x) = -rho(x)^T and
  mu'(x,y) = mu(y,x)^T (validated by check_representation in the tests).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import (G, V, LieYamagutiAlgebra, _homomorphism_residual, _value, axiom_residual,
                      homomorphism_witness)
from .errors import DimMismatchError, InternalConsistencyError, InvalidRepresentationError
from .linalg import Matrix, coefficient, einsum, exact, polynomial, reduced, solve
from .report import VerificationReport, first_violation

#: Each law, and but for der3 the axiom of g (+) V it is a slice of, with one
#: slot in V: (axiom, the type of each of its slots, its g slots in the law's
#: order).  The law's residual is the axiom's with those g axes first and then
#: the matrix (value, V input).
REP_LAWS = {
    "rep1": ("mu([x,y],z) - mu(x,z)rho(y) + mu(y,z)rho(x) = 0", ("LY2", "gVgg", (0, 2, 3))),
    "rep2": ("mu(x,[y,z]) - rho(y)mu(x,z) + rho(z)mu(x,y) = 0", ("LY3", "gVgg", (0, 3, 2))),
    "rep3": ("rho(<<x,y,z>>) = [D(x,y), rho(z)]", ("LY3", "ggVg", (0, 1, 3))),
    "rep4": ("mu(z,w)mu(x,y) - mu(y,w)mu(x,z) - mu(x,<<y,z,w>>) + D(y,z)mu(x,w) = 0",
             ("LY4", "gVggg", (0, 2, 3, 4))),
    "rep5": ("mu(<<x,y,z>>,w) + mu(z,<<x,y,w>>) = [D(x,y), mu(z,w)]", ("LY4", "gggVg", (0, 1, 2, 4))),
    "der1": ("D([x,y],z) + D([y,z],x) + D([z,x],y) = 0", ("LY2", "gggV", (0, 1, 2))),
    "der2": ("D(<<x,y,z>>,w) + D(z,<<x,y,w>>) = [D(x,y), D(z,w)]", ("LY4", "ggggV", (0, 1, 3, 2))),
    "der3": ("mu(<<x,y,z>>,w) = mu(x,w)mu(z,y) - mu(y,w)mu(z,x) - mu(z,w)D(x,y)", None),
}


class Representation:
    """(V; rho, mu) given by the arrays rho_arr[i] = rho(e_i), of shape
    (n, m, m), and mu_arr[i, j] = mu(e_i, e_j), of shape (n, n, m, m).

    rho and mu may be given as any arrays (or nested sequences) of those
    shapes; they are kept as exact arrays in lowest terms (see
    linalg.reduced).
    """

    def __init__(self, algebra_dim, module_dim, rho, mu):
        n = self.algebra_dim = int(algebra_dim)
        m = self.module_dim = int(module_dim)
        # the coboundary's term table and the derived D over one algebra,
        # each built on first use and freed with the representation
        self._coboundary_terms = None
        self._derived = None
        self.rho_arr, self.mu_arr = reduced(exact(rho)), reduced(exact(mu))
        if self.rho_arr.shape != (n, m, m) or self.mu_arr.shape != (n, n, m, m):
            raise DimMismatchError(f"rho/mu arrays must have shapes {(n, m, m)} and {(n, n, m, m)}")

    @classmethod
    def zero(cls, algebra_dim, module_dim):
        n, m = algebra_dim, module_dim
        return cls(n, m, np.zeros((n, m, m), dtype=np.int64), np.zeros((n, n, m, m), dtype=np.int64))


def derived_D(alg: LieYamagutiAlgebra, rep: Representation):
    """D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y]), as the
    exact array of the operators D(e_i, e_j) over (i, j); skew-symmetric."""
    if rep.algebra_dim != alg.dim:
        raise DimMismatchError("representation does not match the algebra dimension")
    rho, mu = rep.rho_arr, rep.mu_arr
    rr = einsum("iab,jbc->ijac", rho, rho)
    d = (mu.transpose(1, 0, 2, 3) - mu + rr - rr.transpose(1, 0, 2, 3)
         - einsum("ijk,kab->ijab", alg.b_arr, rho))
    diagonal = np.arange(alg.dim)
    if (d[diagonal, diagonal] != 0).any():
        raise InternalConsistencyError("derived D is not skew-symmetric")
    return exact(d)


def _derived(alg: LieYamagutiAlgebra, rep: Representation):
    """derived_D(alg, rep), computed on first use and kept on rep (keyed by alg)."""
    if rep._derived is None or rep._derived[0] is not alg:
        rep._derived = (alg, derived_D(alg, rep))
    return rep._derived[1]


#: rho, mu and D in g (+) V, [x,v] = rho(x)v, <<x,v,y>> = -mu(x,y)v and
#: <<x,y,v>> = D(x,y)v: (input types, sign, axes), the table X[g inputs, a, b]
#: being sign times that bracket's block with its axes in that order (_operator).
OPERATORS = {"rho": ((G, V), 1, (0, 2, 1)), "mu": ((G, V, G), -1, (0, 2, 3, 1)),
             "D": ((G, G, V), 1, (0, 1, 3, 2))}


def _blocks(alg: LieYamagutiAlgebra, rep: Representation, d):
    """The brackets of g (+) V by input types (algebra.G, V), for d the derived D:
    b, t, and rho, mu and D placed as OPERATORS reads them, each a view (or its
    negative) with its axes the inputs and then the value; the brackets with
    two or more inputs in V vanish."""
    br = {(G, G): alg.b_arr, (G, G, G): alg.t_arr}
    for (slots, sign, axes), x in zip(OPERATORS.values(), (rep.rho_arr, rep.mu_arr, d)):
        x = x.transpose(*sorted(range(len(axes)), key=axes.__getitem__))
        br[slots] = x if sign > 0 else -x
    br[V, G], br[V, G, G] = -br[G, V].transpose(1, 0, 2), -br[G, V, G].transpose(1, 0, 2, 3)
    return br


def _operator(name, x):
    """The table of operators on V read off x, an array over the slots of
    OPERATORS[name] and then the value, after any leading batch axes: a
    bracket of g (+) V, or a law or a deformation tensor over those slots."""
    _, sign, axes = OPERATORS[name]
    lead = len(x.shape) - len(axes)
    x = x.transpose(*range(lead), *(lead + a for a in axes))
    return x if sign > 0 else -x


def _slice_residual(blocks, axiom, slots, g_slots):
    """(arity, residual) of a law of REP_LAWS, given its slice, over a block s
    of first indices x = e_i, for blocks the brackets of g (+) V (_blocks)."""
    residual = axiom_residual(axiom, blocks, slots)
    return len(g_slots), lambda s: residual(s).transpose(*g_slots, len(slots), slots.index(V))


def _der3_residual(alg: LieYamagutiAlgebra, rep: Representation, dd):
    """der3 over a block s of first indices x = e_i, for dd the derived D.  It
    is no slice of LY1-LY4 with one slot in V, so it is written out here."""
    t, mu = alg.t_arr, rep.mu_arr
    return lambda s: (einsum("ijkm,mwab->ijkwab", t[s], mu) - einsum("iwab,kjbc->ijkwac", mu[s], mu)
                      + einsum("jwab,kibc->ijkwac", mu, mu[:, s])
                      + einsum("kwab,ijbc->ijkwac", mu, dd[s]))


def _law_report(alg: LieYamagutiAlgebra, rep: Representation, subject, prefix) -> VerificationReport:
    """The laws of REP_LAWS whose names start with `prefix`, in table order,
    each with its first violating basis tuple."""
    dd = _derived(alg, rep)
    blocks = _blocks(alg, rep, dd)
    report = VerificationReport(subject=subject)
    for name, (law, axiom_slice) in REP_LAWS.items():
        if name.startswith(prefix):
            arity, residual = (_slice_residual(blocks, *axiom_slice) if axiom_slice
                               else (4, _der3_residual(alg, rep, dd)))
            wit = first_violation(residual, (alg.dim,) * arity)
            report.add(name, wit is None, law, wit)
    return report


def check_representation(alg: LieYamagutiAlgebra, rep: Representation) -> VerificationReport:
    """Verify the five representation conditions on all basis tuples."""
    return _law_report(alg, rep, f"representation conditions (dim {alg.dim} on {rep.module_dim})", "rep")


def check_derived_identities(alg: LieYamagutiAlgebra, rep: Representation) -> VerificationReport:
    """Verify the three consequences of the representation conditions."""
    return _law_report(alg, rep, "derived representation identities", "der")


def adjoint_rep(alg: LieYamagutiAlgebra, check=True) -> Representation:
    """Adjoint representation: rho = ad, mu(x,y): z -> <<z,x,y>>.

    With check=True (default) the derived D is asserted to act as
    z -> <<x,y,z>>, which holds whenever the algebra satisfies its
    axioms; pass check=False for deliberately broken fixtures.
    """
    n = alg.dim
    rep = Representation(n, n, alg.b_arr.transpose(0, 2, 1), alg.t_arr.transpose(1, 2, 3, 0))
    if check:
        _assert_adjoint_d(alg, _derived(alg, rep))
    return rep


def _assert_adjoint_d(alg: LieYamagutiAlgebra, d):
    """Raise unless d, the derived D of alg's adjoint representation, is z -> <<x,y,z>>."""
    left = alg.t_arr.transpose(0, 1, 3, 2)
    wit = first_violation(lambda s: d[s] - left[s], (alg.dim,) * 2)
    if wit is not None:
        raise InternalConsistencyError(
            "derived D of the adjoint representation does not equal the left triple "
            f"multiplication at {wit['tuple']}"
        )


def dual_rep(rep: Representation) -> Representation:
    """Dual representation on V*: rho'(x) = -rho(x)^T, mu'(x,y) = mu(y,x)^T."""
    return Representation(rep.algebra_dim, rep.module_dim, -rep.rho_arr.transpose(0, 2, 1),
                          rep.mu_arr.transpose(1, 0, 3, 2))


def coadjoint_rep(alg: LieYamagutiAlgebra, check=True) -> Representation:
    return dual_rep(adjoint_rep(alg, check=check))


def _transport(x, *maps):
    """x with its first axis contracted with each map in turn, the new axis
    appended: after every slot has had its map, the slots are back in
    their order."""
    for m in maps:
        x = einsum("a...,ai->...i", x, m)
    return x


def change_basis(alg: LieYamagutiAlgebra, p: Matrix) -> LieYamagutiAlgebra:
    """Transport the structure constants along an invertible map P: the
    constants X[..., k] become P^-1 X(P., ..., P.), each input slot
    contracted with P and the output slot with P^-1."""
    p.expect(alg.dim, alg.dim, "basis change must be square of the algebra dimension")
    pt, pinv = p.arr, p.invert().arr
    return LieYamagutiAlgebra(alg.dim, _transport(alg.b_arr, pt, pt, pinv.T),
                              _transport(alg.t_arr, pt, pt, pt, pinv.T), alg.basis_names)


def change_rep_basis(rep: Representation, p: Matrix, q: Matrix) -> Representation:
    """Transport a representation along invertible maps P on the algebra
    and Q on the module: rho(x) and mu(x, y) become Q^-1 rho(P x) Q and
    Q^-1 mu(P x, P y) Q.  With change_basis(alg, P) it moves the pair
    (alg, rep) along (P, Q), and (P, Q) is then a pair homomorphism from
    the moved pair to the given one (is_pair_homomorphism)."""
    p.expect(rep.algebra_dim, rep.algebra_dim, "basis change must be square of the algebra dimension")
    q.expect(rep.module_dim, rep.module_dim, "module basis change must be square of the module dimension")
    pt, qt, qinv = p.arr, q.arr, q.invert().arr
    return Representation(rep.algebra_dim, rep.module_dim, _transport(rep.rho_arr, pt, qinv.T, qt),
                          _transport(rep.mu_arr, pt, pt, qinv.T, qt))


def semidirect(alg: LieYamagutiAlgebra, rep: Representation) -> LieYamagutiAlgebra:
    """Semidirect product Lie-Yamaguti algebra on g (+) V.

    [x+u, y+v]      = [x,y] + rho(x)v - rho(y)u
    <<x+u,y+v,z+w>> = <<x,y,z>> + D(x,y)w + mu(y,z)u - mu(x,z)v

    Basis order: g-part first, then V-part.
    """
    rr = check_representation(alg, rep)  # raises DimMismatchError on another algebra's module
    if not rr.passed:
        raise InvalidRepresentationError(
            f"semidirect product needs a valid representation; failing: "
            f"{[c.name for c in rr.checks if not c.ok]}"
        )
    return _semidirect(alg, rep, _derived(alg, rep))


def _semidirect(alg: LieYamagutiAlgebra, rep: Representation, d) -> LieYamagutiAlgebra:
    """The semidirect product of `semidirect`, given the derived D of (alg, rep)."""
    n, m = alg.dim, rep.module_dim
    part = {G: slice(0, n), V: slice(n, n + m)}
    tables = {2: np.zeros((n + m,) * 3, dtype=object), 3: np.zeros((n + m,) * 4, dtype=object)}
    for types, block in _blocks(alg, rep, d).items():
        tables[len(types)][(*(part[x] for x in types), part[_value(*types)])] = block
    names = [f"g:{x}" for x in alg.basis_names] + [f"v{i+1}" for i in range(m)]
    return LieYamagutiAlgebra(n + m, tables[2], tables[3], names)


class LieYRepPair:
    """A Lie-Yamaguti algebra together with a representation, both validated."""

    def __init__(self, algebra: LieYamagutiAlgebra, rep: Representation, validate=True):
        if rep.algebra_dim != algebra.dim:
            raise DimMismatchError("representation does not match the algebra dimension")
        self.algebra = algebra
        self.rep = rep
        if validate:
            ar = algebra.check_axioms()
            if not ar.passed:
                raise InvalidRepresentationError(
                    f"algebra fails axioms: {[c.name for c in ar.checks if not c.ok]}"
                )
            rr = check_representation(algebra, rep)
            if not rr.passed:
                raise InvalidRepresentationError(
                    f"representation fails: {[c.name for c in rr.checks if not c.ok]}"
                )
        self.d = _derived(algebra, rep)
        # the pair complex's semidirect tables, built on first use by
        # lieyam.paircomplex and freed with the pair
        self._pair_complex = None

    @property
    def dim_g(self):
        return self.algebra.dim

    @property
    def dim_v(self):
        return self.rep.module_dim

    @cached_property
    def brackets(self):
        """The brackets of g (+) V by input types (_blocks), built on first use."""
        return _blocks(self.algebra, self.rep, self.d)

    def semidirect(self) -> LieYamagutiAlgebra:
        return _semidirect(self.algebra, self.rep, self.d)


def pair_homomorphism_witness(phi: Matrix, psi: Matrix, src: LieYRepPair, dst: LieYRepPair):
    """First basis tuple of g where (phi, psi) fails to be a pair homomorphism, or None.

    binary, ternary: phi is an algebra homomorphism (homomorphism_witness);
    rho: psi rho(x) = rho'(phi x) psi;  mu: psi mu(x,y) = mu'(phi x, phi y) psi;
    D:   psi D(x,y) = D'(phi x, phi y) psi.
    The laws are tried in that order; the witness is {"identity", "tuple",
    "residual"}, the residual a vector of g or a matrix on V.
    """
    psi.expect(dst.dim_v, src.dim_v, "psi must map the source module to the target module")
    wit = homomorphism_witness(phi, src.algebra, dst.algebra)
    for name, (slots, _, _) in OPERATORS.items():
        law = _pair_law(phi.arr, psi.arr, src.brackets, dst.brackets, name)
        wit = wit or first_violation(law, (src.dim_g,) * (len(slots) - 1), identity=name)
    return wit


def _pair_law(p, q, src, dst, name):
    """psi X(..) - X'(phi .., ..) psi for X = name (rho, mu or D), phi = p and psi = q
    (which may carry leading batch axes), over a block s of first basis indices:
    the slice on X's slots (OPERATORS) of the homomorphism law of phi (+) psi
    between the brackets src and dst of g (+) V (_blocks)."""
    slots = OPERATORS[name][0]
    residual = _homomorphism_residual({G: p, V: q}, src[slots], dst, slots)
    return lambda s: _operator(name, residual(s))


#: Most (unit, basis tuple) entries one law evaluation of pair_derivations
#: holds: the units of a block times the tuples of the largest law.
DERIVATION_BLOCK = 1 << 18


def derivation_law_sizes(n, m):
    """The equations of each law in the linear system of pair_derivations,
    for an algebra of dimension n and a module of dimension m: the binary
    and the ternary bracket law at x < y, then the rho and the mu law.
    The system has one column per entry of (D_g, D_V), n^2 + m^2."""
    pairs = n * (n - 1) // 2
    return pairs * n, pairs * n * n, n * m * m, n * n * m * m


def pair_derivations(alg: LieYamagutiAlgebra, rep: Representation):
    """A basis of Der(g, V), as (D_g, D_V) pairs of matrices.

    (D_g, D_V) is a derivation of the pair exactly when (Id + t D_g,
    Id + t D_V) satisfies the pair-homomorphism laws to first order in t:
    D_g is a derivation of both brackets, and D_V rho(x) - rho(x) D_V =
    rho(D_g x), likewise for mu (D follows from rho, mu and the bracket).
    Those laws (algebra._homomorphism_residual, its slices _pair_law)
    run over Q[t] on the stacks of every (Id + t E, Id) and every (Id,
    Id + t E), E a unit matrix, a block of units at a time; their
    coefficients of t^1 are the columns of a linear system, whose kernel
    (the rows of K of linalg.solve) is Der(g, V).  The bracket laws are
    antisymmetric in their first two slots, so only their rows of x < y
    are kept, and they vanish on the second stack, where phi = Id.
    """
    if rep.algebra_dim != alg.dim:
        raise DimMismatchError("representation does not match the algebra dimension")
    n, m = alg.dim, rep.module_dim
    x, y = np.triu_indices(n, 1)
    sizes = derivation_law_sizes(n, m)
    ident_g, ident_v = exact(np.identity(n, dtype=np.int64)), exact(np.identity(m, dtype=np.int64))
    step = max(1, DERIVATION_BLOCK // max(1, n**5, n * n * m * m))
    blocks = _blocks(alg, rep, _derived(alg, rep))

    def first_order(p, q, units, moves_g):
        """The t^1 coefficients of the laws at the stacks (p, q), as a
        (units, equations) array."""
        laws = [_pair_law(p, q, blocks, blocks, name)(slice(None)) for name in ("rho", "mu")]
        if moves_g:
            laws[:0] = [_homomorphism_residual({G: p}, blocks[slots], blocks, slots)(slice(None))[:, x, y]
                        for slots in ((G, G), (G, G, G))]
        else:
            laws[:0] = [exact(np.zeros((units, size), dtype=np.int64)) for size in sizes[:2]]
        return np.concatenate([coefficient(law, 1).reshape(units, size).T
                               for law, size in zip(laws, sizes)]).T

    stacks = []
    for dim, moves_g in ((n, True), (m, False)):
        units = np.identity(dim * dim, dtype=np.int64).reshape(dim * dim, dim, dim)
        for start in range(0, dim * dim, step):
            e = polynomial([np.identity(dim, dtype=np.int64), units[start:start + step]])
            p, q = (e, ident_v) if moves_g else (ident_g, e)
            stacks.append(first_order(p, q, len(e), moves_g))
    system = Matrix.from_array(np.concatenate(stacks).T) if stacks else Matrix.zero(sum(sizes), 0)
    return [(Matrix.from_array(v[:n * n].reshape(n, n)), Matrix.from_array(v[n * n:].reshape(m, m)))
            for v in solve(system)[1].arr]


def is_pair_homomorphism(phi: Matrix, psi: Matrix, src: LieYRepPair, dst: LieYRepPair) -> bool:
    """(phi, psi) intertwines both brackets and (rho, mu, D)."""
    return pair_homomorphism_witness(phi, psi, src, dst) is None
