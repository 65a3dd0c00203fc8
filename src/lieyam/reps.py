"""Representations (rho, mu), the derived operator D, and constructions.

A representation of a Lie-Yamaguti algebra g on V is a pair of maps
rho: g -> gl(V) and mu: (x,y) -> gl(V) (mu is on ordered pairs, no
symmetry) subject to five conditions; we store rho as a list of
module-size matrices and mu as a full dim x dim table of matrices.

The derived operator is

    D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y])

and is skew-symmetric by construction.

Every law is written once as a residual at one basis tuple and evaluated
by report.first_violation: rep1-rep5 and der1-der3 (the table
_law_residuals, behind check_representation and
check_derived_identities) and the pair-homomorphism law
(pair_homomorphism_witness, behind is_pair_homomorphism).  Linear
combinations sum c * M over nonzero coefficients only
(Matrix.weighted_sum).

Conventions fixed here and relied on elsewhere:

* semidirect basis order is g-part first, then V-part;
* duality uses the standard coordinate pairing <e_i*, e_j> = delta_ij,
  under which the dual representation is rho'(x) = -rho(x)^T and
  mu'(x,y) = mu(y,x)^T (validated by check_representation in the tests).
"""

from __future__ import annotations

from itertools import product

from .algebra import LieYamagutiAlgebra, homomorphism_witness
from .errors import DimMismatchError, InternalConsistencyError, InvalidRepresentationError
from .linalg import Matrix, vzero
from .report import VerificationReport, first_violation
from .scalars import is_zero

REP_LAWS = {
    "rep1": "mu([x,y],z) - mu(x,z)rho(y) + mu(y,z)rho(x) = 0",
    "rep2": "mu(x,[y,z]) - rho(y)mu(x,z) + rho(z)mu(x,y) = 0",
    "rep3": "rho(<<x,y,z>>) = [D(x,y), rho(z)]",
    "rep4": "mu(z,w)mu(x,y) - mu(y,w)mu(x,z) - mu(x,<<y,z,w>>) + D(y,z)mu(x,w) = 0",
    "rep5": "mu(<<x,y,z>>,w) + mu(z,<<x,y,w>>) = [D(x,y), mu(z,w)]",
    "der1": "D([x,y],z) + D([y,z],x) + D([z,x],y) = 0",
    "der2": "D(<<x,y,z>>,w) + D(z,<<x,y,w>>) = [D(x,y), D(z,w)]",
    "der3": "mu(<<x,y,z>>,w) = mu(x,w)mu(z,y) - mu(y,w)mu(z,x) - mu(z,w)D(x,y)",
}


class Representation:
    """(V; rho, mu) given by matrices on basis coordinates."""

    def __init__(self, algebra_dim, module_dim, rho, mu):
        self.algebra_dim = int(algebra_dim)
        self.module_dim = int(module_dim)
        self.rho = list(rho)
        self.mu = [list(row) for row in mu]
        if len(self.rho) != self.algebra_dim or len(self.mu) != self.algebra_dim:
            raise DimMismatchError("rho/mu tables must have one entry per basis vector")
        for m in self.rho:
            self._check_mat(m)
        for row in self.mu:
            if len(row) != self.algebra_dim:
                raise DimMismatchError("mu table must be dim x dim")
            for m in row:
                self._check_mat(m)

    def _check_mat(self, m):
        if m.rows != self.module_dim or m.cols != self.module_dim:
            raise DimMismatchError(
                f"representation matrices must be {self.module_dim}x{self.module_dim}"
            )

    @classmethod
    def zero(cls, algebra_dim, module_dim):
        z = Matrix.zero(module_dim)
        return cls(algebra_dim, module_dim, [z] * algebra_dim,
                   [[z] * algebra_dim for _ in range(algebra_dim)])

    def rho_vec(self, x):
        """rho(x) for a coordinate vector x."""
        return Matrix.weighted_sum(zip(x, self.rho), self.module_dim)

    def mu_vec(self, x, y):
        """mu(x, y) for coordinate vectors."""
        return Matrix.weighted_sum(((xi * yj, m) for xi, row in zip(x, self.mu) if not is_zero(xi)
                                    for yj, m in zip(y, row)), self.module_dim)

    def mu_vl(self, x, j):
        """mu(x, e_j) for a coordinate vector x."""
        return Matrix.weighted_sum(zip(x, (row[j] for row in self.mu)), self.module_dim)

    def mu_vr(self, i, y):
        """mu(e_i, y) for a coordinate vector y."""
        return Matrix.weighted_sum(zip(y, self.mu[i]), self.module_dim)


class DerivedD:
    """Table of the derived operators D(e_i, e_j); skew-symmetric."""

    def __init__(self, table, module_dim):
        self.table = table
        self.module_dim = module_dim

    def at(self, i, j) -> Matrix:
        return self.table[i][j]

    def vec(self, x, y) -> Matrix:
        """D(x, y) for coordinate vectors."""
        return Matrix.weighted_sum(((xi * yj, m) for xi, row in zip(x, self.table) if not is_zero(xi)
                                    for yj, m in zip(y, row)), self.module_dim)

    def vl(self, x, j) -> Matrix:
        """D(x, e_j) for a coordinate vector x."""
        return Matrix.weighted_sum(zip(x, (row[j] for row in self.table)), self.module_dim)


def derived_D(alg: LieYamagutiAlgebra, rep: Representation) -> DerivedD:
    """D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y])."""
    if rep.algebra_dim != alg.dim:
        raise DimMismatchError("representation does not match the algebra dimension")
    n = alg.dim
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m = rep.mu[j][i] - rep.mu[i][j] + rep.rho[i] * rep.rho[j] - rep.rho[j] * rep.rho[i]
            m = m - rep.rho_vec(alg.b[i][j])
            table[i][j] = m
            table[j][i] = -m
    d = DerivedD(table, rep.module_dim)
    for i in range(n):
        if not table[i][i].is_zero():
            raise InternalConsistencyError("derived D is not skew-symmetric")
    return d


def _law_residuals(alg: LieYamagutiAlgebra, rep: Representation, d: DerivedD):
    """(arity, residual) of every law of REP_LAWS, at one basis tuple each."""
    b, t, rho, mu = alg.b, alg.t, rep.rho, rep.mu
    e = alg.basis_vector

    def comm(x, y):
        return x * y - y * x

    return {
        "rep1": (3, lambda i, j, k: rep.mu_vl(b[i][j], k) - mu[i][k] * rho[j] + mu[j][k] * rho[i]),
        "rep2": (3, lambda i, j, k: rep.mu_vr(i, b[j][k]) - rho[j] * mu[i][k] + rho[k] * mu[i][j]),
        "rep3": (3, lambda i, j, k: rep.rho_vec(t[i][j][k]) - comm(d.at(i, j), rho[k])),
        "rep4": (4, lambda i, j, k, w: mu[k][w] * mu[i][j] - mu[j][w] * mu[i][k]
                 - rep.mu_vr(i, t[j][k][w]) + d.at(j, k) * mu[i][w]),
        "rep5": (4, lambda i, j, k, w: rep.mu_vl(t[i][j][k], w) + rep.mu_vr(k, t[i][j][w])
                 - comm(d.at(i, j), mu[k][w])),
        "der1": (3, lambda i, j, k: d.vl(b[i][j], k) + d.vl(b[j][k], i) + d.vl(b[k][i], j)),
        "der2": (4, lambda i, j, k, w: d.vl(t[i][j][k], w) + d.vec(e(k), t[i][j][w])
                 - comm(d.at(i, j), d.at(k, w))),
        "der3": (4, lambda i, j, k, w: rep.mu_vl(t[i][j][k], w) - mu[i][w] * mu[k][j]
                 + mu[j][w] * mu[k][i] + mu[k][w] * d.at(i, j)),
    }


def _law_report(alg: LieYamagutiAlgebra, rep: Representation, subject, prefix) -> VerificationReport:
    """The laws of REP_LAWS whose names start with `prefix`, in table order,
    each with its first violating basis tuple."""
    residuals = _law_residuals(alg, rep, derived_D(alg, rep))
    report = VerificationReport(subject=subject)
    for name, law in REP_LAWS.items():
        if name.startswith(prefix):
            arity, residual = residuals[name]
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
    rho = [Matrix.from_cols(alg.b[i]) for i in range(n)]
    mu = [[Matrix.from_cols(alg.t[k][i][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rep = Representation(n, n, rho, mu)
    if check:
        d = derived_D(alg, rep)
        wit = first_violation(lambda i, j: d.at(i, j) - Matrix.from_cols(alg.t[i][j]), (n, n))
        if wit is not None:
            raise InternalConsistencyError(
                "derived D of the adjoint representation does not equal the left triple "
                f"multiplication at {wit['tuple']}"
            )
    return rep


def dual_rep(rep: Representation) -> Representation:
    """Dual representation on V*: rho'(x) = -rho(x)^T, mu'(x,y) = mu(y,x)^T."""
    n = rep.algebra_dim
    rho = [(-rep.rho[i]).transpose() for i in range(n)]
    mu = [[rep.mu[j][i].transpose() for j in range(n)] for i in range(n)]
    return Representation(n, rep.module_dim, rho, mu)


def coadjoint_rep(alg: LieYamagutiAlgebra, check=True) -> Representation:
    return dual_rep(adjoint_rep(alg, check=check))


def semidirect(alg: LieYamagutiAlgebra, rep: Representation,
               validate_rep=True) -> LieYamagutiAlgebra:
    """Semidirect product Lie-Yamaguti algebra on g (+) V.

    [x+u, y+v]      = [x,y] + rho(x)v - rho(y)u
    <<x+u,y+v,z+w>> = <<x,y,z>> + D(x,y)w + mu(y,z)u - mu(x,z)v

    Basis order: g-part first, then V-part.
    """
    if rep.algebra_dim != alg.dim:
        raise DimMismatchError("representation does not match the algebra dimension")
    if validate_rep:
        rr = check_representation(alg, rep)
        if not rr.passed:
            raise InvalidRepresentationError(
                f"semidirect product needs a valid representation; failing: "
                f"{[c.name for c in rr.checks if not c.ok]}"
            )
    n, m = alg.dim, rep.module_dim
    nm = n + m
    d = derived_D(alg, rep)
    zero = vzero(nm)

    def gpart(vec):
        return tuple(vec) + vzero(m)

    def vpart(vec):
        return vzero(n) + tuple(vec)

    binary = [[zero] * nm for _ in range(nm)]
    ternary = [[[zero] * nm for _ in range(nm)] for _ in range(nm)]
    for i, j in product(range(n), repeat=2):
        binary[i][j] = gpart(alg.b[i][j])
    for i in range(n):
        for bcol in range(m):
            v = rep.rho[i].col(bcol)
            binary[i][n + bcol] = vpart(v)
            binary[n + bcol][i] = vpart(tuple(-x for x in v))
    for i, j, k in product(range(n), repeat=3):
        ternary[i][j][k] = gpart(alg.t[i][j][k])
    for i, j in product(range(n), repeat=2):
        dm = d.at(i, j)
        for c in range(m):
            ternary[i][j][n + c] = vpart(dm.col(c))
    for j, k in product(range(n), repeat=2):
        mm = rep.mu[j][k]
        for a in range(m):
            ternary[n + a][j][k] = vpart(mm.col(a))
            ternary[j][n + a][k] = vpart(tuple(-x for x in mm.col(a)))
    names = [f"g:{x}" for x in alg.basis_names] + [f"v{i+1}" for i in range(m)]
    return LieYamagutiAlgebra(nm, binary, ternary, names)


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
        self.d = derived_D(algebra, rep)
        # the pair complex's semidirect tables, built on first use by
        # lieyam.paircomplex and freed with the pair
        self._pair_complex = None

    @property
    def dim_g(self):
        return self.algebra.dim

    @property
    def dim_v(self):
        return self.rep.module_dim

    def semidirect(self) -> LieYamagutiAlgebra:
        return semidirect(self.algebra, self.rep, validate_rep=False)


def pair_homomorphism_witness(phi: Matrix, psi: Matrix, src: LieYRepPair, dst: LieYRepPair):
    """First basis tuple of g where (phi, psi) fails to be a pair homomorphism, or None.

    binary, ternary: phi is an algebra homomorphism (homomorphism_witness);
    rho: psi rho(x) = rho'(phi x) psi;  mu: psi mu(x,y) = mu'(phi x, phi y) psi;
    D:   psi D(x,y) = D'(phi x, phi y) psi.
    The laws are tried in that order; the witness is {"identity", "tuple",
    "residual"}, the residual a vector of g or a matrix on V.
    """
    if psi.rows != dst.dim_v or psi.cols != src.dim_v:
        raise DimMismatchError("psi must map the source module to the target module")
    n = src.dim_g
    srep, drep = src.rep, dst.rep
    cols = [phi.col(i) for i in range(phi.cols)]
    return homomorphism_witness(phi, src.algebra, dst.algebra) or first_violation(
        lambda i: psi * srep.rho[i] - drep.rho_vec(cols[i]) * psi, (n,), identity="rho",
    ) or first_violation(
        lambda i, j: psi * srep.mu[i][j] - drep.mu_vec(cols[i], cols[j]) * psi, (n, n), identity="mu",
    ) or first_violation(
        lambda i, j: psi * src.d.at(i, j) - dst.d.vec(cols[i], cols[j]) * psi, (n, n), identity="D",
    )


def is_pair_homomorphism(phi: Matrix, psi: Matrix, src: LieYRepPair, dst: LieYRepPair) -> bool:
    """(phi, psi) intertwines both brackets and (rho, mu, D)."""
    return pair_homomorphism_witness(phi, psi, src, dst) is None
