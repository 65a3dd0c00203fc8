"""Representations (rho, mu), the derived operator D, and constructions.

A representation of a Lie-Yamaguti algebra g on V is a pair of maps
rho: g -> gl(V) and mu: (x,y) -> gl(V) (mu is on ordered pairs, no
symmetry) subject to five conditions; we store rho as a list of
module-size matrices and mu as a full dim x dim table of matrices.

The derived operator is

    D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y])

and is skew-symmetric by construction.

Conventions fixed here and relied on elsewhere:

* semidirect basis order is g-part first, then V-part;
* duality uses the standard coordinate pairing <e_i*, e_j> = delta_ij,
  under which the dual representation is rho'(x) = -rho(x)^T and
  mu'(x,y) = mu(y,x)^T (validated by check_representation in the tests).
"""

from __future__ import annotations

from itertools import product

from .algebra import LieYamagutiAlgebra, is_homomorphism
from .errors import DimMismatchError, InternalConsistencyError, InvalidRepresentationError
from .linalg import Matrix, vzero
from .report import VerificationReport
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
        acc = Matrix.zero(self.module_dim)
        for i, xi in enumerate(x):
            if not is_zero(xi):
                acc = acc + self.rho[i].scale(xi)
        return acc

    def mu_vec(self, x, y):
        """mu(x, y) for coordinate vectors."""
        acc = Matrix.zero(self.module_dim)
        for i, xi in enumerate(x):
            if is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if not is_zero(yj):
                    acc = acc + self.mu[i][j].scale(xi * yj)
        return acc

    def mu_vl(self, x, j):
        """mu(x, e_j) for a coordinate vector x."""
        acc = Matrix.zero(self.module_dim)
        for i, xi in enumerate(x):
            if not is_zero(xi):
                acc = acc + self.mu[i][j].scale(xi)
        return acc

    def mu_vr(self, i, y):
        acc = Matrix.zero(self.module_dim)
        for j, yj in enumerate(y):
            if not is_zero(yj):
                acc = acc + self.mu[i][j].scale(yj)
        return acc


class DerivedD:
    """Table of the derived operators D(e_i, e_j); skew-symmetric."""

    def __init__(self, table):
        self.table = table

    def at(self, i, j) -> Matrix:
        return self.table[i][j]

    def vec(self, x, y) -> Matrix:
        n = len(self.table)
        acc = None
        for i, xi in enumerate(x):
            if is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if not is_zero(yj):
                    term = self.table[i][j].scale(xi * yj)
                    acc = term if acc is None else acc + term
        if acc is None:
            m = self.table[0][0].rows if n else 0
            return Matrix.zero(m)
        return acc

    def vl(self, x, j) -> Matrix:
        acc = None
        for i, xi in enumerate(x):
            if not is_zero(xi):
                term = self.table[i][j].scale(xi)
                acc = term if acc is None else acc + term
        return acc if acc is not None else Matrix.zero(self.table[0][0].rows)


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
    d = DerivedD(table)
    for i in range(n):
        if not table[i][i].is_zero():
            raise InternalConsistencyError("derived D is not skew-symmetric")
    return d


def check_representation(alg: LieYamagutiAlgebra, rep: Representation) -> VerificationReport:
    """Verify the five representation conditions on all basis tuples."""
    n = alg.dim
    report = VerificationReport(subject=f"representation conditions (dim {n} on {rep.module_dim})")
    d = derived_D(alg, rep)
    b, t = alg.b, alg.t

    def record(name, witness):
        report.add(name, witness is None, REP_LAWS[name], witness)

    witness = None
    for i, j, k in product(range(n), repeat=3):
        r = rep.mu_vl(b[i][j], k) - rep.mu[i][k] * rep.rho[j] + rep.mu[j][k] * rep.rho[i]
        if not r.is_zero():
            witness = {"tuple": (i, j, k), "residual": r.data}
            break
    record("rep1", witness)

    witness = None
    for i, j, k in product(range(n), repeat=3):
        r = rep.mu_vr(i, b[j][k]) - rep.rho[j] * rep.mu[i][k] + rep.rho[k] * rep.mu[i][j]
        if not r.is_zero():
            witness = {"tuple": (i, j, k), "residual": r.data}
            break
    record("rep2", witness)

    witness = None
    for i, j, k in product(range(n), repeat=3):
        r = rep.rho_vec(t[i][j][k]) - (d.at(i, j) * rep.rho[k] - rep.rho[k] * d.at(i, j))
        if not r.is_zero():
            witness = {"tuple": (i, j, k), "residual": r.data}
            break
    record("rep3", witness)

    witness = None
    for i, j, k, w in product(range(n), repeat=4):
        r = rep.mu[k][w] * rep.mu[i][j] - rep.mu[j][w] * rep.mu[i][k]
        r = r - rep.mu_vr(i, t[j][k][w]) + d.at(j, k) * rep.mu[i][w]
        if not r.is_zero():
            witness = {"tuple": (i, j, k, w), "residual": r.data}
            break
    record("rep4", witness)

    witness = None
    for i, j, k, w in product(range(n), repeat=4):
        r = rep.mu_vl(t[i][j][k], w) + rep.mu_vr(k, t[i][j][w])
        r = r - (d.at(i, j) * rep.mu[k][w] - rep.mu[k][w] * d.at(i, j))
        if not r.is_zero():
            witness = {"tuple": (i, j, k, w), "residual": r.data}
            break
    record("rep5", witness)
    return report


def check_derived_identities(alg: LieYamagutiAlgebra, rep: Representation) -> VerificationReport:
    """Verify the three consequences of the representation conditions."""
    n = alg.dim
    report = VerificationReport(subject="derived representation identities")
    d = derived_D(alg, rep)
    b, t = alg.b, alg.t

    def record(name, witness):
        report.add(name, witness is None, REP_LAWS[name], witness)

    witness = None
    for i, j, k in product(range(n), repeat=3):
        r = d.vl(b[i][j], k) + d.vl(b[j][k], i) + d.vl(b[k][i], j)
        if not r.is_zero():
            witness = {"tuple": (i, j, k), "residual": r.data}
            break
    record("der1", witness)

    witness = None
    for i, j, k, w in product(range(n), repeat=4):
        r = d.vl(t[i][j][k], w) + d.vec(alg.basis_vector(k), t[i][j][w])
        r = r - (d.at(i, j) * d.at(k, w) - d.at(k, w) * d.at(i, j))
        if not r.is_zero():
            witness = {"tuple": (i, j, k, w), "residual": r.data}
            break
    record("der2", witness)

    witness = None
    for i, j, k, w in product(range(n), repeat=4):
        r = rep.mu_vl(t[i][j][k], w) - rep.mu[i][w] * rep.mu[k][j] + rep.mu[j][w] * rep.mu[k][i]
        r = r + rep.mu[k][w] * d.at(i, j)
        if not r.is_zero():
            witness = {"tuple": (i, j, k, w), "residual": r.data}
            break
    record("der3", witness)
    return report


def adjoint_rep(alg: LieYamagutiAlgebra, check=True) -> Representation:
    """Adjoint representation: rho = ad, mu(x,y): z -> <<z,x,y>>.

    With check=True (default) the derived D is asserted to act as
    z -> <<x,y,z>>, which holds whenever the algebra satisfies its
    axioms; pass check=False for deliberately broken fixtures.
    """
    n = alg.dim
    rho = [Matrix(tuple(tuple(alg.b[i][k][l] for k in range(n)) for l in range(n)))
           for i in range(n)]
    mu = [[Matrix(tuple(tuple(alg.t[k][i][j][l] for k in range(n)) for l in range(n)))
           for j in range(n)] for i in range(n)]
    rep = Representation(n, n, rho, mu)
    if check:
        d = derived_D(alg, rep)
        for i, j in product(range(n), repeat=2):
            expected = Matrix(tuple(tuple(alg.t[i][j][k][l] for k in range(n)) for l in range(n)))
            if d.at(i, j) != expected:
                raise InternalConsistencyError(
                    "derived D of the adjoint representation does not equal the left triple multiplication"
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


def is_pair_homomorphism(phi: Matrix, psi: Matrix, src: LieYRepPair, dst: LieYRepPair) -> bool:
    """(phi, psi) intertwines both brackets and (rho, mu, D)."""
    if not is_homomorphism(phi, src.algebra, dst.algebra):
        return False
    n = src.dim_g
    if psi.rows != dst.dim_v or psi.cols != src.dim_v:
        raise DimMismatchError("psi must map the source module to the target module")
    cols = [phi.col(i) for i in range(n)]
    for i in range(n):
        if psi * src.rep.rho[i] != dst.rep.rho_vec(cols[i]) * psi:
            return False
    for i, j in product(range(n), repeat=2):
        if psi * src.rep.mu[i][j] != dst.rep.mu_vec(cols[i], cols[j]) * psi:
            return False
    for i, j in product(range(n), repeat=2):
        if psi * src.d.at(i, j) != dst.d.vec(cols[i], cols[j]) * psi:
            return False
    return True
