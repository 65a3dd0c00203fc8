"""Quadratic forms, r-matrices, and the adjoint/coadjoint correspondence.

A quadratic Lie-Yamaguti algebra carries a nondegenerate symmetric
bilinear form B with the two invariance identities

    B([x,y],z)      = -B(y,[x,z])
    B(<<x,y,z>>,w)  =  B(x,<<w,z,y>>)

Under the standard coordinate pairing the index-raising map is the
inverse Gram matrix (B_sharp = b^{-1}), the dual of a map is its
transpose, and a skew two-tensor pi induces pi_sharp = pi^T.

The two operator notions related by B:

* Rota-Baxter-Nijenhuis structure (R, N): the adjoint-side triple
  (T, S, N) = (R, N, N);
* r-matrix-Nijenhuis structure (pi, N): the coadjoint-side conditions
  N pi_sharp = pi_sharp N^T plus equality of the N^T-deformed and the
  (N pi_sharp)-induced brackets.

rbn_to_rmn / rmn_to_rbn implement the correspondence pi_sharp = R B_sharp
(with the compatibility B_sharp N^T = N B_sharp); every precondition is
checked eagerly and every conclusion is asserted, so a failure on
validated inputs is surfaced as ConsequenceViolatedError.
"""

from __future__ import annotations

from itertools import product

from .algebra import LieYamagutiAlgebra, is_nijenhuis, nijenhuis_witness
from .deform import is_nijenhuis_structure
from .errors import (
    ConsequenceViolatedError,
    DimMismatchError,
    DualRouteDisagreementError,
    NotSkewError,
    NotSymmetricError,
    PreconditionFailedError,
    SingularMatrixError,
)
from .linalg import Matrix
from .report import VerificationReport, first_violation
from .reps import LieYRepPair, adjoint_rep, coadjoint_rep, dual_rep
from .rotabaxter import _rb_residuals, append_twist_conditions, is_rbn


def _form_value(b: Matrix, u, v):
    return sum((x * y for x, y in zip(b.apply(v), u)), start=0)


def invariant_form_report(alg: LieYamagutiAlgebra, b: Matrix) -> VerificationReport:
    """Symmetry is a precondition; nondegeneracy and invariance are checks."""
    n = alg.dim
    if b.rows != n or b.cols != n:
        raise DimMismatchError("form matrix must be dim x dim")
    if b != b.transpose():
        raise NotSymmetricError("bilinear form is not symmetric")
    report = VerificationReport(subject="invariant quadratic form")
    rank = b.rank()
    report.add("nondegenerate", rank == n, "det B != 0", {"rank": rank})
    e = alg.basis_vector
    wit = first_violation(
        lambda i, j, k: _form_value(b, alg.b[i][j], e(k)) + _form_value(b, e(j), alg.b[i][k]), (n,) * 3)
    report.add("binary-invariance", wit is None, "B([x,y],z) = -B(y,[x,z])", wit)
    wit = first_violation(
        lambda i, j, k, w: _form_value(b, alg.t[i][j][k], e(w)) - _form_value(b, e(i), alg.t[w][k][j]),
        (n,) * 4)
    report.add("ternary-invariance", wit is None, "B(<<x,y,z>>,w) = B(x,<<w,z,y>>)", wit)
    return report


def is_invariant_form(alg: LieYamagutiAlgebra, b: Matrix) -> bool:
    return invariant_form_report(alg, b).passed


class QuadraticForm:
    """Validated nondegenerate symmetric invariant form with its index map."""

    def __init__(self, alg: LieYamagutiAlgebra, b: Matrix):
        rep = invariant_form_report(alg, b)
        if not rep.passed:
            raise PreconditionFailedError(
                f"form is not a valid invariant quadratic form; failing: "
                f"{[c.name for c in rep.checks if not c.ok]}",
                which="quadratic-form",
            )
        self.alg = alg
        self.b = b
        self.b_sharp = b.invert()


def _ad_mat(alg, x):
    n = alg.dim
    return Matrix(tuple(tuple(alg.b[x][k][l] for k in range(n)) for l in range(n)))


def _left_mat(alg, x, y):
    n = alg.dim
    return Matrix(tuple(tuple(alg.t[x][y][k][l] for k in range(n)) for l in range(n)))


def _right_mat(alg, x, y):
    n = alg.dim
    return Matrix(tuple(tuple(alg.t[k][x][y][l] for k in range(n)) for l in range(n)))


def invariance_transport(qf: QuadraticForm, which: str = "all",
                         raise_on_failure: bool = True) -> VerificationReport:
    """Index-map transport identities of a validated form.

    ad:    B# (-ad_x^T)        = ad_x B#
    right: B# (right(y,x)^T)   = right(x,y) B#
    left:  B# (-left(x,y)^T)   = left(x,y) B#

    (duals realized as transposes under the standard pairing).
    """
    alg, bs = qf.alg, qf.b_sharp
    n = alg.dim
    report = VerificationReport(subject="invariance transport")
    laws = {
        "ad": ("transport-ad", "B#(ad*_x a) = ad_x(B# a)", 1,
               lambda x: -(bs * _ad_mat(alg, x).transpose()) - _ad_mat(alg, x) * bs),
        "right": ("transport-right", "-B#(right*(y,x) a) = right(x,y)(B# a)", 2,
                  lambda x, y: bs * _right_mat(alg, y, x).transpose() - _right_mat(alg, x, y) * bs),
        "left": ("transport-left", "B#(left*(x,y) a) = left(x,y)(B# a)", 2,
                 lambda x, y: -(bs * _left_mat(alg, x, y).transpose()) - _left_mat(alg, x, y) * bs),
    }
    for key, (name, law, arity, residual) in laws.items():
        if which in (key, "all"):
            wit = first_violation(residual, (n,) * arity)
            report.add(name, wit is None, law, wit)
    if raise_on_failure and not report.passed:
        raise ConsequenceViolatedError(
            f"transport identities failed on a validated form: "
            f"{[c.name for c in report.checks if not c.ok]}"
        )
    return report


# ---------------------------------------------------------------------------
# r-matrices


def _require_skew(pi: Matrix):
    if pi != -(pi.transpose()):
        raise NotSkewError("two-tensor is not skew-symmetric")


def pi_sharp_of(pi: Matrix) -> Matrix:
    """Index map of a skew two-tensor: <pi#(a), b> = pi(a, b) gives pi# = pi^T."""
    _require_skew(pi)
    return pi.transpose()


def is_r_matrix(alg: LieYamagutiAlgebra, pi: Matrix) -> bool:
    """pi# is relative Rota-Baxter with respect to the coadjoint representation."""
    _require_skew(pi)
    pair = LieYRepPair(alg, coadjoint_rep(alg), validate=False)
    return _rb_residuals(pair, pi_sharp_of(pi)) is None


class RMatrix:
    """Validated skew two-tensor whose index map is coadjoint Rota-Baxter."""

    def __init__(self, alg: LieYamagutiAlgebra, pi: Matrix):
        if not is_r_matrix(alg, pi):
            raise PreconditionFailedError("not an r-matrix", which="r-matrix")
        self.alg = alg
        self.pi = pi
        self.pi_sharp = pi_sharp_of(pi)


def is_skew_endomorphism(qf: QuadraticForm, rmap: Matrix) -> bool:
    """R B# is antisymmetric: <a, R B# b> + <b, R B# a> = 0."""
    rb = rmap * qf.b_sharp
    return rb == -(rb.transpose())


# ---------------------------------------------------------------------------
# the two structure notions


def is_rb_nijenhuis(alg: LieYamagutiAlgebra, rmap: Matrix, nmap: Matrix) -> bool:
    """Rota-Baxter-Nijenhuis structure: the adjoint-side triple (R, N, N)."""
    pair = LieYRepPair(alg, adjoint_rep(alg), validate=False)
    return is_rbn(pair, rmap, nmap, nmap)


def rmatrix_nijenhuis_report(alg: LieYamagutiAlgebra, pi: Matrix, nmap: Matrix) -> VerificationReport:
    """The coadjoint-side conditions on (pi, N).

    pi must be an r-matrix and N a Nijenhuis operator; the twist
    conditions are those of the triple (pi#, N^T, N) on the coadjoint
    pair.  (N, N^T) is generally *not* a Nijenhuis structure there, so
    this is a sibling of the relative triple check, not an instance.
    """
    _require_skew(pi)
    pair = LieYRepPair(alg, coadjoint_rep(alg), validate=False)
    psharp = pi_sharp_of(pi)
    report = VerificationReport(subject="r-matrix-Nijenhuis structure")
    wit = _rb_residuals(pair, psharp)
    report.add("r-matrix", wit is None,
               "pi# is relative Rota-Baxter for the coadjoint representation", wit)
    wit = nijenhuis_witness(alg, nmap)
    report.add("nijenhuis-N", wit is None, "N is a Nijenhuis operator", wit)
    if not report.passed:
        return report
    append_twist_conditions(report, pair, psharp, nmap.transpose(), nmap)
    return report


def is_rmatrix_nijenhuis(alg: LieYamagutiAlgebra, pi: Matrix, nmap: Matrix) -> bool:
    return rmatrix_nijenhuis_report(alg, pi, nmap).passed


def is_dual_nijenhuis(pair: LieYRepPair, nmap: Matrix, smap: Matrix) -> bool:
    """(N, S) with (N, S^T) a Nijenhuis structure on the dual pair.

    Computed along two routes -- through the dual pair, and through the
    direct conditions on (rho, mu) -- which must agree; a disagreement
    raises DualRouteDisagreementError.
    """
    n, m = pair.dim_g, pair.dim_v
    if nmap.rows != n or nmap.cols != n or smap.rows != m or smap.cols != m:
        raise DimMismatchError("N must act on g and S on V")
    dual_pair = LieYRepPair(pair.algebra, dual_rep(pair.rep), validate=False)
    via_dual = is_nijenhuis_structure(dual_pair, nmap, smap.transpose())

    rep = pair.rep
    direct = is_nijenhuis(pair.algebra, nmap)
    if direct:
        ncols = [nmap.col(i) for i in range(n)]
        s2 = smap * smap
        for x in range(n):
            rho_nx = rep.rho_vec(ncols[x])
            lhs = rho_nx * smap
            rhs = smap * (rho_nx - rep.rho[x] * smap) + rep.rho[x] * s2
            if lhs != rhs:
                direct = False
                break
    if direct:
        s2 = smap * smap
        s3 = s2 * smap
        for x, y in product(range(n), repeat=2):
            mu_nn = rep.mu_vec(ncols[x], ncols[y])
            mu_nxy = rep.mu_vl(ncols[x], y)
            mu_xny = rep.mu_vr(x, ncols[y])
            lhs = mu_nn * smap
            rhs = smap * (mu_nn - mu_nxy * smap - mu_xny * smap + rep.mu[x][y] * s2)
            rhs = rhs + mu_nxy * s2 + mu_xny * s2 - rep.mu[x][y] * s3
            if lhs != rhs:
                direct = False
                break
    if via_dual != direct:
        raise DualRouteDisagreementError(
            f"dual-pair route says {via_dual}, direct conditions say {direct}"
        )
    return direct


def is_rb_dual_nijenhuis(pair: LieYRepPair, tmap: Matrix, smap: Matrix, nmap: Matrix) -> bool:
    """T relative Rota-Baxter, (N, S) dual Nijenhuis, plus the twist conditions."""
    if _rb_residuals(pair, tmap) is not None:
        return False
    if not is_dual_nijenhuis(pair, nmap, smap):
        return False
    report = VerificationReport(subject="twist")
    append_twist_conditions(report, pair, tmap, smap, nmap)
    return report.passed


# ---------------------------------------------------------------------------
# the correspondence


def _require_compat(qf: QuadraticForm, nmap: Matrix):
    if qf.b_sharp * nmap.transpose() != nmap * qf.b_sharp:
        raise PreconditionFailedError("B# N^T = N B# fails", which="compat")


def rbn_to_rmn(alg: LieYamagutiAlgebra, qf: QuadraticForm, rmap: Matrix, nmap: Matrix) -> RMatrix:
    """pi# = R B#: a Rota-Baxter-Nijenhuis structure induces an r-matrix one."""
    if qf.alg is not alg:
        raise DimMismatchError("form belongs to another algebra")
    if not is_rb_nijenhuis(alg, rmap, nmap):
        raise PreconditionFailedError("(R, N) is not a Rota-Baxter-Nijenhuis structure", which="rbn")
    if not is_skew_endomorphism(qf, rmap):
        raise PreconditionFailedError("R is not a skew-symmetric endomorphism of (g, B)", which="skew")
    _require_compat(qf, nmap)
    psharp = rmap * qf.b_sharp
    pi = psharp.transpose()
    rm = RMatrix(alg, pi)
    if not is_rmatrix_nijenhuis(alg, pi, nmap):
        raise ConsequenceViolatedError(
            "induced pair (pi, N) is not an r-matrix-Nijenhuis structure"
        )
    return rm


def rmn_to_rbn(alg: LieYamagutiAlgebra, qf: QuadraticForm, pi: Matrix, nmap: Matrix) -> Matrix:
    """R = pi# (B#)^{-1}: the inverse correspondence, with exact round-trip."""
    if qf.alg is not alg:
        raise DimMismatchError("form belongs to another algebra")
    if not is_rmatrix_nijenhuis(alg, pi, nmap):
        raise PreconditionFailedError("(pi, N) is not an r-matrix-Nijenhuis structure", which="rmn")
    _require_compat(qf, nmap)
    try:
        rmap = pi_sharp_of(pi) * qf.b_sharp.invert()
    except SingularMatrixError as exc:  # pragma: no cover - b_sharp is invertible
        raise ConsequenceViolatedError("index map of a valid form is singular") from exc
    if not is_rb_nijenhuis(alg, rmap, nmap):
        raise ConsequenceViolatedError("recovered (R, N) is not a Rota-Baxter-Nijenhuis structure")
    back = rbn_to_rmn(alg, qf, rmap, nmap)
    if back.pi != pi:
        raise ConsequenceViolatedError("round-trip through the correspondence does not recover pi")
    return rmap
