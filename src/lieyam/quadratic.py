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

An r-matrix is decided in one place, _r_matrix: pi_sharp_of (the one
skew check), the coadjoint pair, and the first tuple where pi_sharp fails
the Rota-Baxter identities there; is_r_matrix, RMatrix and
rmatrix_nijenhuis_report all read it.

rbn_to_rmn / rmn_to_rbn implement the correspondence pi_sharp = R B_sharp
(with the compatibility B_sharp N^T = N B_sharp), the inverse as
R = pi_sharp B; every precondition is checked eagerly and every
conclusion is asserted before a result is built, so a failure on
validated inputs is surfaced as ConsequenceViolatedError.
"""

from __future__ import annotations

from .algebra import LieYamagutiAlgebra, is_nijenhuis, nijenhuis_witness
from .deform import is_nijenhuis_structure
from .errors import (
    ConsequenceViolatedError,
    DimMismatchError,
    DualRouteDisagreementError,
    NotSkewError,
    NotSymmetricError,
    PreconditionFailedError,
)
from .linalg import Matrix, einsum
from .report import VerificationReport, first_violation
from .reps import LieYRepPair, adjoint_rep, coadjoint_rep, dual_rep
from .rotabaxter import _rb_residuals, append_twist_conditions, is_rbn


def invariant_form_report(alg: LieYamagutiAlgebra, b: Matrix) -> VerificationReport:
    """Symmetry is a precondition; nondegeneracy and invariance are checks."""
    n = alg.dim
    b.expect(n, n, "form matrix must be dim x dim")
    if b != b.transpose():
        raise NotSymmetricError("bilinear form is not symmetric")
    report = VerificationReport(subject="invariant quadratic form")
    rank = b.rank()
    report.add("nondegenerate", rank == n, "det B != 0", {"rank": rank})
    form, bt, t = b.arr, alg.b_arr, alg.t_arr
    wit = first_violation(
        lambda s: bt[s] @ form + form @ bt[s].mT, (n,) * 3)             # B([x,y],z) + B(y,[x,z])
    report.add("binary-invariance", wit is None, "B([x,y],z) = -B(y,[x,z])", wit)
    wit = first_violation(
        lambda s: t[s] @ form - einsum("il,wkjl->ijkw", form[s], t), (n,) * 4)
    report.add("ternary-invariance", wit is None, "B(<<x,y,z>>,w) = B(x,<<w,z,y>>)", wit)
    return report


def is_invariant_form(alg: LieYamagutiAlgebra, b: Matrix) -> bool:
    return invariant_form_report(alg, b).passed


class QuadraticForm:
    """Validated nondegenerate symmetric invariant form with its index map.

    Keeps the passing report of its defining conditions; a failing report
    travels with the PreconditionFailedError.
    """

    def __init__(self, alg: LieYamagutiAlgebra, b: Matrix):
        report = invariant_form_report(alg, b)
        if not report.passed:
            raise PreconditionFailedError(
                f"form is not a valid invariant quadratic form; failing: "
                f"{[c.name for c in report.checks if not c.ok]}",
                which="quadratic-form", report=report,
            )
        self.report = report
        self.alg = alg
        self.b = b
        self.b_sharp = b.invert()


def invariance_transport(qf: QuadraticForm, raise_on_failure: bool = True) -> VerificationReport:
    """Index-map transport identities of a validated form.

    ad:    B# (-ad_x^T)        = ad_x B#
    right: B# (right(y,x)^T)   = right(x,y) B#
    left:  B# (-left(x,y)^T)   = left(x,y) B#

    (duals realized as transposes under the standard pairing), where
    ad_x z = [x,z], right(x,y) z = <<z,x,y>> and left(x,y) z = <<x,y,z>>.
    """
    alg, bs = qf.alg, qf.b_sharp.arr
    b, t = alg.b_arr, alg.t_arr
    n = alg.dim
    ad = b.transpose(0, 2, 1)                 # ad[x] = ad_x, whose transpose is b[x]
    right = einsum("kxyl->xylk", t)           # right[x, y] = right(x,y)
    left = t.transpose(0, 1, 3, 2)            # left[x, y] = left(x,y), whose transpose is t[x, y]
    report = VerificationReport(subject="invariance transport")
    laws = (
        ("transport-ad", "B#(ad*_x a) = ad_x(B# a)", 1, lambda s: -(bs @ b[s]) - ad[s] @ bs),
        ("transport-right", "-B#(right*(y,x) a) = right(x,y)(B# a)", 2,
         lambda s: bs @ right[:, s].transpose(1, 0, 3, 2) - right[s] @ bs),
        ("transport-left", "B#(left*(x,y) a) = left(x,y)(B# a)", 2, lambda s: -(bs @ t[s]) - left[s] @ bs),
    )
    for name, law, arity, residual in laws:
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


def pi_sharp_of(pi: Matrix) -> Matrix:
    """Index map of a skew two-tensor: <pi#(a), b> = pi(a, b) gives pi# = pi^T."""
    if pi != -(pi.transpose()):
        raise NotSkewError("two-tensor is not skew-symmetric")
    return pi.transpose()


def _r_matrix(alg: LieYamagutiAlgebra, pi: Matrix):
    """(pi#, the coadjoint pair, the first tuple where pi# fails the
    Rota-Baxter identities on that pair, or None): the one r-matrix test."""
    psharp = pi_sharp_of(pi)
    pair = LieYRepPair(alg, coadjoint_rep(alg), validate=False)
    return psharp, pair, _rb_residuals(pair, psharp)


def is_r_matrix(alg: LieYamagutiAlgebra, pi: Matrix) -> bool:
    """pi# is relative Rota-Baxter with respect to the coadjoint representation."""
    return _r_matrix(alg, pi)[2] is None


class RMatrix:
    """Validated skew two-tensor whose index map is coadjoint Rota-Baxter;
    the PreconditionFailedError of one that is not carries the witness.
    `decided` is _r_matrix(alg, pi), when the caller has evaluated it."""

    def __init__(self, alg: LieYamagutiAlgebra, pi: Matrix, decided=None):
        psharp, _, wit = decided or _r_matrix(alg, pi)
        if wit is not None:
            raise PreconditionFailedError("not an r-matrix", which="r-matrix", witness=wit)
        self.alg = alg
        self.pi = pi
        self.pi_sharp = psharp


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


def rmatrix_nijenhuis_report(alg: LieYamagutiAlgebra, pi: Matrix, nmap: Matrix,
                             decided=None, nijenhuis_decided=False) -> VerificationReport:
    """The coadjoint-side conditions on (pi, N).

    pi must be an r-matrix and N a Nijenhuis operator; the twist
    conditions are those of the triple (pi#, N^T, N) on the coadjoint
    pair.  (N, N^T) is generally *not* a Nijenhuis structure there, so
    this is a sibling of the relative triple check, not an instance.
    `decided` is _r_matrix(alg, pi), when the caller has evaluated it;
    `nijenhuis_decided` is True when the caller has found N Nijenhuis.
    """
    psharp, pair, wit = decided or _r_matrix(alg, pi)
    report = VerificationReport(subject="r-matrix-Nijenhuis structure")
    report.add("r-matrix", wit is None,
               "pi# is relative Rota-Baxter for the coadjoint representation", wit)
    wit = None if nijenhuis_decided else nijenhuis_witness(alg, nmap)
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
    nmap.expect(pair.dim_g, pair.dim_g, "N must act on g and S on V")
    smap.expect(pair.dim_v, pair.dim_v, "N must act on g and S on V")
    dual_pair = LieYRepPair(pair.algebra, dual_rep(pair.rep), validate=False)
    via_dual = is_nijenhuis_structure(dual_pair, nmap, smap.transpose())

    direct = is_nijenhuis(pair.algebra, nmap) and _direct_dual_conditions(pair.rep, nmap.arr, smap.arr)
    if via_dual != direct:
        raise DualRouteDisagreementError(
            f"dual-pair route says {via_dual}, direct conditions say {direct}"
        )
    return direct


def _direct_dual_conditions(rep, na, sa) -> bool:
    """The rho and mu conditions of a dual Nijenhuis structure, on (rho, mu) directly:

    rho(Nx) S = S(rho(Nx) - rho(x) S) + rho(x) S^2
    mu(Nx,Ny) S = S(mu(Nx,Ny) - mu(Nx,y) S - mu(x,Ny) S + mu(x,y) S^2)
                  + mu(Nx,y) S^2 + mu(x,Ny) S^2 - mu(x,y) S^3
    """
    rho, mu = rep.rho_arr, rep.mu_arr
    s2 = sa @ sa
    rho_n = einsum("ax,aij->xij", na, rho)
    if (rho_n @ sa - sa @ (rho_n - rho @ sa) - rho @ s2 != 0).any():
        return False
    mu_nx = einsum("ax,ayij->xyij", na, mu)               # mu(Nx, y)
    mu_xn = einsum("ay,xaij->xyij", na, mu)               # mu(x, Ny)
    mu_nn = einsum("ay,xaij->xyij", na, mu_nx)
    rhs = (sa @ (mu_nn - mu_nx @ sa - mu_xn @ sa + mu @ s2) + mu_nx @ s2 + mu_xn @ s2
           - mu @ (s2 @ sa))
    return not (mu_nn @ sa - rhs != 0).any()


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
    pi = (rmap * qf.b_sharp).transpose()
    decided = _r_matrix(alg, pi)  # the premise found N Nijenhuis
    if not rmatrix_nijenhuis_report(alg, pi, nmap, decided, nijenhuis_decided=True).passed:
        raise ConsequenceViolatedError("induced pair (pi, N) is not an r-matrix-Nijenhuis structure")
    return RMatrix(alg, pi, decided)


def rmn_to_rbn(alg: LieYamagutiAlgebra, qf: QuadraticForm, pi: Matrix, nmap: Matrix) -> Matrix:
    """R = pi# B, which is pi# (B#)^{-1}: the inverse correspondence.

    The round trip is the exact check (R B#)^T = pi, against the stored
    index map B#, so a B# that is not B^{-1} cannot pass unnoticed."""
    if qf.alg is not alg:
        raise DimMismatchError("form belongs to another algebra")
    if not is_rmatrix_nijenhuis(alg, pi, nmap):
        raise PreconditionFailedError("(pi, N) is not an r-matrix-Nijenhuis structure", which="rmn")
    _require_compat(qf, nmap)
    rmap = pi_sharp_of(pi) * qf.b
    if not is_rb_nijenhuis(alg, rmap, nmap):
        raise ConsequenceViolatedError("recovered (R, N) is not a Rota-Baxter-Nijenhuis structure")
    if (rmap * qf.b_sharp).transpose() != pi:
        raise ConsequenceViolatedError("round-trip through the correspondence does not recover pi")
    return rmap
