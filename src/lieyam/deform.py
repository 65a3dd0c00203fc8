"""Linear deformations of algebra/representation pairs and Nijenhuis structures.

A deformation datum is a collection (phi, phi1, phi2; varrho, varpi1,
varpi2) defining the one-parameter family

    [x,y]_t      = [x,y] + t phi(x,y)
    <<x,y,z>>_t  = <<x,y,z>> + t phi1(x,y,z) + t^2 phi2(x,y,z)
    rho_t(x)     = rho(x) + t varrho(x)
    mu_t(x,y)    = mu(x,y) + t varpi1(x,y) + t^2 varpi2(x,y)

"Holds for all t" is decided structurally: the family is built over the
polynomial scalar ring, as exact arrays over Q[t] (integer numerators of
the coefficients of t^0, t^1, ... over one denominator, see
linalg.ExactArray), and every axiom residual must be the zero polynomial
(degree up to 4 in t), never by sampling.

A Nijenhuis structure is a pair of maps (N on g, S on V) such that N is
a Nijenhuis operator and two compatibility conditions tie S to the
representation; every such pair generates a linear deformation that is
trivial, witnessed by (Id + tN, Id + tS).

DeformationData holds the six terms as exact arrays indexed by the basis
of g (phi[x, y], varrho[x], varpi1[x, y], ...).

The reshaped representation of (N, S) is written in one place:
_hat_linear holds hat-rho(x) = rho(Nx) + rho(x)S - S rho(x) and the
degree-1 term varpi1, _hat_bilinear holds hat-mu = varpi2 and the closed
form hat-D.  Both act on the whole operator tables at once, as exact
arrays indexed by the basis of g (rho[x], mu[x, y], D[x, y]).
Every structure condition has the form X(N.) S = S hat-X(.), so the
residuals of the structure report, the trivial deformation and the
reshaped pair (_hat_pair, behind hat_rep) all evaluate those two
functions; report.first_violation scans the residual arrays for the
first violating basis tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    LieYamagutiAlgebra,
    deformed_algebra,
    is_nijenhuis,
    nijenhuis_deformation_tensors,
    nijenhuis_witness,
)
from .errors import (
    ConsequenceViolatedError,
    DimMismatchError,
    InternalConsistencyError,
    NotNijenhuisError,
)
from .linalg import Matrix, exact
from .paircomplex import PairCochain, pair_delta_lifted
from .reps import LieYRepPair, Representation, check_representation, pair_homomorphism_witness
from .scalars import T as TPOLY
from .report import VerificationReport, first_violation


@dataclass
class DeformationData:
    """First- and second-order terms of a one-parameter family, as exact arrays."""

    phi: object          # (n, n, n): phi(e_x, e_y), antisymmetric
    phi1: object         # (n, n, n, n): phi1(e_x, e_y, e_z), antisymmetric in the first two slots
    phi2: object         # (n, n, n, n), antisymmetric in the first two slots
    varrho: object       # (n, m, m): varrho(e_x), an operator on V
    varpi1: object       # (n, n, m, m): varpi1(e_x, e_y)
    varpi2: object       # (n, n, m, m)

    def __post_init__(self):
        (self.phi, self.phi1, self.phi2,
         self.varrho, self.varpi1, self.varpi2) = map(exact, self.arrays())

    @classmethod
    def zero(cls, pair: LieYRepPair):
        n, m = pair.dim_g, pair.dim_v
        return cls(*(np.zeros(shape, dtype=np.int64) for shape in _shapes(n, m)))

    def arrays(self):
        return self.phi, self.phi1, self.phi2, self.varrho, self.varpi1, self.varpi2

    def is_zero(self):
        return not any((x != 0).any() for x in self.arrays())


def _shapes(n, m):
    """The shapes of the six arrays of a DeformationData, in field order."""
    return (n,) * 3, (n,) * 4, (n,) * 4, (n, m, m), (n, n, m, m), (n, n, m, m)


def _check_shapes(pair: LieYRepPair, d: DeformationData):
    n, m = pair.dim_g, pair.dim_v
    shapes = [x.shape for x in d.arrays()]
    if shapes[:3] != list(_shapes(n, m)[:3]):
        raise DimMismatchError("deformation tensors do not match the algebra dimension")
    if shapes[3:] != list(_shapes(n, m)[3:]):
        raise DimMismatchError("deformation operator tables must hold operators on the module, "
                               "one per basis vector (varrho) or pair of them (varpi1, varpi2)")


def deformed_pair_structures(pair: LieYRepPair, d: DeformationData):
    """The t-family as polynomial-entry structures (algebra_t, rep_t)."""
    _check_shapes(pair, d)
    n, m = pair.dim_g, pair.dim_v
    alg, rep = pair.algebra, pair.rep
    t = TPOLY
    t2 = t * t
    alg_t = LieYamagutiAlgebra(n, alg.b_arr + d.phi * t, alg.t_arr + d.phi1 * t + d.phi2 * t2,
                               alg.basis_names)
    rho_t = rep.rho_arr + d.varrho * t
    mu_t = rep.mu_arr + d.varpi1 * t + d.varpi2 * t2
    return alg_t, Representation(n, m, rho_t, mu_t)


def linear_deformation_report(pair: LieYRepPair, d: DeformationData) -> VerificationReport:
    """Axioms and representation conditions of the t-family, as polynomials."""
    alg_t, rep_t = deformed_pair_structures(pair, d)
    report = VerificationReport(subject="linear deformation (polynomial arithmetic in t)")
    report.extend(alg_t.check_axioms(), prefix="t-family ")
    report.extend(check_representation(alg_t, rep_t), prefix="t-family ")
    return report


def is_linear_deformation(pair: LieYRepPair, d: DeformationData) -> bool:
    return linear_deformation_report(pair, d).passed


def derived_deformation_terms(pair: LieYRepPair, d: DeformationData):
    """The degree-1 and degree-2 parts in t of the family's derived operator.

    D1(x,y) = varpi1(y,x) - varpi1(x,y) + [rho(x),varrho(y)]
              + [varrho(x),rho(y)] - varrho([x,y]) - rho(phi(x,y))
    D2(x,y) = varpi2(y,x) - varpi2(x,y) + [varrho(x),varrho(y)]
              - varrho(phi(x,y))

    The derived operator of the deformed pair is built over the deformed
    bracket, hence the phi terms; without them the first-order data of a
    trivial deformation would not even be closed.  Both are arrays
    indexed [x, y, row, col].
    """
    rho, b, phi = pair.rep.rho_arr, pair.algebra.b_arr, d.phi
    vr, p1, p2 = d.varrho, d.varpi1, d.varpi2

    def comm(x, y):  # [x(e_i), y(e_j)] over (i, j)
        return np.einsum("iab,jbc->ijac", x, y) - np.einsum("jab,ibc->ijac", y, x)

    d1 = (p1.transpose(1, 0, 2, 3) - p1 + comm(rho, vr) + comm(vr, rho)
          - np.einsum("ijk,kab->ijab", b, vr) - np.einsum("ijk,kab->ijab", phi, rho))
    d2 = p2.transpose(1, 0, 2, 3) - p2 + comm(vr, vr) - np.einsum("ijk,kab->ijab", phi, vr)
    return d1, d2


def deformation_cocycle(pair: LieYRepPair, d: DeformationData) -> PairCochain:
    """The degree-2 cochain carrying the first-order part of a deformation.

    Component placement (fixed by requiring closedness on verified
    deformations): comp1 = (phi, phi1); comp2 = (varrho as a mixed map,
    D1); comp3 holds (D1 - varpi1) on mixed-then-g arguments.
    """
    _check_shapes(pair, d)
    n, m = pair.dim_g, pair.dim_v
    d1, _ = derived_deformation_terms(pair, d)
    x, y = np.triu_indices(n, 1)
    blocks = {  # each block's arguments first, its value last (PairCochain layout)
        "c1f": d.phi[x, y],
        "c1g": d.phi1[x, y],
        "c2f": d.varrho.transpose(0, 2, 1).reshape(n * m, m),              # (e_x ^ v_b) -> varrho(x) v_b
        "c2g": d1[x, y].transpose(0, 2, 1),                                # (X, v_b) -> D1(X) v_b
        "c3g1": (d1 - d.varpi1).transpose(0, 3, 1, 2).reshape(n * m, n, m),  # (e_x ^ v_b, z)
    }
    return PairCochain.from_blocks(2, n, m, blocks)


def is_deformation_of_pair(pair: LieYRepPair, d: DeformationData) -> bool:
    """Whether (phi, phi2) with (varrho, varpi2) is itself a valid pair."""
    _check_shapes(pair, d)
    n, m = pair.dim_g, pair.dim_v
    alg2 = LieYamagutiAlgebra(n, d.phi, d.phi2)
    if not alg2.check_axioms().passed:
        return False
    rep2 = Representation(n, m, d.varrho, d.varpi2)
    return check_representation(alg2, rep2).passed


# ---------------------------------------------------------------------------
# Nijenhuis structures


def _hat_linear(smap, x_n, x):
    """x_n + X S - S X: hat-rho(x) for x_n = rho(Nx), X = rho(x), and the
    degree-1 term varpi1(x,y) (or D1) for x_n = mu(Nx,y) + mu(x,Ny), X = mu(x,y).

    Arrays of operators on V over the basis of g, smap the array of S.
    """
    return x_n + x @ smap - smap @ x


def _hat_bilinear(smap, x_n, x, x_nn):
    """(X1, hat-X) of a bilinear operator X (mu or D) of the representation:

    X1(x,y)    = X(Nx,y) + X(x,Ny) + X(x,y) S - S X(x,y)
    hat-X(x,y) = (X(Nx,y) + X(x,Ny)) S + X(Nx,Ny) - S X1(x,y)

    from x_n = X(Nx,y) + X(x,Ny), x = X(x,y), x_nn = X(Nx,Ny).  hat-mu is
    varpi2, and hat-D is the closed form of the derived operator of the
    reshaped representation.
    """
    x1 = _hat_linear(smap, x_n, x)
    return x1, x_n @ smap + x_nn - smap @ x1


def _rho_parts(rho, narr):
    """(rho(Nx), rho(x)) over x, from rho[x] and the array of N."""
    return np.einsum("ax,aij->xij", narr, rho), rho


def _bilinear_parts(x, narr):
    """(X(Nx,y) + X(x,Ny), X(x,y), X(Nx,Ny)) over (x, y), from X[x, y] and the array of N."""
    x_nx = np.einsum("ax,ayij->xyij", narr, x)                    # X(Nx, y)
    return (x_nx + np.einsum("ay,xaij->xyij", narr, x), x,
            np.einsum("ay,xaij->xyij", narr, x_nx))


def nijenhuis_structure_report(pair: LieYRepPair, nmap: Matrix, smap: Matrix) -> VerificationReport:
    """N Nijenhuis, and X(N.) S = S hat-X(.) for X = rho and X = mu.

    The same condition for the derived operator D is a consequence; it is
    asserted when the defining ones hold.
    """
    n = pair.dim_g
    if nmap.rows != n or nmap.cols != n:
        raise DimMismatchError("N must act on the algebra")
    if smap.rows != pair.dim_v or smap.cols != pair.dim_v:
        raise DimMismatchError("S must act on the module")
    report = VerificationReport(subject="nijenhuis structure (N, S)")
    wit = nijenhuis_witness(pair.algebra, nmap)
    report.add("nijenhuis-N", wit is None,
               "N[x,y]_N = [Nx,Ny] and N<<x,y,z>>_N = <<Nx,Ny,Nz>>", wit)
    return _append_s_conditions(report, pair, nmap, smap)


def _append_s_conditions(report: VerificationReport, pair: LieYRepPair, nmap: Matrix,
                         smap: Matrix) -> VerificationReport:
    """Append the conditions of a Nijenhuis structure that involve S (rho-compat,
    mu-compat) to `report`, which holds the check of N or belongs to an N
    already verified Nijenhuis; when the report then passes, assert D-compat.
    """
    n, rep, narr, sarr = pair.dim_g, pair.rep, nmap.arr, smap.arr

    def bilinear_residual(parts):
        return parts[2] @ sarr - sarr @ _hat_bilinear(sarr, *parts)[1]

    rho_nx, rho_x = _rho_parts(rep.rho_arr, narr)
    wit = first_violation((rho_nx @ sarr - sarr @ _hat_linear(sarr, rho_nx, rho_x)).__getitem__, (n,))
    report.add("rho-compat", wit is None,
               "rho(Nx) S = S(rho(Nx) + rho(x) S) - S^2 rho(x)", wit)
    wit = first_violation(bilinear_residual(_bilinear_parts(rep.mu_arr, narr)).__getitem__, (n, n))
    report.add("mu-compat", wit is None,
               "mu(Nx,Ny) S = S(mu(Nx,y)S + mu(x,Ny)S + mu(Nx,Ny)) "
               "- S^2(mu(Nx,y) + mu(x,Ny) + mu(x,y)S) + S^3 mu(x,y)", wit)
    if report.passed:
        wit = first_violation(bilinear_residual(_bilinear_parts(pair.d.arr, narr)).__getitem__, (n, n))
        if wit is not None:
            raise InternalConsistencyError(
                "derived-operator compatibility fails although the defining "
                f"conditions hold (tuple {wit['tuple']})"
            )
    return report


def is_nijenhuis_structure(pair: LieYRepPair, nmap: Matrix, smap: Matrix) -> bool:
    return nijenhuis_structure_report(pair, nmap, smap).passed


class NijenhuisStructure:
    """Validated (N, S) pair; downstream constructors accept only this.

    Keeps the passing report of its defining conditions; a failing report
    travels with the NotNijenhuisError.
    """

    def __init__(self, pair: LieYRepPair, nmap: Matrix, smap: Matrix):
        report = nijenhuis_structure_report(pair, nmap, smap)
        if not report.passed:
            raise NotNijenhuisError("(N, S) is not a Nijenhuis structure on this pair", report=report)
        self.report = report
        self.pair = pair
        self.nmap = nmap
        self.smap = smap


def trivial_deformation_from(pair: LieYRepPair, ns: NijenhuisStructure) -> DeformationData:
    """The linear deformation generated by a Nijenhuis structure.

    phi / phi1 / phi2 are the operator-deformation tensors of N; varrho
    is hat-rho, varpi1 and varpi2 = hat-mu are those of _hat_bilinear.
    """
    if ns.pair is not pair:
        raise DimMismatchError("Nijenhuis structure belongs to another pair")
    rep, narr, sarr = pair.rep, ns.nmap.arr, ns.smap.arr
    phi, phi1, phi2 = nijenhuis_deformation_tensors(pair.algebra, ns.nmap)
    varrho = _hat_linear(sarr, *_rho_parts(rep.rho_arr, narr))
    varpi1, varpi2 = _hat_bilinear(sarr, *_bilinear_parts(rep.mu_arr, narr))
    return DeformationData(phi, phi1, phi2, varrho, varpi1, varpi2)


def _family_pair(pair: LieYRepPair, d: DeformationData) -> LieYRepPair:
    alg_t, rep_t = deformed_pair_structures(pair, d)
    return LieYRepPair(alg_t, rep_t, validate=False)


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    """a (+) b on the basis order of the semidirect product (g-part first)."""
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=object)
    out[:a.rows, :a.cols], out[a.rows:, a.cols:] = np.asarray(a.arr), np.asarray(b.arr)
    return Matrix.from_array(out)


def equivalence_witness(pair: LieYRepPair, d: DeformationData, d2: DeformationData,
                        nmap: Matrix, smap: Matrix):
    """First basis tuple where (Id + tN, Id + tS) fails to map the d-family onto the d2-family.

    The law is that of a pair homomorphism from the d-family to the
    d2-family, decided as polynomial identities in t by
    pair_homomorphism_witness; the witness {"identity", "tuple",
    "residual"} indexes g, with identity binary, ternary, rho, mu or D.
    """
    phi = Matrix.identity(pair.dim_g) + nmap.scale(TPOLY)
    psi = Matrix.identity(pair.dim_v) + smap.scale(TPOLY)
    return pair_homomorphism_witness(phi, psi, _family_pair(pair, d), _family_pair(pair, d2))


def are_equivalent_deformations(pair: LieYRepPair, d: DeformationData,
                                d2: DeformationData, nmap: Matrix, smap: Matrix) -> bool:
    """Whether (Id + tN, Id + tS) maps the d-family onto the d2-family."""
    return equivalence_witness(pair, d, d2, nmap, smap) is None


def cocycle_witness(pair: LieYRepPair, d: DeformationData):
    """First nonzero value of the coboundary of the deformation's 2-cochain, or None.

    The witness is {"block", "tuple", "residual"}: the block of the pair
    3-cochain, the argument index within it, and the nonzero value.
    """
    delta = pair_delta_lifted(pair, deformation_cocycle(pair, d), cap=3)
    for name, block in delta.blocks.items():
        wit = first_violation(block.__getitem__, block.shape[:-1], block=name)
        if wit is not None:
            return wit
    return None


def semidirect_nijenhuis(pair: LieYRepPair, ns: NijenhuisStructure) -> Matrix:
    """Block-diagonal N (+) S, a Nijenhuis operator on the semidirect algebra."""
    block = _block_diag(ns.nmap, ns.smap)
    if not is_nijenhuis(pair.semidirect(), block):
        raise ConsequenceViolatedError(
            "N (+) S is not Nijenhuis on the semidirect algebra despite a validated structure"
        )
    return block


def _hat_pair(pair: LieYRepPair, ns: NijenhuisStructure) -> LieYRepPair:
    """The N-deformed algebra with the reshaped representation of a Nijenhuis structure.

    hat-rho(x)  = rho(Nx) + rho(x) S - S rho(x)
    hat-mu(x,y) = mu(Nx,y) S + mu(x,Ny) S + mu(Nx,Ny)
                  - S(mu(Nx,y) + mu(x,Ny) + mu(x,y) S) + S^2 mu(x,y)

    (written once, in _hat_linear and _hat_bilinear).  Verified on
    construction: the derived operator of (hat-rho, hat-mu) over the
    N-deformed algebra equals its closed form hat-D; the deformed algebra
    with (hat-rho, hat-mu) is a valid pair; and (N, S) is a pair
    homomorphism from the deformed pair to the original one.
    """
    if ns.pair is not pair:
        raise DimMismatchError("Nijenhuis structure belongs to another pair")
    rep, narr, sarr = pair.rep, ns.nmap.arr, ns.smap.arr
    n = pair.dim_g
    rep_hat = Representation(n, pair.dim_v, _hat_linear(sarr, *_rho_parts(rep.rho_arr, narr)),
                             _hat_bilinear(sarr, *_bilinear_parts(rep.mu_arr, narr))[1])
    deformed_pair = LieYRepPair(deformed_algebra(pair.algebra, ns.nmap), rep_hat, validate=False)
    diff = deformed_pair.d.arr - _hat_bilinear(sarr, *_bilinear_parts(pair.d.arr, narr))[1]
    wit = first_violation(diff.__getitem__, (n, n))
    if wit is not None:
        raise ConsequenceViolatedError(
            f"derived operator of the reshaped representation differs from its closed form at {wit['tuple']}"
        )
    wit = check_representation(deformed_pair.algebra, rep_hat).first_failure()
    if wit is not None:
        raise ConsequenceViolatedError(
            "reshaped representation fails the representation conditions on the deformed algebra "
            f"({wit['check']} at {wit['tuple']})"
        )
    wit = pair_homomorphism_witness(ns.nmap, ns.smap, deformed_pair, pair)
    if wit is not None:
        raise ConsequenceViolatedError(
            "(N, S) is not a pair homomorphism from the deformed pair to the original "
            f"({wit['identity']} at {wit['tuple']})"
        )
    return deformed_pair


def hat_rep(pair: LieYRepPair, ns: NijenhuisStructure) -> Representation:
    """The reshaped representation (hat-rho, hat-mu), verified as in _hat_pair."""
    return _hat_pair(pair, ns).rep


def deformation_difference_report(pair: LieYRepPair, d: DeformationData,
                                  d2: DeformationData, nmap: Matrix,
                                  smap: Matrix) -> VerificationReport:
    """The five first-order difference identities of equivalent families.

    For equivalent deformations (source d, target d2) with witness
    (Id+tN, Id+tS), the differences of the generating data are the
    degree-1 coboundary expressions of (N, S).  The expected sides are
    written out here on purpose, independently of _hat_linear and of
    nijenhuis_deformation_tensors, so the two routes check each other.
    """
    alg, rep, dd = pair.algebra, pair.rep, pair.d.arr
    b, t, rho, mu = alg.b_arr, alg.t_arr, rep.rho_arr, rep.mu_arr
    na, sa = nmap.arr, smap.arr
    n = pair.dim_g
    report = VerificationReport(subject="first-order difference identities")
    want = {
        "diff-binary": np.einsum("ai,ajk->ijk", na, b) + np.einsum("aj,iak->ijk", na, b) - b @ na.T,
        "diff-ternary": np.einsum("ai,ajkl->ijkl", na, t) + np.einsum("aj,iakl->ijkl", na, t)
        + np.einsum("ak,ijal->ijkl", na, t) - t @ na.T,
        "diff-rho": np.einsum("ai,abc->ibc", na, rho) + rho @ sa - sa @ rho,
        "diff-mu": np.einsum("ai,ajbc->ijbc", na, mu) + np.einsum("aj,iabc->ijbc", na, mu)
        + mu @ sa - sa @ mu,
        "diff-D": np.einsum("ai,ajbc->ijbc", na, dd) - np.einsum("aj,aibc->ijbc", na, dd)
        + dd @ sa - sa @ dd,
    }
    d1a, _ = derived_deformation_terms(pair, d)
    d1b, _ = derived_deformation_terms(pair, d2)
    got = {
        "diff-binary": d.phi - d2.phi,
        "diff-ternary": d.phi1 - d2.phi1,
        "diff-rho": d.varrho - d2.varrho,
        "diff-mu": d.varpi1 - d2.varpi1,
        "diff-D": d1a - d1b,
    }
    for name, arity, law in (
        ("diff-binary", 2, "phi - phi' = [Nx,y] + [x,Ny] - N[x,y]"),
        ("diff-ternary", 3, "phi1 - phi1' = <<Nx,y,z>> + <<x,Ny,z>> + <<x,y,Nz>> - N<<x,y,z>>"),
        ("diff-rho", 1, "varrho - varrho' = rho(Nx) + rho(x)S - S rho(x)"),
        ("diff-mu", 2, "varpi1 - varpi1' = mu(Nx,y) + mu(x,Ny) + mu(x,y)S - S mu(x,y)"),
        ("diff-D", 2, "D1 - D1' = D(Nx,y) + D(x,Ny) + D(x,y)S - S D(x,y)"),
    ):
        wit = first_violation((got[name] - want[name]).__getitem__, (n,) * arity)
        report.add(name, wit is None, law, wit)
    return report
