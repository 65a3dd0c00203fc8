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

(N, S) is a Nijenhuis structure exactly when N (+) S is a Nijenhuis
operator on g (+) V (Hu, Liu & Sheng), so its laws are slices of one law:
algebra's typed Nijenhuis law and deformation tensors over the brackets
of g (+) V (LieYRepPair.brackets), with the map {G: N, V: S}, read on the
slots of rho, mu or D (reps.OPERATORS).  rho-compat, mu-compat and D-compat
are slices of that law; hat-rho, varpi1, hat-mu and hat-D, in the
structure report, the trivial deformation and the reshaped pair
(_hat_pair, behind hat_rep), are blocks of those tensors (_reshaped).
The derived operator of the family, D + t D1 + t^2 D2, is reps.derived_D
of the deformed pair, read coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    G,
    V,
    LieYamagutiAlgebra,
    _deformation_tensors,
    _nijenhuis_residual,
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
from .linalg import Matrix, coefficient, einsum, exact, polynomial
from .paircomplex import PairCochain, pair_delta_lifted
from .reps import (
    OPERATORS,
    LieYRepPair,
    Representation,
    _operator,
    check_representation,
    pair_homomorphism_witness,
)
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
    # (pair, the t-family over it), built on first use by _family_pair
    _family: object = field(default=None, init=False, repr=False, compare=False)

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
    alg_t = LieYamagutiAlgebra(n, polynomial([alg.b_arr, d.phi]), polynomial([alg.t_arr, d.phi1, d.phi2]),
                               alg.basis_names)
    return alg_t, Representation(n, m, polynomial([rep.rho_arr, d.varrho]),
                                 polynomial([rep.mu_arr, d.varpi1, d.varpi2]))


def _family_pair(pair: LieYRepPair, d: DeformationData) -> LieYRepPair:
    """The t-family of d as an unvalidated pair over Q[t], its derived D
    the family's D_t; the pair itself when d is zero.  Built on first use
    and kept on d (keyed by pair), so each request builds it once."""
    if d._family is None or d._family[0] is not pair:
        _check_shapes(pair, d)
        d._family = (pair, pair if d.is_zero() else
                     LieYRepPair(*deformed_pair_structures(pair, d), validate=False))
    return d._family[1]


def linear_deformation_report(pair: LieYRepPair, d: DeformationData) -> VerificationReport:
    """Axioms and representation conditions of the t-family, as polynomials."""
    family = _family_pair(pair, d)
    report = VerificationReport(subject="linear deformation (polynomial arithmetic in t)")
    report.extend(family.algebra.check_axioms(), prefix="t-family ")
    report.extend(check_representation(family.algebra, family.rep), prefix="t-family ")
    return report


def is_linear_deformation(pair: LieYRepPair, d: DeformationData) -> bool:
    return linear_deformation_report(pair, d).passed


def derived_deformation_terms(pair: LieYRepPair, d: DeformationData):
    """The degree-1 and degree-2 parts in t of the family's derived operator,
    D_t = D + t D1 + t^2 D2, the derived operator (reps.derived_D) of the
    deformed pair, built over the deformed bracket:

    D1(x,y) = varpi1(y,x) - varpi1(x,y) + [rho(x),varrho(y)]
              + [varrho(x),rho(y)] - varrho([x,y]) - rho(phi(x,y))
    D2(x,y) = varpi2(y,x) - varpi2(x,y) + [varrho(x),varrho(y)]
              - varrho(phi(x,y))

    Without the phi terms the first-order data of a trivial deformation
    would not even be closed.  Both are arrays indexed [x, y, row, col].
    """
    d_t = _family_pair(pair, d).d
    return coefficient(d_t, 1), coefficient(d_t, 2)


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


def _reshaped(br, maps, name):
    """The deformation tensors of N (+) S on the slots of X = name (reps.OPERATORS) as
    tables of operators on V: (hat-rho,), or (X1, hat-X) for mu (varpi1, varpi2) and D:

    hat-rho(x) = rho(Nx) + rho(x) S - S rho(x)
    X1(x,y)    = X(Nx,y) + X(x,Ny) + X(x,y) S - S X(x,y)
    hat-X(x,y) = (X(Nx,y) + X(x,Ny)) S + X(Nx,Ny) - S X1(x,y)
    """
    return [_operator(name, x) for x in _deformation_tensors(br, maps, OPERATORS[name][0])]


def nijenhuis_structure_report(pair: LieYRepPair, nmap: Matrix, smap: Matrix) -> VerificationReport:
    """N Nijenhuis, and X(N.) S = S hat-X(.) for X = rho and X = mu.

    The same condition for the derived operator D is a consequence; it is
    asserted when the defining ones hold.
    """
    nmap.expect(pair.dim_g, pair.dim_g, "N must act on the algebra")
    smap.expect(pair.dim_v, pair.dim_v, "S must act on the module")
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

    Each is a slice of the Nijenhuis law of N (+) S on g (+) V
    (algebra._nijenhuis_residual) over the slots of X (reps.OPERATORS), read
    as a table of operators: its residual X(N.) S - S hat-X(.).
    """
    n = pair.dim_g
    br, maps = pair.brackets, {G: nmap.arr, V: smap.arr}

    def compat(name):
        slots = OPERATORS[name][0]
        residual = _nijenhuis_residual(br, maps, slots)
        return first_violation(lambda s: -_operator(name, residual(s)), (n,) * (len(slots) - 1))

    wit = compat("rho")
    report.add("rho-compat", wit is None,
               "rho(Nx) S = S(rho(Nx) + rho(x) S) - S^2 rho(x)", wit)
    wit = compat("mu")
    report.add("mu-compat", wit is None,
               "mu(Nx,Ny) S = S(mu(Nx,y)S + mu(x,Ny)S + mu(Nx,Ny)) "
               "- S^2(mu(Nx,y) + mu(x,Ny) + mu(x,y)S) + S^3 mu(x,y)", wit)
    if report.passed:
        wit = compat("D")
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


def _structure_maps(pair: LieYRepPair, ns: NijenhuisStructure):
    """(N, S) of a validated structure, which must belong to `pair`."""
    if ns.pair is not pair:
        raise DimMismatchError("Nijenhuis structure belongs to another pair")
    return ns.nmap, ns.smap


def trivial_deformation_from(pair: LieYRepPair, ns: NijenhuisStructure) -> DeformationData:
    """The linear deformation generated by a Nijenhuis structure.

    phi / phi1 / phi2 are the operator-deformation tensors of N; varrho
    is hat-rho, varpi1 and varpi2 = hat-mu the blocks of those of N (+) S
    that hold rho and mu (_reshaped).
    """
    nmap, smap = _structure_maps(pair, ns)
    br, maps = pair.brackets, {G: nmap.arr, V: smap.arr}
    (varrho,), (varpi1, varpi2) = _reshaped(br, maps, "rho"), _reshaped(br, maps, "mu")
    return DeformationData(*nijenhuis_deformation_tensors(pair.algebra, nmap), varrho, varpi1, varpi2)


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
    phi = Matrix.identity(pair.dim_g) + Matrix.from_array(polynomial([0, nmap.arr]))
    psi = Matrix.identity(pair.dim_v) + Matrix.from_array(polynomial([0, smap.arr]))
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
    delta = pair_delta_lifted(pair, deformation_cocycle(pair, d))
    for name, block in delta.blocks.items():
        wit = first_violation(block.__getitem__, block.shape[:-1], block=name)
        if wit is not None:
            return wit
    return None


def semidirect_nijenhuis(pair: LieYRepPair, ns: NijenhuisStructure) -> Matrix:
    """Block-diagonal N (+) S, a Nijenhuis operator on the semidirect algebra."""
    block = _block_diag(*_structure_maps(pair, ns))
    if not is_nijenhuis(pair.semidirect(), block):
        raise ConsequenceViolatedError(
            "N (+) S is not Nijenhuis on the semidirect algebra despite a validated structure"
        )
    return block


def _hat_pair(pair: LieYRepPair, nmap: Matrix, smap: Matrix) -> LieYRepPair:
    """The N-deformed algebra with the reshaped representation (hat-rho, hat-mu)
    of a Nijenhuis structure (N, S), blocks of the N (+) S-deformed brackets
    of g (+) V (_reshaped).  Verified on construction: the derived operator
    of (hat-rho, hat-mu) over the N-deformed algebra equals hat-D, the block
    of those brackets that holds D; the deformed algebra with (hat-rho, hat-mu) is a valid pair; and (N, S)
    is a pair homomorphism from the deformed pair to the original one.
    """
    n = pair.dim_g
    br, maps = pair.brackets, {G: nmap.arr, V: smap.arr}
    rep_hat = Representation(n, pair.dim_v, _reshaped(br, maps, "rho")[0], _reshaped(br, maps, "mu")[1])
    deformed_pair = LieYRepPair(deformed_algebra(pair.algebra, nmap), rep_hat, validate=False)
    diff = deformed_pair.d - _reshaped(br, maps, "D")[1]
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
    wit = pair_homomorphism_witness(nmap, smap, deformed_pair, pair)
    if wit is not None:
        raise ConsequenceViolatedError(
            "(N, S) is not a pair homomorphism from the deformed pair to the original "
            f"({wit['identity']} at {wit['tuple']})"
        )
    return deformed_pair


def hat_rep(pair: LieYRepPair, ns: NijenhuisStructure) -> Representation:
    """The reshaped representation (hat-rho, hat-mu), verified as in _hat_pair."""
    return _hat_pair(pair, *_structure_maps(pair, ns)).rep


def deformation_difference_report(pair: LieYRepPair, d: DeformationData,
                                  d2: DeformationData, nmap: Matrix,
                                  smap: Matrix) -> VerificationReport:
    """The five first-order difference identities of equivalent families.

    For equivalent deformations (source d, target d2) with witness
    (Id+tN, Id+tS), the differences of the generating data are the
    degree-1 coboundary expressions of (N, S).  The expected sides are
    written out here on purpose, independently of the deformation tensors
    of N (+) S (_reshaped, nijenhuis_deformation_tensors), so the two routes
    check each other.
    """
    alg, rep, dd = pair.algebra, pair.rep, pair.d
    b, t, rho, mu = alg.b_arr, alg.t_arr, rep.rho_arr, rep.mu_arr
    na, sa = nmap.arr, smap.arr
    n = pair.dim_g
    report = VerificationReport(subject="first-order difference identities")
    want = {
        "diff-binary": einsum("ai,ajk->ijk", na, b) + einsum("aj,iak->ijk", na, b) - b @ na.T,
        "diff-ternary": einsum("ai,ajkl->ijkl", na, t) + einsum("aj,iakl->ijkl", na, t)
        + einsum("ak,ijal->ijkl", na, t) - t @ na.T,
        "diff-rho": einsum("ai,abc->ibc", na, rho) + rho @ sa - sa @ rho,
        "diff-mu": einsum("ai,ajbc->ijbc", na, mu) + einsum("aj,iabc->ijbc", na, mu)
        + mu @ sa - sa @ mu,
        "diff-D": einsum("ai,ajbc->ijbc", na, dd) - einsum("aj,aibc->ijbc", na, dd)
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
