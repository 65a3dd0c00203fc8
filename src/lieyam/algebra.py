"""Lie-Yamaguti algebras by structure constants.

An algebra is a dimension together with two structure-constant tensors:

* ``binary[i][j][k]``  -- coefficient of e_k in [e_i, e_j]
* ``ternary[i][j][k][l]`` -- coefficient of e_l in <<e_i, e_j, e_k>>

The binary bracket is antisymmetric, the ternary bracket antisymmetric in
its first two slots; both are validated at construction.  The four
defining axioms are *not* assumed: run check_axioms.

All operations are multilinear, so every identity in this module is
verified by exhaustive enumeration of basis tuples, which is exact and
complete.  The code is generic over the scalar ring (rationals or
polynomials in t), enabling "for all t" checks by polynomial arithmetic.
"""

from __future__ import annotations

from itertools import product

from .errors import AntisymmetryError, DimMismatchError
from .linalg import Matrix, Tensor, vadd, vec_is_zero, vscale, vsub, vzero
from .report import VerificationReport, first_violation
from .scalars import is_zero

LAWS = {
    "antisym2": "[x,y] = -[y,x]",
    "antisym3": "<<x,y,z>> = -<<y,x,z>>",
    "LY1": "[[x,y],z] + [[y,z],x] + [[z,x],y] + <<x,y,z>> + <<y,z,x>> + <<z,x,y>> = 0",
    "LY2": "<<[x,y],z,w>> + <<[y,z],x,w>> + <<[z,x],y,w>> = 0",
    "LY3": "<<x,y,[z,w]>> = [<<x,y,z>>,w] + [z,<<x,y,w>>]",
    "LY4": "<<x,y,<<z,w,t>>>> = <<<<x,y,z>>,w,t>> + <<z,<<x,y,w>>,t>> + <<z,w,<<x,y,t>>>>",
}


def _as_nested_binary(dim, binary):
    if isinstance(binary, Tensor):
        if binary.shape != (dim, dim, dim):
            raise DimMismatchError(f"binary tensor shape {binary.shape} != {(dim,) * 3}")
        return tuple(
            tuple(binary.slice_vector(i, j) for j in range(dim)) for i in range(dim)
        )
    return tuple(tuple(tuple(binary[i][j]) for j in range(dim)) for i in range(dim))


def _as_nested_ternary(dim, ternary):
    if isinstance(ternary, Tensor):
        if ternary.shape != (dim, dim, dim, dim):
            raise DimMismatchError(f"ternary tensor shape {ternary.shape} != {(dim,) * 4}")
        return tuple(
            tuple(
                tuple(ternary.slice_vector(i, j, k) for k in range(dim))
                for j in range(dim)
            )
            for i in range(dim)
        )
    return tuple(
        tuple(tuple(tuple(ternary[i][j][k]) for k in range(dim)) for j in range(dim))
        for i in range(dim)
    )


class LieYamagutiAlgebra:
    """Finite-dimensional Lie-Yamaguti algebra over an exact scalar ring."""

    def __init__(self, dim, binary, ternary, basis_names=None, validate=True):
        self.dim = int(dim)
        self.basis_names = list(basis_names) if basis_names else [f"e{i+1}" for i in range(self.dim)]
        if len(self.basis_names) != self.dim:
            raise DimMismatchError("basis_names length != dim")
        self.b = _as_nested_binary(self.dim, binary)
        self.t = _as_nested_ternary(self.dim, ternary)
        if validate:
            self._validate_antisymmetry()

    # -- constructors --------------------------------------------------------

    @classmethod
    def abelian(cls, dim):
        z = vzero(dim)
        return cls(dim, [[z] * dim] * dim, [[[z] * dim] * dim] * dim)

    @classmethod
    def from_lie_algebra(cls, dim, binary):
        """Lie algebra viewed as Lie-Yamaguti: <<x,y,z>> := [[x,y],z]."""
        b = _as_nested_binary(dim, binary)
        tern = [
            [
                [
                    tuple(
                        sum((b[i][j][m] * b[m][k][l] for m in range(dim)), start=0)
                        for l in range(dim)
                    )
                    for k in range(dim)
                ]
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        return cls(dim, b, tern)

    @classmethod
    def from_triple_system(cls, dim, ternary):
        """Lie triple system viewed as Lie-Yamaguti ([x,y] = 0)."""
        z = vzero(dim)
        return cls(dim, [[z] * dim] * dim, ternary)

    # -- tensors ---------------------------------------------------------------

    @property
    def binary_tensor(self) -> Tensor:
        flat = [x for i in range(self.dim) for j in range(self.dim) for x in self.b[i][j]]
        return Tensor((self.dim,) * 3, flat)

    @property
    def ternary_tensor(self) -> Tensor:
        flat = [
            x
            for i in range(self.dim)
            for j in range(self.dim)
            for k in range(self.dim)
            for x in self.t[i][j][k]
        ]
        return Tensor((self.dim,) * 4, flat)

    def _validate_antisymmetry(self):
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                if not vec_is_zero(vadd(self.b[i][j], self.b[j][i])):
                    raise AntisymmetryError(f"binary constants at ({i},{j}) are not antisymmetric")
                for k in range(n):
                    if not vec_is_zero(vadd(self.t[i][j][k], self.t[j][i][k])):
                        raise AntisymmetryError(
                            f"ternary constants at ({i},{j},{k}) are not antisymmetric in the first two slots"
                        )

    # -- evaluation ------------------------------------------------------------

    def bracket(self, x, y):
        """[x, y] for coordinate vectors."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimMismatchError("bracket arguments must have length dim")
        acc = vzero(n)
        for i, xi in enumerate(x):
            if is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if is_zero(yj):
                    continue
                acc = vadd(acc, vscale(xi * yj, self.b[i][j]))
        return acc

    def triple(self, x, y, z):
        """<<x, y, z>> for coordinate vectors."""
        n = self.dim
        if len(x) != n or len(y) != n or len(z) != n:
            raise DimMismatchError("triple arguments must have length dim")
        acc = vzero(n)
        for i, xi in enumerate(x):
            if is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if is_zero(yj):
                    continue
                c = xi * yj
                for k, zk in enumerate(z):
                    if is_zero(zk):
                        continue
                    acc = vadd(acc, vscale(c * zk, self.t[i][j][k]))
        return acc

    def basis_vector(self, i):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    # fast one-basis-slot contractions used by the axiom loops

    def _bra_vl(self, v, j):
        # [v, e_j]
        acc = vzero(self.dim)
        for m, vm in enumerate(v):
            if not is_zero(vm):
                acc = vadd(acc, vscale(vm, self.b[m][j]))
        return acc

    def _bra_vr(self, i, v):
        # [e_i, v]
        acc = vzero(self.dim)
        for m, vm in enumerate(v):
            if not is_zero(vm):
                acc = vadd(acc, vscale(vm, self.b[i][m]))
        return acc

    def _tri_v1(self, v, j, k):
        # <<v, e_j, e_k>>
        acc = vzero(self.dim)
        for m, vm in enumerate(v):
            if not is_zero(vm):
                acc = vadd(acc, vscale(vm, self.t[m][j][k]))
        return acc

    def _tri_v3(self, i, j, v):
        # <<e_i, e_j, v>>
        acc = vzero(self.dim)
        for m, vm in enumerate(v):
            if not is_zero(vm):
                acc = vadd(acc, vscale(vm, self.t[i][j][m]))
        return acc

    # -- axioms ----------------------------------------------------------------

    def check_axioms(self) -> VerificationReport:
        """Verify the four defining identities on all basis tuples."""
        n = self.dim
        report = VerificationReport(subject=f"lie-yamaguti axioms (dim {n})")
        b, t, e = self.b, self.t, self.basis_vector

        def ly1(i, j, k):
            r = vadd(vadd(self._bra_vl(b[i][j], k), self._bra_vl(b[j][k], i)), self._bra_vl(b[k][i], j))
            return vadd(r, vadd(vadd(t[i][j][k], t[j][k][i]), t[k][i][j]))

        def ly2(i, j, k, w):
            r = vadd(self._tri_v1(b[i][j], k, w), self._tri_v1(b[j][k], i, w))
            return vadd(r, self._tri_v1(b[k][i], j, w))

        def ly3(i, j, k, w):
            rhs = vadd(self._bra_vl(t[i][j][k], w), self._bra_vr(k, t[i][j][w]))
            return vsub(self._tri_v3(i, j, b[k][w]), rhs)

        def ly4(i, j, k, w, s):
            rhs = vadd(self._tri_v1(t[i][j][k], w, s), self.triple(e(k), t[i][j][w], e(s)))
            rhs = vadd(rhs, self._tri_v3(k, w, t[i][j][s]))
            return vsub(self._tri_v3(i, j, t[k][w][s]), rhs)

        for name, residual, arity in (("LY1", ly1, 3), ("LY2", ly2, 4), ("LY3", ly3, 4), ("LY4", ly4, 5)):
            witness = first_violation(residual, (n,) * arity)
            report.add(name, witness is None, LAWS[name], witness)
        return report

    def is_valid(self) -> bool:
        return self.check_axioms().passed


def homomorphism_witness(phi: Matrix, src: LieYamagutiAlgebra, dst: LieYamagutiAlgebra):
    """First basis tuple where phi fails to preserve a bracket, or None.

    binary:  phi[x,y] = [phi x, phi y];  ternary: phi<<x,y,z>> = <<phi x, phi y, phi z>>.
    The witness is {"identity", "tuple", "residual"}.
    """
    if phi.rows != dst.dim or phi.cols != src.dim:
        raise DimMismatchError(
            f"homomorphism matrix must be {dst.dim}x{src.dim}, got {phi.rows}x{phi.cols}"
        )
    n = src.dim
    c = [phi.col(i) for i in range(n)]
    return first_violation(
        lambda i, j: vsub(phi.apply(src.b[i][j]), dst.bracket(c[i], c[j])), (n,) * 2, identity="binary",
    ) or first_violation(
        lambda i, j, k: vsub(phi.apply(src.t[i][j][k]), dst.triple(c[i], c[j], c[k])), (n,) * 3,
        identity="ternary",
    )


def is_homomorphism(phi: Matrix, src: LieYamagutiAlgebra, dst: LieYamagutiAlgebra) -> bool:
    """phi[x,y] = [phi x, phi y] and phi<<x,y,z>> = <<phi x, phi y, phi z>> on basis tuples."""
    return homomorphism_witness(phi, src, dst) is None


def nijenhuis_deformation_tensors(alg: LieYamagutiAlgebra, nmap: Matrix):
    """All three deformation tensors of a linear map N:

    phi(x,y)    = [Nx,y] + [x,Ny] - N[x,y]
    phi1(x,y,z) = <<Nx,y,z>> + <<x,Ny,z>> + <<x,y,Nz>> - N<<x,y,z>>
    phi2(x,y,z) = <<Nx,Ny,z>> + <<x,Ny,Nz>> + <<Nx,y,Nz>> - N(phi1(x,y,z))

    (phi, phi2) are the N-deformed brackets; phi1 is the degree-1 term of
    the associated one-parameter family.
    """
    n = alg.dim
    if nmap.rows != n or nmap.cols != n:
        raise DimMismatchError("operator must be square of the algebra dimension")
    ncols = [nmap.col(i) for i in range(n)]
    e = [alg.basis_vector(i) for i in range(n)]

    bin2 = [[None] * n for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        v = vadd(alg._bra_vl(ncols[i], j), alg._bra_vr(i, ncols[j]))
        bin2[i][j] = vsub(v, nmap.apply(alg.b[i][j]))

    aux = [[[None] * n for _ in range(n)] for _ in range(n)]
    ter2 = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in product(range(n), repeat=3):
        a = vadd(alg._tri_v1(ncols[i], j, k), alg.triple(e[i], ncols[j], e[k]))
        a = vadd(a, alg._tri_v3(i, j, ncols[k]))
        a = vsub(a, nmap.apply(alg.t[i][j][k]))
        aux[i][j][k] = a
        v = alg.triple(ncols[i], ncols[j], e[k])
        v = vadd(v, alg.triple(e[i], ncols[j], ncols[k]))
        v = vadd(v, alg.triple(ncols[i], e[j], ncols[k]))
        ter2[i][j][k] = vsub(v, nmap.apply(a))

    flat_b = [x for i in range(n) for j in range(n) for x in bin2[i][j]]
    flat_a = [x for i in range(n) for j in range(n) for k in range(n) for x in aux[i][j][k]]
    flat_t = [x for i in range(n) for j in range(n) for k in range(n) for x in ter2[i][j][k]]
    return Tensor((n,) * 3, flat_b), Tensor((n,) * 4, flat_a), Tensor((n,) * 4, flat_t)


def deformed_brackets(alg: LieYamagutiAlgebra, nmap: Matrix):
    """The N-deformed structure constants (binary', ternary').

    No axiom check is performed; the result is a Lie-Yamaguti structure
    exactly when N is a Nijenhuis operator.
    """
    phi, _, phi2 = nijenhuis_deformation_tensors(alg, nmap)
    return phi, phi2


def deformed_algebra(alg: LieYamagutiAlgebra, nmap: Matrix, validate=False) -> LieYamagutiAlgebra:
    """The algebra carrying the N-deformed brackets (antisymmetry always holds)."""
    b2, t2 = deformed_brackets(alg, nmap)
    return LieYamagutiAlgebra(alg.dim, b2, t2, alg.basis_names, validate=validate)


def nijenhuis_witness(alg: LieYamagutiAlgebra, nmap: Matrix):
    """First basis tuple where N fails to be a Nijenhuis operator, or None.

    binary:  N[x,y]_N = [Nx,Ny];  ternary: N<<x,y,z>>_N = <<Nx,Ny,Nz>>.
    The witness is {"identity", "tuple", "residual"}.
    """
    n = alg.dim
    if nmap.rows != n or nmap.cols != n:
        raise DimMismatchError("operator must be square of the algebra dimension")
    b2, t2 = deformed_brackets(alg, nmap)
    c = [nmap.col(i) for i in range(n)]
    return first_violation(
        lambda i, j: vsub(nmap.apply(b2.slice_vector(i, j)), alg.bracket(c[i], c[j])), (n,) * 2,
        identity="binary",
    ) or first_violation(
        lambda i, j, k: vsub(nmap.apply(t2.slice_vector(i, j, k)), alg.triple(c[i], c[j], c[k])),
        (n,) * 3, identity="ternary",
    )


def is_nijenhuis(alg: LieYamagutiAlgebra, nmap: Matrix) -> bool:
    """N[x,y]_N = [Nx,Ny] and N<<x,y,z>>_N = <<Nx,Ny,Nz>> on basis tuples."""
    return nijenhuis_witness(alg, nmap) is None
