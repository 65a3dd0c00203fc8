"""Lie-Yamaguti algebras by structure constants.

An algebra is a dimension together with two structure-constant tensors:

* ``binary[i][j][k]``  -- coefficient of e_k in [e_i, e_j]
* ``ternary[i][j][k][l]`` -- coefficient of e_l in <<e_i, e_j, e_k>>

The binary bracket is antisymmetric, the ternary bracket antisymmetric in
its first two slots; both are validated at construction.  The four
defining axioms are *not* assumed: run check_axioms.

All operations are multilinear, so every identity is verified on all
basis tuples.  The structure constants are kept as exact arrays, and
only as those (``b_arr``, ``t_arr``; see linalg.exact_array: an
ExactArray of int64 or Python-int numerators over the rationals, with a
leading coefficient axis over Q[t]), generic over that scalar ring.
Each axiom is one residual array over a block of first basis indices,
contracted with linalg.einsum and scanned by report.first_violation.
LY1-LY4 are written once, over slots typed g or V (axiom_residual): over
g they are the axioms, and LY2-LY4 with one slot in V, over the brackets
of the semidirect product g (+) V, are seven of the eight representation
laws (reps.REP_LAWS).

The homomorphism law, which is also the Nijenhuis and the Rota-Baxter
law, takes its map as an array that may carry leading batch axes (the
``...`` of every einsum): one map is the case of no batch axis, and a
stack of maps (a grid search's candidates, report.vanishing) is evaluated alike.
It and the deformation tensors are typed like the axioms, over the brackets
by input types and one map per type: {G: N} on g, or {G: N, V: S} on g (+) V,
whose slices are the laws of a map pair (reps._pair_law, deform).  A map None
is the identity, its slot left uncontracted (bracket_images, triple_images).
"""

from __future__ import annotations


import numpy as np

from .errors import AntisymmetryError, DimMismatchError
from .linalg import Matrix, einsum, exact, reduced
from .report import VerificationReport, first_violation

LAWS = {
    "antisym2": "[x,y] = -[y,x]",
    "antisym3": "<<x,y,z>> = -<<y,x,z>>",
    "LY1": "[[x,y],z] + [[y,z],x] + [[z,x],y] + <<x,y,z>> + <<y,z,x>> + <<z,x,y>> = 0",
    "LY2": "<<[x,y],z,w>> + <<[y,z],x,w>> + <<[z,x],y,w>> = 0",
    "LY3": "<<x,y,[z,w]>> = [<<x,y,z>>,w] + [z,<<x,y,w>>]",
    "LY4": "<<x,y,<<z,w,t>>>> = <<<<x,y,z>>,w,t>> + <<z,<<x,y,w>>,t>> + <<z,w,<<x,y,t>>>>",
}


G, V = "g", "V"  # the slot types of axiom_residual: the algebra g and the module V of g (+) V


def _constants(value, dim, arity, name):
    """Structure constants (an array, or nested sequences) as an exact array
    in lowest terms (see linalg.reduced)."""
    shape = (dim,) * (arity + 1)
    value = reduced(exact(value))
    if value.shape != shape:
        raise DimMismatchError(f"{name} tensor shape {value.shape} != {shape}")
    return value


class LieYamagutiAlgebra:
    """Finite-dimensional Lie-Yamaguti algebra over an exact scalar ring.

    b_arr[i, j, k] and t_arr[i, j, k, l] hold the structure constants.
    """

    def __init__(self, dim, binary, ternary, basis_names=None, validate=True):
        self.dim = int(dim)
        self.basis_names = list(basis_names) if basis_names else [f"e{i+1}" for i in range(self.dim)]
        if len(self.basis_names) != self.dim:
            raise DimMismatchError("basis_names length != dim")
        self.b_arr = _constants(binary, self.dim, 2, "binary")
        self.t_arr = _constants(ternary, self.dim, 3, "ternary")
        if validate:
            self._validate_antisymmetry()

    # -- constructors --------------------------------------------------------

    @classmethod
    def abelian(cls, dim):
        return cls(dim, np.zeros((dim,) * 3, dtype=np.int64), np.zeros((dim,) * 4, dtype=np.int64))

    @classmethod
    def from_lie_algebra(cls, dim, binary):
        """Lie algebra viewed as Lie-Yamaguti: <<x,y,z>> := [[x,y],z]."""
        b = _constants(binary, dim, 2, "binary")
        return cls(dim, b, einsum("ijm,mkl->ijkl", b, b))

    @classmethod
    def from_triple_system(cls, dim, ternary):
        """Lie triple system viewed as Lie-Yamaguti ([x,y] = 0)."""
        return cls(dim, np.zeros((dim,) * 3, dtype=np.int64), ternary)

    def _validate_antisymmetry(self):
        b, t = self.b_arr, self.t_arr
        bad_b = (b + b.transpose(1, 0, 2) != 0).any(axis=-1)
        bad_t = (t + t.transpose(1, 0, 2, 3) != 0).any(axis=-1)
        for i, j in zip(*np.nonzero(np.triu(bad_b | bad_t.any(axis=-1)))):
            if bad_b[i, j]:
                raise AntisymmetryError(f"binary constants at ({i},{j}) are not antisymmetric")
            k = int(np.flatnonzero(bad_t[i, j])[0])
            raise AntisymmetryError(
                f"ternary constants at ({i},{j},{k}) are not antisymmetric in the first two slots"
            )

    @property
    def brackets(self):
        """The brackets by input types, every slot in g (see axiom_residual)."""
        return {(G, G): self.b_arr, (G, G, G): self.t_arr}

    # -- axioms ----------------------------------------------------------------

    def check_axioms(self) -> VerificationReport:
        """Verify the four defining identities on all basis tuples."""
        n = self.dim
        report = VerificationReport(subject=f"lie-yamaguti axioms (dim {n})")
        for name, arity in (("LY1", 3), ("LY2", 4), ("LY3", 4), ("LY4", 5)):
            residual = axiom_residual(name, self.brackets, (G,) * arity)
            witness = first_violation(residual, (n,) * arity)
            report.add(name, witness is None, LAWS[name], witness)
        return report


def _value(*types):
    """The type of a bracket's value: V exactly when one input is V."""
    return V if V in types else G


def axiom_residual(name, br, slots):
    """The residual of an axiom (left minus right) over a block s of first indices
    x = e_i, its axes the free slots (x, y, z, w, t) and then the value.

    br maps the input types of a bracket to its table, whose axes are the inputs
    and then the value; `slots` holds the type, G or V, of each free slot, and
    a summed index has the type of the value it carries.  LY1 is over g alone:
    with one slot in V it is the definition of D."""
    if name == "LY1":  # [[x,y],z] + <<x,y,z>>, summed cyclically
        bbt = einsum("ijm,mkl->ijkl", br[G, G], br[G, G]) + br[G, G, G]
        return lambda s: bbt[s] + bbt[:, :, s].transpose(2, 0, 1, 3) + bbt[:, s].transpose(1, 2, 0, 3)
    x, y, z, w, u = (*slots, G)[:5]  # LY2 and LY3 have no fifth slot
    if name == "LY2":
        return lambda s: (einsum("ijm,mkwl->ijkwl", br[x, y][s], br[_value(x, y), z, w])
                          + einsum("jkm,miwl->ijkwl", br[y, z], br[_value(y, z), x, w][:, s])
                          + einsum("kim,mjwl->ijkwl", br[z, x][:, s], br[_value(z, x), y, w]))
    if name == "LY3":
        return lambda s: (einsum("kwm,ijml->ijkwl", br[z, w], br[x, y, _value(z, w)][s])
                          - einsum("ijkm,mwl->ijkwl", br[x, y, z][s], br[_value(x, y, z), w])
                          - einsum("ijwm,kml->ijkwl", br[x, y, w][s], br[z, _value(x, y, w)]))
    return lambda s: (einsum("kwum,ijml->ijkwul", br[z, w, u], br[x, y, _value(z, w, u)][s])
                      - einsum("ijkm,mwul->ijkwul", br[x, y, z][s], br[_value(x, y, z), w, u])
                      - einsum("ijwm,kmul->ijkwul", br[x, y, w][s], br[z, _value(x, y, w), u])
                      - einsum("ijum,kwml->ijkwul", br[x, y, u][s], br[z, w, _value(x, y, u)]))


def bracket_images(table, a, b):
    """[a e_u, b e_v] for every column u of a and every v, as a (..., u, v, k) array, for
    `table` the bracket's constants and the maps as in _homomorphism_residual, or None."""
    x = table if a is None else einsum("...au,abk->...ubk", a, table)
    return x if b is None else einsum("...bv,...ubk->...uvk", b, x)


def triple_images(table, a, b, c):
    """<<a e_u, b e_v, c e_w>> for every column u of a and every (v, w), as a
    (..., u, v, w, l) array, for `table` and the maps as in bracket_images."""
    x = table if a is None else einsum("...au,abcl->...ubcl", a, table)
    x = x if b is None else einsum("...bv,...ubcl->...uvcl", b, x)
    return x if c is None else einsum("...cw,...uvcl->...uvwl", c, x)


def _homomorphism_residual(maps, src, dst, slots):
    """The homomorphism law over slots typed G or V, for the map maps[x] on each type x,
    over a block s of first basis indices:

    phi[x,y] - [phi x, phi y]                  two slots, over (..., x in s, y, k)
    phi<<x,y,z>> - <<phi x, phi y, phi z>>     three slots, over (..., x in s, y, z, l)

    phi is maps[x] on a slot of type x and on the value its type's map (_value);
    column u of a map is the image of the u-th basis vector.  dst holds the
    target's brackets by input types (LieYamagutiAlgebra.brackets, reps._blocks);
    src is the source's bracket on the slots, or one a map induces
    (_nijenhuis_residual, rotabaxter._rb_residual).  The maps and src may carry
    the same leading batch axes; a block takes the maps `sel` of a stack
    (report.vanishing).  phi applied to the last axis is a matmul with its .mT,
    given one more axis per other index.
    """
    out, table = _value(*slots), dst[slots]

    def residual(s, sel=Ellipsis):
        m = {x: a[sel] for x, a in maps.items()}
        if len(slots) == 2:
            return (src[sel][..., s, :, :] @ m[out].mT[..., None, :, :]
                    - bracket_images(table, m[slots[0]][..., :, s], m[slots[1]]))
        return (src[sel][..., s, :, :, :] @ m[out].mT[..., None, None, :, :]
                - triple_images(table, m[slots[0]][..., :, s], m[slots[1]], m[slots[2]]))

    return residual


def _preservation_witness(residual, n, arities=(2, 3), negate=False):
    """First violating basis tuple of the law residual(arity) (_homomorphism_residual), or None.

    The source has dimension n.  The arities are tried in order, each residual built only
    when the ones before hold.  The witness is {"identity", "tuple", "residual"}, its residual
    negated when `negate` is set.
    """
    for arity in arities:
        wit = first_violation(residual(arity), (n,) * arity, identity=("binary", "ternary")[arity - 2])
        if wit is not None:
            return {**wit, "residual": tuple(-x for x in wit["residual"])} if negate else wit
    return None


def homomorphism_witness(phi: Matrix, src: LieYamagutiAlgebra, dst: LieYamagutiAlgebra):
    """First basis tuple where phi fails to preserve a bracket, or None.

    binary:  phi[x,y] = [phi x, phi y];  ternary: phi<<x,y,z>> = <<phi x, phi y, phi z>>.
    The witness is {"identity", "tuple", "residual"}.
    """
    phi.expect(dst.dim, src.dim,
               f"homomorphism matrix must be {dst.dim}x{src.dim}, got {phi.rows}x{phi.cols}")
    return _preservation_witness(lambda arity: _homomorphism_residual(
        {G: phi.arr}, src.brackets[(G,) * arity], dst.brackets, (G,) * arity), src.dim)


def is_homomorphism(phi: Matrix, src: LieYamagutiAlgebra, dst: LieYamagutiAlgebra) -> bool:
    """phi[x,y] = [phi x, phi y] and phi<<x,y,z>> = <<phi x, phi y, phi z>> on basis tuples."""
    return homomorphism_witness(phi, src, dst) is None


def _deformation_tensors(br, maps, slots):
    """The deformation tensors of N (nijenhuis_deformation_tensors) over slots typed G or V:
    (phi,) over (..., x, y, k) for two slots, (phi1, phi2) over (..., x, y, z, l) for three,
    for br and N = maps as in _homomorphism_residual (with any leading batch axes)."""
    t, n_last = br[slots], maps[_value(*slots)].mT  # N applied to the last axis
    if len(slots) == 2:
        x, y = slots
        return (einsum("...ai,ajk->...ijk", maps[x], t) + einsum("...aj,iak->...ijk", maps[y], t)
                - t @ n_last[..., None, :, :]),
    x, y, z = slots
    n_last = n_last[..., None, None, :, :]
    t1 = einsum("...ai,ajkl->...ijkl", maps[x], t)          # <<Nx,y,z>>
    t12 = t1 + einsum("...aj,iakl->...ijkl", maps[y], t)    # <<Nx,y,z>> + <<x,Ny,z>>
    phi1 = t12 + einsum("...ak,ijal->...ijkl", maps[z], t) - t @ n_last
    phi2 = (einsum("...bj,...ibkl->...ijkl", maps[y], t1) + einsum("...bk,...ijbl->...ijkl", maps[z], t12)
            - phi1 @ n_last)
    return phi1, phi2


def nijenhuis_deformation_tensors(alg: LieYamagutiAlgebra, nmap: Matrix):
    """All three deformation tensors of a linear map N:

    phi(x,y)    = [Nx,y] + [x,Ny] - N[x,y]
    phi1(x,y,z) = <<Nx,y,z>> + <<x,Ny,z>> + <<x,y,Nz>> - N<<x,y,z>>
    phi2(x,y,z) = <<Nx,Ny,z>> + <<x,Ny,Nz>> + <<Nx,y,Nz>> - N(phi1(x,y,z))

    (phi, phi2) are the N-deformed brackets; phi1 is the degree-1 term of
    the associated one-parameter family.  Each is an exact array over
    (x, y, k) resp. (x, y, z, l).
    """
    nmap.expect(alg.dim, alg.dim, "operator must be square of the algebra dimension")
    (phi,), (phi1, phi2) = (_deformation_tensors(alg.brackets, {G: nmap.arr}, slots)
                            for slots in ((G, G), (G, G, G)))
    return exact(phi), exact(phi1), exact(phi2)


def deformed_brackets(alg: LieYamagutiAlgebra, nmap: Matrix):
    """The N-deformed structure constants (binary', ternary').

    No axiom check is performed; the result is a Lie-Yamaguti structure
    exactly when N is a Nijenhuis operator.
    """
    phi, _, phi2 = nijenhuis_deformation_tensors(alg, nmap)
    return phi, phi2


def deformed_algebra(alg: LieYamagutiAlgebra, nmap: Matrix) -> LieYamagutiAlgebra:
    """The algebra carrying the N-deformed brackets (antisymmetry always holds)."""
    b2, t2 = deformed_brackets(alg, nmap)
    return LieYamagutiAlgebra(alg.dim, b2, t2, alg.basis_names, validate=False)


def _nijenhuis_residual(br, maps, slots):
    """The Nijenhuis law over slots typed G or V, over a block of first basis indices:

    N[x,y]_N = [Nx,Ny]              two slots
    N<<x,y,z>>_N = <<Nx,Ny,Nz>>     three slots

    that is, the homomorphism law of N from the N-deformed brackets to br
    (_homomorphism_residual), for br and maps as in _deformation_tensors.
    Only the deformed bracket on those slots is built.  Over g (+) V with
    {G: N, V: S} it is the law of N (+) S (deform).
    """
    return _homomorphism_residual(maps, _deformation_tensors(br, maps, slots)[-1], br, slots)


def nijenhuis_witness(alg: LieYamagutiAlgebra, nmap: Matrix):
    """First basis tuple where N fails to be a Nijenhuis operator, or None.

    binary:  N[x,y]_N = [Nx,Ny];  ternary: N<<x,y,z>>_N = <<Nx,Ny,Nz>>.
    The witness is {"identity", "tuple", "residual"}.
    """
    n = alg.dim
    nmap.expect(n, n, "operator must be square of the algebra dimension")
    return _preservation_witness(
        lambda arity: _nijenhuis_residual(alg.brackets, {G: nmap.arr}, (G,) * arity), n)


def is_nijenhuis(alg: LieYamagutiAlgebra, nmap: Matrix) -> bool:
    """N[x,y]_N = [Nx,Ny] and N<<x,y,z>>_N = <<Nx,Ny,Nz>> on basis tuples."""
    return nijenhuis_witness(alg, nmap) is None
