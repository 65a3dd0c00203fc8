import sympy

from lieyam import LieYamagutiAlgebra, Matrix, Representation, adjoint_rep, coadjoint_rep
from lieyam.yamaguti import (
    YamagutiCochain,
    cochain_dim,
    cohomology_dim,
    delta,
    delta_matrix,
    random_cochain,
    wedge_pairs,
    zero_cochain,
)


def sympy_matrix(m: Matrix):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.data])


def test_delta_of_zero(a2):
    adj = adjoint_rep(a2)
    for p in (1, 2, 3):
        out = delta(a2, adj, zero_cochain(a2, adj, p))
        assert out.is_zero()


def test_delta_identity_degree1(a2):
    """delta of the identity map against hand expansion."""
    adj = adjoint_rep(a2)
    c = YamagutiCochain.from_blocks(1, 2, 2, {"f": Matrix.identity(2).arr.T})
    out = delta(a2, adj, c)
    for w, (x, y) in enumerate(wedge_pairs(2)):
        # first component: [x,y] + [x,y] - [x,y] = [x,y]
        assert out.f_at((w,)).tolist() == a2.b_arr[x, y].tolist()
        for z in range(2):
            # second component: <<x,y,z>> + <<x,y,z>> + <<x,y,z>> - <<x,y,z>>
            want = [2 * v for v in a2.t_arr[x, y, z].tolist()]
            assert out.g_at((w,), z).tolist() == want


def test_delta_linearity(a2, rng):
    adj = adjoint_rep(a2)
    for p in (1, 2):
        c1 = random_cochain(a2, adj, p, rng)
        c2 = random_cochain(a2, adj, p, rng)
        lhs = delta(a2, adj, c1.scale(3) + c2.scale(-2))
        rhs = delta(a2, adj, c1).scale(3) + delta(a2, adj, c2).scale(-2)
        assert lhs == rhs


def test_delta_squared_zero(a2, so3, rng):
    for alg in (a2, so3):
        for rep in (adjoint_rep(alg), coadjoint_rep(alg)):
            for p in (1, 2):
                c = random_cochain(alg, rep, p, rng)
                assert delta(alg, rep, delta(alg, rep, c)).is_zero()


def test_delta_matrix_column_oracle(a2):
    """Columns of the assembled matrix match delta on elementary cochains."""
    adj = adjoint_rep(a2)
    for p in (1, 2):
        mat = delta_matrix(a2, adj, p)
        rows = mat.data
        size = cochain_dim(2, 2, p)
        assert mat.cols == size
        for j in range(size):
            coords = [0] * size
            coords[j] = 1
            col = delta(a2, adj, YamagutiCochain.unflatten(p, 2, 2, coords)).flatten()
            assert all(a - row[j] == 0 for a, row in zip(col, rows))


def test_delta_matrix_products_zero(a2):
    from lieyam.linalg import exact_product_is_zero

    adj = adjoint_rep(a2)
    mats = {p: delta_matrix(a2, adj, p) for p in (1, 2, 3)}
    assert exact_product_is_zero(mats[2], mats[1])
    assert exact_product_is_zero(mats[3], mats[2])


def test_abelian_zero_rep_h1():
    alg = LieYamagutiAlgebra.abelian(3)
    rep = Representation.zero(3, 2)
    assert cohomology_dim(alg, rep, 1) == cochain_dim(3, 2, 1) == 6


def test_cohomology_dims_against_sympy(a2):
    """Independent route: ranks and kernels via a second implementation."""
    adj = adjoint_rep(a2)
    d1 = delta_matrix(a2, adj, 1)
    d2 = delta_matrix(a2, adj, 2)
    s1, s2 = sympy_matrix(d1), sympy_matrix(d2)
    h1 = cohomology_dim(a2, adj, 1)
    h2 = cohomology_dim(a2, adj, 2)
    assert h1 == s1.cols - s1.rank() == len(s1.nullspace())
    assert h2 == len(s2.nullspace()) - s1.rank()
    # image contained in kernel: every delta1 column is killed by delta2
    assert (s2 * s1).is_zero_matrix
    assert h1 >= 0 and h2 >= 0


def test_flatten_roundtrip(a2, rng):
    adj = adjoint_rep(a2)
    for p in (1, 2, 3):
        c = random_cochain(a2, adj, p, rng)
        back = YamagutiCochain.unflatten(p, 2, 2, c.flatten())
        assert back == c


def test_module_dim_zero_roundtrip(a2):
    """Cochains with values in a 0-dim module are empty at every degree."""
    rep = Representation.zero(2, 0)
    for p in (1, 2, 3):
        c = YamagutiCochain.unflatten(p, 2, 0, [])
        assert c.flatten() == [] and c == zero_cochain(a2, rep, p)
        assert delta(a2, rep, c).flatten() == []
        mat = delta_matrix(a2, rep, p)
        assert (mat.rows, mat.cols) == (0, 0)
        assert cohomology_dim(a2, rep, p) == 0


def test_delta_matrix_zero_for_abelian_zero_rep():
    alg = LieYamagutiAlgebra.abelian(3)
    rep = Representation.zero(3, 2)
    for p in (1, 2):
        assert delta_matrix(alg, rep, p).is_zero()
