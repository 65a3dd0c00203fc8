"""The exact integer array type of linalg: ExactArray.

An ExactArray holds integer numerators over one common denominator with a
carried upper bound on their magnitude; the numerators are int64 while the
bound is below linalg.INT64_LIMIT and Python ints otherwise.  These tests
hold both numerator kinds to the Fraction computation and to the witnesses
and golden files of the object-array engine, and check through
linalg.NUMERATOR_OPS which kind ran.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_law_golden
import test_poly_golden
import test_rep_golden
import test_scan_golden
from lieyam import (LieYamagutiAlgebra, LieYRepPair, Matrix, Representation, adjoint_rep, linalg,
                    report, yamaguti)
from lieyam.algebra import nijenhuis_witness
from lieyam.errors import DimMismatchError, PolynomialEntriesError
from lieyam.jsonio import dump_json, operator_to_dict
from lieyam.linalg import INT64_LIMIT, ExactArray, exact, exact_array
from lieyam.rotabaxter import relative_rb_report
from lieyam.search import catalog_algebra
from lieyam.scalars import Poly, T


def _ops():
    return dict(linalg.NUMERATOR_OPS)


def _ran(before):
    return {k: linalg.NUMERATOR_OPS[k] - before[k] for k in before}


def test_rational_entries_share_one_denominator():
    arr = exact_array([Fraction(3, 2), 1, Fraction(-5, 6), 0], (2, 2))
    assert isinstance(arr, ExactArray)
    assert arr.den == 6 and arr.bound == 9 and arr.num.dtype == np.int64
    assert arr.num.tolist() == [[9, 6], [-5, 0]]
    assert arr.tolist() == [[Fraction(3, 2), 1], [Fraction(-5, 6), 0]]
    assert [type(x) for x in arr.ravel()] == [Fraction, int, Fraction, int]


def test_polynomial_entries_take_a_coefficient_axis():
    """Over Q[t] the numerators carry one leading axis, over the coefficients
    of t^0, t^1, ...; the entries still leave as Poly, int and Fraction, and
    what needs rational entries still refuses them."""
    arr = exact_array([T, 1, Fraction(1, 2), 0], (2, 2))
    assert type(arr) is ExactArray and arr.shape == (2, 2) and arr.den == 2
    assert arr.num.tolist() == [[[0, 2], [1, 0]], [[2, 0], [0, 0]]]
    assert arr.poly is True
    assert [type(x) for x in arr.ravel()] == [Poly, int, Fraction, int]
    mixed = exact_array([1, 2], (2,)) + arr[0]
    assert type(mixed) is ExactArray and mixed.poly
    assert mixed[0] == T + 1 and type(mixed[0]) is Poly
    assert mixed[1] == 3 and type(mixed[1]) is int
    with pytest.raises(PolynomialEntriesError):
        Matrix.from_array(arr).rank()
    a2 = catalog_algebra("a2")
    alg_t = LieYamagutiAlgebra(2, a2.b_arr * (T + 1), a2.t_arr)
    with pytest.raises(PolynomialEntriesError):
        yamaguti._Terms(alg_t, adjoint_rep(alg_t, check=False))


def test_passing_deform_runs_on_int64_coefficients(monkeypatch, capsys, tmp_path):
    """A passing deform on A2-adjoint decides its t-family, its equivalence
    witness and its cocycle on int64 numerators: no operation runs on
    Python-int numerators, every law block is an ExactArray (the cocycle's
    blocks, views of a rational cochain, included), and no array over Q[t]
    leaves as an object array."""
    from lieyam import algebra, cli, deform, reps

    blocks = []

    def recorded(residual, shape, **tags):
        def block(*args):
            out = residual(*args)
            kind = (("Q[t]" if out.poly else "Q") if type(out) is ExactArray
                    else type(out).__name__)
            blocks.append((kind, "block" in tags))
            return out
        return report.first_violation(block, shape, **tags)

    leave = ExactArray.__array__

    def rational_only(self, *args, **kwargs):
        assert not self.poly, "an array over Q[t] left as an object array"
        return leave(self, *args, **kwargs)

    for module in (algebra, reps, deform):
        monkeypatch.setattr(module, "first_violation", recorded)
    monkeypatch.setattr(ExactArray, "__array__", rational_only)
    lam = tmp_path / "lam.json"  # N = S = 3/2 Id: phi = 3/2 [.,.], so the family is genuinely in t
    dump_json(operator_to_dict(Matrix.identity(2).scale(Fraction(3, 2))), lam)
    pair = Path(__file__).parent.parent / "fixtures" / "A2-adjoint.json"
    before = _ops()
    assert cli.main(["deform", "--pair", str(pair), "--from-nijenhuis", "--N", str(lam),
                     "--S", str(lam)]) == 0
    capsys.readouterr()
    ran = _ran(before)
    assert ran["int64"] > 0 and ran["object"] == 0
    kinds = [kind for kind, _ in blocks]
    assert set(kinds) == {"Q", "Q[t]"}
    assert kinds.count("Q[t]") >= 9 + 5  # LY1-LY4, rep1-rep5, the equivalence laws
    assert [kind for kind, cocycle in blocks if cocycle] == ["Q"] * 7  # the 7 blocks of a pair 3-cochain


def test_integer_arrays_skip_the_per_entry_path(monkeypatch):
    """exact on an integer ndarray takes its entries as numerators over 1, as
    the per-entry path would, without normalizing an entry."""
    arrays = [np.arange(-3, 3).reshape(2, 3), np.array([2**62, -5]), np.array([-(2**63)]),
              np.array([2**64 - 1], dtype=np.uint64), np.zeros((0, 2), dtype=np.int8)]
    want = [exact_array(a.ravel().tolist(), a.shape) for a in arrays]

    def refuse(*args):
        raise AssertionError("an entry was normalized")

    monkeypatch.setattr(linalg, "exact_array", refuse)
    for a, w in zip(arrays, want):
        got = exact(a)
        assert (got.num.dtype, got.den, got.bound, got.shape) == (w.num.dtype, w.den, w.bound, w.shape)
        assert got.num.tolist() == w.num.tolist() and not got.num.flags.writeable
        if a.size:
            a[...] = 0
            assert got.num.tolist() == w.num.tolist()  # a copy
    with pytest.raises(AssertionError, match="normalized"):
        exact(np.array([Fraction(1, 2)]))


def test_small_integer_laws_run_on_int64():
    sl2 = catalog_algebra("sl2")
    before = _ops()
    assert sl2.check_axioms().passed
    ran = _ran(before)
    assert ran["int64"] > 0 and ran["object"] == 0


def test_bound_past_int64_takes_the_object_path():
    """N's entries fit int64, but the Nijenhuis law's carried bound does not;
    T's entries alone are past it.  The witnesses are those of the object-array
    engine, which computed them on Fractions."""
    sl2 = catalog_algebra("sl2")
    nmap = Matrix([[2**40, 1, 0], [0, Fraction(3, 2), 0], [0, 0, 1]])
    assert nmap.arr.num.dtype == np.int64
    before = _ops()
    wit = nijenhuis_witness(sl2, nmap)
    assert _ran(before)["object"] > 0
    assert wit == {"identity": "binary", "tuple": (1, 2),
                   "residual": (Fraction(-2417851639223760791273475, 2), Fraction(0), Fraction(0))}

    a2 = catalog_algebra("a2")
    pair = LieYRepPair(a2, adjoint_rep(a2))
    tmap = Matrix([[Fraction(2**70, 7), 1], [0, 0]])
    assert tmap.arr.num.dtype == object
    before = _ops()
    report = relative_rb_report(pair, tmap)
    ran = _ran(before)
    assert ran["int64"] == 0 and ran["object"] > 0
    assert [(c.name, c.status, c.witness) for c in report.checks] == [
        ("rb-binary", "fail", {"identity": "binary", "tuple": (0, 1), "residual": (
            Fraction(-1393796574908163946345982392040522594123776, 49), Fraction(0))}),
        ("rb-ternary", "pass", None),
    ]


def test_zero_operand_against_object_numerators():
    """A zero factor (bound 0) bounds the product by 0 even when the other
    factor holds Python-int numerators; the product is int64 all the same."""
    zero = exact_array([0] * 4, (2, 2))
    big = exact_array([2**70, Fraction(1, 3), -(2**65), 5], (2, 2))
    assert zero.num.dtype == np.int64 and big.num.dtype == object
    for got in (zero @ big, big @ zero, zero * big, np.einsum("ij,jk->ik", big, zero)):
        _check(got, np.zeros((2, 2), dtype=object))
        assert got.bound == 0
    before = _ops()
    got = zero @ big
    assert _ran(before) == {"int64": 1, "object": 0}
    _check(zero + big, np.asarray(big))


@pytest.mark.parametrize("module, cases", [
    (test_law_golden, "witness_cases"),
    (test_rep_golden, "witness_cases"),
    (test_scan_golden, "scan_cases"),
    (test_poly_golden, "witness_cases"),
])
def test_golden_generators_on_object_numerators(monkeypatch, module, cases):
    """With no int64 numerators allowed, every law runs on Python ints and the
    golden files still come out byte for byte."""
    monkeypatch.setattr(linalg, "INT64_LIMIT", 0)
    before = _ops()
    assert module.render(getattr(module, cases)()) == module.GOLDEN.read_text()
    assert _ran(before)["int64"] == 0


@pytest.mark.parametrize("budget", [1, 10**9])
@pytest.mark.parametrize("module, cases", [
    (test_law_golden, "witness_cases"),
    (test_rep_golden, "witness_cases"),
    (test_scan_golden, "scan_cases"),
])
def test_golden_generators_at_any_block_budget(monkeypatch, module, cases, budget):
    """The golden files come out byte for byte whether every block of a law
    holds one first index (budget 1) or the whole law (an unbounded budget)."""
    monkeypatch.setattr(report, "BLOCK_TUPLES", budget)
    assert module.render(getattr(module, cases)()) == module.GOLDEN.read_text()


# -- arithmetic against Fractions -------------------------------------------

# numerators up to about 2^31 put the products of a contraction on either
# side of INT64_LIMIT; a few much larger ones start out on Python ints
_NUMERATORS = st.one_of(st.integers(-4, 4), st.integers(-(2**31), 2**31),
                        st.integers(-(2**63), 2**63))
_DENOMINATORS = st.sampled_from([1, 1, 2, 3, 6, 7, 2**20])


@st.composite
def _entries(draw, shape):
    size = int(np.prod(shape))
    den = draw(_DENOMINATORS)
    out = [Fraction(draw(_NUMERATORS), den * draw(st.sampled_from([1, 1, 5]))) for _ in range(size)]
    return [q.numerator if q.denominator == 1 else q for q in out]


def _objects(entries, shape):
    out = np.empty(len(entries), dtype=object)
    out[:] = entries
    return out.reshape(shape)


def _check(got, want):
    assert isinstance(got, ExactArray)
    assert got.shape == np.shape(want)
    assert np.asarray(got).tolist() == np.asarray(want).tolist()
    assert np.all(np.abs(got.num.astype(object)) <= got.bound)
    assert (got.num.dtype == np.int64) == (got.bound < INT64_LIMIT)


EINSUMS = [
    ("ij,jk->ik", (2, 3), (3, 2)),
    ("ijm,mkl->ijkl", (2, 2, 3), (3, 2, 2)),
    ("...ab,...bc->...ac", (4, 2, 3), (4, 3, 2)),
    ("i,i->", (3,), (3,)),
    ("ai,ajk->ijk", (3, 2), (3, 2, 2)),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fractions(data):
    sub, sa, sb = data.draw(st.sampled_from(EINSUMS))
    ea, eb = data.draw(_entries(sa)), data.draw(_entries(sb))
    a, b = exact_array(ea, sa), exact_array(eb, sb)
    oa, ob = _objects(ea, sa), _objects(eb, sb)
    _check(np.einsum(sub, a, b), np.einsum(sub, oa, ob))
    _check(np.einsum("i...->...i", a), np.einsum("i...->...i", oa))
    c = exact_array(data.draw(_entries(sa)), sa)
    oc = np.asarray(c)
    _check(a + c, oa + oc)
    _check(a - c, oa - oc)
    _check(-a + c.T.T, -oa + oc)
    _check(a * c, oa * oc)
    if len(sa) >= 2 and len(sb) >= 2 and sa[-1] == sb[-2] and sa[:-2] == sb[:-2]:
        _check(a @ b, oa @ ob)
        _check(a.mT @ a, oa.mT @ oa)
    assert ((a != 0) == (oa != 0)).all()
    idx = tuple(data.draw(st.integers(0, s - 1)) for s in sa)
    assert a[idx] == oa[idx] and type(a[idx]) is type(oa[idx])


# -- arithmetic over Q[t] against Poly objects ---------------------------------

# rational coefficients, and polynomials of degree 0-4 in them; a scale of
# 2^61 puts some arrays on Python-int numerators from the start
_COEFFICIENTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_SCALARS = st.one_of(_COEFFICIENTS, st.lists(_COEFFICIENTS, min_size=1, max_size=5).map(Poly))


@st.composite
def _ring_array(draw, shape):
    """An exact array of `shape`: over Q[t] or, one time in three, over Q."""
    scalars = _COEFFICIENTS if draw(st.integers(0, 2)) == 0 else _SCALARS
    scale = draw(st.sampled_from([1, 1, 2**61]))
    return exact_array([x * scale for x in draw(st.lists(scalars, min_size=int(np.prod(shape)),
                                                            max_size=int(np.prod(shape))))], shape)


def _check_entries(got, want):
    """got holds the entries of want, each a Poly exactly where want's is a
    polynomial of degree 1 or more (the value rule: 0 * t leaves as 0)."""
    if isinstance(got, ExactArray):
        assert max(map(abs, got.num.ravel().tolist()), default=0) <= got.bound
        assert (got.num.dtype == np.int64) == (got.bound < INT64_LIMIT)
        got = np.asarray(got)
    want = np.asarray(want, dtype=object)
    assert got.shape == want.shape
    for g, w in zip(got.ravel().tolist(), want.ravel().tolist()):
        assert g == w and (type(g) is Poly) == (type(w) is Poly and w.degree > 0), (g, w)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_polynomial_arithmetic_matches_poly_objects(data):
    """The kind over Q[t] gives the entries of Python's Poly arithmetic on the
    same entries as object arrays, Poly where that gives a polynomial of
    degree 1 or more, mixed with arrays over Q and on either numerator kind."""
    a, b = data.draw(_ring_array((2, 3))), data.draw(_ring_array((2, 3)))
    c = data.draw(_ring_array((3, 2)))
    oa, ob, oc = np.asarray(a), np.asarray(b), np.asarray(c)
    _check_entries(a + b, oa + ob)
    _check_entries(a - b, oa - ob)
    _check_entries(-a + b.mT.mT, -oa + ob)
    _check_entries(a * b, oa * ob)
    _check_entries(a @ c, oa @ oc)
    _check_entries(a.mT @ b, oa.T @ ob)
    _check_entries(c.T, oc.T)
    _check_entries(np.einsum("ij,jk->ik", a, c), np.einsum("ij,jk->ik", oa, oc))
    _check_entries(np.einsum("...j,...j->...", a, b), np.einsum("...j,...j->...", oa, ob))
    _check_entries(np.einsum("ij,ij->", a, b), np.einsum("ij,ij->", oa, ob))
    _check_entries(np.einsum("ij,ki->jk", a, c), np.einsum("ij,ki->jk", oa, oc))
    _check_entries(np.stack([a, b]), np.stack([oa, ob]))
    _check_entries(a[1], oa[1])
    _check_entries(a[:, 1:], oa[:, 1:])
    _check_entries(c.transpose(1, 0)[::-1], oc.T[::-1])
    _check_entries(a.reshape(3, 2), oa.reshape(3, 2))
    assert ((a != 0) == (oa != 0)).all() and ((a == 0) == (oa == 0)).all()
    assert ((a != b) == (oa != ob)).all()
    i, j = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
    assert a[i, j] == oa[i, j] and (type(a[i, j]) is Poly) == (type(oa[i, j]) is Poly)
    _check_entries(exact(a + b), np.asarray(exact(oa + ob)))


# -- the closed type: one way in, no way around ---------------------------------

_NOT_EXACT = [0.5, 1.0, True, np.bool_(False), "1", None, np.float64(2)]


@pytest.mark.parametrize("bad", _NOT_EXACT, ids=repr)
def test_entries_that_are_not_exact_are_refused(bad):
    """A float, bool, str or None entry is a TypeError at every way in: a
    list, an object array, exact_array, a Matrix row or a Matrix scalar."""
    as_object = np.array([1, bad], dtype=object)
    for make in (lambda: exact([Fraction(1, 2), bad]), lambda: exact([[1, 0], [bad, 1]]),
                 lambda: exact(as_object), lambda: exact_array([bad], ()),
                 lambda: Matrix([[1, bad]]), lambda: Matrix.from_array(as_object.reshape(1, 2)),
                 lambda: Matrix.identity(2).scale(bad)):
        with pytest.raises(TypeError, match=type(bad).__name__):
            make()


def test_float_and_bool_arrays_are_refused():
    """Float, bool and str ndarrays are refused by their dtype, by exact and
    by every constructor that takes arrays: a float 0.3 Id never reaches a
    law, whose residual would be 1.4e-17 where the exact 3/10 Id passes."""
    a2 = catalog_algebra("a2")
    with pytest.raises(TypeError, match="float64 array"):
        nijenhuis_witness(a2, Matrix.from_array(np.identity(2) * 0.3))
    assert nijenhuis_witness(a2, Matrix.identity(2).scale(Fraction(3, 10))) is None
    floats, bools = np.zeros((2,) * 4), np.zeros((2, 2), dtype=bool)
    for make in (lambda: exact(floats), lambda: exact(bools), lambda: exact(np.array(["1"])),
                 lambda: LieYamagutiAlgebra(2, a2.b_arr, floats),
                 lambda: LieYamagutiAlgebra(2, np.zeros((2,) * 3), a2.t_arr),
                 lambda: Representation(2, 2, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2), dtype=int)),
                 lambda: Representation(2, 2, np.zeros((2, 2, 2), dtype=int), floats),
                 lambda: yamaguti.YamagutiCochain(1, 2, 2, np.zeros(4)),
                 lambda: yamaguti.YamagutiCochain(1, 2, 2, [0, 1, 0.5, 0]),
                 lambda: yamaguti.YamagutiCochain(1, 2, 2, [0, 1, None, 0])):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(DimMismatchError, match="ragged"):
        exact([[1, 2], [Fraction(1, 2)]])


def test_numpy_integer_entries_are_ints():
    """np.int64 entries convert to ints: the matrix is rational, not a
    polynomial one, and an operand np.int64 multiplies as an int."""
    m = Matrix([[np.int64(1), 0], [0, np.uint8(1)]])
    assert m.rank() == 2 and m == Matrix.identity(2)
    assert [type(x) for x in m.arr.ravel()] == [int] * 4
    assert (exact([1, 2]) * np.int64(3)).tolist() == [3, 6]
    assert exact(np.array([np.int64(2), Fraction(1, 2)], dtype=object)).tolist() == [2, Fraction(1, 2)]


def test_no_numpy_detour_around_the_numerators():
    """An object-ndarray operand, a numpy function other than einsum, stack
    and concatenate, and a comparison with an ndarray raise TypeError; no
    call falls back to object-array arithmetic."""
    a, obj = exact([1, 2]), np.array([1, 2], dtype=object)
    m, mobj = exact([[1, 2], [3, 4]]), np.array([[1, 2], [3, 4]], dtype=object)
    calls = [lambda: np.sum(a), lambda: np.cumsum(a), lambda: a + obj, lambda: obj + a,
             lambda: a - obj, lambda: a * obj, lambda: obj * a, lambda: m @ mobj, lambda: mobj @ m,
             lambda: np.einsum("i,i->", a, obj), lambda: np.einsum("ij,jk->ik", m, mobj),
             lambda: np.stack([a, obj]), lambda: np.concatenate([a, obj]),
             lambda: a == obj, lambda: a != obj, lambda: obj == a, lambda: a == np.array([1, 2]),
             lambda: a != [1, 2], lambda: a == None, lambda: a + 0.5,  # noqa: E711
             lambda: exact([[T]]) @ exact([1]), lambda: exact(5) @ exact([[1]]),
             lambda: exact([[1]]) @ exact(5),
             lambda: np.einsum("i,i,i->", *[exact_array([T], (1,))] * 3),
             lambda: np.add(a, a), lambda: np.subtract(a, a), lambda: np.multiply(a, a),
             lambda: np.negative(a), lambda: np.matmul(m, m)]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert (a == exact([1, 3])).tolist() == [True, False]
    assert (a != Fraction(2)).tolist() == [True, False]
    assert (exact_array([T, 1], (2,)) == T).tolist() == [True, False]
    # a numpy scalar on the left hands the operator to the ExactArray
    p = exact_array([T, 1], (2,))
    for got, want in [(np.int64(2) * a, 2 * a), (a * np.int64(2), a * 2), (np.int64(1) - a, 1 - a),
                      (np.int64(3) + p, 3 + p)]:
        assert type(got) is ExactArray
        _check_entries(got, np.asarray(want))


@pytest.mark.parametrize("scale", [1, 2**61])
def test_products_of_unequal_coefficient_counts(scale):
    """Products of two operands over Q[t] with 2 and 3, 3 and 2, or 3 and 1
    coefficients give the entries of Poly arithmetic, on int64 numerators
    and, scaled by 2^61, on Python ints.  A constant Poly scalar is a
    rational: its product with an array over Q has no coefficient axis."""
    a = exact_array([Poly([1, -2, Fraction(3, 4)]) * scale, T, 5, Poly([0, 0, 1])], (2, 2))
    b = exact_array([(T + 1) * scale, 2, Fraction(1, 3), Poly([-1, 1])], (2, 2))
    constant = exact_array([1, Fraction(1, 2), -3, 4], (2, 2)) * Poly([Fraction(2, 3)])
    one_plane = ExactArray(constant.num[None], constant.den, constant.bound, True)
    p = Poly([Fraction(1, 2), 3])
    assert (len(a.num), len(b.num), constant.poly, constant.num.shape) == (3, 2, False, (2, 2))
    oa, ob, oc = np.asarray(a), np.asarray(b), np.asarray(constant)
    before = _ops()
    _check_entries(p * a, oa * p)
    _check_entries(b @ a, ob @ oa)
    _check_entries(a @ b, oa @ ob)
    for c in (constant, one_plane):
        _check_entries(np.einsum("ij,jk->ik", a, c), np.einsum("ij,jk->ik", oa, oc))
        _check_entries(np.einsum("ij,ji->i", c, b), np.einsum("ij,ji->i", oc, ob))
    assert (_ran(before)["object"] > 0) == (scale > 1)


@pytest.mark.parametrize("scale", [1, 2**61])
def test_entries_leave_by_value(scale):
    """An entry leaves as a Poly exactly when a coefficient of t^1, t^2, ...
    is nonzero, else as an int or a Fraction, on int64 numerators and,
    scaled by 2^61 (4 * 2^61 is past INT64_LIMIT), on Python ints."""
    big = 4 * scale
    p = exact_array([T * big, big], (2,))
    assert p.poly and (p.num.dtype == object) == (scale > 1)
    zero = p * 0
    assert zero.poly and zero.tolist() == [0, 0] and [type(x) for x in zero] == [int, int]
    one = exact([(T + 1) * big]) - exact([T * big])
    assert one.tolist() == [big] and type(one[0]) is int
    half = exact([T * big + Fraction(1, 2)]) - exact([T * big])
    assert half.tolist() == [Fraction(1, 2)] and type(half[0]) is Fraction
    rational = exact([big, Fraction(1, 2)]) * Poly([3])
    assert not rational.poly and rational.num.shape == (2,)
    assert rational.tolist() == [3 * big, Fraction(3, 2)]
    mixed = np.einsum("i,ij->j", p, exact([[1, T], [-T, 0]]))  # [0, big t^2]
    assert [type(x) for x in mixed] == [int, Poly]
    for x in (p, zero, one, half, rational, mixed, p * p - p * p):
        back = exact(np.asarray(x))
        assert back.shape == x.shape and not (back != x).any()
        assert np.asarray(back).tolist() == np.asarray(x).tolist()
        assert back.poly == any(type(e) is Poly for e in np.asarray(x).ravel())
