"""report.first_violation and report.vanishing: blocks of first indices.

A law is evaluated over blocks of first basis indices, each of at most
report.BLOCK_TUPLES basis tuples (or of one first index, when that alone
holds more).  These tests pin the block walk itself, the empty cases (an
algebra or a module of dimension 0), and the memory a large pair's
validation takes.
"""

import json
import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from lieyam import algebra, report, reps
from lieyam.algebra import LieYamagutiAlgebra
from lieyam.cli import main
from lieyam.jsonio import algebra_to_dict, dump_json, operator_to_dict
from lieyam.linalg import Matrix, exact
from lieyam.report import first_violation, vanishing
from lieyam.reps import (
    LieYRepPair,
    Representation,
    adjoint_rep,
    check_derived_identities,
    check_representation,
    semidirect,
)
from lieyam.rotabaxter import relative_rb_report
from lieyam.search import catalog_algebra, search_rb_operators


def _recorded(arr, seen, n):
    """The residual of the law whose residuals are `arr`, with n first indices,
    recording the first indices of each block asked for."""
    def residual(s, sel=None):
        seen.append(range(n)[s])
        return arr[s] if sel is None else arr[sel][:, s]
    return residual


def test_first_violation_walks_blocks_and_offsets_the_witness(monkeypatch):
    arr = np.zeros((5, 3, 2), dtype=object)
    arr[3, 1, 0], arr[4, 0, 1] = Fraction(1, 2), 1
    seen = []
    monkeypatch.setattr(report, "BLOCK_TUPLES", 6)    # two first indices of 3 tuples each
    wit = first_violation(_recorded(exact(arr), seen, 5), (5, 3), law="x")
    assert wit == {"law": "x", "tuple": (3, 1), "residual": (Fraction(1, 2), Fraction(0))}
    assert seen == [range(0, 2), range(2, 4)]
    seen.clear()
    monkeypatch.setattr(report, "BLOCK_TUPLES", 1)    # one first index per block
    assert first_violation(_recorded(exact(arr), seen, 5), (5, 3))["tuple"] == (3, 1)
    assert seen == [range(i, i + 1) for i in range(4)]


def test_vanishing_counts_the_candidates_against_the_budget(monkeypatch):
    stack = np.zeros((4, 3, 2), dtype=object)   # 4 candidates, first index 0..2, 2 tuples each
    stack[1, 2, 1], stack[2, 0, 1], stack[3, 0, 0] = 1, 1, -1
    seen = []
    monkeypatch.setattr(report, "BLOCK_TUPLES", 8)
    assert vanishing(_recorded(exact(stack), seen, 3), (3, 2), 4).tolist() == [0]
    # 4 candidates x 2 tuples fill the budget with one first index; the 2
    # survivors of it take the last two first indices at once
    assert seen == [range(0, 1), range(1, 3)]
    seen.clear()
    monkeypatch.setattr(report, "BLOCK_TUPLES", 10**9)
    assert vanishing(_recorded(exact(stack), seen, 3), (3, 2), 4).tolist() == [0]
    assert seen == [range(0, 3)]


@pytest.mark.parametrize("budget", [1, 10**9])
def test_dimension_zero_through_the_block_walk(monkeypatch, tmp_path, capsys, budget):
    """A dim-0 algebra and a module of dim 0 pass every law, as reports and through the CLI."""
    monkeypatch.setattr(report, "BLOCK_TUPLES", budget)
    zero_alg = LieYamagutiAlgebra.abelian(0)
    assert zero_alg.check_axioms().passed
    for m in (0, 2):
        rep = Representation.zero(0, m)
        assert check_representation(zero_alg, rep).passed
        assert check_derived_identities(zero_alg, rep).passed
    a2_zero = LieYRepPair(catalog_algebra("a2"), Representation.zero(2, 0))
    assert relative_rb_report(a2_zero, Matrix.zero(2, 0)).passed
    assert search_rb_operators(a2_zero, (0, 1)) == [Matrix.zero(2, 0)]

    for name, alg, m in (("dim0", zero_alg, 2), ("a2zero", catalog_algebra("a2"), 0)):
        dump_json({"algebra": algebra_to_dict(alg), "special": "zero", "module_dim": m},
                  tmp_path / f"{name}.json")
    dump_json(operator_to_dict(Matrix.zero(2, 0)), tmp_path / "T.json")
    runs = (["check", "pair", str(tmp_path / "dim0.json")],
            ["verify-rbo", "--pair", str(tmp_path / "a2zero.json"), "--T", str(tmp_path / "T.json")],
            ["search", "rbo", "--pair", str(tmp_path / "a2zero.json"), "--values", "0,1"])
    for argv in runs:
        assert main(["--format", "json", *argv]) == 0, argv
        assert json.loads(capsys.readouterr().out)["passed"] is True


def test_dim12_validation_stays_within_the_block_budget(monkeypatch):
    """Validating ((sl2 x| ad) x| ad, adjoint), dim 12, and its derived identities
    evaluates no block beyond the budget (or one first index, where that
    alone holds more tuples) and keeps the traced peak at most 16 MB."""
    sl2 = catalog_algebra("sl2")
    g6 = semidirect(sl2, adjoint_rep(sl2))
    g12 = semidirect(g6, adjoint_rep(g6))
    rep = adjoint_rep(g12)
    assert g12.dim == 12

    blocks = []   # (first indices, tuples) of every block evaluated

    def watched(residual, shape, **tags):
        def block(s):
            out = residual(s)
            blocks.append((len(range(*s.indices(shape[0]))), prod(out.shape[:len(shape)])))
            return out
        return first_violation(block, shape, **tags)

    monkeypatch.setattr(algebra, "first_violation", watched)
    monkeypatch.setattr(reps, "first_violation", watched)
    tracemalloc.start()
    try:
        LieYRepPair(g12, rep)
        derived = check_derived_identities(g12, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert derived.passed
    assert blocks and all(tuples <= report.BLOCK_TUPLES or first == 1 for first, tuples in blocks)
    assert any(first > 1 for first, _ in blocks)
    assert peak <= 16 * 2**20, peak / 2**20
