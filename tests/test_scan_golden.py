"""Golden hit lists of the nonlinear grid scans.

`search_rb_operators` on (a2, adjoint), (a2, coadjoint), (a2lts, adjoint)
and (abelian2, 1-dim zero rep) over (-1, 0, 1) and (-2, -1, 0, 1, 2), and
`search_nijenhuis_operators` on a2, a2lts and abelian2 over (-1, 0, 1) and
(1, 0, -1), and on heis3 and sl2lts over (-1, 0, 1) with limit 40: every
hit, in grid order, with its entries as exact strings.  The rendering must
match scan.golden.json byte for byte.  Regenerate the file with

    PYTHONPATH=src python3 tests/test_scan_golden.py --write

only when a change to the scan results is intended.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from lieyam import LieYRepPair, Representation, adjoint_rep, coadjoint_rep
from lieyam.search import catalog_algebra, search_nijenhuis_operators, search_rb_operators

GOLDEN = Path(__file__).with_name("scan.golden.json")

RB_GRIDS = ((-1, 0, 1), (-2, -1, 0, 1, 2))
NIJENHUIS_GRIDS = ((-1, 0, 1), (1, 0, -1))


def _rb_pairs():
    for name in ("a2", "a2lts"):
        alg = catalog_algebra(name)
        yield name, "adjoint", LieYRepPair(alg, adjoint_rep(alg))
        if name == "a2":
            yield name, "coadjoint", LieYRepPair(alg, coadjoint_rep(alg))
    yield "abelian2", "zero1", LieYRepPair(catalog_algebra("abelian2"), Representation.zero(2, 1))


def _nijenhuis_cases():
    for name in ("a2", "a2lts", "abelian2"):
        for values in NIJENHUIS_GRIDS:
            yield name, values, None
    for name in ("heis3", "sl2lts"):
        yield name, (-1, 0, 1), 40


def _rows(m):
    return [[str(Fraction(x)) for x in r] for r in m.data]


def scan_cases():
    """One record per scan, in a fixed order."""
    out = []
    for name, rep_name, pair in _rb_pairs():
        for values in RB_GRIDS:
            out.append({"scan": "rb", "algebra": name, "rep": rep_name, "values": list(values),
                        "limit": None, "hits": [_rows(t) for t in search_rb_operators(pair, values)]})
    for name, values, limit in _nijenhuis_cases():
        hits = search_nijenhuis_operators(catalog_algebra(name), values, limit=limit)
        out.append({"scan": "nijenhuis", "algebra": name, "rep": None, "values": list(values),
                    "limit": limit, "hits": [_rows(n) for n in hits]})
    return out


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_scan_hits_match_golden():
    assert render(scan_cases()) == GOLDEN.read_text()


def test_scan_golden_is_not_trivial():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [r["scan"] for r in records] == ["rb"] * 8 + ["nijenhuis"] * 8
    assert all(r["hits"] for r in records)
    assert all(len(r["hits"]) == 40 for r in records if r["limit"] == 40)
    # some scans reject most of their grid, abelian2 with the zero rep none of it
    assert any(len(r["hits"]) * 10 < len(r["values"]) ** 4 for r in records if r["algebra"] == "a2")
    assert all(len(r["hits"]) == len(r["values"]) ** 2
               for r in records if r["scan"] == "rb" and r["algebra"] == "abelian2")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_scan_golden.py --write")
    GOLDEN.write_text(render(scan_cases()))
