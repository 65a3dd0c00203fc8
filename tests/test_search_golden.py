"""Golden hit lists of the deterministic grid searches.

`search_rbn_triples` on (a2, adjoint) over (1, 0, -1), (a2, coadjoint)
over (0, 2, -1) and (a2, 1-dim zero rep) over (-1, 0, 1), and
`search_quadratic_fixtures` over (-1, 0, 1), (1, 0, -1) and (0, 1): every
hit, in the order found, with its matrices' entries as exact strings.
The searches keep the first hit per (T, N) in grid order, so the order is
part of the result.  The rendering must match search.golden.json byte for
byte.  Regenerate the file with

    PYTHONPATH=src python3 tests/test_search_golden.py --write

only when a change to the search results is intended.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from lieyam import LieYRepPair, Representation, adjoint_rep, coadjoint_rep
from lieyam.search import catalog_algebra, search_quadratic_fixtures, search_rbn_triples

GOLDEN = Path(__file__).with_name("search.golden.json")


def _rbn_cases():
    a2 = catalog_algebra("a2")
    yield "adjoint", LieYRepPair(a2, adjoint_rep(a2)), (1, 0, -1)
    yield "coadjoint", LieYRepPair(a2, coadjoint_rep(a2)), (0, 2, -1)
    yield "zero1", LieYRepPair(a2, Representation.zero(2, 1)), (-1, 0, 1)


QUADRATIC_GRIDS = ((-1, 0, 1), (1, 0, -1), (0, 1))


def _rows(m):
    return [[str(Fraction(x)) for x in r] for r in m.data]


def search_cases():
    """One record per search request, in a fixed order."""
    out = []
    for rep_name, pair, values in _rbn_cases():
        hits = search_rbn_triples(pair, values)
        out.append({
            "search": "rbn",
            "algebra": "a2",
            "rep": rep_name,
            "values": list(values),
            "hits": [{"T": _rows(t), "S": _rows(s), "N": _rows(n)} for t, s, n in hits],
        })
    for values in QUADRATIC_GRIDS:
        hits = search_quadratic_fixtures(values=values)
        out.append({
            "search": "quadratic",
            "values": list(values),
            "hits": [{"name": f["name"], "B": _rows(f["form"]), "R": _rows(f["R"]),
                      "N": _rows(f["N"])} for f in hits],
        })
    return out


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_search_hits_match_golden():
    assert render(search_cases()) == GOLDEN.read_text()


def test_golden_is_not_trivial():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [r["search"] for r in records] == ["rbn"] * 3 + ["quadratic"] * 3
    assert all(r["hits"] for r in records)
    names = {h["name"] for r in records if r["search"] == "quadratic" for h in r["hits"]}
    assert len(names) > 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_search_golden.py --write")
    GOLDEN.write_text(render(search_cases()))
