"""Golden lifts and projections of the pair complex's semidirect embedding.

For (a2, adjoint), (a2, coadjoint) and (sl2, 2-dim zero rep) at degrees
1-3: the flat lift of 3 seeded random pair cochains, and for 6 seeded
one-entry perturbations of each lift either the projected cochain or the
NotInSubcomplexError message and witness.  Every other perturbation hits
an entry where the lift is nonzero (a member of the lifted subspace), the
rest hit a uniformly random entry (almost always a non-member).  The
rendering must match lift.golden.json byte for byte.  Regenerate the
file with

    PYTHONPATH=src python3 tests/test_lift_golden.py --write

only when a change to the embedding is intended.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from lieyam import LieYRepPair, Representation, adjoint_rep, coadjoint_rep
from lieyam.errors import NotInSubcomplexError
from lieyam.paircomplex import lift, project, random_pair_cochain
from lieyam.search import catalog_algebra
from lieyam.yamaguti import YamagutiCochain

GOLDEN = Path(__file__).with_name("lift.golden.json")
SEED = 20250810


def _pairs():
    a2, sl2 = catalog_algebra("a2"), catalog_algebra("sl2")
    yield "a2", "adjoint", LieYRepPair(a2, adjoint_rep(a2))
    yield "a2", "coadjoint", LieYRepPair(a2, coadjoint_rep(a2))
    yield "sl2", "zero2", LieYRepPair(sl2, Representation.zero(3, 2))


def _text(entries):
    return [str(Fraction(x)) for x in entries]


def _witness(wit):
    """Positions as ints, values as exact strings."""
    return {k: str(Fraction(v)) if k in ("expected", "found") else list(v) if isinstance(v, tuple) else v
            for k, v in wit.items()}


def _perturbation(pair, lifted, flat, rng, member):
    nonzero = [i for i, x in enumerate(flat) if x != 0]
    pos = rng.choice(nonzero) if member and nonzero else rng.randrange(len(flat))
    step = rng.choice((-2, -1, 1, 2))
    bumped = list(flat)
    bumped[pos] += step
    raw = YamagutiCochain.unflatten(lifted.degree, lifted.adim, lifted.mdim, bumped)
    record = {"flat_index": pos, "step": step}
    try:
        record["projected"] = _text(project(pair, raw).flatten())
    except NotInSubcomplexError as exc:
        record["error"] = str(exc)
        record["witness"] = _witness(exc.witness)
    return record


def lift_cases():
    """One record per (pair, degree, cochain), in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for name, rep_name, pair in _pairs():
        for degree in (1, 2, 3):
            for _ in range(3):
                c = random_pair_cochain(pair, degree, rng)
                lifted = lift(pair, c)
                flat = lifted.flatten()
                out.append({
                    "algebra": name,
                    "rep": rep_name,
                    "degree": degree,
                    "cochain": _text(c.flatten()),
                    "lift": _text(flat),
                    "perturbed": [_perturbation(pair, lifted, flat, rng, k % 2 == 0)
                                  for k in range(6)],
                })
    return out


def render(cases) -> str:
    return "".join(json.dumps(case, sort_keys=True) + "\n" for case in cases)


def test_lifts_match_golden():
    assert render(lift_cases()) == GOLDEN.read_text()


def test_golden_is_not_trivial():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(records) == 3 * 3 * 3
    outcomes = [p for r in records for p in r["perturbed"]]
    assert any("projected" in p for p in outcomes) and any("error" in p for p in outcomes)
    messages = {p["error"] for p in outcomes if "error" in p}
    assert {m for m in messages if m.endswith(("(f part)", "(g part)"))} and any(
        "degree-1" in m for m in messages)
    assert all("column" not in p["witness"] for p in outcomes if "error" in p)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_lift_golden.py --write")
    GOLDEN.write_text(render(lift_cases()))
