"""Seeded inputs and expected answers for the three workloads.

Every input starts from a catalog algebra of `lieyam.search` (or a
semidirect product of one with a representation, to reach dims 4-6) and is
moved to another basis by P:

* a "cat" basis is the catalog basis up to a seeded signed permutation, so
  entries stay small integers and coboundaries stay very sparse;
* a "rand" basis is a fixed `random_invertible(dim, ..., (-1, 1))` per
  dimension times a seeded signed permutation, which fills the coboundary
  matrices in while keeping the cost of a request independent of the seed.

Operators and forms are transported along the same change: with Q the
change on the module (P for adjoint, P^-T for coadjoint, its own seeded
matrix for a zero representation), T' = P^-1 T Q, N' = P^-1 N P,
S' = Q^-1 S Q, B' = P^T B P and R' = P^-1 R P.

Expected answers never come from the call being timed:

* cohomology dimensions are basis invariants, read from the cached sympy
  oracle of the catalog instance (`expected.json`, see oracle.py);
* a `pass` follows from the construction (catalog operators known to
  satisfy their laws, transported);
* a `fail` comes from a one-entry mutation whose broken identity is
  re-evaluated independently by laws.py before any timing;
* search counts are invariant under signed permutations (the value grids
  are symmetric), so they are read from `expected.json` as recorded at the
  commit that defined the benchmark; `search quadratic` is compared with
  the committed fixtures/quadratic-fixtures.json.

The same (workload, seed) writes byte-identical files; another seed gives
other bases with the same request mix.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import laws
from lieyam.jsonio import algebra_to_dict, operator_to_dict
from lieyam.linalg import Matrix
from lieyam.reps import Representation, adjoint_rep, semidirect
from lieyam.search import catalog_algebra, change_basis, random_invertible

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
QUADRATIC_FIXTURES = os.path.join("fixtures", "quadratic-fixtures.json")
WORKLOADS = ("cohomology", "verify", "search")


def instance_algebra(name: str):
    """Catalog algebra, or a semidirect product built from catalog pieces."""
    if name == "sd4":
        a2 = catalog_algebra("a2")
        return semidirect(a2, adjoint_rep(a2))
    if name == "sd5":
        return semidirect(catalog_algebra("sl2"), Representation.zero(3, 2))
    if name == "sd6":
        sl2 = catalog_algebra("sl2")
        return semidirect(sl2, adjoint_rep(sl2))
    return catalog_algebra(name)


def module_dim(alg_dim: int, special: str) -> int:
    return 2 if special == "zero" else alg_dim


def cohomology_key(inst, special, complex_, degree) -> str:
    return f"{inst}/{special}/{complex_}/{degree}"


def search_key(what, inst, special, grid, limit) -> str:
    return f"{what}/{inst}/{special}/{grid}/{limit}"


# -- request mixes -----------------------------------------------------------
# One pass of each workload, sized to take 6-10 s on a 2-CPU machine, so
# that a 30 s run repeats it three or more times.  Each entry ends with its
# number of copies; every copy gets its own basis.  The copies are chosen so
# that the median and the tail percentile fall inside a group of requests of
# the same kind, not on the edge between two kinds.

REPS = ("adjoint", "coadjoint", "zero")
BASES = ("cat", "rand")

# (instance, representation, basis, complex, degree, copies)
# Dim-2 classical requests (about 10 ms) fill the lowest 55% and hold the
# median, pair H1 on A2 (about 35 ms) holds the p75 tail, and above it are
# the dim-3 classical requests (50-200 ms), pair H1 on heis3, pair H2 on A2,
# pair H3 and the dim-4 eliminations (720x120 delta_2, sparse and dense).
COHOMOLOGY_MIX = (
    [("a2", sp, bk, "classical", d, 2) for sp in REPS for bk in BASES for d in (1, 2, 3)]
    + [("abelian2", sp, "cat", "classical", d, 1) for sp in REPS for d in (1, 2, 3)]
    + [("a2", sp, bk, "pair", 1, 3 if bk == "rand" else 2) for sp in REPS for bk in BASES]
    + [(inst, sp, bk, "classical", d, 1)
       for inst, sp, bk, degrees in (("sl2", "adjoint", "rand", (1, 2)), ("heis3", "coadjoint", "cat", (1, 2, 3)),
                                     ("so3lts", "zero", "rand", (1, 2, 3)), ("heis3", "zero", "cat", (1, 2, 3)))
       for d in degrees]
    + [("heis3", "zero", "cat", "pair", 1, 2)]
    + [("a2", sp, bk, "pair", 2, 1) for sp, bk in (("adjoint", "cat"), ("coadjoint", "rand"), ("zero", "rand"))]
    + [("sd4", "zero", "cat", "classical", 1, 1), ("a2", "zero", "cat", "pair", 3, 1),
       ("sd4", "adjoint", "rand", "classical", 2, 1), ("sd4", "coadjoint", "cat", "classical", 2, 1)]
)

# (command, instance, representation, basis, mutated, copies)
# Requests on A2 and the quadratic forms under 18 ms fill the lowest 45%;
# the strong condition on A2 (about 20 ms) holds the median; verify-rbn on
# A2 in a dense basis (about 120 ms) holds the p90 tail below verify-rbn on
# (heis3, zero), convert on so3lts and the dim 4-6 requests.
VERIFY_MIX = (
    [("check-pair", inst, sp, bk, bad, c)
     for inst, sp, bk, bad, c in (("a2", "adjoint", "rand", False, 3), ("a2", "coadjoint", "cat", False, 4),
                                  ("a2", "adjoint", "rand", True, 3), ("heis3", "adjoint", "rand", True, 2),
                                  ("sl2", "coadjoint", "rand", False, 2))]
    + [("verify-rbo", inst, sp, bk, bad, c)
       for inst, sp, bk, bad, c in (("a2", "adjoint", "rand", False, 3), ("a2", "adjoint", "cat", False, 4),
                                    ("a2", "adjoint", "rand", True, 3), ("sl2", "zero", "rand", False, 2),
                                    ("sl2", "zero", "rand", True, 2), ("sd4", "adjoint", "cat", True, 1),
                                    ("sd6", "zero", "cat", False, 1))]
    + [("verify-rbn", inst, sp, bk, bad, c)
       for inst, sp, bk, bad, c in (("a2", "adjoint", "rand", False, 5), ("a2", "adjoint", "cat", False, 4),
                                    ("a2", "adjoint", "rand", True, 3), ("heis3", "zero", "rand", False, 4),
                                    ("sd4", "adjoint", "cat", True, 1))]
    + [("verify-nijenhuis-structure", inst, "adjoint", bk, bad, c)
       for inst, bk, bad, c in (("a2", "rand", False, 3), ("a2", "rand", True, 3), ("sl2", "rand", False, 2),
                                ("sl2", "rand", True, 2), ("sd4", "cat", False, 1))]
    + [("verify-strong", "a2", "adjoint", "rand", False, 11),
       ("verify-compatible", "a2", "adjoint", "rand", False, 4)]
    + [("deform", "a2", "adjoint", bk, bad, c)
       for bk, bad, c in (("rand", False, 3), ("cat", False, 4), ("rand", True, 3))]
    + [("check-form", inst, None, bk, bad, c)
       for inst, bk, bad, c in (("so3lts", "rand", False, 3), ("sl2", "rand", False, 3),
                                ("abelian3", "cat", False, 4), ("sl2lts", "cat", False, 3),
                                ("so3lts", "rand", True, 3), ("sl2", "rand", True, 3))]
    + [("convert", idx, None, bk, False, c) for idx, bk, c in ((0, "rand", 3), (4, "rand", 1), (6, "cat", 2))]
)

# (what, instance, representation, grid, limit, copies)
# Full enumerations cost the same in every signed-permutation basis; a
# --limit search stops at a basis-dependent point.  Cheap full searches on
# A2 fill the lowest third, the lts / dim-3 searches around 80 ms hold the
# median, and the full 3-value searches on abelian2 (about 130 ms) hold the
# p75 tail below the 5-value grids, the rbn triples and search quadratic.
GRID3, GRID5 = "-1,0,1", "-2,-1,0,1,2"
SEARCH_MIX = (
    [("rbo", inst, sp, grid, lim, c)
     for inst, sp, grid, lim, c in (
         ("a2", "adjoint", GRID3, None, 7), ("a2", "coadjoint", GRID3, None, 5),
         ("so3lts", "zero", GRID3, 1, 3),
         ("a2lts", "adjoint", GRID3, None, 8), ("sl2", "coadjoint", GRID3, 1, 5),
         ("so3lts", "zero", GRID3, 5, 2), ("abelian2", "zero", GRID3, None, 6),
         ("a2", "adjoint", GRID5, None, 1), ("a2", "coadjoint", GRID5, None, 1))]
    + [("rbn", "a2", sp, GRID3, 1, 1) for sp in ("adjoint", "coadjoint")]
    + [("rbn", "a2", "coadjoint", GRID3, 5, 1), ("quadratic", None, None, GRID3, None, 1)]
)


def _copies(mix):
    for *entry, copies in mix:
        for _ in range(copies):
            yield entry


# Catalog operators that satisfy their laws by construction (catalog basis).
A2_T = Matrix([[0, 1], [0, 0]])
A2_N = Matrix([[0, 2], [0, 0]])
LAMBDA = Fraction(3, 2)
CATALOG_FORMS = {
    "abelian3": [[1, 0, 0], [0, -1, 0], [0, 0, 2]],
    "so3lts": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "sl2": [[2, 0, 0], [0, 0, 1], [0, 1, 0]],
    "sl2lts": [[2, 0, 0], [0, 0, 1], [0, 1, 0]],
}


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- bases and transport -----------------------------------------------------


def signed_permutation(n, rng) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix([[rng.choice((-1, 1)) if perm[j] == i else 0 for j in range(n)]
                   for i in range(n)])


def basis_change(n, kind, rng) -> Matrix:
    """A "cat" basis is a seeded signed permutation.  A "rand" basis is one
    dense basis per dimension, fixed, relabelled by a seeded signed
    permutation: each seed gets other bases, but the structure constants
    keep the same sizes and density, so a request costs the same work
    whatever the seed."""
    if kind == "cat":
        return signed_permutation(n, rng)
    dense = random_invertible(n, random.Random(f"rand-basis:{n}"), values=(-1, 1))
    return dense * signed_permutation(n, rng)


class Frame:
    """A catalog pair moved to a seeded basis: P on g, Q on the module."""

    def __init__(self, inst, special, kind, rng):
        self.special = special
        base = instance_algebra(inst)
        self.p = basis_change(base.dim, kind, rng)
        self.alg = change_basis(base, self.p)
        self.m = module_dim(base.dim, special)
        self.pinv = self.p.invert()
        if special == "adjoint":
            self.q = self.p
        elif special == "coadjoint":
            self.q = self.pinv.transpose()
        else:
            self.q = basis_change(self.m, kind, rng)
        self.qinv = self.q.invert()

    def pair_dict(self):
        return {"algebra": algebra_to_dict(self.alg), "module_dim": self.m,
                "special": self.special}

    def t(self, tmap):
        return self.pinv * tmap * self.q

    def n(self, nmap):
        return self.pinv * nmap * self.p

    def s(self, smap):
        return self.qinv * smap * self.q

    def form(self, bmat):
        return self.p.transpose() * bmat * self.p


def rb_operator(inst, special, rng) -> Matrix:
    """A nonzero relative Rota-Baxter operator V -> g in the catalog basis.

    * (A2, ad): T = a E_12, the one-parameter family of the acceptance tests,
      with a seeded integer a.
    * (g, zero): any rank-one T = x phi^T, since [x,x] = 0 and <<x,x,x>> = 0
      while the right-hand sides vanish.
    * (g |x V, ad) from semidirect(): any T mapping the g-part into the
      abelian ideal V and killing V, since every bracket or D/mu value with
      two arguments in V vanishes.

    The last two have fixed entries, so that only the seeded basis change
    varies them and a request's cost does not depend on the seed.
    """
    alg = instance_algebra(inst)
    n = alg.dim
    m = module_dim(n, special)
    if inst == "a2" and special == "adjoint":
        return A2_T.scale(rng.choice((1, 2, -1, -2)))
    pattern = (-1, 1, 2)
    if special == "zero":
        x = [pattern[i % 3] for i in range(n)]
        phi = [pattern[(j + 1) % 3] for j in range(m)]
        return Matrix([[x[i] * phi[j] for j in range(m)] for i in range(n)])
    if inst.startswith("sd") and special == "adjoint":
        g = sum(1 for name in alg.basis_names if name.startswith("g:"))
        rows = [[0] * n for _ in range(n)]
        for i in range(g, n):
            for j in range(g):
                rows[i][j] = pattern[(i + j) % 3]
        rows[g][0] = 1
        return Matrix(rows)
    raise KeyError(f"no Rota-Baxter construction for {inst}/{special}")


def nijenhuis_pair(inst, special):
    """(N, S): the A2 structure N = S = 2 E_12, else lambda Id on both sides."""
    n = instance_algebra(inst).dim
    if inst == "a2" and special == "adjoint":
        return A2_N, A2_N
    m = module_dim(n, special)
    return Matrix.identity(n).scale(LAMBDA), Matrix.identity(m).scale(LAMBDA)


def mutate(mat: Matrix, rng, broken, symmetric=False) -> Matrix:
    """Add 1 to one seeded entry (and its mirror) until `broken` confirms it."""
    cells = [(i, j) for i in range(mat.rows) for j in range(mat.cols)]
    rng.shuffle(cells)
    for i, j in cells:
        rows = [list(r) for r in mat.data]
        rows[i][j] += 1
        if symmetric and i != j:
            rows[j][i] += 1
        out = Matrix(rows)
        if broken(out):
            return out
    raise RuntimeError("no single-entry mutation breaks the identity")


def _np(mat: Matrix):
    return laws.operator(operator_to_dict(mat))


# -- generation --------------------------------------------------------------


class _Writer:
    def __init__(self, outdir):
        self.outdir = outdir
        self.count = 0
        os.makedirs(outdir, exist_ok=True)

    def put(self, stem, obj) -> str:
        self.count += 1
        path = os.path.join(self.outdir, f"{self.count:03d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        return path


def _cohomology(writer, rng, expected):
    reqs = []
    for inst, sp, bk, cx, deg in _copies(COHOMOLOGY_MIX):
        fr = Frame(inst, sp, bk, rng)
        path = writer.put(f"{inst}-{sp}-{bk}", fr.pair_dict())
        dim = expected["cohomology"][cohomology_key(inst, sp, cx, deg)]
        reqs.append({
            "group": f"{cx} H{deg} {inst}/{sp}/{bk}",
            "argv": ["cohomology", "--pair", path, "--degree", str(deg), "--complex", cx],
            "expect": {"code": 0, "passed": True, "key": f"dim_H{deg}", "value": dim},
        })
    return reqs


def _verify(writer, rng):
    reqs = []
    with open(QUADRATIC_FIXTURES, encoding="utf-8") as fh:
        quad = json.load(fh)["found"]
    for cmd, inst, sp, bk, bad in _copies(VERIFY_MIX):
        group = f"{cmd} {inst}/{sp}/{bk}" + (" mutated" if bad else "")
        if cmd == "check-form":
            argv, fails = _check_form(writer, rng, inst, bk, bad)
        elif cmd == "convert":
            argv, fails = _convert(writer, rng, quad[inst], bk), ()
            group = f"convert {quad[inst]['name']}/{bk}"
        else:
            argv, fails = _pair_command(writer, rng, cmd, inst, sp, bk, bad)
        expect = {"code": 1, "passed": False, "fails": list(fails)} if bad else \
            {"code": 0, "passed": True}
        reqs.append({"group": group, "argv": argv, "expect": expect})
    return reqs


def _pair_command(writer, rng, cmd, inst, sp, bk, bad):
    fr = Frame(inst, sp, bk, rng)
    pair_obj = fr.pair_dict()
    if cmd == "check-pair":
        fails = ()
        if bad:
            pair_obj, fails = _mutated_pair(pair_obj, rng)
        return ["check", "pair", writer.put(f"pair-{inst}", pair_obj)], fails
    pair = writer.put(f"pair-{inst}", pair_obj)
    b, t, rho, mu = laws.pair_tensors(pair_obj)

    def op(stem, mat):
        return writer.put(stem, operator_to_dict(mat))

    if cmd in ("verify-nijenhuis-structure", "deform"):
        n0, s0 = nijenhuis_pair(inst, sp)
        nmap, smap = fr.n(n0), fr.s(s0)
        fails = ()
        if bad:
            smap = mutate(smap, rng, lambda x: laws.structure_broken(b, t, rho, mu, _np(nmap), _np(x)))
            fails = ("nijenhuis-N", "rho-compat", "mu-compat")
        extra = ["--from-nijenhuis"] if cmd == "deform" else []
        return [cmd, "--pair", pair, *extra, "--N", op("N", nmap), "--S", op("S", smap)], fails

    tmap = fr.t(rb_operator(inst, sp, rng))
    if cmd == "verify-compatible":
        other = fr.t(rb_operator(inst, sp, rng))
        return [cmd, "--pair", pair, "--T1", op("T1", tmap), "--T2", op("T2", other)], ()
    if cmd == "verify-strong":
        smap = fr.s(nijenhuis_pair(inst, sp)[1])
        return [cmd, "--pair", pair, "--T", op("T", tmap), "--S", op("S", smap)], ()

    fails = ()
    if bad:
        tmap = mutate(tmap, rng, lambda x: laws.rb_broken(b, t, rho, mu, _np(x)))
        fails = ("rb-binary", "rb-ternary") if cmd == "verify-rbo" else ("rb-operator",)
    if cmd == "verify-rbo":
        return [cmd, "--pair", pair, "--T", op("T", tmap)], fails
    nmap, smap = nijenhuis_pair(inst, sp)
    return [cmd, "--pair", pair, "--T", op("T", tmap), "--S", op("S", fr.s(smap)),
            "--N", op("N", fr.n(nmap))], fails


def _mutated_pair(pair_obj, rng):
    """Shift one ternary constant (antisymmetrically) until an axiom breaks."""
    alg = pair_obj["algebra"]
    n = alg["dim"]
    cells = [(i, j, k, l) for i in range(n) for j in range(i + 1, n)
             for k in range(n) for l in range(n)]
    rng.shuffle(cells)
    for i, j, k, l in cells:
        ternary = [dict(e, value=dict(e["value"])) for e in alg["ternary"]]
        entry = next((e for e in ternary if (e["i"], e["j"], e["k"]) == (i, j, k)), None)
        if entry is None:
            entry = {"i": i, "j": j, "k": k, "value": {}}
            ternary.append(entry)
        old = Fraction(entry["value"].get(str(l), "0"))
        entry["value"][str(l)] = str(old + 1)
        bad_alg = dict(alg, ternary=ternary)
        if laws.axioms_broken(*laws.algebra_tensors(bad_alg)):
            return dict(pair_obj, algebra=bad_alg), ("LY1", "LY2", "LY3", "LY4")
    raise RuntimeError("no single-constant mutation breaks the axioms")


def _check_form(writer, rng, inst, bk, bad):
    fr = Frame(inst, "adjoint", bk, rng)
    alg_obj = algebra_to_dict(fr.alg)
    bmat = fr.form(Matrix(CATALOG_FORMS[inst]))
    fails = ()
    if bad:
        b, t = laws.algebra_tensors(alg_obj)
        bmat = mutate(bmat, rng, lambda x: laws.form_broken(b, t, _np(x)), symmetric=True)
        fails = ("binary-invariance", "ternary-invariance", "nondegenerate")
    return ["quadratic", "check-form", "--algebra", writer.put(f"alg-{inst}", alg_obj),
            "--B", writer.put("B", operator_to_dict(bmat))], fails


def _convert(writer, rng, fixture, bk):
    """A committed quadratic fixture (catalog algebra, B, R, N) in a new basis."""
    fr = Frame(fixture["name"], "adjoint", bk, rng)

    def put(stem, mat):
        return writer.put(stem, operator_to_dict(mat))

    def mat(obj):
        vals = [Fraction(x) for x in obj["entries"]]
        return Matrix([vals[r * obj["cols"]:(r + 1) * obj["cols"]] for r in range(obj["rows"])])

    return ["quadratic", "convert", "--algebra", writer.put("alg", algebra_to_dict(fr.alg)),
            "--B", put("B", fr.form(mat(fixture["B"]))), "--direction", "rbn-to-rmn",
            "--R", put("R", fr.n(mat(fixture["R"]))), "--N", put("N", fr.n(mat(fixture["N"])))]


def _search(writer, rng, expected):
    reqs = []
    fixtures_count = None
    for what, inst, sp, grid, limit in _copies(SEARCH_MIX):
        lim = [] if limit is None else ["--limit", str(limit)]
        if what == "quadratic":
            if fixtures_count is None:
                with open(QUADRATIC_FIXTURES, encoding="utf-8") as fh:
                    fixtures_count = len(json.load(fh)["found"])
            out = os.path.join(writer.outdir, "quadratic-found.json")
            reqs.append({
                "group": f"search quadratic {grid}",
                "argv": ["search", "quadratic", f"--values={grid}", "--out", out],
                "expect": {"code": 0, "passed": True, "key": "count", "value": fixtures_count,
                           "same_as": QUADRATIC_FIXTURES, "out": out},
            })
            continue
        fr = Frame(inst, sp, "cat", rng)
        path = writer.put(f"{inst}-{sp}", fr.pair_dict())
        count = expected["search"][search_key(what, inst, sp, grid, limit)]
        reqs.append({
            "group": f"search {what} {inst}/{sp} {grid}" + (f" limit {limit}" if limit else ""),
            "argv": ["search", what, "--pair", path, f"--values={grid}", *lim],
            "expect": {"code": 0, "passed": True, "key": "count", "value": count},
        })
    return reqs


def generate(workload: str, seed: int, outdir: str) -> list:
    """Write one pass of `workload` for `seed` under outdir; return its requests."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    writer = _Writer(outdir)
    if workload == "cohomology":
        reqs = _cohomology(writer, rng, load_expected())
    elif workload == "verify":
        reqs = _verify(writer, rng)
    else:
        reqs = _search(writer, rng, load_expected())
    # A seeded order spreads every kind of request over the whole pass, so a
    # few slow seconds on a shared machine do not land on one kind only.
    rng.shuffle(reqs)
    for i, req in enumerate(reqs):
        req["id"] = i
    with open(os.path.join(outdir, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(reqs, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return reqs
