"""Command-line interface.

Exit codes: 0 all checks pass; 1 at least one check fails; 2 usage or
input error; 3 a theorem consequence failed on validated premises (or an
internal consistency error) -- kept separate so CI can gate on it.

Output goes to stdout, as text or single-line JSON (--format json).
Reports are deterministic for a fixed --seed, which is echoed in every
report that uses randomness.

Each command is one private handler, registered on its subparser as the
`run` default.  A handler loads and checks its inputs and returns its
report, the extra output fields and what to write to --out (None, or a
function giving the JSON payload).  `_run` does what every command
shares, once: it parses --seed, calls the handler, sets the report's
`runtime_ms` and `seed`, then writes the --out file, so that a
certificate in it equals the printed report; `_emit` prints the report
and picks the exit code, 0 or 1.  `main` turns an error raised on the
way into exit 2 or 3 and one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .algebra import nijenhuis_witness
from .deform import (
    DeformationData,
    NijenhuisStructure,
    cocycle_witness,
    equivalence_witness,
    linear_deformation_report,
    nijenhuis_structure_report,
    trivial_deformation_from,
)
from .errors import (
    ConsequenceViolatedError,
    InternalConsistencyError,
    LieyamError,
    NotNijenhuisError,
    ParseError,
    PolynomialEntriesError,
    PreconditionFailedError,
)
from .jsonio import (
    _int_value,
    algebra_to_dict,
    array_to_text,
    dump_json,
    load_algebra,
    load_operator,
    load_pair,
    load_representation,
    operator_to_dict,
)
from .paircomplex import pair_cochain_dim, pair_cohomology_dim
from .quadratic import (
    QuadraticForm,
    invariance_transport,
    rbn_to_rmn,
    rmn_to_rbn,
)
from .report import VerificationReport
from .reps import LieYRepPair, check_derived_identities, check_representation
from .rotabaxter import (
    RBNTriple,
    RelativeRBOperator,
    compatibility_witness,
    rbn_consequences,
    relative_rb_report,
    strong_witness,
)
from .search import search_quadratic_fixtures, search_rb_operators, search_rbn_triples
from .yamaguti import cochain_dim, cohomology_dim

#: Largest --degree that `cohomology` takes.
MAX_DEGREE = 16
#: Largest coboundary C^p -> C^{p+1} that `cohomology` assembles, counted as
#: dense entries dim C^p * dim C^{p+1}.  The largest tier-1 or benchmark
#: request is the classical delta_3 at dim 4, 4,320 x 720.
MAX_COBOUNDARY_ENTRIES = 4_000_000
#: Largest grid that `search rbo` and `search rbn` scan, counted as the
#: candidate matrices |values|^(dim g * dim V) of T and |values|^(dim g^2)
#: of N.  The largest tier-1 or benchmark request is sl2 with its coadjoint
#: representation over -1,0,1, 3^9 = 19,683 candidates.
MAX_GRID_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    """Usage errors (a missing option, a bad choice) are one line and exit 2."""

    def error(self, message):
        self.exit(2, f"input error: {self.prog}: {message}\n")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and returned by every later one.

    `main` reuses it for every call in a process.  That is safe because
    parsing keeps no state between calls: every default is immutable (a
    str, None, False or the int 0 of --seed); parse_args returns a fresh
    Namespace, and `_run` mutates only that; `_Parser.error` and the
    --version action write to the sys.stderr / sys.stdout of the current
    call and exit.  Nothing may add to or change the parser after this
    returns.
    """
    p = _Parser(prog="lieyam", description="exact verification of Lie-Yamaguti operator structures")
    p.add_argument("--version", action="version", version=f"lieyam {__version__}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", default=0, help="seed echoed in reports; fixes randomized suites")
    sub = p.add_subparsers(dest="command", required=True)

    def command(parent, name, run, **kwargs):
        c = parent.add_parser(name, **kwargs)
        c.set_defaults(run=run)
        return c

    c = command(sub, "check", _check, help="verify defining identities of a stored object")
    c.add_argument("kind", choices=("algebra", "rep", "pair"))
    c.add_argument("path")

    c = command(sub, "cohomology", _cohomology, help="cohomology group dimensions")
    c.add_argument("--pair", required=True)
    c.add_argument("--degree", required=True)
    c.add_argument("--complex", choices=("pair", "classical"), default="pair")

    c = command(sub, "verify-nijenhuis", _verify_nijenhuis, help="Nijenhuis operator on an algebra")
    c.add_argument("--algebra", required=True)
    c.add_argument("--N", required=True)

    c = command(sub, "verify-nijenhuis-structure", _verify_nijenhuis_structure,
                help="Nijenhuis structure (N, S) on a pair")
    c.add_argument("--pair", required=True)
    c.add_argument("--N", required=True)
    c.add_argument("--S", required=True)

    c = command(sub, "verify-rbo", _verify_rbo, help="relative Rota-Baxter operator")
    c.add_argument("--pair", required=True)
    c.add_argument("--T", required=True)

    c = command(sub, "verify-rbn", _verify_rbn, help="relative Rota-Baxter-Nijenhuis triple + consequences")
    c.add_argument("--pair", required=True)
    c.add_argument("--T", required=True)
    c.add_argument("--S", required=True)
    c.add_argument("--N", required=True)

    c = command(sub, "verify-compatible", _verify_compatible,
                help="compatibility of two Rota-Baxter operators")
    c.add_argument("--pair", required=True)
    c.add_argument("--T1", required=True)
    c.add_argument("--T2", required=True)

    c = command(sub, "verify-strong", _verify_strong, help="the strong compatibility condition of (T, S)")
    c.add_argument("--pair", required=True)
    c.add_argument("--T", required=True)
    c.add_argument("--S", required=True)

    c = command(sub, "deform", _deform, help="build + certify the deformation of a Nijenhuis structure")
    c.add_argument("--pair", required=True)
    c.add_argument("--from-nijenhuis", action="store_true", required=True)
    c.add_argument("--N", required=True)
    c.add_argument("--S", required=True)
    c.add_argument("--out", default=None, help="write the deformation data as JSON")

    c = sub.add_parser("quadratic", help="quadratic forms and the r-matrix correspondence")
    qsub = c.add_subparsers(dest="qcommand", required=True)
    qc = command(qsub, "check-form", _check_form)
    qc.add_argument("--algebra", required=True)
    qc.add_argument("--B", required=True)
    qc = command(qsub, "convert", _convert)
    qc.add_argument("--algebra", required=True)
    qc.add_argument("--B", required=True)
    qc.add_argument("--direction", choices=("rbn-to-rmn", "rmn-to-rbn"), required=True)
    qc.add_argument("--R", default=None)
    qc.add_argument("--pi", default=None)
    qc.add_argument("--N", required=True)
    qc.add_argument("--out", default=None)

    c = command(sub, "search", _search, help="deterministic fixture searches")
    c.add_argument("what", choices=("rbo", "rbn", "quadratic"))
    c.add_argument("--pair", default=None)
    c.add_argument("--values", default="-2,-1,0,1,2")
    c.add_argument("--limit", default=None)
    c.add_argument("--out", default=None)
    return p


def _run(args) -> int:
    """Parse --seed, run the command's handler, then time and seed its
    report, write its --out file and print it, once each."""
    t0 = time.perf_counter()
    args.seed = _int_value(args.seed, "--seed", "lieyam")
    report, extra, out = args.run(args)
    report.runtime_ms = (time.perf_counter() - t0) * 1000
    report.seed = args.seed
    if out is not None:
        dump_json(out(), args.out)
    return _emit(report, args, extra)


def _emit(report: VerificationReport, args, extra):
    if args.format == "json":
        payload = report.to_dict()
        if extra:
            payload.update(extra)
        print(json.dumps(payload))
    else:
        print(report.to_text())
        if extra:
            for k, v in extra.items():
                print(f"{k}: {v}")
    return 0 if report.passed else 1


def _premise(cls, error, *args):
    """(the validated cls(*args), its report), or (None, the failing report
    that its `error` carries)."""
    try:
        obj = cls(*args)
    except error as exc:
        return None, exc.report
    return obj, obj.report


def _one_check(subject, name, law, witness=None):
    """A report of one check, which passes unless there is a witness."""
    report = VerificationReport(subject=subject)
    report.add(name, witness is None, law, witness)
    return report


def _check(args):
    if args.kind == "algebra":
        return load_algebra(args.path).check_axioms(), None, None
    if args.kind == "rep":
        return check_representation(*load_representation(args.path)), None, None
    pair = load_pair(args.path, validate=False)
    report = VerificationReport(subject=f"pair {args.path}")
    report.extend(pair.algebra.check_axioms())
    report.extend(check_representation(pair.algebra, pair.rep))
    report.extend(check_derived_identities(pair.algebra, pair.rep))
    return report, None, None


def _cohomology(args):
    degree = _int_value(args.degree, "--degree", "cohomology", minimum=1, maximum=MAX_DEGREE)
    alg, rep = load_representation(args.pair)
    _check_coboundary_size(args.complex, alg.dim, rep.module_dim, degree)
    pair = LieYRepPair(alg, rep)
    if args.complex == "pair":
        dim = pair_cohomology_dim(pair, degree)
    else:
        dim = cohomology_dim(pair.algebra, pair.rep, degree)
    report = _one_check(f"cohomology of {args.pair}", f"H^{degree}",
                        f"dimension computed over the rationals = {dim}")
    return report, {f"dim_H{degree}": dim}, None


def _verify_nijenhuis(args):
    alg, nmap = load_algebra(args.algebra), load_operator(args.N)
    wit = nijenhuis_witness(alg, nmap)
    return _one_check("Nijenhuis operator", "nijenhuis",
                      "N[x,y]_N = [Nx,Ny] and N<<x,y,z>>_N = <<Nx,Ny,Nz>>", wit), None, None


def _verify_nijenhuis_structure(args):
    pair = load_pair(args.pair)
    return nijenhuis_structure_report(pair, load_operator(args.N), load_operator(args.S)), None, None


def _verify_rbo(args):
    pair = load_pair(args.pair)
    return relative_rb_report(pair, load_operator(args.T)), None, None


def _verify_rbn(args):
    pair = load_pair(args.pair)
    triple, report = _premise(RBNTriple, PreconditionFailedError, pair, load_operator(args.T),
                              load_operator(args.S), load_operator(args.N))
    if triple is not None:
        report.extend(rbn_consequences(triple, raise_on_failure=True), prefix="consequence: ")
    return report, None, None


def _verify_compatible(args):
    pair = load_pair(args.pair)
    wit = compatibility_witness(pair, load_operator(args.T1), load_operator(args.T2))
    report = _one_check("compatible Rota-Baxter operators", "compatible",
                        "every combination k1 T1 + k2 T2 is again Rota-Baxter (closed conditions)", wit)
    return report, None, None


def _verify_strong(args):
    pair = load_pair(args.pair)
    top = RelativeRBOperator(pair, load_operator(args.T))
    wit = strong_witness(pair, top, load_operator(args.S))
    return _one_check("strong compatibility condition", "strong",
                      "D(Tu,Tv)(Sw) + mu(Tv,Tw)(Su) - mu(Tu,Tw)(Sv) = S(<<u,v,w>>^T)", wit), None, None


def _deform(args):
    pair = load_pair(args.pair)
    nmap, smap = load_operator(args.N), load_operator(args.S)
    for name, mat in (("N", nmap), ("S", smap)):
        if mat.has_poly_entries():  # the deformation parameter is t itself
            raise PolynomialEntriesError(f"deform: {name} has entries in Q[t]; evaluate t first")
    ns, report = _premise(NijenhuisStructure, NotNijenhuisError, pair, nmap, smap)
    if ns is None:
        return report, None, None
    d = trivial_deformation_from(pair, ns)
    report.extend(linear_deformation_report(pair, d))
    wit = equivalence_witness(pair, d, DeformationData.zero(pair), nmap, smap)
    report.add("triviality-witness", wit is None,
               "(Id + tN, Id + tS) intertwines the family with the undeformed pair", wit)
    wit = cocycle_witness(pair, d)
    report.add("cocycle-closed", wit is None, "the first-order data is a closed 2-cochain", wit)
    if not args.out:
        return report, None, None
    return report, {"written": args.out}, lambda: _deformation_to_dict(d) | {"certificate": report.to_dict()}


def _check_form(args):
    qf, report = _premise(QuadraticForm, PreconditionFailedError, load_algebra(args.algebra),
                          load_operator(args.B))
    if qf is not None:
        report.extend(invariance_transport(qf))
    return report, None, None


def _convert(args):
    alg = load_algebra(args.algebra)
    qf = QuadraticForm(alg, load_operator(args.B))
    nmap = load_operator(args.N)
    if args.direction == "rbn-to-rmn":
        if not args.R:
            raise ParseError("--R is required for rbn-to-rmn")
        result = operator_to_dict(rbn_to_rmn(alg, qf, load_operator(args.R), nmap).pi)
        law = "pi# = R B#; induced pair verified as r-matrix-Nijenhuis"
    else:
        if not args.pi:
            raise ParseError("--pi is required for rmn-to-rbn")
        result = operator_to_dict(rmn_to_rbn(alg, qf, load_operator(args.pi), nmap))
        law = "R = pi# (B#)^{-1}; verified Rota-Baxter-Nijenhuis with exact round-trip"
    return (_one_check(f"correspondence {args.direction}", "converted", law), {"result": result},
            (lambda: result) if args.out else None)


def _search(args):
    # a repeated grid value would repeat hits: keep first occurrences
    values = tuple(dict.fromkeys(_int_value(v, "--values", "search") for v in args.values.split(",")))
    limit = None if args.limit is None else _int_value(args.limit, "--limit", "search", minimum=1)
    if args.what == "quadratic":
        hits = search_quadratic_fixtures(values=values, limit=limit)
    else:
        if args.pair is None:
            raise ParseError(f"search {args.what} needs --pair")
        alg, rep = load_representation(args.pair)
        _check_grid_size(args.what, len(values), alg.dim, rep.module_dim)
        find = search_rb_operators if args.what == "rbo" else search_rbn_triples
        hits = find(LieYRepPair(alg, rep), values, limit=limit)
    report = _one_check(f"search {args.what}", "search",
                        f"{len(hits)} fixture(s) found over the value grid {values}")
    return report, {"count": len(hits)}, \
        (lambda: {"found": [_hit_to_dict(args.what, h) for h in hits]}) if args.out else None


def _hit_to_dict(what, hit):
    """One hit of `search what` as --out writes it (rendered only for that file)."""
    if what == "quadratic":
        return {"name": hit["name"], "algebra": algebra_to_dict(hit["algebra"]),
                "B": operator_to_dict(hit["form"]), "R": operator_to_dict(hit["R"]),
                "N": operator_to_dict(hit["N"])}
    if what == "rbo":
        return operator_to_dict(hit)
    return dict(zip("TSN", map(operator_to_dict, hit)))


def _check_coboundary_size(complex_, n, m, degree):
    """ParseError unless the coboundary C^degree -> C^{degree+1} has at most
    MAX_COBOUNDARY_ENTRIES dense entries (checked before any is built)."""
    size = pair_cochain_dim if complex_ == "pair" else cochain_dim
    rows, cols = size(n, m, degree + 1), size(n, m, degree)
    if rows * cols > MAX_COBOUNDARY_ENTRIES:
        raise ParseError(f"cohomology: the {complex_} coboundary C^{degree} -> C^{degree + 1} would be "
                         f"{rows} x {cols}; the limit is {MAX_COBOUNDARY_ENTRIES} entries")


def _check_grid_size(what, count, n, m):
    """ParseError unless the grids that `search what` scans, of T (n x m)
    and, for rbn, of N (n x n) and of S (m x m, whose free coordinates
    search._grid_solutions walks), hold at most MAX_GRID_POINTS matrices
    each (checked before the pair is validated)."""
    for name, size in (("T", n * m),) + ((("N", n * n), ("S", m * m)) if what == "rbn" else ()):
        if count ** size > MAX_GRID_POINTS:
            raise ParseError(f"search {what}: the grid of {name} would hold {count}^{size} matrices; "
                             f"the limit is {MAX_GRID_POINTS}")


def _deformation_to_dict(d):
    out = {}
    for name in ("phi", "phi1", "phi2"):
        arr = getattr(d, name)
        out |= {name: array_to_text(arr.ravel()), f"{name}_shape": list(arr.shape)}
    return out | {name: array_to_text(getattr(d, name)) for name in ("varrho", "varpi1", "varpi2")}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConsequenceViolatedError, InternalConsistencyError) as exc:
        print(f"CONSEQUENCE VIOLATED: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except LieyamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
