"""Command-line interface.

Exit codes: 0 all checks pass; 1 at least one check fails; 2 usage or
input error; 3 a theorem consequence failed on validated premises (or an
internal consistency error) -- kept separate so CI can gate on it.

Output goes to stdout, as text or single-line JSON (--format json).
Reports are deterministic for a fixed --seed, which is echoed in every
report that uses randomness.
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
    _int_field,
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

#: Largest --degree (and, plus one, --degree-cap) that `cohomology` takes.
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
    p.add_argument("--degree-cap", default=None, help="cochain degree cap override")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify defining identities of a stored object")
    c.add_argument("kind", choices=("algebra", "rep", "pair"))
    c.add_argument("path")

    c = sub.add_parser("cohomology", help="cohomology group dimensions")
    c.add_argument("--pair", required=True)
    c.add_argument("--degree", required=True)
    c.add_argument("--complex", choices=("pair", "classical"), default="pair")

    c = sub.add_parser("verify-nijenhuis", help="Nijenhuis operator on an algebra")
    c.add_argument("--algebra", required=True)
    c.add_argument("--N", required=True)

    c = sub.add_parser("verify-nijenhuis-structure", help="Nijenhuis structure (N, S) on a pair")
    c.add_argument("--pair", required=True)
    c.add_argument("--N", required=True)
    c.add_argument("--S", required=True)

    c = sub.add_parser("verify-rbo", help="relative Rota-Baxter operator")
    c.add_argument("--pair", required=True)
    c.add_argument("--T", required=True)

    c = sub.add_parser("verify-rbn", help="relative Rota-Baxter-Nijenhuis triple + consequences")
    c.add_argument("--pair", required=True)
    c.add_argument("--T", required=True)
    c.add_argument("--S", required=True)
    c.add_argument("--N", required=True)

    c = sub.add_parser("verify-compatible", help="compatibility of two Rota-Baxter operators")
    c.add_argument("--pair", required=True)
    c.add_argument("--T1", required=True)
    c.add_argument("--T2", required=True)

    c = sub.add_parser("verify-strong", help="the strong compatibility condition of (T, S)")
    c.add_argument("--pair", required=True)
    c.add_argument("--T", required=True)
    c.add_argument("--S", required=True)

    c = sub.add_parser("deform", help="build + certify the deformation of a Nijenhuis structure")
    c.add_argument("--pair", required=True)
    c.add_argument("--from-nijenhuis", action="store_true", required=True)
    c.add_argument("--N", required=True)
    c.add_argument("--S", required=True)
    c.add_argument("--out", default=None, help="write the deformation data as JSON")

    c = sub.add_parser("quadratic", help="quadratic forms and the r-matrix correspondence")
    qsub = c.add_subparsers(dest="qcommand", required=True)
    qc = qsub.add_parser("check-form")
    qc.add_argument("--algebra", required=True)
    qc.add_argument("--B", required=True)
    qc = qsub.add_parser("convert")
    qc.add_argument("--algebra", required=True)
    qc.add_argument("--B", required=True)
    qc.add_argument("--direction", choices=("rbn-to-rmn", "rmn-to-rbn"), required=True)
    qc.add_argument("--R", default=None)
    qc.add_argument("--pi", default=None)
    qc.add_argument("--N", required=True)
    qc.add_argument("--out", default=None)

    c = sub.add_parser("search", help="deterministic fixture searches")
    c.add_argument("what", choices=("rbo", "rbn", "quadratic"))
    c.add_argument("--pair", default=None)
    c.add_argument("--values", default="-2,-1,0,1,2")
    c.add_argument("--limit", default=None)
    c.add_argument("--out", default=None)
    return p


def _emit(report: VerificationReport, args, extra=None):
    report.seed = args.seed
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


def _run(args) -> int:
    t0 = time.perf_counter()
    args.seed = _int_field({"--seed": args.seed}, "--seed", "lieyam")
    if args.degree_cap is not None:
        args.degree_cap = _int_field({"--degree-cap": args.degree_cap}, "--degree-cap", "lieyam",
                                     minimum=1, maximum=MAX_DEGREE + 1)

    if args.command == "check":
        if args.kind == "algebra":
            alg = load_algebra(args.path)
            report = alg.check_axioms()
        elif args.kind == "rep":
            alg, rep = load_representation(args.path)
            report = check_representation(alg, rep)
        else:
            pair = load_pair(args.path, validate=False)
            report = VerificationReport(subject=f"pair {args.path}")
            report.extend(pair.algebra.check_axioms())
            report.extend(check_representation(pair.algebra, pair.rep))
            report.extend(check_derived_identities(pair.algebra, pair.rep))
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args)

    if args.command == "cohomology":
        degree = _int_field({"--degree": args.degree}, "--degree", "cohomology",
                            minimum=1, maximum=MAX_DEGREE)
        cap = args.degree_cap
        alg, rep = load_representation(args.pair)
        _check_coboundary_size(args.complex, alg.dim, rep.module_dim, degree)
        pair = LieYRepPair(alg, rep)
        if args.complex == "pair":
            dim = pair_cohomology_dim(pair, degree, cap=cap or max(3, degree + 1))
        else:
            dim = cohomology_dim(pair.algebra, pair.rep, degree, cap=cap or max(4, degree + 1))
        report = VerificationReport(subject=f"cohomology of {args.pair}")
        report.add(f"H^{degree}", True, f"dimension computed over the rationals = {dim}")
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args, extra={f"dim_H{degree}": dim})

    if args.command == "verify-nijenhuis":
        alg = load_algebra(args.algebra)
        nmap = load_operator(args.N)
        report = VerificationReport(subject="Nijenhuis operator")
        wit = nijenhuis_witness(alg, nmap)
        report.add("nijenhuis", wit is None,
                   "N[x,y]_N = [Nx,Ny] and N<<x,y,z>>_N = <<Nx,Ny,Nz>>", wit)
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args)

    if args.command == "verify-nijenhuis-structure":
        pair = load_pair(args.pair)
        report = nijenhuis_structure_report(pair, load_operator(args.N), load_operator(args.S))
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args)

    if args.command == "verify-rbo":
        pair = load_pair(args.pair)
        report = relative_rb_report(pair, load_operator(args.T))
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args)

    if args.command == "verify-rbn":
        pair = load_pair(args.pair)
        tmap, smap, nmap = load_operator(args.T), load_operator(args.S), load_operator(args.N)
        try:
            triple = RBNTriple(pair, tmap, smap, nmap)
        except PreconditionFailedError as exc:
            report = exc.report
        else:
            report = triple.report
            report.extend(rbn_consequences(triple, raise_on_failure=True), prefix="consequence: ")
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args)

    if args.command == "verify-compatible":
        pair = load_pair(args.pair)
        wit = compatibility_witness(pair, load_operator(args.T1), load_operator(args.T2))
        report = VerificationReport(subject="compatible Rota-Baxter operators")
        report.add("compatible", wit is None,
                   "every combination k1 T1 + k2 T2 is again Rota-Baxter (closed conditions)", wit)
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args)

    if args.command == "verify-strong":
        pair = load_pair(args.pair)
        top = RelativeRBOperator(pair, load_operator(args.T))
        wit = strong_witness(pair, top, load_operator(args.S))
        report = VerificationReport(subject="strong compatibility condition")
        report.add("strong", wit is None,
                   "D(Tu,Tv)(Sw) + mu(Tv,Tw)(Su) - mu(Tu,Tw)(Sv) = S(<<u,v,w>>^T)", wit)
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args)

    if args.command == "deform":
        pair = load_pair(args.pair)
        nmap, smap = load_operator(args.N), load_operator(args.S)
        for name, mat in (("N", nmap), ("S", smap)):
            if mat.has_poly_entries():  # the deformation parameter is t itself
                raise PolynomialEntriesError(f"deform: {name} has entries in Q[t]; evaluate t first")
        extra = None
        try:
            ns = NijenhuisStructure(pair, nmap, smap)
        except NotNijenhuisError as exc:
            report = exc.report
        else:
            report = ns.report
            d = trivial_deformation_from(pair, ns)
            report.extend(linear_deformation_report(pair, d))
            wit = equivalence_witness(pair, d, DeformationData.zero(pair), nmap, smap)
            report.add("triviality-witness", wit is None,
                       "(Id + tN, Id + tS) intertwines the family with the undeformed pair", wit)
            wit = cocycle_witness(pair, d)
            report.add("cocycle-closed", wit is None, "the first-order data is a closed 2-cochain", wit)
            if args.out:
                payload = _deformation_to_dict(d)
                payload["certificate"] = report.to_dict()
                dump_json(payload, args.out)
                extra = {"written": args.out}
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args, extra=extra)

    if args.command == "quadratic":
        alg = load_algebra(args.algebra)
        b = load_operator(args.B)
        if args.qcommand == "check-form":
            try:
                qf = QuadraticForm(alg, b)
            except PreconditionFailedError as exc:
                report = exc.report
            else:
                report = qf.report
                report.extend(invariance_transport(qf))
            report.runtime_ms = (time.perf_counter() - t0) * 1000
            return _emit(report, args)
        qf = QuadraticForm(alg, b)
        nmap = load_operator(args.N)
        report = VerificationReport(subject=f"correspondence {args.direction}")
        if args.direction == "rbn-to-rmn":
            if not args.R:
                raise ParseError("--R is required for rbn-to-rmn")
            rm = rbn_to_rmn(alg, qf, load_operator(args.R), nmap)
            result = operator_to_dict(rm.pi)
            report.add("converted", True, "pi# = R B#; induced pair verified as r-matrix-Nijenhuis")
        else:
            if not args.pi:
                raise ParseError("--pi is required for rmn-to-rbn")
            rmap = rmn_to_rbn(alg, qf, load_operator(args.pi), nmap)
            result = operator_to_dict(rmap)
            report.add("converted", True,
                       "R = pi# (B#)^{-1}; verified Rota-Baxter-Nijenhuis with exact round-trip")
        if args.out:
            dump_json(result, args.out)
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args, extra={"result": result})

    if args.command == "search":
        # a repeated grid value would repeat hits: keep first occurrences
        values = tuple(dict.fromkeys(_int_field({"--values": v}, "--values", "search")
                                     for v in args.values.split(",")))
        limit = args.limit
        if limit is not None:
            limit = _int_field({"--limit": limit}, "--limit", "search", minimum=1)
        if args.what != "quadratic" and args.pair is None:
            raise ParseError(f"search {args.what} needs --pair")
        report = VerificationReport(subject=f"search {args.what}")
        found: list = []
        if args.what != "quadratic":
            alg, rep = load_representation(args.pair)
            _check_grid_size(args.what, len(values), alg.dim, rep.module_dim)
            pair = LieYRepPair(alg, rep)
        if args.what == "rbo":
            found = [operator_to_dict(t) for t in search_rb_operators(pair, values, limit=limit)]
        elif args.what == "rbn":
            found = [
                {"T": operator_to_dict(t), "S": operator_to_dict(s), "N": operator_to_dict(n)}
                for (t, s, n) in search_rbn_triples(pair, values, limit=limit)
            ]
        else:
            fixtures = search_quadratic_fixtures(values=values)
            found = [
                {
                    "name": f["name"],
                    "algebra": algebra_to_dict(f["algebra"]),
                    "B": operator_to_dict(f["form"]),
                    "R": operator_to_dict(f["R"]),
                    "N": operator_to_dict(f["N"]),
                }
                for f in fixtures
            ]
        report.add("search", True, f"{len(found)} fixture(s) found over the value grid {values}")
        if args.out:
            dump_json({"found": found}, args.out)
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        return _emit(report, args, extra={"count": len(found)})

    raise AssertionError(f"unhandled command {args.command}")


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
    and, for rbn, of N (n x n), hold at most MAX_GRID_POINTS matrices each
    (checked before the pair is validated)."""
    for name, size in (("T", n * m),) + ((("N", n * n),) if what == "rbn" else ()):
        if count ** size > MAX_GRID_POINTS:
            raise ParseError(f"search {what}: the grid of {name} would hold {count}^{size} matrices; "
                             f"the limit is {MAX_GRID_POINTS}")


def _deformation_to_dict(d):
    return {
        "phi": array_to_text(d.phi.ravel()),
        "phi_shape": list(d.phi.shape),
        "phi1": array_to_text(d.phi1.ravel()),
        "phi1_shape": list(d.phi1.shape),
        "phi2": array_to_text(d.phi2.ravel()),
        "phi2_shape": list(d.phi2.shape),
        "varrho": array_to_text(d.varrho),
        "varpi1": array_to_text(d.varpi1),
        "varpi2": array_to_text(d.varpi2),
    }


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
