"""Golden transcripts of the command-line interface.

Every command and every `quadratic`/`search` subcommand is run on a
passing input, a failing one (its report names a witness) and inputs that
exit 2, in both --format json and --format text.  Each record holds

* the exit code;
* stdout, with `runtime_ms` dropped from the JSON report and the
  "(... ms)" dropped from the text `result:` line (the only parts that
  vary between runs);
* stderr;
* the text of every --out file the command wrote, with the `runtime_ms`
  line of a certificate dropped.

Paths are shown relative to the placeholders {fx} (the fixtures
directory) and {tmp} (where the inputs are written).  The
records must match cli.golden.json byte for byte.  Regenerate the file
with

    PYTHONPATH=src python3 tests/test_cli_golden.py --write

only when a change to the CLI's output is intended.
"""

import json
import os
import re
import sys
import tempfile
from pathlib import Path

from lieyam.cli import main
from lieyam.jsonio import algebra_to_dict, dump_json, operator_to_dict
from lieyam.linalg import Matrix
from lieyam.scalars import T
from lieyam.search import catalog_algebra

GOLDEN = Path(__file__).with_name("cli.golden.json")
FIXTURES = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "fixtures"))
FORMATS = ("json", "text")
_RESULT_LINE = re.compile(r"^(result: (?:PASS|FAIL)) \(\d+\.\d ms\)$", re.MULTILINE)
_RUNTIME_LINE = re.compile(r'^ *"runtime_ms": .*\n', re.MULTILINE)


def _inputs(tmp):
    """Write the operators, algebras and pairs the cases use into tmp."""
    def op(name, rows):
        dump_json(operator_to_dict(Matrix(rows)), os.path.join(tmp, f"{name}.json"))

    def put(name, obj):
        with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    op("E11", [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    op("S-bad", [[-1, -1], [-1, -1]])
    op("T-bad", [[-1, -1], [-1, -1]])
    op("T-strong", [[-1, -1], [1, 1]])
    op("S-strong", [[-1, -1], [-1, 0]])
    op("T2", [[-1, 1], [-1, 1]])
    op("Z", [[0, 0], [0, 0]])
    op("Id", [[1, 0], [0, 1]])
    op("Id3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    op("R", [[0, 2], [-2, 0]])
    op("N3", [[3, 0], [0, 3]])
    op("pi", [[0, -2], [2, 0]])
    op("B0", [[1, 0], [0, 0]])
    dump_json(operator_to_dict(Matrix.identity(2).scale(T)), os.path.join(tmp, "tId.json"))
    put("cols-abc", {"rows": "2", "cols": "abc", "entries": ["0"] * 4})
    Path(tmp, "broken.json").write_text("{not json", encoding="utf-8")
    dump_json(algebra_to_dict(catalog_algebra("sl2")), os.path.join(tmp, "sl2.json"))
    dump_json(algebra_to_dict(catalog_algebra("abelian2")), os.path.join(tmp, "ab2.json"))
    with open(os.path.join(FIXTURES, "A2.json"), encoding="utf-8") as fh:
        a2 = json.load(fh)
    put("bad-pair", {"algebra": a2, "module_dim": 1, "rho": [[["1"]], [["0"]]],
                     "mu": [[[["0"]], [["1"]]], [[["0"]], [["0"]]]]})
    put("sl2-coadjoint", {"algebra": algebra_to_dict(catalog_algebra("sl2")), "special": "coadjoint"})
    put("module-dim-two", {"algebra": {"dim": 2}, "module_dim": "two", "rho": [], "mu": []})
    put("dim-huge", {"algebra": {"dim": 10**9}, "special": "adjoint"})
    put("dim16", {"algebra": {"dim": 16}, "special": "adjoint"})


def _cases():
    """(name, argv) of every case; {fx} and {tmp} stand for the two directories."""
    pair, N, S, T = "{fx}/A2-adjoint.json", "{fx}/N-lam2.json", "{fx}/S-lam2.json", "{fx}/T-a1.json"
    quad = ("quadratic", "convert", "--algebra", "{tmp}/ab2.json", "--B", "{tmp}/Id.json",
            "--N", "{tmp}/N3.json")
    return [
        ("check algebra pass", ["--seed", "3", "check", "algebra", "{fx}/A2.json"]),
        ("check algebra fail", ["check", "algebra", "{fx}/A2-bad-ternary.json"]),
        ("check algebra conflicting", ["check", "algebra", "{fx}/A2-conflicting.json"]),
        ("check algebra broken json", ["check", "algebra", "{tmp}/broken.json"]),
        ("check algebra missing file", ["check", "algebra", "{tmp}/no-such-file.json"]),
        ("check rep pass", ["check", "rep", "{fx}/A2-coadjoint.json"]),
        ("check rep fail", ["check", "rep", "{tmp}/bad-pair.json"]),
        ("check rep bad module_dim", ["check", "rep", "{tmp}/module-dim-two.json"]),
        ("check pair pass", ["check", "pair", pair]),
        ("check pair fail", ["check", "pair", "{tmp}/bad-pair.json"]),
        ("check pair too large", ["check", "pair", "{tmp}/dim-huge.json"]),
        ("check unknown kind", ["check", "nothing", "{fx}/A2.json"]),
        ("cohomology pair", ["--seed", "2", "cohomology", "--pair", pair, "--degree", "2"]),
        ("cohomology classical", ["cohomology", "--pair", pair, "--degree", "1", "--complex", "classical"]),
        ("cohomology degree 0", ["cohomology", "--pair", pair, "--degree", "0"]),
        ("cohomology too large", ["cohomology", "--pair", "{tmp}/dim16.json", "--degree", "3"]),
        ("cohomology invalid pair", ["cohomology", "--pair", "{tmp}/bad-pair.json", "--degree", "1"]),
        ("cohomology bad seed", ["--seed", "1.5", "cohomology", "--pair", pair, "--degree", "1"]),
        ("cohomology missing degree", ["cohomology", "--pair", pair]),
        ("verify-nijenhuis pass", ["verify-nijenhuis", "--algebra", "{fx}/A2.json", "--N", N]),
        ("verify-nijenhuis fail",
         ["verify-nijenhuis", "--algebra", "{tmp}/sl2.json", "--N", "{tmp}/E11.json"]),
        ("verify-nijenhuis bad operator",
         ["verify-nijenhuis", "--algebra", "{fx}/A2.json", "--N", "{tmp}/cols-abc.json"]),
        ("verify-nijenhuis-structure pass",
         ["verify-nijenhuis-structure", "--pair", pair, "--N", N, "--S", S]),
        ("verify-nijenhuis-structure fail",
         ["verify-nijenhuis-structure", "--pair", pair, "--N", N, "--S", "{tmp}/S-bad.json"]),
        ("verify-nijenhuis-structure wrong size",
         ["verify-nijenhuis-structure", "--pair", pair, "--N", "{tmp}/Id3.json", "--S", S]),
        ("verify-rbo pass", ["verify-rbo", "--pair", pair, "--T", T]),
        ("verify-rbo fail", ["verify-rbo", "--pair", pair, "--T", "{tmp}/T-bad.json"]),
        ("verify-rbo invalid pair", ["verify-rbo", "--pair", "{tmp}/bad-pair.json", "--T", T]),
        ("verify-rbo bad operator", ["verify-rbo", "--pair", pair, "--T", "{tmp}/cols-abc.json"]),
        ("verify-rbn pass", ["verify-rbn", "--pair", pair, "--T", T, "--S", S, "--N", N]),
        ("verify-rbn fail T", ["verify-rbn", "--pair", pair, "--T", "{tmp}/T-bad.json", "--S", S, "--N", N]),
        ("verify-rbn fail S", ["verify-rbn", "--pair", pair, "--T", T, "--S", "{tmp}/S-bad.json", "--N", N]),
        ("verify-rbn fail triple",
         ["verify-rbn", "--pair", pair, "--T", T, "--S", "{tmp}/Z.json", "--N", "{tmp}/Id.json"]),
        ("verify-rbn missing N", ["verify-rbn", "--pair", pair, "--T", T, "--S", S]),
        ("verify-compatible pass", ["verify-compatible", "--pair", pair, "--T1", T, "--T2", T]),
        ("verify-compatible fail",
         ["verify-compatible", "--pair", pair, "--T1", "{tmp}/T-strong.json", "--T2", "{tmp}/T2.json"]),
        ("verify-compatible missing file",
         ["verify-compatible", "--pair", pair, "--T1", T, "--T2", "{tmp}/no.json"]),
        ("verify-strong pass", ["verify-strong", "--pair", pair, "--T", T, "--S", S]),
        ("verify-strong fail",
         ["verify-strong", "--pair", pair, "--T", "{tmp}/T-strong.json", "--S", "{tmp}/S-strong.json"]),
        ("verify-strong T not Rota-Baxter",
         ["verify-strong", "--pair", pair, "--T", "{tmp}/T-bad.json", "--S", S]),
        ("deform pass", ["--seed", "4", "deform", "--pair", pair, "--from-nijenhuis", "--N", N, "--S", S,
                         "--out", "{tmp}/deformation.json"]),
        ("deform pass no out", ["deform", "--pair", pair, "--from-nijenhuis", "--N", N, "--S", S]),
        ("deform fail", ["deform", "--pair", pair, "--from-nijenhuis", "--N", N, "--S", "{tmp}/S-bad.json",
                         "--out", "{tmp}/deformation.json"]),
        ("deform polynomial",
         ["deform", "--pair", pair, "--from-nijenhuis", "--N", N, "--S", "{tmp}/tId.json"]),
        ("deform missing flag", ["deform", "--pair", pair, "--N", N, "--S", S]),
        ("quadratic check-form pass", ["quadratic", "check-form", "--algebra", "{tmp}/ab2.json",
                                       "--B", "{tmp}/Id.json"]),
        ("quadratic check-form fail", ["quadratic", "check-form", "--algebra", "{fx}/A2.json",
                                       "--B", "{tmp}/Id.json"]),
        ("quadratic check-form degenerate", ["quadratic", "check-form", "--algebra", "{tmp}/ab2.json",
                                             "--B", "{tmp}/B0.json"]),
        ("quadratic check-form missing B", ["quadratic", "check-form", "--algebra", "{tmp}/ab2.json"]),
        ("quadratic convert rbn-to-rmn", [*quad, "--direction", "rbn-to-rmn", "--R", "{tmp}/R.json",
                                          "--out", "{tmp}/pi-out.json"]),
        ("quadratic convert rmn-to-rbn", [*quad, "--direction", "rmn-to-rbn", "--pi", "{tmp}/pi.json",
                                          "--out", "{tmp}/R-out.json"]),
        ("quadratic convert no R", [*quad, "--direction", "rbn-to-rmn"]),
        ("quadratic convert no pi", [*quad, "--direction", "rmn-to-rbn"]),
        ("quadratic convert not rbn", [*quad, "--direction", "rbn-to-rmn", "--R", "{tmp}/Id.json"]),
        ("quadratic convert degenerate form",
         ["quadratic", "convert", "--algebra", "{tmp}/ab2.json", "--B", "{tmp}/B0.json",
          "--N", "{tmp}/N3.json",
          "--direction", "rbn-to-rmn", "--R", "{tmp}/R.json"]),
        ("quadratic no subcommand", ["quadratic"]),
        ("search rbo", ["--seed", "5", "search", "rbo", "--pair", pair, "--values=-1,0,1", "--limit", "3",
                        "--out", "{tmp}/found-rbo.json"]),
        ("search rbn", ["search", "rbn", "--pair", pair, "--values=0,1,0", "--limit", "4",
                        "--out", "{tmp}/found-rbn.json"]),
        ("search quadratic", ["search", "quadratic", "--values=0,1", "--out", "{tmp}/found-quadratic.json"]),
        ("search quadratic limit", ["search", "quadratic", "--values=-1,0,1", "--limit", "1",
                                    "--out", "{tmp}/found-quadratic.json"]),
        ("search bad values", ["search", "rbo", "--pair", pair, "--values=a"]),
        ("search quadratic bad values", ["search", "quadratic", "--values=0,,1"]),
        ("search bad limit", ["search", "rbo", "--pair", pair, "--values=0,1", "--limit", "0"]),
        ("search no pair", ["search", "rbn", "--values=0,1"]),
        ("search grid too large",
         ["search", "rbn", "--pair", "{tmp}/sl2-coadjoint.json", "--values=-2,-1,0,1,2"]),
        ("search unknown kind", ["search", "nothing"]),
        ("no command", []),
        ("unknown command", ["no-such-command"]),
        ("bad format", ["--format", "yaml", "check", "algebra", "{fx}/A2.json"]),
    ]


def _stdout(text):
    """stdout without what varies between runs: runtime_ms (JSON) or "(... ms)" (text)."""
    if text.startswith("{"):
        payload = json.loads(text)
        payload.pop("runtime_ms")
        return json.dumps(payload) + "\n"
    return _RESULT_LINE.sub(r"\1", text)


def run_cases(tmp, capsys):
    """One record per (case, format), in a fixed order.

    capsys is an object whose readouterr() returns the (out, err) written
    since its last call: pytest's fixture, or `_Capture` below.
    """
    tmp = os.path.realpath(str(tmp))
    _inputs(tmp)

    def local(text):
        return text.replace(tmp, "{tmp}").replace(FIXTURES, "{fx}")

    records = []
    capsys.readouterr()
    for name, argv in _cases():
        for fmt in FORMATS:
            before = set(os.listdir(tmp))
            full = ["--format", fmt, *(a.replace("{fx}", FIXTURES).replace("{tmp}", tmp) for a in argv)]
            try:
                code = main(full)
            except SystemExit as exc:  # a usage error found by argparse
                code = exc.code
            out, err = capsys.readouterr()
            written = sorted(set(os.listdir(tmp)) - before)
            files = {}
            for fname in written:
                path = os.path.join(tmp, fname)
                files[fname] = local(_RUNTIME_LINE.sub("", Path(path).read_text(encoding="utf-8")))
                os.remove(path)
            records.append({"case": name, "argv": argv, "format": fmt, "code": code,
                            "stdout": local(_stdout(out)), "stderr": local(err), "out": files})
    return records


def render(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def test_cli_transcripts_match_golden(tmp_path, capsys):
    assert render(run_cases(tmp_path, _Pair(capsys))) == GOLDEN.read_text()


def test_golden_covers_every_command():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    codes = {}
    for r in records:
        words = list(r["argv"])
        while words and words[0] == "--seed":
            del words[:2]
        subcommand = words[:1] in (["check"], ["quadratic"], ["search"])
        command = " ".join(words[:2] if subcommand else words[:1])
        codes.setdefault(command, set()).add(r["code"])
    # cohomology, convert and search report one check that passes whenever they
    # exit 0; the others also have a failing input
    for command in ("check algebra", "check rep", "check pair", "verify-nijenhuis",
                    "verify-nijenhuis-structure", "verify-rbo", "verify-rbn", "verify-compatible",
                    "verify-strong", "deform", "quadratic check-form"):
        assert codes.pop(command) == {0, 1, 2}, command
    for command in ("cohomology", "quadratic convert", "search rbo", "search rbn", "search quadratic"):
        assert codes.pop(command) == {0, 2}, command
    assert sum(bool(r["out"]) for r in records) == 2 * 7
    assert all("Traceback" not in r["stderr"] for r in records)


class _Pair:
    """readouterr() as an (out, err) tuple of pytest's capsys."""

    def __init__(self, capsys):
        self._capsys = capsys

    def readouterr(self):
        got = self._capsys.readouterr()
        return got.out, got.err


class _Capture:
    """readouterr() over sys.stdout/sys.stderr swapped for StringIO, for --write."""

    def __init__(self):
        import io
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()

    def readouterr(self):
        got = sys.stdout.getvalue(), sys.stderr.getvalue()
        for stream in (sys.stdout, sys.stderr):
            stream.seek(0)
            stream.truncate()
        return got


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    streams = sys.stdout, sys.stderr
    with tempfile.TemporaryDirectory() as tmp:
        try:
            records = run_cases(tmp, _Capture())
        finally:
            sys.stdout, sys.stderr = streams
    GOLDEN.write_text(render(records))
