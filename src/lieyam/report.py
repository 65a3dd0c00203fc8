"""Machine-readable verification reports, and the search for a law's witness.

Every check carries a ``law`` string: a human-readable statement of the
identity being verified, so reports are self-contained.  A witness is
attached exactly when a check fails: the first violating basis tuple, in
lexicographic order, with its exact residual (``tuple``, ``residual``).
A check that bundles several laws also names the failing one
(``identity``, ``arrow`` or ``check``).

A law is evaluated as exact arrays of residuals (linalg.ExactArray, over
the rationals or over Q[t]), one block of first basis indices at a time
(first_violation): a block holds every tuple whose first index lies in a
slice of them, at most BLOCK_TUPLES tuples, so the laws at small
dimensions are one block and a block of a large law shrinks to the
tuples of one first index.  The blocks are computed in order and the
scan stops at the first one with a nonzero entry, whose first nonzero
position is the witness, its residual turned back into Fractions.  So
the witness is the lexicographically first violating tuple, and a law
that computes each block on demand holds only one in memory.

A grid search asks the same question of many operators at once: the
blocks of a stack of operators carry one more leading axis, over the
stack, and vanishing tells which of them satisfy the law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

from .linalg import ExactArray
from .scalars import Poly, format_scalar


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Poly):
        return format_scalar(value)
    if hasattr(value, "numerator") and hasattr(value, "denominator") and not isinstance(value, int):
        return format_scalar(value)
    return value


def _witness_value(value):
    """A residual entry or array as exact scalars in nested tuples, integers as Fractions."""
    if isinstance(value, ExactArray):
        value = np.asarray(value)
    if isinstance(value, np.ndarray):
        return tuple(_witness_value(x) for x in value)
    return Fraction(value) if isinstance(value, int) else value


#: Most basis tuples one block of a law holds (first_violation), and most
#: (candidate, tuple) pairs of a block of a stack (vanishing); a block
#: holds one first index when that alone carries more.  At dims <= 4 every
#: law (LY4 has 4^5 = 1,024 tuples) is one block; at dim 12 the
#: matrix-valued laws of four indices (1,728 tuples per first index) keep
#: one first index per block, so their memory stays that of one index.
BLOCK_TUPLES = 2048


def _block(per_index):
    """How many first indices one block takes when each carries `per_index` tuples."""
    return max(1, BLOCK_TUPLES // max(1, per_index))


def first_violation(residual, shape, **tags):
    """The first index tuple over `shape`, in lexicographic order, with a nonzero residual.

    residual(s) is the exact array of the residuals at every tuple whose
    first index lies in the slice s: its leading axes run over s and
    shape[1:], the others hold the value (a vector, a matrix, or none for
    a scalar).  The blocks of first indices, each of at most BLOCK_TUPLES
    tuples or of one first index, are evaluated in increasing order until
    one has a nonzero entry.  Returns the witness {**tags, "tuple": idx, "residual": r} (a
    vector as a tuple, a matrix as a tuple of rows), or None when every
    residual vanishes.
    """
    per_index = prod(shape[1:])
    step = _block(per_index)
    for start in range(0, shape[0], step):
        block = residual(slice(start, start + step))
        if not block.size:
            continue
        hits = np.flatnonzero((block != 0).reshape(len(block) * per_index, -1).any(axis=1))
        if hits.size:
            pos = tuple(int(k) for k in np.unravel_index(hits[0], block.shape[:len(shape)]))
            return {**tags, "tuple": (start + pos[0], *pos[1:]), "residual": _witness_value(block[pos])}
    return None


def vanishing(residual, shape, batch):
    """The operators of a stack of `batch` that satisfy a law over the index tuples of `shape`.

    residual(s, sel) is first_violation's block of the first indices in
    the slice s for the operators `sel` (an index array) of the stack,
    with one more leading axis running over them.  A block holds at most
    BLOCK_TUPLES (operator, tuple) pairs, and is evaluated only on the
    operators that passed the earlier ones.  Returns the indices of the
    operators on which every residual vanishes, in order.
    """
    alive = np.arange(batch)
    per_index = prod(shape[1:])
    start = 0
    while start < shape[0] and alive.size:
        step = _block(per_index * alive.size)
        block = residual(slice(start, start + step), alive)
        alive = alive[~(block != 0).reshape(alive.size, -1).any(axis=1)]
        start += step
    return alive


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "error"
    law: str
    witness: dict | None = None

    def __post_init__(self):
        if (self.status == "fail") != (self.witness is not None):
            raise ValueError("witness must be present exactly when status is 'fail'")

    @property
    def ok(self):
        return self.status == "pass"

    def to_dict(self):
        d = {"name": self.name, "status": self.status, "law": self.law}
        if self.witness is not None:
            d["witness"] = _jsonable(self.witness)
        return d


@dataclass
class VerificationReport:
    subject: str
    checks: list[CheckResult] = field(default_factory=list)
    runtime_ms: float = 0.0
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def add(self, name, ok, law, witness=None):
        self.checks.append(
            CheckResult(name, "pass" if ok else "fail", law, None if ok else witness)
        )

    def first_failure(self):
        """Witness of the first failing check, tagged with its name, or None."""
        for c in self.checks:
            if not c.ok:
                return {"check": c.name, **c.witness}
        return None

    def extend(self, other: "VerificationReport", prefix: str = ""):
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name, c.status, c.law, c.witness)
            )

    def to_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "seed": self.seed,
            "runtime_ms": round(self.runtime_ms, 3),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}[c.status]
            lines.append(f"  [{mark}] {c.name}: {c.law}")
            if c.witness is not None:
                lines.append(f"         witness: {_jsonable(c.witness)}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} ({self.runtime_ms:.1f} ms)")
        return "\n".join(lines)
