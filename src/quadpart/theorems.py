"""Exact verification of norm bounds and attained partition counts.

Everything that gates a pass/fail decision here is computed in exact
arithmetic: norms are integers, bound values are integer surd expressions,
and partition counts come from the capped exact oracles.  Floating point
appears only in the density report's displayed right-hand side, which never
drives a decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .qfield import (
    BadIndex,
    FieldCtx,
    InternalError,
    QuadInt,
    SurdExpr,
)
from .indec import IndecSeq, indec_seq
from .partcount import (
    CountResult,
    PartitionCounter,
    _count,
    _support_tuples,
    exists_six_partitions,
    gen_two_indec_partitions,
    partition_count_int,
    pk,
)

BOUND_KINDS = ("ds", "hk10", "n", "n2")


def squarefree_range(x: int) -> list[int]:
    """All squarefree D with 2 <= D <= x."""
    if x < 2:
        return []
    flags = [True] * (x + 1)
    f = 2
    while f * f <= x:
        for k in range(f * f, x + 1, f * f):
            flags[k] = False
        f += 1
    return [d for d in range(2, x + 1) if flags[d]]


def first_n_squarefree(n: int) -> list[int]:
    """The n smallest squarefree D >= 2."""
    x = 2 * n + 2
    while len(ds := squarefree_range(x)) < n:
        x *= 2
    return ds[:n]


def norm_bound(ctx: FieldCtx, kind: str, m: Optional[int] = None) -> SurdExpr:
    """Norm bound value as an exact surd expression x + y*sqrt(delta).

    'ds'   -> c_D                       (indecomposables; non-strict)
    'hk10' -> sqrt(del)(2 sqrt(del)+1)(3 sqrt(del)+2)       (unique decomposition)
    'n'    -> m^2(2m+1)(2m+3) sqrt(del)(sqrt(del)+2)^2      (at most m ways)
    'n2'   -> 5 sqrt(del)(sqrt(del)+1)(3 sqrt(del)+2)       (exactly 2 ways)
    """
    d = ctx.delta
    if kind == "ds":
        return SurdExpr(ctx.c_d, 0, d)
    if kind == "hk10":
        return SurdExpr(7 * d, 6 * d + 2, d)
    if kind == "n2":
        return SurdExpr(25 * d, 15 * d + 10, d)
    if kind == "n":
        if m is None or m < 1:
            raise BadIndex("bound kind 'n' needs m >= 1")
        c = m * m * (2 * m + 1) * (2 * m + 3)
        return SurdExpr(4 * c * d, c * (d + 4), d)
    raise BadIndex(f"unknown bound kind {kind!r}")


def low_count_candidates(seq: IndecSeq, m: int):
    """Coefficient box that covers, up to totally positive units, every element
    with at most m indecomposable-part partitions.

    If e >= m*v_j the three-term relation rewrites e*beta_j + f*beta_{j+1}
    at least m more times, giving m+1 distinct indecomposable-part
    partitions; same for f >= m*v_{j+1}.  Multiplying by the totally positive
    unit shifts j by the period length, so j ranges over one period.
    Yields (j, e, f, alpha).
    """
    if m < 1:
        raise BadIndex(f"m must be >= 1, got {m}")
    for j in range(seq.s_prime):
        vj, vj1 = seq.v(j), seq.v(j + 1)
        bj, bj1 = seq.beta(j), seq.beta(j + 1)
        for e in range(1, m * vj):
            base = e * bj
            for f in range(0, m * vj1):
                yield j, e, f, base + f * bj1


def _shared_indec_counter(seq: IndecSeq, m: int, cap: int) -> "PartitionCounter":
    """One capped counter over every indecomposable that can appear in a
    partition of any candidate from low_count_candidates(seq, m).

    The counter itself starts each descent at the first part whose real
    embedding fits the remainder and stops at the first part whose conjugate
    does not (the parts are consecutive indecomposables, so their conjugates
    ascend).  A support that covers the componentwise embedding maximum of
    the candidate corners is therefore valid for every candidate at once,
    and the memo is shared across them.  By v_j*beta_j = beta_{j-1} +
    beta_{j+1}, corner j is m*beta_{j-1} + (m-1)*(beta_j + beta_{j+1}) +
    m*beta_{j+2}, so the last corner of the period has the largest real
    embedding and the first the largest conjugate.
    """

    def corner(j: int) -> QuadInt:
        return (m * seq.v(j) - 1) * seq.beta(j) + (m * seq.v(j + 1) - 1) * seq.beta(j + 1)

    rows = seq.indec_window_leq(corner(seq.s_prime - 1), corner(0).conjugate())
    parts = [(b.a, b.b) for _, b in reversed(rows)]  # descending real value
    return PartitionCounter(seq.ctx, parts, cap)


def _low_counts(seq: IndecSeq, m: int):
    """Yield (k, alpha) for each candidate alpha of low_count_candidates(seq, m)
    with exactly k <= m partitions, in the order of that box.

    Candidates are discarded without counting only when an exact lower bound
    already exceeds m: p(e)*p(f) many partitions exist by splitting
    e*beta_j and f*beta_{j+1} separately into multiples of beta_j and
    beta_{j+1}, and partitions into indecomposable parts undercount all
    partitions.  A candidate with exactly k partitions passes the screens for
    k and lies in the box for k, so the first k yielded is the first hit of
    that box.  The full counts of one generator share one memo.
    """
    indec_counter = _shared_indec_counter(seq, m, cap=m)
    memo: dict = {}
    for j in range(seq.s_prime):
        vj, vj1 = seq.v(j), seq.v(j + 1)
        bj, bj1 = seq.beta(j), seq.beta(j + 1)
        for e in range(1, m * vj):
            pe = partition_count_int(e)
            if pe > m:
                break  # p(e) is nondecreasing in e
            base = e * bj
            for f in range(0, m * vj1):
                if pe * partition_count_int(f) > m:
                    break  # nondecreasing in f
                alpha = base + f * bj1
                if indec_counter.count(alpha) > m:
                    continue  # more than m restricted partitions
                r = _count(alpha, _support_tuples, m, memo)
                if r.exact:
                    yield r.value, alpha


@dataclass
class BoundReport:
    d: int
    kind: str
    m: Optional[int]
    candidates_checked: int
    max_norm_seen: int
    bound: SurdExpr
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "D": self.d,
            "kind": self.kind,
            "m": self.m,
            "candidates_checked": self.candidates_checked,
            "max_norm_seen": str(self.max_norm_seen),
            "bound": str(self.bound),
            "bound_float": self.bound.to_float(),
            "violations": [v.to_json() for v in self.violations],
            "ok": self.ok,
        }


def verify_norm_bound(d: int, kind: str, m: Optional[int] = None) -> BoundReport:
    """Check one norm bound exhaustively over its candidate population.

    ds:   every indecomposable in one unit period has norm <= c_D.
    hk10: every candidate with exactly one indecomposable-part partition has
          norm strictly below the bound.
    n:    every candidate with at most m such partitions, strictly below.
    n2:   every generated two-partition element, and independently every
          candidate whose capped count is exactly 2, strictly below.
    """
    if kind not in BOUND_KINDS:
        raise BadIndex(f"unknown bound kind {kind!r}")
    seq = indec_seq(d)
    ctx = seq.ctx
    bound = norm_bound(ctx, kind, m)
    report = BoundReport(d, kind, m, 0, 0, bound)

    def check(alpha: QuadInt, strict: bool = True) -> None:
        nm = alpha.norm()
        report.candidates_checked += 1
        report.max_norm_seen = max(report.max_norm_seen, nm)
        ok = bound.exceeds_int(nm) if strict else bound.minus_int(nm).sign() >= 0
        if not ok:
            report.violations.append(alpha)

    if kind == "ds":
        for j in range(seq.s_prime):
            check(seq.beta(j), strict=False)
        return report

    if kind == "hk10":
        mm = 1
    elif kind == "n":
        if m is None or m < 1:
            raise BadIndex("bound kind 'n' needs m >= 1")
        mm = m
    else:
        mm = 2

    counter = _shared_indec_counter(seq, mm, cap=mm)
    for _, _, _, alpha in low_count_candidates(seq, mm):
        c = counter.count(alpha)
        if kind == "n2":
            if c == 2:
                check(alpha)
        elif c <= mm:
            check(alpha)
    if kind == "n2":
        s = seq.cf.s
        i_max = (s if s % 2 == 0 else 2 * s) - 3
        for alpha in gen_two_indec_partitions(seq, i_max):
            check(alpha)
    return report


def partition_range_witnesses(d: int) -> tuple[int, dict[int, QuadInt]]:
    """Largest odd-position partial quotient B, and for each m up to
    floor(B/2)+2 a witness element with exactly m partitions.

    The witness for m >= 2 is twice the (m-2)-nd semiconvergent in a block of
    width B; each witness is validated against the capped counting oracle.
    """
    seq = indec_seq(d)
    cf = seq.cf
    s = cf.s
    odd_positions = list(range(1, 2 * s + 1, 2))
    b = max(cf.u(i) for i in odd_positions)
    idx = next(i for i in odd_positions if cf.u(i) == b)
    witnesses: dict[int, QuadInt] = {1: seq.beta(1)}
    if pk(seq.beta(1), cap=2) != CountResult.exactly(1):
        raise InternalError("indecomposable witness failed validation")
    for m in range(2, b // 2 + 3):
        w = 2 * seq.table.semiconvergent(idx - 2, m - 2)
        got = pk(w, cap=m + 1)
        if got != CountResult.exactly(m):
            raise InternalError(f"witness for m={m} has count {got} in D={d}")
        witnesses[m] = w
    return b, witnesses


def value_attained(d: int, m: int) -> tuple[bool, Optional[QuadInt]]:
    """Decide whether some totally positive integer has exactly m partitions.

    Complete: an element with m partitions has at most m indecomposable-part
    partitions, hence a unit multiple of it appears in the candidate box of
    low_count_candidates.  Counts are invariant under that unit action, so
    the first candidate of the box with exactly m partitions (see
    _low_counts) decides membership and is returned as the witness.
    """
    if m < 1:
        raise BadIndex(f"m must be >= 1, got {m}")
    witness = next((alpha for k, alpha in _low_counts(indec_seq(d), m) if k == m), None)
    return witness is not None, witness


def scan_missing_value(m: int, x: int) -> list[int]:
    """Squarefree D <= x whose field has no element with exactly m partitions."""
    return [d for d in squarefree_range(x) if not value_attained(d, m)[0]]


def scan_missing_six_fast(x: int) -> list[int]:
    """Same as scan_missing_value(6, x) but via the period criterion."""
    return [d for d in squarefree_range(x) if not exists_six_partitions(d)]


@dataclass
class DensityReport:
    m: int
    x: int
    members: list[int]
    missing: dict[int, int]  # D -> smallest k <= m not attained
    rhs: float
    hypothesis_holds: bool

    @property
    def count(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.m,
            "X": self.x,
            "count": self.count,
            "members": self.members,
            "first_missing": {str(d): k for d, k in self.missing.items()},
            "rhs": self.rhs,
            "hypothesis_holds": self.hypothesis_holds,
            "note": ("rhs and hypothesis are reported only; the bound is not "
                     "asserted at this scale"),
        }


def density_report(m: int, x: int) -> DensityReport:
    """Exact census of fields missing some count k <= m, with the analytic
    right-hand side reported (never asserted) alongside.  One pass of
    _low_counts per field decides every k <= m: k is attained iff it is yielded."""
    if m < 4:
        raise BadIndex(f"density report needs m >= 4, got {m}")
    if x < 2:
        raise BadIndex(f"X must be >= 2, got {x}")
    members: list[int] = []
    missing: dict[int, int] = {}
    for d in squarefree_range(x):
        seen = set()
        for k, _ in _low_counts(indec_seq(d), m):
            seen.add(k)
            if len(seen) == m:
                break
        else:
            members.append(d)
            missing[d] = min(set(range(1, m + 1)) - seen)
    rhs = 100 * (2 * m - 5) ** 1.5 * math.log(x) ** 1.5 * x ** 0.875
    hypothesis = x >= (2 * m - 5) ** 12 * math.log(x) ** 4
    return DensityReport(m, x, members, missing, rhs, hypothesis)
