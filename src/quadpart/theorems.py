"""Exact verification of norm bounds and attained partition counts.

Everything that gates a pass/fail decision here is computed in exact
arithmetic: norms are integers, bound values are integer surd expressions,
and partition counts come from the capped exact oracles.  Floating point
appears only in report fields that never drive a decision: the density
report's displayed right-hand side and the bound report's bound_float.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import Callable, Iterator, NamedTuple, Optional

from .qfield import (
    BadIndex,
    FieldCtx,
    InternalError,
    QuadInt,
    SurdExpr,
    floor_surd,
)
from .indec import IndecSeq, indec_seq
from .partcount import (
    CountResult,
    PartitionCounter,
    _support_tuples,
    default_i_max,
    exists_six_partitions,
    gen_two_indec_partitions,
    pk,
)

BOUND_KINDS = ("ds", "hk10", "n", "n2")
SCHEMA_VERSION = 1  # of every JSON document the package prints

# A worker must get this many fields before a fan-out repays forking it and
# sending its results back.  On a 2-vCPU VM (Python 3.11, medians of 9 CLI
# runs, 2 workers against none), `scan --m 11` over 121 fields took 11% more
# wall time, over 152 fields 15% less and over 202 fields 19% less, and
# `density --m 6` over 152 and 202 fields 10% and 18% less; each fan-out
# cost about 0.1 s more CPU.  Break-even is near 140 fields, so two workers
# start at 200.
FIELDS_PER_WORKER = 100


def map_fields(fn: Callable[[int], object], ds: list[int]) -> Iterator:
    """Yields fn(d) for d in ds, in the order of ds, shared among forked workers.

    Each field is decided independently, so when at least two CPUs are
    available and every worker gets FIELDS_PER_WORKER fields, the fields go
    to a process pool in chunks and the results come back in input order;
    otherwise, or while other threads run (a lock one of them holds would
    stay locked in a forked worker), they are computed here.  Workers are
    forked, so they start with this process's modules and per-field cache
    instead of importing the package again, and they must touch no shared
    file.  fn must be a module-level function (or a partial of one) and its
    results picklable.  Closing the generator early shuts the pool down.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux: fork is unsafe or missing, stay in-process
        cpus = 1
    workers = min(cpus, len(ds) // FIELDS_PER_WORKER)
    if workers < 2 or threading.active_count() > 1:  # a fork copies no other thread
        yield from map(fn, ds)
        return
    # Imported here: loading them would cost every other command ~25 ms and 2.6 MB.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    try:
        yield from pool.map(fn, ds, chunksize=max(1, round(len(ds) / (4 * workers))))
    except BrokenProcessPool as exc:
        raise InternalError(f"a worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)  # joins the workers, so their CPU is reaped


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
    Yields (j, e, f, alpha).  This is the definition of the box that
    _staircase walks, and the tests' oracle for that walk.
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


def _staircase(seq: IndecSeq, m: int, count: Callable[[int, QuadInt], int]):
    """Yield (j, e, f, k, alpha) for each candidate alpha = e*beta_j +
    f*beta_{j+1} of low_count_candidates(seq, m) with j <= s'//2, in the
    order of that box, with k = count(j, alpha) <= m.

    count returns a partition count (full or restricted, as the caller
    counts), or any value above m for more than m partitions.  Adding beta_j
    or beta_{j+1} as one more part maps the partitions of alpha one-to-one
    into those of the sum, and both are indecomposable, so both counts grow
    with e and f: once (e, f) has more than m, so has every (e', f') with
    e' >= e and f' >= f.  So that f-row ends there, no later e-row of this j
    goes past f, and the e-loop ends when f = 0 fails; every candidate
    skipped has more than m partitions.

    The rows past s'//2 mirror earlier ones.  beta_{-j} = conjugate(beta_j),
    multiplying by eps_plus moves j by s', and v_{-j} = v_j = v_{j+s'}, so
    the twin of (j, e, f) is (s'-1-j, f, e) when f >= 1 and ((s'-j) mod s',
    e, 0) when f = 0.  This is an involution of the box, and twins are each
    other's conjugates times eps_plus (times 1 for e*beta_0).  Conjugation
    and totally positive units permute the indecomposables, so twins have
    equal norms and equal counts, full or restricted.  Every twin of a row
    j > s'//2 lies in an earlier row j' <= s'//2.  So the first half holds
    every count of the box, and the first candidate of the box with a given
    count is never past s'//2: its twin would come before it.
    """
    for j in range(seq.s_prime // 2 + 1):
        bj, bj1 = seq.beta(j), seq.beta(j + 1)
        f_end = m * seq.v(j + 1)
        for e in range(1, m * seq.v(j)):
            base = e * bj
            for f in range(f_end):
                alpha = base + f * bj1
                k = count(j, alpha)
                if k > m:
                    f_end = f
                    break
                yield j, e, f, k, alpha
            if f_end == 0:
                break


def _shared_indec_counter(seq: IndecSeq, m: int, cap: int) -> "PartitionCounter":
    """One capped counter over the embedding pairs of every indecomposable that
    can appear in a partition of any candidate from low_count_candidates(seq, m).

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

    parts = seq.indec_window_leq(corner(seq.s_prime - 1), corner(0).conjugate())
    return PartitionCounter(seq.ctx, parts, cap)


def _low_counts(seq: IndecSeq, m: int):
    """Yield (j, e, f, k, alpha) for each candidate alpha of the first half of
    low_count_candidates(seq, m) with exactly k <= m partitions, in the order
    of that box.

    The staircase walk counts each candidate with the full count capped at m,
    which reads m + 1 when saturated, and ends a row at the first count above
    m.  A candidate with exactly k partitions lies in the box for k, so the
    first k yielded is the first hit of that box: by _staircase's mirror
    argument it is never in the half left out.  The full counts of one
    generator share one memo.  Each support walk starts at the candidate's
    own row j, which lies in its window since e >= 1.
    """
    memo: dict = {}
    return _staircase(seq, m, lambda j, alpha: PartitionCounter(
        seq.ctx, _support_tuples(alpha, j=j), m, memo).count(alpha))


class BoundReport(NamedTuple):
    d: int
    kind: str
    m: Optional[int]
    candidates_checked: int
    max_norm_seen: int
    bound: SurdExpr
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
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

    Only kind 'n' takes m.  The candidates come from low_count_candidates
    with mm = 1, m or 2, in its order; _staircase skips only those with more
    than mm restricted partitions, which none of the checks takes, and walks
    only the first half of the box.  By its mirror argument each candidate
    kept there stands for itself and, when its twin's row is past s'//2, for
    that twin too, with the same norm: it counts twice, and a violating twin
    is built from its (j, e, f) after the first half's violations.  Norms are
    integers, so N <= b iff N <= floor(b) and N < b iff N <= ceil(b) - 1: each
    report compares every norm with one integer, which floor_surd makes exactly.
    """
    if kind not in BOUND_KINDS:
        raise BadIndex(f"unknown bound kind {kind!r}")
    if kind != "n" and m is not None:
        raise BadIndex(f"bound kind {kind!r} takes no m")
    seq = indec_seq(d)
    bound = norm_bound(seq.ctx, kind, m)
    s, half = seq.s_prime, seq.s_prime // 2
    if kind == "ds":
        top = floor_surd(bound.x, bound.y, 1, bound.delta)
        walk, rest = (), map(seq.beta, range(s))
    else:
        top = -floor_surd(-bound.x, -bound.y, 1, bound.delta) - 1
        mm = {"hk10": 1, "n": m, "n2": 2}[kind]
        counter = _shared_indec_counter(seq, mm, cap=mm)
        walk = _staircase(seq, mm, lambda _, alpha: counter.count(alpha))
        rest = gen_two_indec_partitions(seq, default_i_max(seq)) if kind == "n2" else ()
    checked, max_norm, violations, twins = 0, 0, [], []
    for j, e, f, c, alpha in walk:
        if kind == "n2" and c != 2:
            continue
        twin = (s - 1 - j, f, e) if f else ((s - j) % s, e, 0)
        unwalked = twin[0] > half
        nm = alpha.norm()
        checked += 2 if unwalked else 1
        max_norm = max(max_norm, nm)
        if nm > top:
            violations.append(alpha)
            if unwalked:
                twins.append(twin)
    violations += [e * seq.beta(j) + f * seq.beta(j + 1) for j, e, f in sorted(twins)]
    for checked, alpha in enumerate(rest, checked + 1):
        nm = alpha.norm()
        max_norm = max(max_norm, nm)
        if nm > top:
            violations.append(alpha)
    return BoundReport(d, kind, m, checked, max_norm, bound, violations)


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
    the first candidate of the box with exactly m partitions decides
    membership and is returned as the witness; _low_counts finds it with
    the capped full count alone, in the half of the box that _staircase
    walks.
    """
    if m < 1:
        raise BadIndex(f"m must be >= 1, got {m}")
    witness = next((alpha for *_, k, alpha in _low_counts(indec_seq(d), m) if k == m), None)
    return witness is not None, witness


def scan_missing_value(m: int, x: int) -> list[int]:
    """Squarefree D <= x whose field has no element with exactly m partitions."""
    return [d for d in squarefree_range(x) if not value_attained(d, m)[0]]


def scan_missing_six_fast(x: int) -> list[int]:
    """Same as scan_missing_value(6, x) but via the period criterion."""
    return [d for d in squarefree_range(x) if not exists_six_partitions(d)]


class DensityReport(NamedTuple):
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
            "schema": SCHEMA_VERSION,
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


def _first_missing(d: int, m: int) -> Optional[int]:
    """The smallest k <= m that no element of Q(sqrt(d)) has exactly k
    partitions, or None.  One pass of _low_counts decides every k <= m: k is
    attained iff it is yielded, since the half of the box that _staircase
    walks holds every count of the box."""
    seen = set()
    for *_, k, _ in _low_counts(indec_seq(d), m):
        seen.add(k)
        if len(seen) == m:
            return None
    return min(set(range(1, m + 1)) - seen)


def density_report(m: int, x: int) -> DensityReport:
    """Exact census of fields missing some count k <= m, with the analytic
    right-hand side reported (never asserted) alongside.  Each field is one
    _first_missing job; map_fields spreads the jobs over worker processes
    when the census is large enough, and members stay in ascending D."""
    if m < 4:
        raise BadIndex(f"density report needs m >= 4, got {m}")
    if x < 2:
        raise BadIndex(f"X must be >= 2, got {x}")
    ds = squarefree_range(x)
    firsts = map_fields(functools.partial(_first_missing, m=m), ds)
    missing = {d: k for d, k in zip(ds, firsts) if k is not None}
    members = list(missing)
    rhs = 100 * (2 * m - 5) ** 1.5 * math.log(x) ** 1.5 * x ** 0.875
    hypothesis = x >= (2 * m - 5) ** 12 * math.log(x) ** 4
    return DensityReport(m, x, members, missing, rhs, hypothesis)
