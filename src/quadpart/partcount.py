"""Partition counting over totally positive integers of a real quadratic field.

The counting core holds each element as its embedding pair (u, v), with
embeddings (u +- v*sqrt(delta))/2, so conjugation is v -> -v; elements leave
it as QuadInt through QuadInt.from_embedding.  parts_leq enumerates the
support of an element over the indecomposable fan: every totally positive
gamma is uniquely e*beta_j + f*beta_{j+1} (e >= 1, f >= 0), so the support is
walked point by point rather than scanned row by row.  lattice_leq, an exact
scan of the embedding box that knows nothing of the indecomposables, stays as
the test oracle for that walk.  pk / pk_indec count multisets by memoized
recursive descent over the support; only printed lists sort by real embedding.
Closed-form counts, characterizations, and generators live alongside and are
cross-checked against the oracles by the test suite.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left
from typing import Callable, Iterable, NamedTuple, Optional

from .qfield import (
    BadIndex,
    FieldCtx,
    InternalError,
    NotTotallyPositive,
    QuadInt,
    floor_surd,
    sign_surd,
)
from .indec import Decomp, IndecSeq, indec_seq

# -- count results -------------------------------------------------------------


class CountResult(NamedTuple):
    """Either an exact partition count or a saturated lower bound."""

    exact: bool
    value: int

    @staticmethod
    def exactly(v: int) -> "CountResult":
        return CountResult(True, v)

    @staticmethod
    def at_least(v: int) -> "CountResult":
        return CountResult(False, v)

    def __repr__(self) -> str:
        return f"Exact({self.value})" if self.exact else f"AtLeast({self.value})"


# -- support enumeration --------------------------------------------------------


def lattice_leq(ctx: FieldCtx, b1: tuple[int, int], b2: tuple[int, int]) -> list[tuple[int, int]]:
    """Embedding pairs of all totally positive x + y*w whose first embedding
    is <= (b1[0] + b1[1]*sqrt(delta))/2 and second embedding is
    <= (b2[0] + b2[1]*sqrt(delta))/2.  Exact; no particular output order.
    """
    t, delta = ctx.tr_omega, ctx.delta
    u1, v1 = b1
    u2, v2 = b2
    twod = 2 * delta
    y_min = floor_surd(-v2 * delta, -u2, twod, delta) + 1
    if u1 == 0:
        y_max = (v1 - 1) // 2  # rational bound v1/2, strict
    else:
        y_max = floor_surd(v1 * delta, u1, twod, delta)
    out = []
    for y in range(y_min, y_max + 1):
        ty = t * y
        lo = max(floor_surd(-ty, -y, 2, delta), floor_surd(-ty, y, 2, delta)) + 1
        hi = min(
            floor_surd(u1 - ty, v1 - y, 2, delta),
            floor_surd(u2 - ty, v2 + y, 2, delta),
        )
        out.extend((2 * x + ty, y) for x in range(lo, hi + 1))
    return out


def _desc_real(ctx: FieldCtx, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort embedding pairs descending by exact real-embedding value.

    The key of (u, v) is u*q + v*p with p = floor(q*sqrt(delta)): 2q times the
    real embedding, less v times the rounding error of p.  Two distinct
    elements differ by some d != 0 with |real(d)| >= 1/|conj(d)| (N(d) is a
    nonzero integer).  With m the largest coordinate of the list,
    |conj(d)| <= m*(1 + sqrt(delta)), so q >= m^2*(1 + root) makes
    2q*|real(d)| >= 2m exceed the rounding terms (< 2m apart): the key order
    is exact and equal keys mean equal elements.
    """
    pairs = list(pairs)
    delta = ctx.delta
    m = max(map(abs, itertools.chain.from_iterable(pairs)), default=0)
    root = math.isqrt(delta) + 1  # > sqrt(delta)
    q = 1 << (m * m * (1 + root)).bit_length()
    p = math.isqrt(q * q * delta)
    return sorted(pairs, key=lambda c: c[0] * q + c[1] * p, reverse=True)


def _support_tuples(alpha: QuadInt, limit: Optional[int] = None,
                    j: Optional[int] = None) -> Optional[list[tuple[int, int]]]:
    """Embedding pairs of every totally positive gamma <= alpha, descending as
    (u, v) integer pairs, so each before every pair below it (gamma < gamma'
    implies u_gamma < u_gamma'), or None once the walk holds limit points.

    gamma = e*beta_i + f*beta_{i+1} has beta_i <= gamma <= alpha, so row i lies
    in the window of rows with beta_i <= alpha.  Real embeddings of the beta_i
    ascend with i and their conjugates descend, so the window is a run of
    rows; when it holds any, its last is max_j_real_leq(alpha), the default
    start.  The walk needs beta_j <= alpha, or an empty window (alpha not
    totally positive); a staircase candidate e*beta_j + f*beta_{j+1} (e >= 1)
    passes its own j.  It walks rows down from j and up from j + 1, each way
    until a row holds no point; adding a totally positive element never comes
    back below alpha, so the e- and f-loops of a row also stop at their first
    miss.  The work is the support size plus the window width, whatever the
    shape of alpha.
    """
    seq = indec_seq(alpha.ctx.D)
    delta = seq.ctx.delta
    au, av = alpha.embedding_pair()
    if j is None:
        j = seq.max_j_real_leq(alpha)
    pair = seq.beta_pair
    out = []
    for i, step in ((j, -1), (j + 1, 1)):
        g, h = pair(i), pair(i + 1)
        while True:
            # alpha - gamma is zero or totally positive iff au - u >= |av - v|*sqrt(delta),
            # for gamma = (u, v); (eu, ev) is e*beta_i
            (gu, gv), (hu, hv) = g, h
            eu, ev, first = gu, gv, len(out)
            while True:
                u, v, row = eu, ev, len(out)
                while sign_surd(au - u, -abs(av - v), delta) >= 0:
                    out.append((u, v))
                    u, v = u + hu, v + hv
                if len(out) == row:
                    break  # the f = 0 point e*beta_i missed: so does every later e-row
                if limit is not None and len(out) >= limit:
                    return None
                eu, ev = eu + gu, ev + gv
            if len(out) == first:
                break  # beta_i is not <= alpha: i left the window
            i += step  # the next row shares one beta with this one
            g, h = (pair(i), g) if step < 0 else (h, pair(i + 1))
    return sorted(out, reverse=True)


def parts_leq(alpha: QuadInt) -> list[QuadInt]:
    """All totally positive gamma <= alpha, sorted descending by real embedding."""
    if not alpha.is_totally_positive():
        raise NotTotallyPositive(f"{alpha} is not totally positive")
    ctx = alpha.ctx
    return [QuadInt.from_embedding(u, v, ctx) for u, v in _desc_real(ctx, _support_tuples(alpha))]


# -- the counting core -----------------------------------------------------------


class PartitionCounter:
    """Counts multisets of a fixed part list summing to a target.

    Parts are embedding pairs of totally positive elements, each before every
    part below it: full supports descend as (u, v) pairs, and
    indec_window_leq's indecomposables are pairwise incomparable.  After
    _first_fit, a state counts partitions of the remainder r into the parts
    gamma <= r listed from the cutoff part on.  In (u, v) order that count is
    the same for every list that holds supp(r), as supp(alpha) does for every
    alpha >= r.  So the memo is keyed on (r, cutoff part), None past the end,
    and full supports of one field and cap may share one memo dict.  A cap
    saturates every stored and returned value at cap+1.

    The part list is a chain when its conjugate embeddings strictly ascend, as
    they do for a run of consecutive indecomposables.  As real = u - conj, a
    chain in (u, v) or in real order descends by real embedding.  On a chain
    the descent stops at the first part that does not fit the remainder: every
    part it tries has real embedding at most the remainder's, so a miss means
    the conjugate is too large, and every later part's conjugate is larger.
    """

    def __init__(self, ctx: FieldCtx, parts: list[tuple[int, int]], cap: Optional[int],
                 memo: Optional[dict] = None):
        self.ctx = ctx
        self.parts = parts
        self.cap = cap
        # conj(p_{k+1}) - conj(p_k) = (du - dv*sqrt(delta))/2; stop at the first descent
        self.chain = all(sign_surd(u1 - u0, v0 - v1, ctx.delta) > 0
                         for (u0, v0), (u1, v1) in zip(parts, parts[1:]))
        self._cutoffs = parts + [None]
        self._memo = {} if memo is None else memo
        self._ff = {p: k for k, p in enumerate(parts)}

    def _first_fit(self, ua: int, va: int) -> int:
        """An index before which no part is <= r = (ua, va).  No part is <= an earlier one, so a
        part's is its own index and a full count's remainders, all in supp(alpha), are lookups;
        only the restricted lists, real-descending, are searched for the first real <= real(r)."""
        hit = self._ff.get((ua, va))
        if hit is None:
            delta = self.ctx.delta
            hit = self._ff[ua, va] = bisect_left(
                self.parts, True, key=lambda p: sign_surd(p[0] - ua, p[1] - va, delta) <= 0)
        return hit

    def count(self, alpha: QuadInt) -> int:
        """Number of multisets summing to alpha, saturated at cap+1 if capped.  Not exported, so
        unchecked: _count and the staircase (e >= 1) pass only totally positive alpha."""
        u, v = alpha.embedding_pair()
        # chain depth is at most the trace u (every part has trace >= 1)
        need = min(u + 100, 1_000_000)
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)
        return self._ways(u, v, 0)

    def _ways(self, ru: int, rv: int, i: int) -> int:
        i0 = self._first_fit(ru, rv)
        if i0 > i:
            i = i0
        key = (ru, rv, self._cutoffs[i])
        memo = self._memo
        val = memo.get(key)
        if val is not None:
            return val
        parts, chain, delta = self.parts, self.chain, self.ctx.delta
        cap = self.cap
        sat = None if cap is None else cap + 1
        total = 0
        for k in range(i, len(parts)):
            pu, pv = parts[k]
            du = ru - pu
            dv = rv - pv
            if du == 0 and dv == 0:
                total += 1
            # the remainder has embeddings (du +- dv*sqrt(delta))/2, so it
            # is totally positive iff du - |dv|*sqrt(delta) > 0
            elif sign_surd(du, -abs(dv), delta) > 0:
                total += self._ways(du, dv, k)
            # on a chain, which descends by real embedding, k >= _first_fit gives
            # real(p_k) <= real(r), and equality means p_k = r: a miss here has
            # conj(p_k) >= conj(r), and every later part has a larger conjugate still
            elif chain:
                break
            if sat is not None and total >= sat:
                total = sat
                break
        memo[key] = total
        return total


def _count(alpha: QuadInt, support: Callable[[QuadInt], Optional[list[tuple[int, int]]]],
           cap: Optional[int]) -> CountResult:
    """Partitions of alpha into the parts support(alpha) lists, saturated above
    cap; the one check of alpha before a PartitionCounter counts it."""
    if cap is not None and cap < 0:
        raise BadIndex(f"cap must be >= 0, got {cap}")
    if alpha.is_zero():
        count = 1  # the empty partition
    elif not alpha.is_totally_positive():
        raise NotTotallyPositive(f"{alpha} is not totally positive")
    elif (parts := support(alpha)) is None:
        count = cap + 1  # the support alone proves more than cap partitions
    else:
        count = PartitionCounter(alpha.ctx, parts, cap).count(alpha)
    if cap is not None and count > cap:
        return CountResult.at_least(cap + 1)
    return CountResult.exactly(count)


def pk(alpha: QuadInt, cap: Optional[int] = None) -> CountResult:
    """Number of partitions of alpha into totally positive parts (p_K(0) = 1)."""
    # Each gamma != alpha in supp(alpha) pairs with alpha - gamma into a partition,
    # so p_K(alpha) >= 1 + ceil((|supp| - 1)/2): 2*cap + 1 points prove more than cap.
    limit = None if cap is None else 2 * cap + 1
    return _count(alpha, lambda a: _support_tuples(a, limit), cap)


def indec_support(alpha: QuadInt) -> list[tuple[int, int]]:
    """Embedding pairs of the indecomposables <= alpha, descending by real value."""
    return indec_seq(alpha.ctx.D).indec_window_leq(alpha, alpha.conjugate())


def pk_indec(alpha: QuadInt, cap: Optional[int] = None) -> CountResult:
    """Number of partitions of alpha with all parts indecomposable."""
    return _count(alpha, indec_support, cap)


def list_partitions(alpha: QuadInt, indec_only: bool = False,
                    limit: Optional[int] = None) -> list[list[QuadInt]]:
    """Explicit partitions of alpha (parts descending); mainly for CLI display."""
    if alpha.is_zero():
        return [[]][:limit]
    if not alpha.is_totally_positive():
        raise NotTotallyPositive(f"{alpha} is not totally positive")
    ctx = alpha.ctx
    parts = indec_support(alpha) if indec_only else _desc_real(ctx, _support_tuples(alpha))
    out: list[list[QuadInt]] = []

    def descend(ru: int, rv: int, i: int, acc: list):
        if limit is not None and len(out) >= limit:
            return
        for k in range(i, len(parts)):
            pu, pv = parts[k]
            du, dv = ru - pu, rv - pv
            if du == 0 and dv == 0:
                out.append([QuadInt.from_embedding(u, v, ctx) for u, v in acc + [(pu, pv)]])
                if limit is not None and len(out) >= limit:
                    return
            elif sign_surd(du, -abs(dv), ctx.delta) > 0:
                descend(du, dv, k, acc + [(pu, pv)])
        return

    descend(*alpha.embedding_pair(), 0, [])
    return out


# -- closed-form counts for doubles and adjacent pairs ---------------------------


def closed_count_double_pair(seq: IndecSeq, i: int, r: int, kind: str,
                             restricted: bool) -> int:
    """Closed-form count for 2*alpha_{i,r} (kind='double') or
    alpha_{i,r} + alpha_{i,r+1} (kind='pair'); restricted counts only
    partitions into indecomposable parts."""
    if i < -1 or i % 2 == 0:
        raise BadIndex(f"i must be odd and >= -1, got {i}")
    u = seq.cf.u(i + 2)
    if not 0 <= r <= u - 1:
        raise BadIndex(f"r={r} out of range for u_{{i+2}}={u}")
    if kind == "double":
        return min(r + 1, u - r + 1) if restricted else min(r + 2, u - r + 2)
    if kind == "pair":
        return min(r + 1, u - r) if restricted else min(r + 2, u - r + 1)
    raise BadIndex(f"kind must be 'double' or 'pair', got {kind!r}")


def flat_run_radius(seq: IndecSeq, j: int, t: int) -> Optional[int]:
    """Largest k0 with v_k = 2 throughout j-k0..j+k0+t, or None if already v > 2.

    When this returns k0, the count of indecomposable-part partitions of
    beta_j + beta_{j+t} is k0 + 2; when it returns None that count is 1.
    """
    if t not in (0, 1):
        raise BadIndex(f"t must be 0 or 1, got {t}")
    if seq.v(j) > 2 or seq.v(j + t) > 2:
        return None
    k = 0
    while seq.v(j - k - 1) == 2 and seq.v(j + k + 1 + t) == 2:
        k += 1
        if k > 10_000_000:
            raise InternalError("flat run did not terminate")
    total = seq.beta(j) + seq.beta(j + t)
    for step in range(1, k + 2):
        if seq.beta(j - step) + seq.beta(j + step + t) != total:
            raise InternalError(f"flat-run chain identity broke at step {step}")
    return k


# -- characterizations by the canonical decomposition ----------------------------


def is_uniquely_decomposable(seq: IndecSeq, alpha: QuadInt) -> bool:
    """True iff alpha has exactly one partition into indecomposable parts."""
    d = seq.canonical_decomp(alpha)
    return _unique_rule(d.e, d.f, seq.v(d.j), seq.v(d.j + 1))


def _unique_rule(e: int, f: int, vj: int, vj1: int) -> bool:
    """Whether e*beta_j + f*beta_{j+1} has exactly one partition into
    indecomposable parts, given v_j and v_{j+1}."""
    return 1 <= e <= vj - 1 and 0 <= f <= vj1 - 1 and (e, f) != (vj - 1, vj1 - 1)


def _two_rule(e: int, f: int, vm1: int, vj: int, vj1: int, vp2: int) -> bool:
    """Whether e*beta_j + f*beta_{j+1} has exactly two partitions into
    indecomposable parts, given v_{j-1}, v_j, v_{j+1} and v_{j+2}."""
    cond1 = (vj <= e <= 2 * vj - 1 and 0 <= f <= vj1 - 2
             and (e, f) != (2 * vj - 1, vj1 - 2)
             and (vm1, e) != (2, 2 * vj - 1)
             and (vm1, e, f) != (2, 2 * vj - 2, vj1 - 2))
    cond2 = (1 <= e <= vj - 2 and vj1 <= f <= 2 * vj1 - 1
             and (e, f) != (vj - 2, 2 * vj1 - 1)
             and (f, vp2) != (2 * vj1 - 1, 2)
             and (e, f, vp2) != (vj - 2, 2 * vj1 - 2, 2))
    cond3 = (e == vj - 1 and f == vj1 - 1
             and (vm1, vj, vj1, vp2) != (2, 2, 2, 2))
    return cond1 or cond2 or cond3


def _v_window(seq: IndecSeq, j: int) -> tuple[int, int, int, int]:
    """(v_{j-1}, v_j, v_{j+1}, v_{j+2}), the coefficients _two_rule reads."""
    return seq.v(j - 1), seq.v(j), seq.v(j + 1), seq.v(j + 2)


def has_two_indec_partitions(seq: IndecSeq, alpha: QuadInt) -> bool:
    """True iff alpha has exactly two partitions into indecomposable parts."""
    d = seq.canonical_decomp(alpha)
    return _two_rule(d.e, d.f, *_v_window(seq, d.j))


# the canonical shapes (e, f) whose full partition count has a closed form
_SMALL_SHAPES = frozenset({(1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2)})


def _small_count(seq: IndecSeq, d: Decomp) -> CountResult:
    """Full partition count of e*beta_j + f*beta_{j+1} for the small shapes;
    otherwise a saturated lower bound of 7."""
    e, f, j = d.e, d.f, d.j
    if (e, f) not in _SMALL_SHAPES:
        return CountResult.at_least(7)
    if (e, f) == (1, 0):
        return CountResult.exactly(1)
    if (e, f) == (2, 0):
        i, r = seq.pair(abs(j))
        return CountResult.exactly(
            closed_count_double_pair(seq, i, r, "double", restricted=False))
    if (e, f) == (1, 1):
        jj = j if j >= 0 else -(j + 1)  # conjugation swaps the pair
        i, r = seq.pair(jj)
        return CountResult.exactly(
            closed_count_double_pair(seq, i, r, "pair", restricted=False))
    if (e, f) == (1, 2):  # the conjugate of (2, 1) at -j-1
        return _small_count(seq, Decomp(-j - 1, 2, 1))
    vj, vj1 = seq.v(j), seq.v(j + 1)
    if (e, f) == (3, 0):
        if vj >= 4:
            return CountResult.exactly(3)
        if vj == 3:
            return CountResult.exactly(4)
        if seq.v(j - 1) > 2 and seq.v(j + 1) > 2:
            return CountResult.exactly(6)
        return CountResult.at_least(8)
    if (e, f) == (4, 0):
        if vj >= 5:
            return CountResult.exactly(5)
        if vj == 4:
            return CountResult.exactly(6)
        if vj == 3:
            return CountResult.at_least(8)
        return CountResult.at_least(16)
    if (e, f) == (2, 1):
        if vj >= 3 and (vj, vj1) != (3, 2):
            return CountResult.exactly(4)
        if (vj, vj1) == (3, 2):
            return CountResult.exactly(5)
        if vj == 2 and vj1 >= 4:
            return CountResult.exactly(6)
        if vj == 2 and vj1 == 3:
            return CountResult.exactly(6 if seq.v(j - 1) > 2 else 7)
        return CountResult.at_least(8)  # vj = vj1 = 2


def closed_count_small(seq: IndecSeq, alpha: QuadInt) -> CountResult:
    """Full partition count for the seven small canonical shapes; otherwise
    a saturated lower bound of 7."""
    return _small_count(seq, seq.canonical_decomp(alpha))


# -- generators -------------------------------------------------------------------


def default_i_max(seq: IndecSeq) -> int:
    """The generators' default i_max: the last block of one unit period."""
    return seq.cf.unit_steps - 3


def _generate(seq: IndecSeq, i_max: int,
              keep: Callable[[int], list[tuple[int, int]]]) -> list[QuadInt]:
    """Every e*beta_j + f*beta_{j+1} with (e, f) in keep(j), over the j >= 0
    whose beta_j is alpha_{i,r} with i <= i_max, and its conjugate, which
    covers the negative side; ascending by real embedding."""
    if i_max < -1 or i_max % 2 == 0:
        raise BadIndex(f"i_max must be odd and >= -1, got {i_max}")
    # an ordered set: it drops repeats and keeps insertion order; the exact sort decides the output
    found: dict[tuple[int, int], None] = {}
    j = 0
    while seq.pair(j)[0] <= i_max:
        shapes = keep(j)
        if shapes:  # most j keep no six-partition shape: build no beta for them
            (gu, gv), (hu, hv) = seq.beta_pair(j), seq.beta_pair(j + 1)
            for e, f in shapes:
                u, v = e * gu + f * hu, e * gv + f * hv
                found[u, v] = found[u, -v] = None
        j += 1
    return [QuadInt.from_embedding(u, v, seq.ctx) for u, v in reversed(_desc_real(seq.ctx, found))]


def gen_two_indec_partitions(seq: IndecSeq, i_max: int) -> list[QuadInt]:
    """Every element with exactly two indecomposable-part partitions whose
    defining semiconvergent index is at most i_max, plus conjugates.

    _two_rule accepts only the three regions tried here: e in [v_j, 2v_j)
    with f < v_{j+1} - 1, e in [1, v_j - 1) with f in [v_{j+1}, 2v_{j+1}),
    and the point (v_j - 1, v_{j+1} - 1).
    """
    def keep(j: int) -> list[tuple[int, int]]:
        vs = _v_window(seq, j)
        vj, vj1 = vs[1], vs[2]
        shapes = itertools.chain(
            itertools.product(range(vj, 2 * vj), range(vj1 - 1)),
            itertools.product(range(1, vj - 1), range(vj1, 2 * vj1)),
            [(vj - 1, vj1 - 1)])
        return [(e, f) for e, f in shapes if _two_rule(e, f, *vs)]

    return _generate(seq, i_max, keep)


def gen_six_partitions(seq: IndecSeq, i_max: int) -> list[QuadInt]:
    """Every element with exactly six partitions whose defining semiconvergent
    index is at most i_max, plus conjugates: the small shapes whose closed
    count is 6 (every other shape has at least 7 partitions)."""
    six = CountResult.exactly(6)
    return _generate(seq, i_max, lambda j: [
        (e, f) for e, f in _SMALL_SHAPES if _small_count(seq, Decomp(j, e, f)) == six])


# -- existence of six partitions and the explicit 6-or-9 element -----------------


def exists_six_partitions(d: int) -> bool:
    """Whether the field of discriminant parameter d has an element with
    exactly six partitions, read off the continued-fraction period."""
    cf = indec_seq(d).cf
    s = cf.s
    if any(cf.u(i) >= 8 for i in range(1, 2 * s + 1, 2)):
        return True
    if any(cf.u(k) == 2 for k in range(s)):
        return True
    return any(cf.u(k) >= 2 and cf.u(k + 1) >= 2 for k in range(s))


def six_or_nine_witness(d: int) -> tuple[Optional[QuadInt], Optional[int]]:
    """The element (ceil(2*xi)+2) + 2*w and its predicted count: 6 when the
    fractional part of w is below one half (u_1 >= 2), 9 otherwise.
    Returns (None, None) for d = 5, where the construction does not apply.
    """
    if d == 5:
        return None, None
    seq = indec_seq(d)
    if d % 4 == 1:
        ceil_two_xi = math.isqrt(d)  # 2*xi = sqrt(d) - 1
    else:
        ceil_two_xi = math.isqrt(4 * d) + 1  # 2*xi = sqrt(4d), irrational
    alpha = QuadInt(ceil_two_xi + 2, 2, seq.ctx)
    predicted = 6 if seq.cf.u(1) >= 2 else 9
    return alpha, predicted
