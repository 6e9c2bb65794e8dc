"""The two-sided sequence of indecomposable totally positive integers.

Indecomposables on the positive side are the semiconvergents alpha_{i,r}
(odd i >= -1, 0 <= r <= u_{i+2}-1) read off in lexicographic (i, r) order;
index 0 is 1 and negative indices are Galois conjugates of positive ones.
The sequence is strictly increasing in real-embedding value and satisfies
the three-term relation  v_j * beta_j = beta_{j-1} + beta_{j+1}.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

from .qfield import (
    InternalError,
    NotTotallyPositive,
    QuadInt,
    make_field,
    sign_surd,
)
from .cfrac import ConvergentTable, cf_expand

_WALK_CAP = 1_000_000
_LIVE_FIELDS = 16  # callers reuse a field only between consecutive calls


class Decomp(NamedTuple):
    """The unique expression alpha = e*beta_j + f*beta_{j+1}, e >= 1, f >= 0."""

    j: int
    e: int
    f: int


class IndecSeq:
    """Indexed access to the indecomposable sequence of one field."""

    def __init__(self, table: ConvergentTable):
        self.ctx = table.ctx
        self.cf = table.cf
        self.table = table
        self._pairs: dict[int, tuple[int, int]] = {}  # j -> embedding pair of beta_j
        # _offsets[k] = first index of the block at i = 2k-1, whose width is
        # u_{2k+1}.  The widths repeat after unit_steps // 2 blocks, so one
        # multiplication by eps_plus shifts the sequence index by s_prime:
        # the number of indecomposables carved out of one totally positive
        # unit period.
        self._offsets = list(accumulate(
            (self.cf.u(2 * k + 1) for k in range(self.cf.unit_steps // 2)), initial=0))
        self.s_prime = self._offsets[-1]

    # -- index bookkeeping -------------------------------------------------

    def pair(self, j: int) -> tuple[int, int]:
        """(i, r) with beta_|j| = alpha_{i,r}; valid for any j (uses |j|)."""
        off = self._offsets
        periods, r0 = divmod(abs(j), self.s_prime)
        k = bisect_right(off, r0) - 1
        return 2 * (k + periods * (len(off) - 1)) - 1, r0 - off[k]

    def beta(self, j: int) -> QuadInt:
        """The j-th indecomposable (beta_0 = 1, beta_{-j} = beta_j'), built from beta_pair(j)."""
        return QuadInt.from_embedding(*self.beta_pair(j), self.ctx)

    def beta_pair(self, j: int) -> tuple[int, int]:
        """The embedding pair of beta_j, the one form in which it is stored."""
        cached = self._pairs.get(j)
        if cached is None:
            if j < 0:
                u, v = self.beta_pair(-j)
                cached = u, -v
            else:
                cached = self.table.semiconvergent(*self.pair(j)).embedding_pair()
            self._pairs[j] = cached
        return cached

    def v(self, j: int) -> int:
        """Coefficient in the relation v_j*beta_j = beta_{j-1} + beta_{j+1}."""
        i, r = self.pair(j)
        return 2 if r >= 1 else self.cf.u(i + 1) + 2

    # -- order windows -----------------------------------------------------

    def max_j_real_leq(self, x: QuadInt) -> int:
        """Largest j with real(beta_j) <= real(x); x must have positive embedding."""
        delta = self.ctx.delta
        xu, xv = x.embedding_pair()
        if sign_surd(xu, xv, delta) <= 0:
            raise InternalError("index walk needs a positive real embedding")

        def fits(j: int) -> bool:
            bu, bv = self.beta_pair(j)
            return sign_surd(bu - xu, bv - xv, delta) <= 0

        return _last_j(fits)

    def indec_window_leq(self, x1: QuadInt, x2: QuadInt) -> list[tuple[int, int]]:
        """Embedding pairs of every beta_j with real embedding <= real(x1) and
        conjugate embedding <= real(x2), descending by real value.  With
        x2 = conjugate(alpha) these are the indecomposables <= alpha."""
        hi = self.max_j_real_leq(x1)
        lo = -self.max_j_real_leq(x2)
        return [self.beta_pair(j) for j in range(hi, lo - 1, -1)]

    # -- core operations ----------------------------------------------------

    def canonical_decomp(self, alpha: QuadInt) -> Decomp:
        """The unique (j, e, f) with alpha = e*beta_j + f*beta_{j+1}, e>=1, f>=0.

        Adjacent indecomposables have coordinate determinant
        det(beta_j, beta_{j+1}) = 1, and a determinant of embedding pairs is
        twice that of coordinates, so f = det(beta_j, alpha)/2 and
        e = -det(beta_{j+1}, alpha)/2 in pairs.  det(beta_j, alpha) >= 0 iff
        beta_j/beta_j' <= alpha/alpha', and beta_j/beta_j' increases with j,
        so j is the last index where it is >= 0.
        """
        if not alpha.is_totally_positive():
            raise NotTotallyPositive(f"{alpha} is not totally positive")
        au, av = alpha.embedding_pair()
        j = _last_j(lambda j: self.beta_pair(j)[0] * av >= self.beta_pair(j)[1] * au)
        (gu, gv), (hu, hv) = self.beta_pair(j), self.beta_pair(j + 1)
        if gu * hv - gv * hu != 2:
            raise InternalError(f"beta_{j}, beta_{j + 1} are not a basis")
        return Decomp(j, (au * hv - av * hu) // 2, (gu * av - gv * au) // 2)

    # -- unit action ---------------------------------------------------------

    def balanced(self, alpha: QuadInt) -> QuadInt:
        """A unit multiple of alpha whose two embeddings are within eps_plus^2.

        Multiplying by the totally positive unit changes neither partition
        counts nor decomposability; it keeps the boxes of the lattice_leq
        test oracle close to square.
        """
        ep = self.table.eps_plus
        ep_inv = ep.conjugate()  # norm 1, so the conjugate is the inverse
        sq = ep * ep
        for _ in range(_WALK_CAP):
            c = alpha.conjugate()
            if alpha.cmp_real(c * sq) > 0:
                alpha = alpha * ep_inv
            elif c.cmp_real(alpha * sq) > 0:
                alpha = alpha * ep
            else:
                return alpha
        raise InternalError("balancing did not converge")


def _last_j(pred: Callable[[int], bool]) -> int:
    """Largest j with pred(j), for pred true up to some j and false after it.

    Gallops away from j = 0 with doubling steps, then bisects the last step,
    so it calls pred O(log|j|) times.
    """
    # invariant once galloping stops: pred(lo) and not pred(hi)
    step = 1
    if pred(0):
        lo = 0
        while pred(lo + step):
            lo += step
            step *= 2
            if lo > _WALK_CAP:
                raise InternalError("runaway index walk (increasing side)")
        hi = lo + step
    else:
        hi = 0
        while not pred(hi - step):
            hi -= step
            step *= 2
            if hi < -_WALK_CAP:
                raise InternalError("runaway index walk (decreasing side)")
        lo = hi - step
    return lo + bisect_left(range(lo + 1, hi), True, key=lambda j: not pred(j))


@lru_cache(maxsize=_LIVE_FIELDS)
def indec_seq(d: int) -> IndecSeq:
    """The only per-field state kept between calls, for a few recent fields."""
    return IndecSeq(ConvergentTable(cf_expand(make_field(d))))
