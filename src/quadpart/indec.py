"""The two-sided sequence of indecomposable totally positive integers.

Indecomposables on the positive side are the semiconvergents alpha_{i,r}
(odd i >= -1, 0 <= r <= u_{i+2}-1) read off in lexicographic (i, r) order;
index 0 is 1 and negative indices are Galois conjugates of positive ones.
The sequence is strictly increasing in real-embedding value and satisfies
the three-term relation  v_j * beta_j = beta_{j-1} + beta_{j+1}.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class Decomp:
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
        self._offsets = [0]  # _offsets[k] = first index of the block at i = 2k-1
        self._beta_cache: dict[int, QuadInt] = {}
        # One multiplication by eps_plus shifts the sequence index by s_prime:
        # the number of indecomposables carved out of one totally positive
        # unit period.
        self.s_prime = sum(self.cf.u(2 * k + 1) for k in range(self.cf.unit_steps // 2))

    # -- index bookkeeping -------------------------------------------------

    def pair(self, j: int) -> tuple[int, int]:
        """(i, r) with beta_|j| = alpha_{i,r}; valid for any j (uses |j|)."""
        j = abs(j)
        off = self._offsets
        while off[-1] <= j:
            k = len(off) - 1
            off.append(off[-1] + self.cf.u(2 * k + 1))
        k = bisect_right(off, j) - 1
        return 2 * k - 1, j - off[k]

    def beta(self, j: int) -> QuadInt:
        """The j-th indecomposable; beta_0 = 1, beta_{-j} = conjugate(beta_j)."""
        cached = self._beta_cache.get(j)
        if cached is not None:
            return cached
        if j < 0:
            val = self.beta(-j).conjugate()
        else:
            i, r = self.pair(j)
            val = self.table.semiconvergent(i, r)
        self._beta_cache[j] = val
        return val

    def v(self, j: int) -> int:
        """Coefficient in the relation v_j*beta_j = beta_{j-1} + beta_{j+1}."""
        i, r = self.pair(j)
        return 2 if r >= 1 else self.cf.u(i + 1) + 2

    # -- order windows -----------------------------------------------------

    def max_j_real_leq(self, x: QuadInt) -> int:
        """Largest j with real(beta_j) <= real(x); x must have positive embedding.

        Gallops away from j = 0 with doubling steps, then bisects the last
        step, so it reads O(log|j|) indecomposables.
        """
        if self.ctx.sign_embedding(x.a, x.b) <= 0:
            raise InternalError("index walk needs a positive real embedding")

        t, delta = self.ctx.tr_omega, self.ctx.delta
        xu, xv = x.embedding_pair()

        def fits(j: int) -> bool:
            b = self.beta(j)
            return sign_surd(2 * b.a + t * b.b - xu, b.b - xv, delta) <= 0

        # invariant once galloping stops: fits(lo) and not fits(hi)
        step = 1
        if fits(0):
            lo = 0
            while fits(lo + step):
                lo += step
                step *= 2
                if lo > _WALK_CAP:
                    raise InternalError("runaway index walk (increasing side)")
            hi = lo + step
        else:
            hi = 0
            while not fits(hi - step):
                hi -= step
                step *= 2
                if hi < -_WALK_CAP:
                    raise InternalError("runaway index walk (decreasing side)")
            lo = hi - step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def indec_window_leq(self, x1: QuadInt, x2: QuadInt) -> list[tuple[int, int]]:
        """Coordinates of every beta_j with real embedding <= real(x1) and
        conjugate embedding <= real(x2), descending by real value.  With
        x2 = conjugate(alpha) these are the indecomposables <= alpha."""
        hi = self.max_j_real_leq(x1)
        lo = -self.max_j_real_leq(x2)
        return [(b.a, b.b) for b in map(self.beta, range(hi, lo - 1, -1))]

    # -- core operations ----------------------------------------------------

    def canonical_decomp(self, alpha: QuadInt) -> Decomp:
        """The unique (j, e, f) with alpha = e*beta_j + f*beta_{j+1}, e>=1, f>=0.

        Any representation forces beta_j <= alpha in both embeddings, so j is
        confined to a finite window; for each candidate j the coefficients are
        the solution of an integer 2x2 system (beta_j, beta_{j+1} are
        Q-linearly independent).  Exactly one candidate may solve with e >= 1
        and f >= 0.
        """
        if not alpha.is_totally_positive():
            raise NotTotallyPositive(f"{alpha} is not totally positive")
        hi = self.max_j_real_leq(alpha)
        lo = -self.max_j_real_leq(alpha.conjugate())
        hits = []
        for j in range(lo - 1, hi + 2):  # one index of slack on each side
            g = self.beta(j)
            h = self.beta(j + 1)
            det = g.a * h.b - g.b * h.a
            if det == 0:
                raise InternalError("adjacent indecomposables are dependent")
            en = alpha.a * h.b - alpha.b * h.a
            fn = g.a * alpha.b - g.b * alpha.a
            if en % det == 0 and fn % det == 0:
                e, f = en // det, fn // det
                if e >= 1 and f >= 0:
                    hits.append(Decomp(j, e, f))
        if len(hits) != 1:
            raise InternalError(
                f"expected exactly one decomposition of {alpha}, found {hits}")
        return hits[0]

    def is_indecomposable(self, alpha: QuadInt) -> bool:
        d = self.canonical_decomp(alpha)
        return d.e == 1 and d.f == 0

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


@lru_cache(maxsize=_LIVE_FIELDS)
def indec_seq(d: int) -> IndecSeq:
    """The only per-field state kept between calls, for a few recent fields."""
    return IndecSeq(ConvergentTable(cf_expand(make_field(d))))
