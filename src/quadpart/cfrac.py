"""Periodic continued fractions for real quadratic fields.

Expands w (the basis generator) on plain integers, exposes the purely
periodic tails as exact (P, Q) pairs and the convergent/semiconvergent table,
whose norms come from the tails and whose fundamental and smallest totally
positive units are built on first read.  Partial quotients are indexed so
that u_0 is the leading term of the purely periodic expansion of floor(xi) + w,
and the expansion of w itself is [ceil(u_0/2); u_1, u_2, ...] with
u_{k+s} = u_k.
"""

from __future__ import annotations

import math
from functools import cached_property

from .qfield import (
    FieldCtx,
    InternalError,
    BadIndex,
    QuadInt,
    sign_surd,
    xi,
)


class CFData:
    """Period data of the continued fraction of w (and of floor(xi) + w).

    period holds (u_1, ..., u_s); u_s always equals u_0.  tails[i-1] is the
    pair (P, Q) of the i-th tail (P + sqrt(delta))/Q for 1 <= i <= s, and
    tails repeat with period s.  unit_steps is the number of steps per
    totally positive unit: alpha_{unit_steps - 1} = eps_plus.
    """

    def __init__(self, ctx: FieldCtx, u0: int, period: tuple[int, ...],
                 tails: tuple[tuple[int, int], ...]):
        self.ctx = ctx
        self.u0 = u0
        self.period = period
        self.s = len(period)
        self.unit_steps = self.s if self.s % 2 == 0 else 2 * self.s
        self.tails = tails

    def u(self, k: int) -> int:
        """Partial quotient u_k for any k >= 0, with periodic wraparound."""
        if k < 0:
            raise BadIndex(f"u index must be >= 0, got {k}")
        if k == 0:
            return self.u0
        return self.period[(k - 1) % self.s]

    def tail(self, i: int) -> tuple[int, int]:
        """(P, Q) of the i-th continued-fraction tail (P + sqrt(delta))/Q, i >= 1."""
        if i < 1:
            raise BadIndex(f"tail index must be >= 1, got {i}")
        return self.tails[(i - 1) % self.s]

    def to_json(self) -> dict:
        return {
            "D": self.ctx.D,
            "u0": self.u0,
            "period": list(self.period),
            "s": self.s,
        }


def cf_expand(ctx: FieldCtx) -> CFData:
    """Expand w = (tr + sqrt(delta))/2 and detect the period by tail repetition.

    Every tail (P + sqrt(delta))/Q is reduced, so Q > 0; sqrt(delta) is
    irrational, so its floor is (P + isqrt(delta)) // Q exactly.
    """
    delta = ctx.delta
    u0 = 2 * ctx.floor_omega - ctx.tr_omega
    if u0 * u0 >= delta:
        raise InternalError(f"u_0^2 = {u0 * u0} must be < delta = {delta}")
    root = math.isqrt(delta)
    # Defensive cap: the period length is O(sqrt(delta) log delta), so blowing
    # through this many steps means the tail update is buggy.
    cap = 10 * root * max(1, int(math.log(delta))) + 100
    first = (u0, (delta - u0 * u0) // 2)
    quotients: list[int] = []
    tails = [first]
    p, q = first
    for _ in range(cap):
        u = (p + root) // q
        p = u * q - p
        q, rem = divmod(delta - p * p, q)
        if rem or q <= 0:
            raise InternalError(f"tail invariant broken at P={p}: Q={q}, remainder {rem}")
        quotients.append(u)
        if (p, q) == first:
            break
        tails.append((p, q))
    else:
        raise InternalError(f"no period within {cap} steps for D={ctx.D}")

    period = tuple(quotients)
    if period[-1] != u0:
        raise InternalError(f"period must close with u_0={u0}, got {period}")
    return CFData(ctx, u0, period, tuple(tails))


class ConvergentTable:
    """Lazily extended table of convergents p_i, q_i, alpha_i and |norm(alpha_i)|.

    Only the alpha_i read so far are stored, each checked when it is built;
    the norms come from the CF tails, and the units eps and eps_plus are
    built on first read.  Rows exist for i >= -1; indices are absolute (never
    reduced mod the period), so callers can ask for rows far past one period.
    """

    def __init__(self, cf: CFData):
        ctx = cf.ctx
        self.ctx = ctx
        self.cf = cf
        self._alpha = [QuadInt(1, 0, ctx), QuadInt(ctx.floor_omega, 0, ctx) + xi(ctx)]
        self._check_row(-1)
        self._check_row(0)

    def _check_row(self, i: int) -> None:
        alpha = self._alpha[i + 1]
        if alpha.norm() != (-1) ** (i + 1) * self.absnorm(i):
            raise InternalError(f"norm of alpha_{i} is off for D={self.ctx.D}")
        u, v = alpha.embedding_pair()
        emb = sign_surd(u, v, self.ctx.delta)
        conj = sign_surd(u, -v, self.ctx.delta)
        if emb <= 0:
            raise InternalError(f"alpha_{i} has nonpositive real embedding")
        if (conj > 0) != (i % 2 == 1):
            raise InternalError(f"alpha_{i} total positivity violates parity of i")

    def alpha(self, i: int) -> QuadInt:
        """alpha_i = (p_i - tr*q_i) + q_i*w for i >= -1."""
        if i < -1:
            raise BadIndex(f"convergent index must be >= -1, got {i}")
        while len(self._alpha) < i + 2:
            k = len(self._alpha) - 1  # next absolute index to fill
            self._alpha.append(self.cf.u(k) * self._alpha[-1] + self._alpha[-2])
            self._check_row(k)
        return self._alpha[i + 1]

    def absnorm(self, i: int) -> int:
        """N_i = |norm(alpha_i)|: 1 at i = -1, else Q/2 of the tail at i + 1."""
        if i < -1:
            raise BadIndex(f"convergent index must be >= -1, got {i}")
        return 1 if i == -1 else self.cf.tail(i + 1)[1] // 2

    def row(self, i: int) -> tuple[int, int, QuadInt, int]:
        """(p_i, q_i, alpha_i, N_i) for i >= -1."""
        alpha = self.alpha(i)
        return alpha.a + self.ctx.tr_omega * alpha.b, alpha.b, alpha, self.absnorm(i)

    def semiconvergent(self, i: int, r: int) -> QuadInt:
        """alpha_{i,r} = alpha_i + r*alpha_{i+1} for odd i >= -1, 0 <= r <= u_{i+2}."""
        if i < -1 or i % 2 == 0:
            raise BadIndex(f"semiconvergent index i must be odd and >= -1, got {i}")
        if not 0 <= r <= self.cf.u(i + 2):
            raise BadIndex(f"semiconvergent step r={r} out of range for i={i}")
        return self.alpha(i) + r * self.alpha(i + 1)

    @cached_property
    def eps(self) -> QuadInt:
        """The fundamental unit alpha_{s-1}, of norm (-1)^s."""
        eps = self.alpha(self.cf.s - 1)
        if eps.norm() != (-1) ** self.cf.s:
            raise InternalError(f"norm(eps) != (-1)^s for D={self.ctx.D}")
        return eps

    @cached_property
    def eps_plus(self) -> QuadInt:
        """The smallest totally positive unit > 1, alpha_{unit_steps - 1}."""
        eps_plus = self.alpha(self.cf.unit_steps - 1)
        if eps_plus.norm() != 1 or not eps_plus.is_totally_positive():
            raise InternalError(f"eps_plus is not a totally positive unit for D={self.ctx.D}")
        return eps_plus
