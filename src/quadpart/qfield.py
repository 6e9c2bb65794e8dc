"""Exact arithmetic in the ring of integers of a real quadratic field.

Elements are stored as integer coordinate pairs over the basis (1, w),
where w = sqrt(D) for D = 2,3 (mod 4) and w = (1+sqrt(D))/2 for
D = 1 (mod 4).  The counting core works in embedding pairs (u, v) instead,
with embeddings (u +- v*sqrt(delta))/2; embedding_pair and from_embedding
are the only conversions.  Every comparison and sign decision is made in
exact integer arithmetic; no floating point enters any decision path.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class QuadpartError(Exception):
    """Base class for all domain errors raised by this package."""


class NotSquarefree(QuadpartError):
    pass


class OutOfRange(QuadpartError):
    pass


class CtxMismatch(QuadpartError):
    pass


class BadIndex(QuadpartError):
    pass


class NotTotallyPositive(QuadpartError):
    pass


class InternalError(QuadpartError):
    """An invariant that should be unbreakable was broken (implementation bug)."""


def sign_surd(u: int, v: int, delta: int) -> int:
    """Exact sign of u + v*sqrt(delta) for integers u, v and nonsquare delta >= 2."""
    # Mixed signs compare u^2 against v^2*delta.  delta is never a perfect
    # square here, so the two sides are equal only when u = v = 0.
    if u >= 0:
        if v >= 0:
            return 1 if u or v else 0
        return 1 if u * u > v * v * delta else -1
    if v <= 0:
        return -1
    return -1 if u * u > v * v * delta else 1


def floor_surd(p: int, q: int, r: int, delta: int) -> int:
    """Exact floor((p + q*sqrt(delta)) / r) for integers, r != 0."""
    if r < 0:
        p, q, r = -p, -q, -r
    if q == 0:
        return p // r
    if q > 0:
        f = math.isqrt(q * q * delta)
    else:
        # sqrt(q^2*delta) is irrational, so the ceiling is isqrt+1.
        f = -(math.isqrt(q * q * delta) + 1)
    # p + q*sqrt(delta) lies strictly inside (p+f, p+f+1); an open unit
    # interval with integer endpoints contains no integer, so the floor of
    # the quotient is constant there and equals (p+f) // r.
    return (p + f) // r


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


class FieldCtx(NamedTuple):
    """Immutable per-field context: D and every derived constant, all exact.

    basis_case is 'sqrt' when w = sqrt(D) and 'half' when w = (1+sqrt(D))/2.
    tr_omega/nm_omega are trace and norm of w, so w*w = tr_omega*w - nm_omega.
    c_d is the norm bound for indecomposable elements (D, or (D-1)/4).
    """

    D: int
    delta: int
    basis_case: str
    tr_omega: int
    nm_omega: int
    floor_omega: int
    floor_xi: int
    c_d: int

    def __repr__(self) -> str:
        return f"FieldCtx(D={self.D})"


def make_field(d: int) -> FieldCtx:
    """Build the context for Q(sqrt(d)); d must be a squarefree integer >= 2."""
    if d < 2:
        raise OutOfRange(f"D must be >= 2, got {d}")
    if not _is_squarefree(d):
        raise NotSquarefree(f"D must be squarefree, got {d}")
    root = math.isqrt(d)
    if d % 4 == 1:
        delta = d
        basis_case = "half"
        tr, nm = 1, (1 - d) // 4
        floor_omega = (1 + root) // 2
        floor_xi = (root - 1) // 2
        c_d = (d - 1) // 4
    else:
        delta = 4 * d
        basis_case = "sqrt"
        tr, nm = 0, -d
        floor_omega = root
        floor_xi = root
        c_d = d
    return FieldCtx(d, delta, basis_case, tr, nm, floor_omega, floor_xi, c_d)


class QuadInt:
    """An element a + b*w of O_K, with arbitrary-precision integer coordinates."""

    __slots__ = ("a", "b", "ctx")

    def __init__(self, a: int, b: int, ctx: FieldCtx):
        self.a = a
        self.b = b
        self.ctx = ctx

    def _same_field(self, other: "QuadInt") -> None:
        if self.ctx is not other.ctx and self.ctx.D != other.ctx.D:
            raise CtxMismatch(f"mixing D={self.ctx.D} with D={other.ctx.D}")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._same_field(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.ctx)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._same_field(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.ctx)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.ctx)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.a * other, self.b * other, self.ctx)
        self._same_field(other)
        # w^2 = tr_omega*w - nm_omega
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        cross = b1 * b2
        return QuadInt(
            a1 * a2 - self.ctx.nm_omega * cross,
            a1 * b2 + a2 * b1 + self.ctx.tr_omega * cross,
            self.ctx,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadInt)
            and self.a == other.a
            and self.b == other.b
            and self.ctx.D == other.ctx.D
        )

    def __hash__(self):
        return hash((self.a, self.b, self.ctx.D))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> "QuadInt":
        return QuadInt(self.a + self.ctx.tr_omega * self.b, -self.b, self.ctx)

    def trace(self) -> int:
        return self.embedding_pair()[0]

    def norm(self) -> int:
        t, n = self.ctx.tr_omega, self.ctx.nm_omega
        return self.a * self.a + t * self.a * self.b + n * self.b * self.b

    def embedding_pair(self) -> tuple[int, int]:
        """(u, v) with real embedding (u + v*sqrt(delta))/2; conjugate flips v."""
        return 2 * self.a + self.ctx.tr_omega * self.b, self.b

    @staticmethod
    def from_embedding(u: int, v: int, ctx: FieldCtx) -> "QuadInt":
        """The element whose embedding pair is (u, v); inverse of embedding_pair."""
        return QuadInt((u - ctx.tr_omega * v) // 2, v, ctx)

    def is_totally_positive(self) -> bool:
        # Both embeddings (u +- v*sqrt(delta))/2 positive  <=>  u - |v|*sqrt(delta) > 0.
        u, v = self.embedding_pair()
        return sign_surd(u, -abs(v), self.ctx.delta) > 0

    def cmp_real(self, other: "QuadInt") -> int:
        """Exact three-way comparison of real-embedding values."""
        return sign_surd(*(self - other).embedding_pair(), self.ctx.delta)

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "D": self.ctx.D}

    def __repr__(self) -> str:
        return f"QuadInt({self.a}, {self.b}, D={self.ctx.D})"

    def __str__(self) -> str:
        w = "w" if self.ctx.basis_case == "half" else f"sqrt({self.ctx.D})"
        if self.b == 0:
            return str(self.a)
        bpart = w if self.b == 1 else (f"-{w}" if self.b == -1 else f"{self.b}*{w}")
        if self.a == 0:
            return bpart
        return f"{self.a}{'+' if self.b > 0 else ''}{bpart}"


def xi(ctx: FieldCtx) -> QuadInt:
    """xi = -w' = w - tr(w): the positive root paired with w in the basis."""
    return QuadInt(-ctx.tr_omega, 1, ctx)


class SurdExpr(NamedTuple):
    """The value x + y*sqrt(delta) of a norm bound, for printing; x, y are integers."""

    x: int
    y: int
    delta: int

    def to_float(self) -> float:
        """Non-authoritative numeric view (reporting only)."""
        return float(self.x) + float(self.y) * math.sqrt(self.delta)

    def __str__(self) -> str:
        return f"{self.x}+{self.y}*sqrt({self.delta})"
