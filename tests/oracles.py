"""Exact checkers that only the tests call.

The library never needs these: they restate a definition or an identity of
the continued fraction so that the tests can hold the fast paths to it.
"""

from quadpart.cfrac import CFData, ConvergentTable
from quadpart.qfield import QuadInt, sign_surd


def succeq(x: QuadInt, y: QuadInt) -> bool:
    """x >= y in the totally-positive partial order."""
    d = x - y
    return d.is_zero() or d.is_totally_positive()


def tail_is_reduced(cf: CFData, i: int) -> bool:
    """Check u_i < tail_i < u_i + 1 exactly (tails lie strictly between)."""
    p, q = cf.tail(i)
    u = cf.u(i)
    delta = cf.ctx.delta
    low = sign_surd(p - u * q, 1, delta)  # sign of Q*(tail - u_i)
    high = sign_surd(p - (u + 1) * q, 1, delta)  # low > 0 > high also gives Q > 0
    return low > 0 and high < 0


def verify_tail_norm_identity(table: ConvergentTable, i: int) -> bool:
    """Exact check that N_{i+1} equals sqrt(delta)/g - N_i/g^2 for the tail g at i+2.

    Clearing denominators, the identity is equivalent to the pair of integer
    equations  N_{i+1}*(P^2 + delta) - delta*Q + N_i*Q^2 = 0  and
    P*(2*N_{i+1} - Q) = 0 for the tail (P, Q).  Also checks the derived
    bound N_i * u_{i+1} < sqrt(delta), compared as squares.
    """
    # N is read off the convergents, not from table.absnorm (which reads it
    # off the tails), so the check compares two independent derivations.
    n_i = abs(table.alpha(i).norm())
    n_next = abs(table.alpha(i + 1).norm())
    cf = table.cf
    p, q = cf.tail(i + 2)
    delta = cf.ctx.delta
    rational_part = n_next * (p * p + delta) - delta * q + n_i * q * q
    surd_part = p * (2 * n_next - q)
    bound = n_i * cf.u(i + 1)
    return rational_part == 0 and surd_part == 0 and bound * bound < delta
