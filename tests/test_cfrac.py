from types import SimpleNamespace

import pytest
import sympy
from sympy.ntheory.continued_fraction import continued_fraction_periodic

from quadpart.qfield import (
    BadIndex,
    InternalError,
    QuadInt,
    floor_surd,
    make_field,
    sign_surd,
)
from quadpart.cfrac import cf_expand
from quadpart.indec import indec_seq
from quadpart.theorems import squarefree_range

from oracles import tail_is_reduced, verify_tail_norm_identity


def test_expand_examples():
    cf = indec_seq(2).cf
    assert (cf.u0, list(cf.period), cf.s) == (2, [2], 1)
    cf = indec_seq(5).cf
    assert (cf.u0, list(cf.period), cf.s) == (1, [1], 1)
    cf = indec_seq(3).cf
    assert (cf.u0, list(cf.period), cf.s) == (2, [1, 2], 2)


def test_expand_invariants():
    for d in squarefree_range(2 * 60 + 2)[:60]:
        ctx = make_field(d)
        cf = indec_seq(d).cf
        assert cf.period[-1] == cf.u0
        assert cf.u0 == 2 * ctx.floor_omega - ctx.tr_omega
        assert cf.u0 * cf.u0 < ctx.delta
        assert ctx.floor_omega == (cf.u0 + ctx.tr_omega) // 2
        assert all(u >= 1 for u in cf.period)
        assert cf.unit_steps % 2 == 0 and cf.unit_steps in (cf.s, 2 * cf.s)
        # u_0 is the largest partial quotient of the purely periodic expansion
        assert max(cf.period) <= cf.u0
    # A field context that breaks an invariant stops the expansion.
    for delta, tr, floor_omega, message in [
        (6, 1, 0, "remainder 1"),  # delta != tr^2 mod 4: Q does not divide
        (4, 0, 0, "Q=0"),  # square delta: a tail reaches Q = 0
        (2, 0, 0, "no period within"),  # u_0 = 0 is not floor(sqrt(2))
        (7, 0, 1, "period must close with u_0"),  # delta != tr^2 mod 4
        (8, 0, 2, "must be < delta"),  # u_0 = 4 > sqrt(8)
    ]:
        ctx = SimpleNamespace(D=delta, delta=delta, tr_omega=tr, floor_omega=floor_omega)
        with pytest.raises(InternalError, match=message):
            cf_expand(ctx)


def test_expand_matches_sympy_for_all_squarefree_d_up_to_300():
    checked = 0
    for d in range(2, 301):
        if any(e > 1 for e in sympy.factorint(d).values()):
            continue
        # w = (1 + sqrt(d))/2 or sqrt(d), expanded by sympy's own algorithm
        got = (continued_fraction_periodic(1, 2, d) if d % 4 == 1
               else continued_fraction_periodic(0, 1, d))
        if len(got) == 1:  # purely periodic [[a0, ..., ak]]: rotate a0 out
            per = got[0]
            got = [per[0], per[1:] + per[:1]]
        a0, period = got
        cf = indec_seq(d).cf
        assert (a0, tuple(period)) == ((cf.u0 + 1) // 2, cf.period), d
        checked += 1
    assert checked == 182


def test_period_wraparound_matches_unwrapped_steps():
    # Steps by the general floor_surd, independent of cf_expand's isqrt shortcut.
    for d in (2, 3, 5, 19, 31, 46):
        cf = indec_seq(d).cf
        delta = cf.ctx.delta
        p, q = cf.tail(1)
        for k in range(1, 3 * cf.s + 2):
            u = floor_surd(p, 1, q, delta)
            assert u == cf.u(k)
            p = u * q - p
            q = (delta - p * p) // q
            assert (p, q) == cf.tail(k + 1)


def test_tails_exact():
    assert indec_seq(2).cf.tail(1) == (2, 2)  # (2 + sqrt(8))/2 = 1 + sqrt(2)
    assert indec_seq(3).cf.tail(2) == (2, 2)  # (2 + sqrt(12))/2 = 1 + sqrt(3)
    # Every tail lies strictly between u_i and u_i + 1, checked with sign_surd.
    for d in [*squarefree_range(3000), 1399721, 19335754]:
        cfd = indec_seq(d).cf
        for i in range(1, cfd.s + 1):
            assert tail_is_reduced(cfd, i), (d, i)


def test_convergent_rows():
    tab = indec_seq(2).table
    assert tab.alpha(-1) == QuadInt(1, 0, make_field(2))
    assert tab.alpha(0) == QuadInt(1, 1, make_field(2))
    assert tab.alpha(1) == QuadInt(3, 2, make_field(2))
    assert tab.absnorm(1) == 1
    for d in (2, 3, 5, 19):
        assert indec_seq(d).table.absnorm(-1) == 1


def test_convergent_norm_and_parity():
    # N_i is read off the CF tails; the norms of the alpha_i must agree on
    # every row through one unit period and past it, for every D <= 3000.
    for d in squarefree_range(3000):
        ctx = make_field(d)
        tab = indec_seq(d).table
        cf = tab.cf
        top = 4 * cf.s if d <= 31 else cf.unit_steps + 1
        for i in range(-1, top + 1):
            p, q, alpha, absnorm = tab.row(i)
            assert alpha == QuadInt(p - ctx.tr_omega * q, q, ctx)
            assert tab.absnorm(i) == abs(alpha.norm()) == absnorm, (d, i)
            assert alpha.is_totally_positive() == (i % 2 == 1)


def test_semiconvergent_examples():
    tab = indec_seq(2).table
    ctx = make_field(2)
    assert tab.semiconvergent(-1, 1) == QuadInt(2, 1, ctx)
    assert tab.semiconvergent(-1, 2) == tab.semiconvergent(1, 0)
    assert indec_seq(3).table.semiconvergent(-1, 0) == QuadInt(1, 0, make_field(3))
    with pytest.raises(BadIndex):
        tab.semiconvergent(0, 0)
    with pytest.raises(BadIndex):
        tab.semiconvergent(1, 3)  # u_3 = 2 for D=2


def test_semiconvergent_gluing_identity():
    for d in (2, 3, 5, 19, 31):
        tab = indec_seq(d).table
        cf = tab.cf
        for i in range(-1, 2 * cf.s + 2, 2):
            assert tab.semiconvergent(i, cf.u(i + 2)) == tab.semiconvergent(i + 2, 0)


def test_units_examples():
    tab = indec_seq(2).table
    ctx = make_field(2)
    assert tab.eps == QuadInt(1, 1, ctx)
    assert tab.eps.norm() == -1
    assert tab.eps_plus == QuadInt(3, 2, ctx)
    assert tab.cf.unit_steps == 2  # s = 1 is odd: two CF periods

    tab3 = indec_seq(3).table
    ctx3 = make_field(3)
    assert tab3.eps == tab3.eps_plus == QuadInt(2, 1, ctx3)
    assert tab3.cf.unit_steps == 2  # s = 2 is even: one CF period

    tab5 = indec_seq(5).table
    ctx5 = make_field(5)
    assert tab5.eps == QuadInt(0, 1, ctx5)
    assert tab5.eps_plus == QuadInt(1, 1, ctx5)


def test_eps_plus_closes_one_unit_period():
    parities = set()
    for d in range(2, 301):
        if any(e > 1 for e in sympy.factorint(d).values()):
            continue
        tab = indec_seq(d).table
        cf = tab.cf
        assert cf.unit_steps == (cf.s if cf.s % 2 == 0 else 2 * cf.s)
        assert tab.eps_plus == tab.alpha(cf.unit_steps - 1), d
        # eps has norm (-1)^s, so eps_plus is eps or its square
        assert tab.eps_plus == (tab.eps if cf.s % 2 == 0 else tab.eps * tab.eps), d
        parities.add(cf.s % 2)
    assert parities == {0, 1}


def test_unit_shifts_convergents():
    for d in (2, 3, 5, 13, 21, 46):
        tab = indec_seq(d).table
        cf = tab.cf
        eps = tab.eps
        for i in range(-1, cf.s + 1):
            assert eps * tab.alpha(i) == tab.alpha(cf.s + i)


def test_tail_norm_identity():
    assert verify_tail_norm_identity(indec_seq(2).table, -1)
    tab3 = indec_seq(3).table
    assert tab3.absnorm(0) == 2
    assert verify_tail_norm_identity(tab3, -1)
    for d in (2, 3, 5, 6, 19, 31, 46):
        tabd = indec_seq(d).table
        for i in range(-1, 2 * tabd.cf.s + 1):
            assert verify_tail_norm_identity(tabd, i)


def test_tail_norm_bound_is_strict_surd_compare():
    # The bound N_i * u_{i+1} < sqrt(delta) must be compared as squares.
    for d in (2, 7, 23):
        tabd = indec_seq(d).table
        cfd = tabd.cf
        for i in range(-1, cfd.s + 1):
            lhs = tabd.absnorm(i) * cfd.u(i + 1)
            assert sign_surd(-lhs, 1, make_field(d).delta) > 0


def test_cf_json():
    assert indec_seq(2).cf.to_json() == {"D": 2, "u0": 2, "period": [2], "s": 1}
