import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpart.qfield import (
    CtxMismatch,
    NotSquarefree,
    OutOfRange,
    QuadInt,
    floor_surd,
    make_field,
    sign_surd,
)

from oracles import succeq

DSET = [2, 3, 5, 6, 7, 10, 13, 17, 21, 29]


def q(a, b, d):
    return QuadInt(a, b, make_field(d))


def test_make_field_examples():
    ctx = make_field(2)
    assert (ctx.delta, ctx.c_d, ctx.tr_omega, ctx.floor_xi) == (8, 2, 0, 1)
    ctx = make_field(5)
    assert (ctx.delta, ctx.c_d, ctx.tr_omega, ctx.floor_xi) == (5, 1, 1, 0)
    with pytest.raises(NotSquarefree):
        make_field(12)
    with pytest.raises(OutOfRange):
        make_field(1)
    with pytest.raises(NotSquarefree):
        make_field(50)


def test_conjugate_examples():
    assert q(3, 2, 2).conjugate() == q(3, -2, 2)
    assert q(0, 1, 5).conjugate() == q(1, -1, 5)
    assert q(4, 0, 2).conjugate() == q(4, 0, 2)


def test_conjugate_involution():
    rng = random.Random(7)
    for d in DSET:
        for _ in range(50):
            x = q(rng.randint(-99, 99), rng.randint(-99, 99), d)
            assert x.conjugate().conjugate() == x


def test_norm_trace_examples():
    assert q(3, 2, 2).norm() == 1
    assert q(3, 2, 2).trace() == 6
    assert q(0, 1, 5).norm() == -1
    assert q(0, 1, 5).trace() == 1
    for d in DSET:
        assert q(7, 0, d).norm() == 49
        assert q(7, 0, d).trace() == 14


def test_norm_via_multiplication_and_multiplicativity():
    rng = random.Random(11)
    for d in DSET:
        for _ in range(1000):
            x = q(rng.randint(-50, 50), rng.randint(-50, 50), d)
            y = q(rng.randint(-50, 50), rng.randint(-50, 50), d)
            prod = x * x.conjugate()
            assert prod.b == 0 and prod.a == x.norm()
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()


def test_total_positivity_examples():
    assert q(2, 1, 2).is_totally_positive()
    assert not q(1, 1, 2).is_totally_positive()
    assert not q(0, 0, 2).is_totally_positive()


def test_total_positivity_matches_embeddings():
    rng = random.Random(13)
    for d in DSET:
        ctx = make_field(d)
        zero = QuadInt(0, 0, ctx)
        for _ in range(200):
            x = q(rng.randint(-20, 20), rng.randint(-20, 20), d)
            both = x.cmp_real(zero) > 0 and x.conjugate().cmp_real(zero) > 0
            assert x.is_totally_positive() == both


def test_succeq_examples():
    assert succeq(q(4, 2, 2), q(2, 1, 2))
    assert not succeq(q(3, 0, 2), q(1, 2, 2))
    for d in DSET:
        x = q(5, 1, d)
        assert succeq(x, x)


def test_succeq_partial_order():
    rng = random.Random(17)
    for d in (2, 5, 13):
        pts = [q(rng.randint(0, 12), rng.randint(-4, 4), d) for _ in range(40)]
        for x in pts:
            assert succeq(x, x)
        for x in pts:
            for y in pts:
                if succeq(x, y) and succeq(y, x):
                    assert x == y
                for z in pts:
                    if succeq(x, y) and succeq(y, z):
                        assert succeq(x, z)


def test_succeq_is_authoritative_on_ties():
    # Coordinates are integers, so equality cases must come out exactly even
    # when a float screen would see a zero difference.
    x = q(10**30, 10**15, 2)
    assert succeq(x, x)
    assert not (x - x).is_totally_positive()
    assert (x + q(1, 0, 2) - x).is_totally_positive()


def test_succeq_agrees_with_float_screen():
    rng = random.Random(23)
    for d in DSET:
        w = (1 + math.sqrt(d)) / 2 if d % 4 == 1 else math.sqrt(d)
        for _ in range(300):
            x = q(rng.randint(-30, 30), rng.randint(-30, 30), d)
            y = q(rng.randint(-30, 30), rng.randint(-30, 30), d)
            dx, db = x.a - y.a, x.b - y.b
            e1 = dx + db * w
            e2 = dx + db * (x.ctx.tr_omega - w)
            if min(e1, e2) > 1e-6:
                assert (x - y).is_totally_positive()
            elif min(e1, e2) < -1e-6:
                assert not (x - y).is_totally_positive()


def test_cmp_real_examples():
    assert q(2, 1, 2).cmp_real(q(3, 0, 2)) > 0  # sqrt(2) > 1
    x = q(4, 1, 7)
    assert x.cmp_real(x) == 0
    assert q(1, 0, 2).cmp_real(q(2, 1, 2)) < 0


def test_cmp_real_total_order():
    rng = random.Random(29)
    for d in (3, 13):
        pts = [q(rng.randint(-9, 9), rng.randint(-9, 9), d) for _ in range(30)]
        for x in pts:
            for y in pts:
                c = x.cmp_real(y)
                assert c == -y.cmp_real(x)
                if x == y:
                    assert c == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 94, 9001]),
       st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_from_embedding_inverts_embedding_pair(d, a, b):
    # D = 5, 13, 9001 use the half basis (tr w = 1), D = 2, 3, 94 the sqrt basis
    ctx = make_field(d)
    x = QuadInt(a, b, ctx)
    u, v = x.embedding_pair()
    assert QuadInt.from_embedding(u, v, ctx) == x
    assert x.conjugate().embedding_pair() == (u, -v)


def test_ctx_mismatch():
    with pytest.raises(CtxMismatch):
        q(1, 0, 2) + q(1, 0, 3)
    with pytest.raises(CtxMismatch):
        q(1, 0, 2).cmp_real(q(1, 0, 3))


def test_sign_surd_examples():
    assert sign_surd(3, -1, 8) == 1
    assert sign_surd(0, 0, 8) == 0
    assert sign_surd(-3, 1, 8) == -1
    assert sign_surd(0, 2, 5) == 1
    assert sign_surd(-7, 0, 5) == -1


def test_sign_surd_metamorphic():
    rng = random.Random(31)
    for _ in range(500):
        u, v = rng.randint(-50, 50), rng.randint(-50, 50)
        delta = rng.choice([2, 5, 8, 12, 13, 21])
        assert sign_surd(u, v, delta) == -sign_surd(-u, -v, delta)
        got = sign_surd(u, v, delta)
        approx = u + v * math.sqrt(delta)
        if abs(approx) > 1e-6:
            assert got == (1 if approx > 0 else -1)


def test_floor_surd_near_tie_uses_no_floats():
    # p is a 24-digit truncation of -10**23*sqrt(2), so the sum is ~0.87
    # against terms of size 1.4e23: far below float resolution, but its
    # floor is exactly 0, and one less puts it exactly below 0
    assert floor_surd(-141421356237309504880168, 10**23, 1, 2) == 0
    assert floor_surd(-141421356237309504880169, 10**23, 1, 2) == -1
    assert floor_surd(0, 0, 1, 5) == 0


nonsquare = st.integers(2, 10**6).filter(lambda n: math.isqrt(n) ** 2 != n)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), nonsquare)
def test_sign_surd_matches_sympy(u, v, delta):
    assert sign_surd(u, v, delta) == sympy.sign(u + v * sympy.sqrt(delta))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**25), nonsquare, st.integers(-2, 2), st.booleans())
def test_sign_surd_near_ties_match_sympy(v, delta, offset, flip):
    # u is within a few units of -v*sqrt(delta), where float sums cancel out
    u = -math.isqrt(v * v * delta) + offset
    if flip:
        u, v = -u, -v
    assert sign_surd(u, v, delta) == sympy.sign(u + v * sympy.sqrt(delta))


def test_floor_surd():
    assert floor_surd(0, 1, 1, 2) == 1
    assert floor_surd(0, -1, 1, 2) == -2
    assert floor_surd(3, -1, 2, 2) == 0
    assert floor_surd(10, 0, 4, 2) == 2
    assert floor_surd(1, 1, -1, 2) == -3
    rng = random.Random(37)
    for _ in range(2000):
        p, quo = rng.randint(-80, 80), rng.randint(-40, 40)
        r = rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
        delta = rng.choice([2, 3, 5, 8, 13])
        got = floor_surd(p, quo, r, delta)
        # exact independent check: got <= (p + quo*sqrt(delta))/r < got + 1
        orient = 1 if r > 0 else -1
        assert sign_surd(p - got * r, quo, delta) * orient >= 0
        assert sign_surd(p - (got + 1) * r, quo, delta) * orient < 0


def test_json_round_trip():
    x = q(-(10**40), 10**39 + 7, 13)
    o = x.to_json()
    assert QuadInt(int(o["a"]), int(o["b"]), make_field(o["D"])) == x
    assert x.to_json() == {"a": str(x.a), "b": str(x.b), "D": 13}
