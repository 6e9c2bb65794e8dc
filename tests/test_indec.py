import random

import pytest

from quadpart.qfield import InternalError, NotTotallyPositive, QuadInt, make_field, sign_surd
from quadpart.indec import Decomp, indec_seq

from oracles import succeq


def q(a, b, d):
    return QuadInt(a, b, make_field(d))


def test_beta_examples():
    seq = indec_seq(2)
    assert seq.beta(0) == q(1, 0, 2)
    assert seq.beta(1) == q(2, 1, 2)
    assert seq.beta(2) == q(3, 2, 2)
    assert seq.beta(-1) == q(2, -1, 2)
    seq5 = indec_seq(5)
    assert seq5.beta(1) == seq5.table.eps_plus == q(1, 1, 5)
    seq3 = indec_seq(3)
    assert seq3.beta(1) == q(2, 1, 3)  # u_1 = 1, so index 1 opens the i=1 block


def test_v_examples():
    seq = indec_seq(2)
    assert seq.v(0) == 4
    assert 4 * seq.beta(0) == seq.beta(-1) + seq.beta(1)
    assert seq.v(1) == 2
    assert 2 * seq.beta(1) == seq.beta(0) + seq.beta(2)
    assert indec_seq(3).v(1) == 4


def test_three_term_relation_window():
    for d in (2, 3, 5, 6, 19, 31):
        seq = indec_seq(d)
        w = 3 * seq.s_prime
        for j in range(-w, w + 1):
            assert seq.v(j) * seq.beta(j) == seq.beta(j - 1) + seq.beta(j + 1)
            assert seq.v(-j) == seq.v(j)


def test_conjugate_symmetry_and_monotonicity():
    for d in (2, 5, 13, 22):
        seq = indec_seq(d)
        w = 2 * seq.s_prime + 2
        for j in range(-w, w + 1):
            assert seq.beta(-j) == seq.beta(j).conjugate()
            assert seq.beta(j).cmp_real(seq.beta(j + 1)) < 0


@pytest.mark.parametrize("d, s_odd", [(d, True) for d in (2, 5, 13, 97, 9001)]
                         + [(d, False) for d in (3, 7, 19, 31, 94)])
def test_pair_matches_block_walk(d, s_odd):
    """pair(j) reads a table of one unit period; a plain walk of the block
    widths u_{i+2} from (i, r) = (-1, 0) gives the same (i, r) for every j."""
    seq = indec_seq(d)
    cf, sp = seq.cf, seq.s_prime
    assert (cf.s % 2 == 1) == s_odd
    assert sp == sum(cf.u(i + 2) for i in range(-1, cf.unit_steps - 2, 2))
    assert seq.beta(sp) == seq.table.eps_plus
    walk, i, r = [], -1, 0
    while len(walk) < 5 * sp:
        walk.append((i, r))
        r += 1
        if r == cf.u(i + 2):
            i, r = i + 2, 0
    for j in range(-4 * sp, 4 * sp):
        assert seq.pair(j) == walk[abs(j)]
        if j >= 0:
            i, r = walk[j]
            assert seq.pair(j + sp) == (i + cf.unit_steps, r)


def test_unit_period_shift():
    for d in (2, 3, 5, 13, 21, 46):
        seq = indec_seq(d)
        ep = seq.table.eps_plus
        w = 2 * seq.s_prime
        for j in range(-w, w + 1):
            assert seq.beta(j + seq.s_prime) == ep * seq.beta(j)


def test_canonical_decomp_examples():
    seq = indec_seq(2)
    assert seq.canonical_decomp(q(4, 2, 2)) == Decomp(1, 2, 0)
    assert seq.canonical_decomp(seq.beta(5)) == Decomp(5, 1, 0)
    d = seq.canonical_decomp(q(5, 2, 2))
    assert d == Decomp(0, 1, 2)
    assert d.e * seq.beta(d.j) + d.f * seq.beta(d.j + 1) == q(5, 2, 2)


def test_canonical_decomp_round_trip():
    rng = random.Random(41)
    # (D, j within +-periods*s', samples, largest coefficient); D = 1399721 has
    # s' = 10,933 and coordinates of thousands of bits, so it stays within a period
    cases = [(d, 2, 60, 50) for d in (2, 3, 5, 13, 29)]
    cases += [(94, 3, 40, 10**6), (9001, 3, 40, 10**6), (1399721, 1, 10, 10**6)]
    for d, periods, samples, coeff in cases:
        seq = indec_seq(d)
        for _ in range(samples):
            j = rng.randint(-periods * seq.s_prime, periods * seq.s_prime)
            e = rng.randint(1, coeff)
            f = rng.randint(0, coeff)
            alpha = e * seq.beta(j) + f * seq.beta(j + 1)
            assert seq.canonical_decomp(alpha) == Decomp(j, e, f)


def test_canonical_decomp_rejects_nonpositive():
    seq = indec_seq(2)
    with pytest.raises(NotTotallyPositive):
        seq.canonical_decomp(q(1, 1, 2))
    with pytest.raises(NotTotallyPositive):
        seq.canonical_decomp(q(0, 0, 2))


def test_indec_window_leq_pinned_by_oracle():
    def below(seq, alpha):
        return seq.indec_window_leq(alpha, alpha.conjugate())

    seq = indec_seq(2)
    got = below(seq, q(4, 2, 2))
    # beta_{-1} = 2 - sqrt(2) fails the conjugate embedding (2+sqrt(2) > 4-2sqrt(2)),
    # so the list is exactly indices 2..0.
    assert got == [(6, 2), (4, 1), (2, 0)]
    for d in (2, 5, 7):
        assert below(indec_seq(d), QuadInt(1, 0, make_field(d))) == [(2, 0)]
    seq5 = indec_seq(5)
    eps_plus = seq5.table.eps_plus
    assert seq5.beta(1) == eps_plus
    assert below(seq5, eps_plus) == [eps_plus.embedding_pair()]


def test_indec_window_leq_matches_succeq_filter():
    rng = random.Random(43)
    for d in (2, 3, 13):
        seq = indec_seq(d)
        for _ in range(25):
            j = rng.randint(-seq.s_prime, seq.s_prime)
            alpha = rng.randint(1, 4) * seq.beta(j) + rng.randint(0, 4) * seq.beta(j + 1)
            got = seq.indec_window_leq(alpha, alpha.conjugate())
            w = 3 * seq.s_prime + 4
            brute = [b.embedding_pair() for b in map(seq.beta, range(w, -w - 1, -1))
                     if succeq(alpha, b)]
            assert got == brute


def test_is_indecomposable():
    seq = indec_seq(2)
    assert seq.canonical_decomp(q(2, 1, 2)) == Decomp(1, 1, 0)
    assert q(2, 1, 2).norm() == make_field(2).c_d
    assert seq.canonical_decomp(q(4, 2, 2)) == Decomp(1, 2, 0)
    assert seq.canonical_decomp(q(1, 0, 2)) == Decomp(0, 1, 0)


def test_indecomposable_norm_bound_and_attainment():
    # Attainment of the norm bound is only asserted where the scan confirms
    # it: fields with a norm -1 fundamental unit from a pinned set.
    for d in (2, 5, 10, 13):
        seq = indec_seq(d)
        assert seq.table.eps.norm() == -1
        norms = [seq.beta(j).norm() for j in range(seq.s_prime)]
        assert all(1 <= n <= seq.ctx.c_d for n in norms)
        assert max(norms) == seq.ctx.c_d
    for d in (3, 6, 7, 19, 21):
        seq = indec_seq(d)
        assert all(1 <= seq.beta(j).norm() <= seq.ctx.c_d
                   for j in range(-seq.s_prime, 2 * seq.s_prime))


def _linear_max_j(seq, x):
    j = 0
    if seq.beta(0).cmp_real(x) <= 0:
        while seq.beta(j + 1).cmp_real(x) <= 0:
            j += 1
        return j
    while seq.beta(j).cmp_real(x) > 0:
        j -= 1
    return j


def test_max_j_real_leq_matches_linear_scan():
    rng = random.Random(17)
    for d in (2, 3, 5, 13, 94, 97):
        seq = indec_seq(d)
        for j in range(-40, 41):
            b = seq.beta(j)
            xs = [b, b + seq.beta(j + 1), b * 3,
                  q(rng.randint(0, 10**6), rng.randint(-10**4, 10**4), d)]
            for x in xs:
                if sign_surd(*x.embedding_pair(), x.ctx.delta) <= 0:
                    continue
                assert seq.max_j_real_leq(x) == _linear_max_j(seq, x), (d, j, x)
            assert seq.max_j_real_leq(b) == j
        with pytest.raises(InternalError):
            seq.max_j_real_leq(q(-1, 0, d))


def test_balanced_is_unit_multiple_with_small_skew():
    rng = random.Random(47)
    for d in (2, 13, 31):
        seq = indec_seq(d)
        ep = seq.table.eps_plus
        for _ in range(20):
            j = rng.randint(0, seq.s_prime - 1)
            alpha = rng.randint(1, 5) * seq.beta(j) + rng.randint(0, 5) * seq.beta(j + 1)
            for k in range(4):
                alpha = alpha * ep  # skew it on purpose
            bal = seq.balanced(alpha)
            assert bal.norm() == alpha.norm()
            sq = ep * ep
            assert bal.cmp_real(bal.conjugate() * sq) <= 0
            assert bal.conjugate().cmp_real(bal * sq) <= 0
