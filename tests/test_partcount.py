import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpart.qfield import (
    BadIndex,
    NotTotallyPositive,
    QuadInt,
    floor_surd,
    make_field,
    sign_surd,
)
from quadpart import partcount
from quadpart.indec import indec_seq
from quadpart.theorems import squarefree_range
from quadpart.partcount import (
    CountResult,
    PartitionCounter,
    closed_count_double_pair,
    closed_count_small,
    default_i_max,
    exists_six_partitions,
    flat_run_radius,
    gen_six_partitions,
    gen_two_indec_partitions,
    has_two_indec_partitions,
    is_uniquely_decomposable,
    lattice_leq,
    list_partitions,
    parts_leq,
    pk,
    pk_indec,
    six_or_nine_witness,
    _desc_real,
    _support_tuples,
)

from oracles import succeq


def q(a, b, d):
    return QuadInt(a, b, make_field(d))


def exact(v):
    return CountResult.exactly(v)


def test_parts_leq_examples():
    for d in (2, 3, 5, 7):
        assert parts_leq(q(1, 0, d)) == [q(1, 0, d)]
        assert parts_leq(q(2, 0, d)) == [q(2, 0, d), q(1, 0, d)]
    got = parts_leq(q(4, 2, 2))
    assert got == [q(4, 2, 2), q(3, 2, 2), q(2, 1, 2), q(1, 0, 2)]
    with pytest.raises(NotTotallyPositive):
        parts_leq(q(1, 1, 2))


def _squarest(seq, alpha):
    """The unit multiple of alpha with least trace: lattice_leq scans about
    trace/sqrt(delta) rows, and balanced() alone leaves a skew of up to
    eps_plus^2 (1.8e13 for D=94)."""
    ep = seq.table.eps_plus
    bal = seq.balanced(alpha)
    return min((bal * ep.conjugate(), bal, bal * ep), key=QuadInt.trace)


def test_fan_support_matches_lattice_oracle():
    # The fan walk against the structure-blind row scan, in order, on
    # e*beta_j + f*beta_{j+1} for every field D <= 150: the corner shapes and
    # one seeded (e, f) in [1, 5] x [0, 5] per j.  Unit multiples up to
    # eps_plus^4 must give the same support size, and the same capped count.
    rng = random.Random(150)
    for d in squarefree_range(150):
        seq = indec_seq(d)
        ctx = seq.ctx
        ep = seq.table.eps_plus
        for j in range(-12, 12):
            shapes = {(1, 0), (5, 5), (rng.randint(1, 5), rng.randint(0, 5))}
            for e, f in sorted(shapes):
                alpha = e * seq.beta(j) + f * seq.beta(j + 1)
                x = _squarest(seq, alpha)
                u, v = x.embedding_pair()
                want = _desc_real(ctx, lattice_leq(ctx, (u, v), (u, -v)))
                got = _support_tuples(x)
                assert got == want, (d, j, e, f)
                elems = [QuadInt.from_embedding(*p, ctx) for p in got]
                assert all(p.cmp_real(r) > 0 for p, r in zip(elems, elems[1:])), (d, j, e, f)
                count = PartitionCounter(ctx, want, cap=8).count(x)
                want_pk = exact(count) if count <= 8 else CountResult.at_least(9)
                for k in range(5):
                    assert len(_support_tuples(alpha)) == len(want), (d, j, e, f, k)
                    if k in (0, 4):
                        assert pk(alpha, cap=8) == want_pk, (d, j, e, f, k)
                    alpha = alpha * ep


def test_lopsided_support_needs_no_balancing():
    # 73549 + 7586*sqrt(94) spans about 7,600 lattice rows for 11 points.
    alpha = q(73549, 7586, 94)
    assert alpha.norm() == 177
    assert len(parts_leq(alpha)) == 11
    assert pk(alpha) == exact(19)


def test_parts_leq_matches_coordinate_rectangle_bruteforce():
    # Differential check of the lattice enumerator against a dumb double loop
    # over a coordinate rectangle that provably contains the support.
    rng = random.Random(2)
    for d in (2, 3, 5, 13, 21):
        ctx = make_field(d)
        for _ in range(12):
            alpha = q(rng.randint(1, 14), rng.randint(-3, 3), d)
            if not alpha.is_totally_positive():
                continue
            got = {(g.a, g.b) for g in parts_leq(alpha)}
            bound = 2 * (abs(alpha.a) + abs(alpha.b)) + 4
            brute = set()
            for x in range(-bound, bound + 1):
                for y in range(-bound, bound + 1):
                    g = q(x, y, d)
                    if g.is_totally_positive() and succeq(alpha, g):
                        brute.add((x, y))
            assert got == brute, (d, alpha)


def test_parts_leq_is_downward_closed_and_totally_positive():
    rng = random.Random(3)
    for d in (2, 5, 13):
        seq = indec_seq(d)
        for _ in range(10):
            alpha = rng.randint(1, 3) * seq.beta(rng.randint(0, seq.s_prime)) \
                + rng.randint(0, 3) * seq.beta(rng.randint(0, seq.s_prime))
            got = parts_leq(alpha)
            assert all(g.is_totally_positive() and succeq(alpha, g) for g in got)
            gotset = {(g.a, g.b) for g in got}
            for g in got:
                for h in parts_leq(g):
                    assert (h.a, h.b) in gotset


def test_pk_examples():
    assert pk(q(4, 2, 2)) == exact(3)
    assert pk(q(5, 2, 2)) == exact(6)
    assert pk(q(6, 2, 3)) == exact(9)
    assert pk(q(0, 0, 7)) == exact(1)
    assert pk(q(3, 0, 2)) == exact(3)
    # 1 - sqrt(2) has trace 2 but a negative real embedding; the counter
    # itself checks nothing, so both counts must refuse it before counting
    for alpha in (q(-1, 0, 5), q(1, -1, 2)):
        for fn in (pk, pk_indec):
            for cap in (None, 3):
                with pytest.raises(NotTotallyPositive):
                    fn(alpha, cap=cap)


def test_pk_explicit_partitions():
    got = list_partitions(q(4, 2, 2))
    as_sets = {tuple(sorted((p.a, p.b) for p in part)) for part in got}
    assert as_sets == {
        ((4, 2),),
        ((1, 0), (3, 2)),
        ((2, 1), (2, 1)),
    }
    got = list_partitions(q(4, 2, 2), indec_only=True)
    assert len(got) == 2


def test_count_agrees_with_explicit_enumeration():
    # list_partitions walks the full tree with no memo table, so it is an
    # independent route to the same number.
    rng = random.Random(9)
    for d in (2, 3, 5, 13, 21):
        seq = indec_seq(d)
        for _ in range(20):
            j = rng.randint(-seq.s_prime, seq.s_prime)
            alpha = (rng.randint(1, 3) * seq.beta(j)
                     + rng.randint(0, 2) * seq.beta(j + 1))
            bal = seq.balanced(alpha)
            full = pk(bal)
            assert full.value == len(list_partitions(bal))
            restr = pk_indec(bal)
            assert restr.value == len(list_partitions(bal, indec_only=True))
            for part in list_partitions(bal):
                for first, second in zip(part, part[1:]):
                    assert first.cmp_real(second) >= 0  # parts descending
                total = part[0]
                for piece in part[1:]:
                    total = total + piece
                assert total == bal


def test_pk_cap_saturates():
    r = pk(q(40, 0, 2), cap=5)
    assert r == CountResult.at_least(6)
    assert pk(q(4, 2, 2), cap=3) == exact(3)
    assert pk(q(4, 2, 2), cap=2) == CountResult.at_least(3)


def test_capped_pk_has_no_cliff(monkeypatch):
    # The support of 10^20 in Q(sqrt(2)) has about 10^40 points; a count
    # capped at 3 needs only 7 of them to read AtLeast(4).
    calls = 0

    def counting(u, v, delta):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise AssertionError("capped pk walked past its proof of saturation")
        return sign_surd(u, v, delta)

    monkeypatch.setattr(partcount, "sign_surd", counting)
    assert pk(q(10**20, 0, 2), cap=3) == CountResult.at_least(4)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 94, 97]), st.integers(-2, 3), st.integers(1, 3),
       st.integers(0, 3), st.integers(0, 7))
def test_capped_pk_matches_uncapped_count(d, j, e, f, cap):
    seq = indec_seq(d)
    alpha = e * seq.beta(j) + f * seq.beta(j + 1)
    n = pk(alpha).value
    assert pk(alpha, cap) == (exact(n) if n <= cap else CountResult.at_least(cap + 1))


def test_pk_rejects_negative_cap():
    for fn in (pk, pk_indec):
        for alpha in (q(4, 2, 2), q(0, 0, 2)):
            with pytest.raises(BadIndex):
                fn(alpha, cap=-1)
    assert pk(q(4, 2, 2), cap=0) == CountResult.at_least(1)


def test_zero_element_obeys_cap_and_limit():
    zero, one = q(0, 0, 2), q(1, 0, 2)
    for fn in (pk, pk_indec):
        assert fn(zero) == fn(zero, cap=1) == exact(1)  # the empty partition
        assert fn(zero, cap=0) == fn(one, cap=0) == CountResult.at_least(1)
    for indec_only in (False, True):
        assert list_partitions(zero, indec_only) == list_partitions(zero, indec_only, 1) == [[]]
        assert list_partitions(zero, indec_only, 0) == list_partitions(one, indec_only, 0) == []


def test_pk_indec_examples():
    assert pk_indec(q(4, 2, 2)) == exact(2)
    seq = indec_seq(2)
    for j in (-2, 0, 1, 3):
        assert pk_indec(seq.beta(j)) == exact(1)
    rng = random.Random(5)
    for d in (2, 3, 13):
        seqd = indec_seq(d)
        for _ in range(15):
            alpha = rng.randint(1, 4) * seqd.beta(rng.randint(-2, 2)) \
                + rng.randint(0, 4) * seqd.beta(rng.randint(-2, 2) + 1)
            if not alpha.is_totally_positive():
                continue
            full, restr = pk(alpha, cap=30), pk_indec(alpha, cap=30)
            assert restr.value <= full.value or not full.exact
            assert restr.value >= 1


def test_closed_count_double_pair_formulas():
    seq = indec_seq(2)
    assert closed_count_double_pair(seq, -1, 1, "double", restricted=False) == 3
    for d in (2, 3, 19):
        seqd = indec_seq(d)
        for i in (-1, 1, 3):
            assert closed_count_double_pair(seqd, i, 0, "double", restricted=True) == 1
    with pytest.raises(BadIndex):
        closed_count_double_pair(seq, 0, 0, "double", restricted=True)
    with pytest.raises(BadIndex):
        closed_count_double_pair(seq, 1, 2, "double", restricted=True)


def test_flat_run_radius():
    seq = indec_seq(2)
    assert flat_run_radius(seq, 1, 0) == 0  # v_1 = 2 between v_0 = v_2 = 4
    assert flat_run_radius(seq, 0, 0) is None  # v_0 = 4
    assert flat_run_radius(seq, 0, 1) is None
    with pytest.raises(BadIndex):
        flat_run_radius(seq, 0, 2)
    # chain identity behind the count: beta_{j-k} + beta_{j+k+t} constant
    for d in (2, 3, 19, 29):
        seqd = indec_seq(d)
        for j in range(0, 2 * seqd.s_prime):
            for t in (0, 1):
                k0 = flat_run_radius(seqd, j, t)
                if k0 is None:
                    continue
                total = seqd.beta(j) + seqd.beta(j + t)
                for k in range(k0 + 2):
                    assert seqd.beta(j - k) + seqd.beta(j + k + t) == total
                want = k0 + 2
                assert pk_indec(total, cap=want + 1) == exact(want)


def test_is_uniquely_decomposable():
    seq = indec_seq(2)
    assert is_uniquely_decomposable(seq, q(2, 1, 2))
    assert not is_uniquely_decomposable(seq, q(4, 2, 2))


def test_has_two_indec_partitions():
    seq = indec_seq(2)
    assert has_two_indec_partitions(seq, q(4, 2, 2))
    assert not has_two_indec_partitions(seq, q(2, 1, 2))


def test_characterizations_match_oracle_window():
    for d in (2, 3, 5, 10, 17):
        seq = indec_seq(d)
        for j in range(seq.s_prime):
            vj, vj1 = seq.v(j), seq.v(j + 1)
            for e in range(1, 2 * vj + 3):
                for f in range(0, 2 * vj1 + 3):
                    alpha = e * seq.beta(j) + f * seq.beta(j + 1)
                    r = pk_indec(alpha, cap=2)
                    assert is_uniquely_decomposable(seq, alpha) == (r == exact(1))
                    assert has_two_indec_partitions(seq, alpha) == (r == exact(2))


def test_gen_two_indec_all_verify():
    for d in (2, 3, 5, 13):
        seq = indec_seq(d)
        items = gen_two_indec_partitions(seq, 3)
        assert items, d
        for alpha in items:
            assert pk_indec(alpha, cap=3) == exact(2), (d, str(alpha))
        assert len({(x.a, x.b) for x in items}) == len(items)


def test_gen_two_indec_example_case_list():
    # D=2, i=-1: u-window (u0,u1,u2) = (2,2,2); the r=1 block contributes
    # 2*alpha_{-1,1} + f*alpha_{1,0} for f in {0,1,2}.
    seq = indec_seq(2)
    items = {(x.a, x.b) for x in gen_two_indec_partitions(seq, -1)}
    b11 = seq.table.semiconvergent(-1, 1)
    b20 = seq.table.semiconvergent(1, 0)
    for f in range(3):
        want = 2 * b11 + f * b20
        assert (want.a, want.b) in items


def test_gen_six_all_verify():
    for d in (2, 3, 6, 10):
        seq = indec_seq(d)
        for alpha in gen_six_partitions(seq, 3):
            bal = seq.balanced(alpha)
            assert pk(bal, cap=7) == exact(6), (d, str(alpha))


def test_gen_six_examples():
    seq = indec_seq(2)
    items = {(x.a, x.b) for x in gen_six_partitions(seq, 1)}
    assert (4, 0) in items  # 4*alpha_{-1,0}, since u_0 = 2
    assert (6, 3) in items  # 3*alpha_{-1,1}, since u_1 = 2
    assert pk(q(4, 0, 2)) == exact(6)
    assert pk(q(6, 3, 2)) == exact(6)
    assert gen_six_partitions(indec_seq(5), 5) == []


def test_generator_outputs_are_pinned():
    # both generators' exact lists, in order: a change to how they enumerate
    # must not move this digest
    h = hashlib.sha256()
    for d in squarefree_range(200):
        seq = indec_seq(d)
        top = default_i_max(seq)
        for i_max in (-1, 1, 3, top, top + 2):
            for gen in (gen_two_indec_partitions, gen_six_partitions):
                h.update(repr([(x.a, x.b) for x in gen(seq, i_max)]).encode())
    assert h.hexdigest() == "b5f0cf6639625e98703895c8c102c9a746cf3a1d133d0b477c34409dc9cba15a"


def test_closed_count_small_dispatch():
    seq = indec_seq(2)
    assert closed_count_small(seq, q(4, 2, 2)) == exact(3)
    assert closed_count_small(seq, q(5, 2, 2)) == exact(6)
    two_two = 2 * seq.beta(1) + 2 * seq.beta(2)
    assert closed_count_small(seq, two_two) == CountResult.at_least(7)
    assert pk(two_two, cap=7) == CountResult.at_least(8)


def test_closed_count_small_matches_oracle():
    for d in (2, 3, 5, 10, 21):
        seq = indec_seq(d)
        for j in range(-seq.s_prime, seq.s_prime + 1):
            for (e, f) in [(1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (1, 2),
                           (5, 0), (2, 2), (3, 1), (1, 3)]:
                alpha = e * seq.beta(j) + f * seq.beta(j + 1)
                want = closed_count_small(seq, alpha)
                bal = seq.balanced(alpha)
                if want.exact:
                    assert pk(bal, cap=want.value + 1) == exact(want.value), (d, j, e, f)
                else:
                    got = pk(bal, cap=want.value - 1)
                    assert not got.exact, (d, j, e, f)


def test_closed_count_small_exhaustive_boxes():
    # every element with both embeddings <= 6*sqrt(delta), ten fields
    for d in (2, 3, 5, 6, 7, 10, 13, 17, 21, 29):
        ctx = make_field(d)
        seq = indec_seq(d)
        box = _desc_real(ctx, lattice_leq(ctx, (0, 12), (0, 12)))
        counter = PartitionCounter(ctx, box, cap=16)
        for coords in box:
            alpha = QuadInt.from_embedding(*coords, ctx)
            want = closed_count_small(seq, alpha)
            got = counter.count(alpha)
            if want.exact:
                assert got == want.value, (d, coords, want, got)
            else:
                assert got >= want.value, (d, coords, want, got)


def test_exists_six_partitions_examples():
    assert exists_six_partitions(2)
    assert not exists_six_partitions(5)
    assert not exists_six_partitions(7)
    assert exists_six_partitions(11)


def test_six_or_nine_witness():
    alpha, predicted = six_or_nine_witness(2)
    assert alpha == q(5, 2, 2) and predicted == 6
    alpha, predicted = six_or_nine_witness(3)
    assert alpha == q(6, 2, 3) and predicted == 9
    assert six_or_nine_witness(5) == (None, None)


def test_shared_counter_matches_fresh_calls():
    # Reusing one memo table across queries must agree with fresh oracles.
    d = 2
    ctx = make_field(d)
    box = _desc_real(ctx, lattice_leq(ctx, (0, 24), (0, 24)))
    counter = PartitionCounter(ctx, box, cap=9)
    for coords in box:
        alpha = QuadInt.from_embedding(*coords, ctx)
        assert counter.count(alpha) == min(pk(alpha, cap=9).value, 10)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 94, 9001]),
       st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(-2, 2)),
                min_size=1, max_size=30))
def test_desc_real_matches_exact_comparisons(d, raw):
    ctx = make_field(d)
    t, delta = ctx.tr_omega, ctx.delta
    # a = off - floor(b*w) puts every real embedding in [off, off + 1), so
    # distinct elements crowd together, down to gaps of about 1/|conj|
    pairs = [QuadInt(off - floor_surd(t * b, b, 2, delta), b, ctx).embedding_pair()
             for b, off in raw]
    got = _desc_real(ctx, pairs)
    assert sorted(got) == sorted(pairs)
    for p, r in zip(got, got[1:]):
        assert p == r or QuadInt.from_embedding(*p, ctx).cmp_real(
            QuadInt.from_embedding(*r, ctx)) > 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13, 21, 94]), st.integers(1, 16),
       st.integers(-40, 40), st.integers(-12, 12), st.integers(-1, 400))
def test_first_fit_matches_linear_scan(d, n, a, b, pick):
    ctx = make_field(d)
    parts = _desc_real(ctx, lattice_leq(ctx, (0, n), (0, n)))
    counter = PartitionCounter(ctx, parts, cap=None)
    # pick >= 0 queries a part itself, so ties in the real embedding are hit
    x = QuadInt.from_embedding(*parts[pick % len(parts)], ctx) if pick >= 0 else QuadInt(a, b, ctx)
    want = next((k for k, p in enumerate(parts)
                 if QuadInt.from_embedding(*p, ctx).cmp_real(x) <= 0), len(parts))
    assert counter._first_fit(*x.embedding_pair()) == want


@pytest.mark.parametrize("d, a, b", [(2, 7, 3), (5, 9, 4), (13, 8, 3), (94, 100, 10)])
def test_full_support_first_fits_are_lookups(monkeypatch, d, a, b):
    # Parts strictly descend, so each part's first fit is its own index, and
    # every remainder of a full count lies in the support: counting searches nothing.
    alpha = QuadInt(a, b, make_field(d))
    counter = PartitionCounter(alpha.ctx, _support_tuples(alpha), cap=None)

    def search(*args):
        raise AssertionError("_first_fit searched the part list")

    monkeypatch.setattr(partcount, "sign_surd", search)
    for k, p in enumerate(counter.parts):
        assert counter._first_fit(*p) == k
    monkeypatch.undo()
    assert counter.count(alpha) == pk(alpha).value
    assert len(counter._ff) == len(counter.parts) > 10  # no remainder was searched


# PartitionCounter.count raises the recursion limit to the trace of alpha,
# which Hypothesis reports once per example; the limit itself is intended.
@pytest.mark.filterwarnings("ignore:The recursion limit will not be reset")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(squarefree_range(50)), st.integers(-8, 8), st.integers(1, 4),
       st.integers(0, 4))
def test_pk_is_invariant_under_the_unit_and_conjugation(d, j, e, f):
    # Multiplying by eps_plus and conjugating both map the totally positive
    # elements onto themselves and keep sums, so each carries the partitions
    # of alpha one-to-one onto those of its image.  No balancing is applied.
    seq = indec_seq(d)
    alpha = e * seq.beta(j) + f * seq.beta(j + 1)
    want = pk(alpha, cap=30)
    assert pk(alpha * seq.table.eps_plus, cap=30) == want
    assert pk(alpha.conjugate(), cap=30) == want


@pytest.mark.filterwarnings("ignore:The recursion limit will not be reset")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(squarefree_range(50)), st.integers(-8, 8), st.integers(1, 4),
       st.integers(0, 4), st.integers(0, 1))
def test_counts_grow_by_an_indecomposable_part(d, j, e, f, k):
    # Adding beta_k as one more part maps the partitions of alpha one-to-one
    # into those of alpha + beta_k, restricted ones too, since beta_k is
    # indecomposable; the staircase walk of the candidate box relies on it.
    seq = indec_seq(d)
    alpha = e * seq.beta(j) + f * seq.beta(j + 1)
    beta = alpha + seq.beta(j + k)
    assert pk(alpha, cap=30).value <= pk(beta, cap=30).value
    assert pk_indec(alpha, cap=30).value <= pk_indec(beta, cap=30).value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(squarefree_range(50)), st.integers(-3, 3), st.integers(1, 4),
       st.integers(0, 4))
def test_fan_support_matches_lattice_oracle_on_random_elements(d, j, e, f):
    # No balancing: the row scan's work grows with the unit power of alpha,
    # about tenfold per step of j in D = 35, up to 0.03 s at |j| = 3.
    seq = indec_seq(d)
    ctx = seq.ctx
    alpha = e * seq.beta(j) + f * seq.beta(j + 1)
    u, v = alpha.embedding_pair()
    assert _support_tuples(alpha) == _desc_real(ctx, lattice_leq(ctx, (u, v), (u, -v)))
