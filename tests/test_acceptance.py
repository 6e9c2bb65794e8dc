"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every assertion is exact (integer sets, exact counts, exact surd comparisons);
no tolerances are involved anywhere.
"""

import random
import time

from quadpart.qfield import QuadInt, make_field, sign_surd
from quadpart.indec import indec_seq
from quadpart.partcount import (
    CountResult,
    PartitionCounter,
    closed_count_double_pair,
    gen_six_partitions,
    gen_two_indec_partitions,
    has_two_indec_partitions,
    is_uniquely_decomposable,
    lattice_leq,
    pk,
    pk_indec,
    six_or_nine_witness,
    _desc_real,
)
from quadpart.theorems import (
    density_report,
    scan_missing_six_fast,
    scan_missing_value,
    squarefree_range,
    value_attained,
    verify_norm_bound,
    _shared_indec_counter,
)

from oracles import verify_tail_norm_identity

EF_DSET = [2, 3, 5, 6, 7, 10, 11, 13, 14, 17, 19, 21, 22, 23, 29]
BOX_DSET = [2, 3, 6, 7, 10, 13]
# D=26 has a partial quotient 10 at an odd position (doubles/pairs with
# eight-plus partitions), D=19 has a (2, 1) block boundary, and D=17 has
# flat u = 1 blocks followed by a larger quotient; together with the
# fields elsewhere in the suite every generator case fires somewhere.
BOX_CASES = [(d, 40) for d in BOX_DSET] + [(17, 50), (19, 50), (26, 60)]


def report(num: int, started: float, description: str) -> None:
    print(f"\nACCEPTANCE {num} PASS ({time.time() - started:.1f}s): {description}")


def test_criterion_01_missing_value_tables():
    t0 = time.time()
    assert scan_missing_value(1, 50) == []
    assert scan_missing_value(2, 50) == []
    assert scan_missing_value(3, 50) == [5]
    assert scan_missing_value(4, 30) == []
    assert scan_missing_value(5, 50) == [2, 3, 5]
    assert scan_missing_value(7, 50) == [2, 5]
    assert scan_missing_value(11, 50) == [2, 3, 5, 6, 7, 13, 21]
    report(1, t0, "missing-count tables for m in {1,2,3,4,5,7,11} match exactly")


def test_criterion_02_six_partition_scan():
    t0 = time.time()
    excl = scan_missing_six_fast(47)
    assert excl == [5, 7, 15, 17, 21, 23, 34, 35, 37, 43, 47]
    have = [d for d in squarefree_range(46) if d not in excl]
    assert have == [2, 3, 6, 10, 11, 13, 14, 19, 22, 26, 29, 30, 31, 33, 38,
                    39, 41, 42, 46]
    assert scan_missing_six_fast(50) == scan_missing_value(6, 50)
    report(2, t0, "six-partition existence lists and cross-validation match")


def test_criterion_03_six_or_nine_construction():
    t0 = time.time()
    for d in squarefree_range(100):
        if d == 5:
            assert six_or_nine_witness(d) == (None, None)
            continue
        alpha, predicted = six_or_nine_witness(d)
        ctx = make_field(d)
        # the half-integer test on xi is exactly the u_1 >= 2 condition
        frac_above_half = sign_surd(2 * (ctx.floor_xi + 1) - 1 + ctx.tr_omega,
                                    -1, ctx.delta) > 0
        seq = indec_seq(d)
        assert frac_above_half == (seq.cf.u(1) >= 2)
        assert predicted == (6 if frac_above_half else 9)
        got = pk(seq.balanced(alpha), cap=10)
        assert got == CountResult.exactly(predicted), (d, got, predicted)
    report(3, t0, "constructed element has exactly 6 or 9 partitions, all D <= 100")


def test_criterion_04_closed_forms_for_doubles_and_pairs():
    t0 = time.time()
    for d in EF_DSET:
        seq = indec_seq(d)
        for i in (-1, 1, 3, 5):
            u = seq.cf.u(i + 2)
            for r in range(u):
                bj = seq.table.semiconvergent(i, r)
                bj1 = seq.table.semiconvergent(i, r + 1)
                for kind, target in (("double", 2 * bj), ("pair", bj + bj1)):
                    bal = seq.balanced(target)
                    for restricted in (True, False):
                        want = closed_count_double_pair(seq, i, r, kind, restricted)
                        got = (pk_indec(bal, cap=want + 1) if restricted
                               else pk(bal, cap=want + 1))
                        assert got == CountResult.exactly(want), \
                            (d, i, r, kind, restricted, want, got)
    report(4, t0, "double/pair closed forms equal brute force on 15 fields, i <= 5")


def test_criterion_05_characterizations_of_one_and_two():
    t0 = time.time()
    for d in EF_DSET:
        seq = indec_seq(d)
        counter = _shared_indec_counter(seq, 4, cap=2)
        for j in range(seq.s_prime):
            vj, vj1 = seq.v(j), seq.v(j + 1)
            bj, bj1 = seq.beta(j), seq.beta(j + 1)
            for e in range(1, 2 * vj + 3):
                base = e * bj
                for f in range(0, 2 * vj1 + 3):
                    alpha = base + f * bj1
                    c = counter.count(alpha)
                    assert is_uniquely_decomposable(seq, alpha) == (c == 1), \
                        (d, j, e, f)
                    assert has_two_indec_partitions(seq, alpha) == (c == 2), \
                        (d, j, e, f)
    report(5, t0, "unique-decomposition and exactly-two characterizations match "
                  "the oracle on full coefficient boxes")


def _box_tools(d: int, half_bound: int):
    """Box bound, membership test, and adaptive generator index for one field."""
    ctx = make_field(d)
    seq = indec_seq(d)
    top = 2 * half_bound
    bound = (0, top)  # embeddings <= half_bound*sqrt(delta), i.e. (0 + top*sqrt(delta))/2

    def in_box(x: QuadInt) -> bool:
        u, v = x.embedding_pair()
        return (sign_surd(u, v - top, ctx.delta) <= 0
                and sign_surd(u, -v - top, ctx.delta) <= 0)

    i_max = 1
    while True:
        a = seq.table.alpha(i_max)
        u, v = a.embedding_pair()
        if sign_surd(u, v - top, ctx.delta) > 0:
            break  # every later emission exceeds the box in one embedding
        i_max += 2
    return ctx, seq, bound, in_box, i_max


def test_criterion_06_generator_completeness_in_boxes():
    t0 = time.time()
    for d, half_bound in BOX_CASES:
        ctx, seq, bound, in_box, i_max = _box_tools(d, half_bound)
        box = _desc_real(ctx, lattice_leq(ctx, bound, bound))

        counter = PartitionCounter(ctx, box, cap=6)
        oracle_six = {c for c in box if counter.count(QuadInt.from_embedding(*c, ctx)) == 6}
        gen_six = {x.embedding_pair() for x in gen_six_partitions(seq, i_max) if in_box(x)}
        assert gen_six == oracle_six, (d, half_bound)

        # indecomposables inside the box, walked out from index 0
        ind_parts = []
        j = 0
        while in_box(seq.beta(j)):
            ind_parts.append(seq.beta(j))
            j += 1
        j = -1
        while in_box(seq.beta(j)):
            ind_parts.append(seq.beta(j))
            j -= 1
        ind_coords = _desc_real(ctx, [b.embedding_pair() for b in ind_parts])
        icounter = PartitionCounter(ctx, ind_coords, cap=2)
        oracle_two = {c for c in box if icounter.count(QuadInt.from_embedding(*c, ctx)) == 2}
        gen_two = {x.embedding_pair()
                   for x in gen_two_indec_partitions(seq, i_max) if in_box(x)}
        assert gen_two == oracle_two, (d, half_bound)
    report(6, t0, "six-partition and two-indecomposable generators are complete "
                  "on embedding boxes for D in {2,3,6,7,10,13,17,19,26}")


def test_criterion_07_norm_bounds():
    t0 = time.time()
    checked = 0
    for d in squarefree_range(2 * 50 + 2)[:50]:
        for kind, m in (("ds", None), ("hk10", None), ("n", 1), ("n", 2),
                        ("n", 3), ("n2", None)):
            rep = verify_norm_bound(d, kind, m)
            assert rep.ok, (d, kind, m, rep.violations)
            checked += rep.candidates_checked
    assert checked > 10_000
    report(7, t0, f"all norm bounds hold with zero violations "
                  f"({checked} exact comparisons over 50 fields)")


def test_criterion_08_structural_identities():
    t0 = time.time()
    for d in squarefree_range(2 * 100 + 2)[:100]:
        ctx = make_field(d)
        seq = indec_seq(d)
        cf, tab = seq.cf, seq.table
        s, sp = cf.s, seq.s_prime
        span = (s if s % 2 == 0 else 2 * s)
        for j in range(-2 * sp - 1, 2 * sp + 2):
            assert seq.v(j) * seq.beta(j) == seq.beta(j - 1) + seq.beta(j + 1)
            assert seq.beta(j + sp) == tab.eps_plus * seq.beta(j)
        for i in range(-1, 2 * span + 2, 2):
            assert (tab.semiconvergent(i, cf.u(i + 2))
                    == tab.semiconvergent(i + 2, 0))
        for i in range(-1, 2 * span + 1):
            assert tab.alpha(i).is_totally_positive() == (i % 2 == 1)
        for i in range(-1, s + 1):
            assert tab.eps * tab.alpha(i) == tab.alpha(s + i)
        for i in range(-1, 2 * s + 1):
            assert verify_tail_norm_identity(tab, i)
            lhs = tab.absnorm(i) * cf.u(i + 1)
            assert lhs * lhs < ctx.delta
    report(8, t0, "three-term relation, gluing, parity, unit shifts, and tail "
                  "norm identities hold over two unit periods for 100 fields")


def test_criterion_09_randomized_symmetries():
    t0 = time.time()
    rng = random.Random(20260810)
    fields = [2, 3, 5, 6, 7, 10, 13, 17, 21, 29]
    cap = 60
    instances = 0
    for d in fields:
        seq = indec_seq(d)
        ep = seq.table.eps_plus
        for _ in range(50):
            j = rng.randint(-seq.s_prime, seq.s_prime)
            alpha = (rng.randint(1, 3) * seq.beta(j)
                     + rng.randint(0, 2) * seq.beta(j + 1))
            a = pk(seq.balanced(alpha), cap=cap)
            assert pk(seq.balanced(alpha.conjugate()), cap=cap) == a
            assert pk(seq.balanced(ep * alpha), cap=cap) == a
            ai = pk_indec(alpha, cap=cap)
            assert pk_indec(alpha.conjugate(), cap=cap) == ai
            assert pk_indec(ep * alpha, cap=cap) == ai
            beta = alpha + seq.beta(rng.randint(-1, 2))
            b = pk(seq.balanced(beta), cap=cap)
            if a.exact and b.exact:
                assert a.value < b.value
            elif a.exact:
                assert a.value <= cap < b.value
            else:
                assert not b.exact
            bi = pk_indec(beta, cap=cap)
            if ai.exact and bi.exact:
                assert ai.value <= bi.value
            elif not ai.exact:
                assert not bi.exact
            instances += 1
    assert instances == 500
    report(9, t0, "conjugation/unit invariance and strict monotonicity on 500 "
                  "randomized instances across 10 fields")


def test_criterion_10_density_census():
    t0 = time.time()
    rep = density_report(4, 200)
    # internal consistency: membership agrees with per-k decisions
    for d in rep.members:
        ks = [k for k in range(1, 5) if not value_attained(d, k)[0]]
        assert ks and min(ks) == rep.missing[d]
    sample = squarefree_range(200)[::10]
    for d in sample:
        expect = any(not value_attained(d, k)[0] for k in range(1, 5))
        assert (d in rep.missing) == expect
    assert rep.hypothesis_holds is False  # never reachable at desk scale
    assert rep.rhs > 0
    report(10, t0, f"#E(4,200) = {rep.count} computed exactly "
                   f"(members {rep.members}); analytic rhs {rep.rhs:.1f} reported, "
                   f"hypothesis flag {rep.hypothesis_holds}")
