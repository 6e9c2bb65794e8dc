import sys
from functools import cmp_to_key

import pytest
from sympy import partition

from quadpart import cfrac, indec, partcount, theorems
from quadpart.qfield import BadIndex, QuadInt, SurdExpr, make_field, sign_surd, _is_squarefree
from quadpart.indec import indec_seq
from quadpart.partcount import (
    CountResult,
    PartitionCounter,
    exists_six_partitions,
    gen_two_indec_partitions,
    indec_support,
    lattice_leq,
    list_partitions,
    pk,
    pk_indec,
    six_or_nine_witness,
    _desc_real,
    _support_tuples,
)
from quadpart.theorems import (
    FIELDS_PER_WORKER,
    BoundReport,
    density_report,
    low_count_candidates,
    norm_bound,
    partition_range_witnesses,
    scan_missing_six_fast,
    scan_missing_value,
    squarefree_range,
    value_attained,
    verify_norm_bound,
    _first_missing,
    _low_counts,
    _shared_indec_counter,
    _staircase,
)


def test_squarefree_range():
    assert squarefree_range(12) == [2, 3, 5, 6, 7, 10, 11]
    assert squarefree_range(1) == []


def test_squarefree_tests_agree():
    # make_field checks one D by trial division, scans sieve a range
    assert [n for n in range(2, 20001) if _is_squarefree(n)] == squarefree_range(20000)


def test_norm_bound_values():
    ctx = make_field(2)
    b = norm_bound(ctx, "n2")
    assert (b.x, b.y, b.delta) == (200, 130, 8)
    b = norm_bound(ctx, "n", m=1)
    assert (b.x, b.y) == (4 * 15 * 8, 15 * 12)
    assert norm_bound(make_field(5), "ds").x == 1
    b = norm_bound(ctx, "hk10")
    assert (b.x, b.y) == (56, 50)
    with pytest.raises(BadIndex):
        norm_bound(ctx, "n")
    with pytest.raises(BadIndex):
        norm_bound(ctx, "bogus")


def test_candidates_example():
    seq = indec_seq(2)
    cands = list(low_count_candidates(seq, 1))
    assert {(j, e, f) for j, e, f, _ in cands} == {
        (0, e, f) for e in (1, 2, 3) for f in (0, 1)
    } | {(1, 1, f) for f in (0, 1, 2, 3)}
    assert len(cands) <= seq.s_prime * (1 * 4) ** 2
    for j, e, f, alpha in cands:
        assert alpha == e * seq.beta(j) + f * seq.beta(j + 1)


def test_verify_bounds_examples():
    rep = verify_norm_bound(2, "ds")
    assert rep.ok and rep.max_norm_seen == 2 == make_field(2).c_d
    for d in (2, 3, 5, 19):
        for kind, m in (("ds", None), ("hk10", None), ("n", 1), ("n", 2),
                        ("n", 3), ("n2", None)):
            rep = verify_norm_bound(d, kind, m)
            assert rep.ok, (d, kind, m)
            assert rep.candidates_checked > 0


def test_verify_bound_headroom_is_recorded():
    rep = verify_norm_bound(2, "n", 2)
    assert rep.max_norm_seen > 0
    bound = rep.bound
    assert sign_surd(bound.x - rep.max_norm_seen, bound.y, bound.delta) > 0
    assert rep.to_json()["ok"] is True


def _full_box_report(d, kind, m=None):
    # Oracle: every candidate of the box, counted by a fresh capped counter,
    # with no early exit.  It reads the bound through the module, as
    # verify_norm_bound does, so a patched bound reaches both.
    seq = indec_seq(d)
    mm = {"hk10": 1, "n": m, "n2": 2}[kind]
    bound = theorems.norm_bound(seq.ctx, kind, m)
    counter = _shared_indec_counter(seq, mm, cap=mm)
    checked = []
    for _, _, _, alpha in low_count_candidates(seq, mm):
        c = counter.count(alpha)
        if (c == 2) if kind == "n2" else c <= mm:
            checked.append(alpha)
    if kind == "n2":
        s = seq.cf.s
        checked += gen_two_indec_partitions(seq, (s if s % 2 == 0 else 2 * s) - 3)
    norms = [alpha.norm() for alpha in checked]
    return BoundReport(d, kind, m, len(checked), max(norms, default=0), bound,
                       [alpha for alpha, nm in zip(checked, norms)
                        if not sign_surd(bound.x - nm, bound.y, bound.delta) > 0])


def test_staircase_verify_matches_full_box_oracle():
    cases = [(d, kind, m) for d in squarefree_range(100)
             for kind, m in (("hk10", None), ("n2", None), ("n", 1), ("n", 2), ("n", 3), ("n", 4))]
    for d, kind, m in cases + [(9001, "hk10", None)]:
        want = _full_box_report(d, kind, m).to_json()
        assert verify_norm_bound(d, kind, m).to_json() == want, (d, kind, m)


def test_verify_reports_violations_like_full_box_oracle(monkeypatch):
    # No true bound is ever violated, so the report's violation list is
    # empty on every field.  A bound of 5 makes every candidate of norm >= 5
    # a violation; the staircase must report the oracle's list, in order.
    # At D = 10 (s' = 6) and D = 97 (s' = 27) violations also land in rows
    # past s'//2, both transposed (f >= 1) and in the mirrored f = 0 column.
    monkeypatch.setattr(theorems, "norm_bound",
                        lambda ctx, kind, m=None: SurdExpr(5, 0, ctx.delta))
    for d in (2, 3, 5, 10, 19, 94, 97):
        for kind, m in (("hk10", None), ("n", 2), ("n2", None)):
            want = _full_box_report(d, kind, m)
            rep = verify_norm_bound(d, kind, m)
            assert want.violations and not rep.ok, (d, kind, m)
            assert rep.violations == want.violations, (d, kind, m)
            assert rep.candidates_checked == want.candidates_checked, (d, kind, m)


def test_verify_bound_strictness_at_an_integer(monkeypatch):
    # A norm equal to an integer bound violates the strict kinds and not 'ds'.
    def patch(x):
        monkeypatch.setattr(theorems, "norm_bound",
                            lambda ctx, kind, m=None: SurdExpr(x, 0, ctx.delta))

    patch(27)
    rep = verify_norm_bound(13, "hk10")
    assert (rep.candidates_checked, rep.max_norm_seen) == (12, 27)
    assert [alpha.norm() for alpha in rep.violations] == [27, 27]
    patch(3)
    rep = verify_norm_bound(13, "ds")
    assert rep.ok and rep.max_norm_seen == 3 == make_field(13).c_d


def test_norm_bound_verification_has_no_cliff(monkeypatch):
    # Most of the m = 12 box has more than 12 restricted partitions; the
    # staircase stops each row at the first such candidate (53,640 counts
    # over the whole box, 3,670 on the staircase's half of it).
    calls = 0
    count = PartitionCounter.count

    def counting(self, alpha):
        nonlocal calls
        calls += 1
        return count(self, alpha)

    monkeypatch.setattr(PartitionCounter, "count", counting)
    assert verify_norm_bound(94, "n", 12).ok
    assert calls < 10_000


def test_range_witnesses():
    b, ws = partition_range_witnesses(2)
    assert b == 2
    assert sorted(ws) == [1, 2, 3]
    assert ws[3] == QuadInt(4, 2, make_field(2))
    b5, ws5 = partition_range_witnesses(5)
    assert b5 == 1 and sorted(ws5) == [1, 2]
    for d in (2, 5, 19, 31):
        _, wsd = partition_range_witnesses(d)
        seq = indec_seq(d)
        for m, w in wsd.items():
            assert pk(seq.balanced(w), cap=m + 1) == CountResult.exactly(m)


def test_value_attained_examples():
    assert value_attained(5, 3) == (False, None)
    ok, w = value_attained(2, 4)
    assert ok and pk(w, cap=5) == CountResult.exactly(4)
    assert not value_attained(2, 5)[0]
    assert value_attained(7, 5)[0]
    with pytest.raises(BadIndex):
        value_attained(2, 0)


def test_lopsided_decision_has_no_cliff():
    # Its candidates are lopsided: scanning their supports row by row took
    # minutes, walking them over the fan takes a fraction of a second.
    assert value_attained(94, 35) == (False, None)


def test_large_field_decision_builds_only_the_rows_it_reads():
    # One totally positive unit period of D = 19335754 is 5,106 convergent
    # rows; a decision reads only the first few, and never eps_plus.
    d = 19335754
    indec_seq.cache_clear()
    value_attained(d, 11)
    tab = indec_seq(d).table
    assert len(tab._alpha) < 10
    assert "eps_plus" not in vars(tab)


def test_restricted_count_has_no_cliff(monkeypatch):
    # Nearly every total-positivity test of this run fails; on a chain of
    # indecomposables the counter stops at the first failure instead of
    # trying every later part (5.96 M sign_surd calls without the exit).
    calls = 0

    def counting(u, v, delta):
        nonlocal calls
        calls += 1
        return sign_surd(u, v, delta)

    monkeypatch.setattr(partcount, "sign_surd", counting)
    assert verify_norm_bound(9001, "hk10").ok
    assert calls < 500_000


def test_density_census_has_no_cliff(monkeypatch):
    # One pass per field with one full-count memo (369,599 sign_surd calls
    # with a pass and a fresh memo per k and per pk).
    calls = 0

    def counting(u, v, delta):
        nonlocal calls
        calls += 1
        return sign_surd(u, v, delta)

    # The patch is not seen by forked workers, so the census must run in-process.
    assert len(squarefree_range(300)) < 2 * FIELDS_PER_WORKER
    monkeypatch.setattr(partcount, "sign_surd", counting)
    density_report(6, 300)
    assert calls < 300_000


def _all_corners_window(seq, m):
    # Oracle: the componentwise maxima found by comparing every corner of the
    # period, without using that their embeddings are monotone in j.
    by_real = cmp_to_key(QuadInt.cmp_real)
    corners = [(m * seq.v(j) - 1) * seq.beta(j) + (m * seq.v(j + 1) - 1) * seq.beta(j + 1)
               for j in range(seq.s_prime)]
    big_real = max(corners, key=by_real)
    big_conj = max((c.conjugate() for c in corners), key=by_real)
    return seq.indec_window_leq(big_real, big_conj)


def test_shared_counter_parts_match_all_corners_oracle():
    for d in squarefree_range(300):
        seq = indec_seq(d)
        for m in (1, 2, 3, 6, 11, 20):
            assert _shared_indec_counter(seq, m, cap=m).parts == _all_corners_window(seq, m), (d, m)


def test_chain_exit_matches_full_scan_oracle():
    # list_partitions tries every part after a miss.  Restricted part lists
    # are chains and stop at the first miss; full supports are not chains
    # and must keep scanning, so both are checked against the oracle.
    ctx = make_field(2)
    assert not PartitionCounter(ctx, _support_tuples(QuadInt(4, 2, ctx)), None).chain
    for d in squarefree_range(60):
        seq = indec_seq(d)
        for m in (1, 2, 3):
            counter = _shared_indec_counter(seq, m, cap=m)
            assert counter.chain
            for _, _, _, alpha in low_count_candidates(seq, m):
                ways = list_partitions(alpha, indec_only=True, limit=m + 1)
                want = min(len(ways), m + 1)
                assert counter.count(alpha) == want, (d, m, alpha)
                assert PartitionCounter(seq.ctx, indec_support(alpha), None).chain
                if m == 1:
                    want = min(len(list_partitions(alpha, limit=9)), 9)
                    assert pk(alpha, cap=8).value == want, (d, alpha)


def test_value_attained_witness_is_unit_invariant():
    # Shifting the fundamental domain by one unit period must not change
    # decisions: translate the found witness and recount.
    for d, m in ((2, 3), (7, 5), (10, 6)):
        ok, w = value_attained(d, m)
        assert ok
        seq = indec_seq(d)
        shifted = w * seq.table.eps_plus
        assert pk(seq.balanced(shifted), cap=m + 1) == CountResult.exactly(m)
        assert pk(seq.balanced(w.conjugate()), cap=m + 1) == CountResult.exactly(m)


def test_scan_examples_small():
    assert scan_missing_value(3, 12) == [5]
    assert scan_missing_value(1, 30) == []
    assert scan_missing_six_fast(17) == [5, 7, 15, 17]


def test_scan_keeps_only_a_bounded_field_cache():
    scan_missing_value(11, 300)
    info = indec_seq.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    cached = set()
    for name, mod in list(sys.modules.items()):
        if name != "quadpart" and not name.startswith("quadpart."):
            continue
        for obj in vars(mod).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            cached |= {id(f) for f in (obj, *members) if hasattr(f, "cache_info")}
    assert cached == {id(indec_seq)}


def test_one_cf_expansion_per_field(monkeypatch):
    expanded = []
    expand = cfrac.cf_expand

    def counting(ctx):
        expanded.append(ctx.D)
        return expand(ctx)

    for mod in (cfrac, indec):
        monkeypatch.setattr(mod, "cf_expand", counting)
    indec_seq.cache_clear()
    d = 31
    exists_six_partitions(d)
    six_or_nine_witness(d)
    value_attained(d, 6)
    assert expanded == [d]


def test_fast_six_matches_decision_procedure():
    for x in (17, 30):
        assert scan_missing_six_fast(x) == scan_missing_value(6, x)


def test_density_report_smoke():
    rep = density_report(4, 30)
    assert rep.members == [5]
    assert rep.missing[5] == 3
    assert rep.hypothesis_holds is False
    assert rep.rhs > 0
    with pytest.raises(BadIndex):
        density_report(3, 30)
    j = rep.to_json()
    assert j["count"] == 1 and j["schema"] == 1


def test_density_membership_is_set_union_of_scans():
    x = 30
    rep = density_report(6, x)
    union = set()
    for k in range(1, 7):
        union.update(scan_missing_value(k, x))
    assert set(rep.members) == union


def _fresh_low_counts(seq, m):
    # Oracle: the whole m-box walk with a fresh counter for every full count
    # and no restricted screen (a candidate it would cut has more than m
    # partitions), as (j, e, f, k, alpha).
    out = []
    for j in range(seq.s_prime):
        for e in range(1, m * seq.v(j)):
            if partition(e) > m:
                break
            for f in range(0, m * seq.v(j + 1)):
                if partition(e) * partition(f) > m:
                    break
                alpha = e * seq.beta(j) + f * seq.beta(j + 1)
                r = pk(alpha, cap=m)
                if r.exact:
                    out.append((j, e, f, r.value, alpha))
    return out


def test_shared_memo_walk_matches_fresh_counts():
    # The walk covers the rows j <= s'//2 of the box; that half holds every
    # count of the box, and the decision still returns the box's first witness.
    for d in squarefree_range(100):
        seq = indec_seq(d)
        for m in (1, 2, 4, 6, 11):
            full = _fresh_low_counts(seq, m)
            want = [t for t in full if t[0] <= seq.s_prime // 2]
            assert list(_low_counts(seq, m)) == want, (d, m)
            assert {t[3] for t in want} == {t[3] for t in full}, (d, m)
            witness = next((alpha for *_, k, alpha in full if k == m), None)
            assert value_attained(d, m) == (witness is not None, witness), (d, m)


def _twin(s, j, e, f):
    return (s - 1 - j, f, e) if f else ((s - j) % s, e, 0)


def test_mirror_twins_agree():
    # The mirror map of _staircase's docstring, checked on the whole box: it
    # is an involution of the box, a twin is eps_plus times the conjugate (1
    # times it for the rational integers e*beta_0), and twins have equal
    # capped full counts, restricted counts and norms.
    cases = [(d, m) for d in squarefree_range(100) for m in (1, 2, 3)] + [(9001, 1)]
    for d, m in cases:
        seq = indec_seq(d)
        s, eps = seq.s_prime, seq.table.eps_plus
        box = {(j, e, f): alpha for j, e, f, alpha in low_count_candidates(seq, m)}
        counter = _shared_indec_counter(seq, m, cap=m)
        for (j, e, f), alpha in box.items():
            twin = _twin(s, j, e, f)
            other = box[twin]
            assert _twin(s, *twin) == (j, e, f), (d, m, j, e, f)
            unit = 1 if j == f == 0 else eps
            assert other == unit * alpha.conjugate(), (d, m, j, e, f)
            assert other.norm() == alpha.norm(), (d, m, j, e, f)
            assert counter.count(other) == counter.count(alpha), (d, m, j, e, f)
            assert pk(other, cap=m) == pk(alpha, cap=m), (d, m, j, e, f)


def test_decisions_build_no_restricted_counter(monkeypatch):
    # The staircase ends each row at its first full count above m, so the
    # decision and the census need no restricted counter; only verify does.
    def refuse(*args, **kwargs):
        raise AssertionError("decision built a restricted counter")

    assert len(squarefree_range(60)) < 2 * FIELDS_PER_WORKER  # in-process census
    with monkeypatch.context() as patch:
        patch.setattr(theorems, "_shared_indec_counter", refuse)
        assert value_attained(94, 40) == (False, None)
        rep = density_report(6, 60)
    assert rep.members == [2, 3, 5, 7, 15, 17, 21, 23, 34, 35, 37, 43, 47]
    assert rep.missing == {2: 5, 3: 5, 5: 3, 7: 6, 15: 6, 17: 6, 21: 6, 23: 6,
                           34: 6, 35: 6, 37: 6, 43: 6, 47: 6}
    assert verify_norm_bound(94, "hk10").ok


def _checked_staircase(seq, m, seen):
    # The decisions' walk, with each support walk started at the candidate's
    # row checked against the walk started at max_j_real_leq; seen collects
    # (alpha, support) for the lattice oracle.
    memo = {}

    def count(j, alpha):
        got = _support_tuples(alpha, j=j)
        assert got == _support_tuples(alpha), (seq.ctx.D, m, j, alpha)
        seen.append((alpha, got))
        return PartitionCounter(seq.ctx, got, m, memo).count(alpha)

    return _staircase(seq, m, count)


def test_seeded_support_walk_matches_unseeded_walk():
    # Every candidate the decisions count on every squarefree D <= 300 at four
    # m, and on the rows j < 300 of D = 1399721 (s' = 10,933).  A sample also
    # meets the structure-blind lattice_leq oracle, which scans about |v|
    # lattice rows, so the sample keeps the candidates with |v| < 2000.
    seen = []
    for d in squarefree_range(300):
        for m in (1, 2, 6, 11):
            for _ in _checked_staircase(indec_seq(d), m, seen):
                pass
    for j, *_ in _checked_staircase(indec_seq(1399721), 11, seen):
        if j >= 300:
            break
    sample = [(a, got) for a, got in seen[::20] if abs(a.embedding_pair()[1]) < 2000]
    assert len(sample) > 1000
    for alpha, got in sample:
        u, v = alpha.embedding_pair()
        assert got == _desc_real(alpha.ctx, lattice_leq(alpha.ctx, (u, v), (u, -v))), alpha


def test_decisions_search_for_no_window(monkeypatch):
    # Each count's support walk starts at its candidate's own row, so no
    # decision gallops to the last indecomposable below a candidate.
    def refuse(self, x):
        raise AssertionError("a decision called max_j_real_leq")

    monkeypatch.setattr(indec.IndecSeq, "max_j_real_leq", refuse)
    assert value_attained(109, 20) == (False, None)
    assert value_attained(139, 20) == (True, QuadInt(80890, 6861, make_field(139)))
    assert _first_missing(94, 8) is None


def test_single_pass_density_matches_per_k_decisions():
    x = 60
    for m in (4, 6, 8):
        missing = {}
        for d in squarefree_range(x):
            k = next((k for k in range(1, m + 1) if not value_attained(d, k)[0]), None)
            if k is not None:
                missing[d] = k
        rep = density_report(m, x)
        assert rep.members == sorted(missing), m
        assert rep.missing == missing, m
