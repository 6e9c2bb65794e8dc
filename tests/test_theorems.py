import sys
from functools import cmp_to_key

import pytest

from quadpart import partcount
from quadpart.qfield import BadIndex, QuadInt, make_field, sign_surd, _is_squarefree
from quadpart.indec import indec_seq
from quadpart.partcount import (
    CountResult,
    PartitionCounter,
    gen_two_indec_partitions,
    indec_support,
    list_partitions,
    partition_count_int,
    pk,
    pk_indec,
    _support_tuples,
)
from quadpart.theorems import (
    FIELDS_PER_WORKER,
    BoundReport,
    density_report,
    first_n_squarefree,
    low_count_candidates,
    norm_bound,
    partition_range_witnesses,
    scan_missing_six_fast,
    scan_missing_value,
    squarefree_range,
    value_attained,
    verify_norm_bound,
    _low_counts,
    _shared_indec_counter,
)


def test_squarefree_range():
    assert squarefree_range(12) == [2, 3, 5, 6, 7, 10, 11]
    assert squarefree_range(1) == []
    assert first_n_squarefree(5) == [2, 3, 5, 6, 7]
    assert len(first_n_squarefree(50)) == 50


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
    assert rep.bound.exceeds_int(rep.max_norm_seen)
    assert rep.to_json()["ok"] is True


def _full_box_report(d, kind, m=None):
    # Oracle: every candidate of the box, counted by a fresh capped counter,
    # with no early exit.
    seq = indec_seq(d)
    mm = {"hk10": 1, "n": m, "n2": 2}[kind]
    bound = norm_bound(seq.ctx, kind, m)
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
                       [alpha for alpha in checked if not bound.exceeds_int(alpha.norm())])


def test_staircase_verify_matches_full_box_oracle():
    for d in squarefree_range(100):
        for kind, m in (("hk10", None), ("n2", None), ("n", 1), ("n", 2), ("n", 3), ("n", 4)):
            want = _full_box_report(d, kind, m).to_json()
            assert verify_norm_bound(d, kind, m).to_json() == want, (d, kind, m)


def test_norm_bound_verification_has_no_cliff(monkeypatch):
    # Most of the m = 12 box has more than 12 restricted partitions; the
    # staircase stops each row at the first such candidate (53,640 counts
    # over the whole box, 4,815 on the staircase).
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
    # One pass per field with one restricted counter and one full-count memo
    # (369,599 sign_surd calls with a pass and a fresh memo per k and per pk).
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
    return [(b.a, b.b) for _, b in reversed(seq.indec_window_leq(big_real, big_conj))]


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
        shifted = w * seq.units.eps_plus
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
    # Oracle: the m-box walk with a fresh counter for every full count and no
    # restricted screen (a candidate it would cut has more than m partitions).
    out = []
    for j in range(seq.s_prime):
        for e in range(1, m * seq.v(j)):
            if partition_count_int(e) > m:
                break
            for f in range(0, m * seq.v(j + 1)):
                if partition_count_int(e) * partition_count_int(f) > m:
                    break
                alpha = e * seq.beta(j) + f * seq.beta(j + 1)
                r = pk(alpha, cap=m)
                if r.exact:
                    out.append((r.value, alpha))
    return out


def test_shared_memo_walk_matches_fresh_counts():
    for d in squarefree_range(100):
        seq = indec_seq(d)
        for m in (1, 2, 4, 6, 11):
            want = _fresh_low_counts(seq, m)
            assert list(_low_counts(seq, m)) == want, (d, m)
            witness = next((alpha for k, alpha in want if k == m), None)
            assert value_attained(d, m) == (witness is not None, witness), (d, m)


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
