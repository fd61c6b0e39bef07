import gc
import hashlib
from itertools import product
from unittest import mock

import pytest

import paper_cases as pc
from oracles import brute_biflagged, brute_exquisite, brute_sorted_strict
from oracles import ssyt_count as ssyt_count_oracle
import hooktab.enumeration as en
import hooktab.uncrowding as uncrowding
from hooktab.enumeration import (
    CHECK_IDS,
    EnumBounds,
    enum_biflagged,
    enum_exquisite,
    enum_hvt,
    enum_mixed,
    enum_sorted_strict,
    enum_ssyt,
    phi,
    verify,
)
from hooktab.shapes import (
    conjugate,
    partitions_up_to,
    skew_cells,
    skew_shapes,
    subpartitions,
)
from hooktab.polynomials import Monomial
from hooktab.switching import InternalError, gg_jdt, is_biflagged
from hooktab.tableaux import (
    MixedTableau,
    alpha,
    beta,
    hvt_violations,
    is_exquisite,
    is_valid_hvt,
    weight_hvt,
    weight_mixed,
)
from hooktab.textform import parse_hvt, serialize_hvt, serialize_mixed


def test_enum_ssyt_counts():
    assert len(enum_ssyt((1,), 3)) == 3
    assert len(enum_ssyt((2, 1), 3)) == 8
    assert len(enum_ssyt((2, 2), 2)) == 1
    assert enum_ssyt((1, 1, 1), 2) == []


def test_enum_ssyt_matches_hook_content_formula():
    for mu in partitions_up_to(4):
        if not mu:
            continue
        for n in (1, 2, 3):
            assert len(enum_ssyt(mu, n)) == ssyt_count_oracle(mu, n)


def brute_single_cell_hvts(n, emax):
    """Enumerate single-cell tableaux by filtering raw candidate fillings."""
    from hooktab.tableaux import HookCell, HookValuedTableau

    out = set()
    values = range(1, n + 1)
    for h in values:
        for n_arms in range(emax + 1):
            for n_legs in range(emax + 1 - n_arms):
                for arms in product(values, repeat=n_arms):
                    for legs in product(values, repeat=n_legs):
                        T = HookValuedTableau(((HookCell(h, arms, legs),),))
                        if is_valid_hvt(T):
                            out.add(T)
    return out


def test_enum_hvt_single_cell_bruteforce():
    # (1), n=1, E=1: the bare 1 and the hook 1 with arm 1
    got = enum_hvt((1,), EnumBounds(1, 1))
    assert len(got) == 2
    assert got == sorted(brute_single_cell_hvts(1, 1), key=serialize_hvt)

    assert len(enum_hvt((1,), EnumBounds(2, 0))) == 2
    got = enum_hvt((1,), EnumBounds(3, 2))
    assert set(got) == brute_single_cell_hvts(3, 2)


def test_enum_hvt_is_valid_sorted_unique():
    for lam in ((2, 1), (2, 2), (1, 1, 1)):
        items = enum_hvt(lam, EnumBounds(3, 2))
        keys = [serialize_hvt(T) for T in items]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for T in items:
            assert hvt_violations(T) == []
            assert T.shape == lam
            assert T.arm_excess + T.leg_excess <= 2
            assert all(v <= 3 for v in T.entry_multiset())


def test_enum_hvt_weight_degrees():
    for T in enum_hvt((2, 1), EnumBounds(3, 2)):
        w = weight_hvt(T)
        assert w.x_degree == T.num_cells + T.arm_excess + T.leg_excess
        assert w.alpha_degree == T.arm_excess
        assert w.beta_degree == T.leg_excess


def test_enum_exquisite_golden():
    got = enum_exquisite((3, 3, 1), (2, 1))
    assert sorted(serialize_mixed(t) for t in got) == sorted(pc.EXQ_331_21)
    assert len(enum_exquisite((2, 1), (2, 1))) == 1  # the empty filling
    assert enum_exquisite((1,), ()) == []


def test_enum_biflagged_golden():
    got = enum_biflagged((3, 3, 1), (2, 1))
    assert sorted(serialize_mixed(t) for t in got) == sorted(pc.BFT_331_21)
    assert enum_biflagged((1,), ()) == []


def test_enum_families_match_predicates():
    for outer, inner in skew_shapes(5):
        exq = enum_exquisite(outer, inner)
        bft = enum_biflagged(outer, inner)
        assert all(is_exquisite(t) for t in exq)
        assert all(is_biflagged(t) for t in bft)
        assert len(exq) == len(bft)


def test_enum_sorted_strict_small():
    # single skew cell at (1,2): any alpha index works, betas are unsorted...
    items = enum_sorted_strict((2,), (1,), 3)
    assert len(items) == 6  # 3 alphas + 3 betas, each trivially sorted
    for t in items:
        from hooktab.tableaux import classify_mixed

        flags = classify_mixed(t)
        assert flags.alpha_column_strict and flags.beta_row_strict
        assert flags.sorted_alpha_beta


def test_mixed_enumerators_match_product_filters():
    # generation cell by cell with neighbour checks gives the same lists, in
    # the same order, as filtering every product of candidate entries
    counts = [0, 0, 0]
    for outer, inner in skew_shapes(8):
        exq = enum_exquisite(outer, inner)
        assert exq == brute_exquisite(outer, inner), (outer, inner)
        bft = enum_biflagged(outer, inner)
        assert bft == brute_biflagged(outer, inner), (outer, inner)
        counts[0] += len(exq)
        counts[1] += len(bft)
    for outer, inner in skew_shapes(5):
        inputs = enum_sorted_strict(outer, inner, 3)
        assert inputs == brute_sorted_strict(outer, inner, 3), (outer, inner)
        counts[2] += len(inputs)
    assert counts == [3384, 3384, 5973]
    pool = [alpha(1), alpha(2), beta(-1), beta(0), beta(2)]
    for outer, inner in skew_shapes(4):
        cells = sorted(skew_cells(outer, inner))
        expected = [
            MixedTableau(outer, inner, dict(zip(cells, combo)))
            for combo in product(pool, repeat=len(cells))
        ]
        assert enum_mixed(outer, inner, range(-1, 3), (-1, 0, 2)) == expected


def test_enum_mixed_counts():
    # one free cell, alphabet of 3 alphas and 6 betas
    items = enum_mixed((2,), (1,), [1, 2, 3], range(-2, 4))
    assert len(items) == 9


def test_phi_examples():
    T = parse_hvt(pc.UNCROWD_INPUT)
    P, E = phi(T)
    assert serialize_hvt(P) == pc.UNCROWD_P
    from hooktab.textform import parse_mixed

    assert E == gg_jdt(parse_mixed(pc.UNCROWD_Q))
    assert is_exquisite(E)
    assert weight_hvt(T) == weight_hvt(P) * weight_mixed(E)

    zero = parse_hvt(pc.UNCROWD_P)
    P, E = phi(zero)
    assert P == zero and E.num_cells == 0

    T1 = parse_hvt(pc.T1)
    P, E = phi(T1)
    w = pc.T1_WEIGHT
    from hooktab.polynomials import Monomial

    assert weight_hvt(P) * weight_mixed(E) == Monomial(
        x=w["x"], a=w["a"], b=w["b"]
    )


def test_verify_smoke():
    rep = verify("shuffle_theorem", lam=(2, 1), bounds=EnumBounds(3, 2))
    assert rep.passed and rep.instances_checked == 224
    rep = verify("ggjdt_bijection", outer=(3, 3, 1), inner=(2, 1))
    assert rep.passed and rep.instances_checked == 1
    # max_outer 0 leaves the one empty skew shape
    rep = verify("ggjdt_bijection", max_outer=0)
    assert rep.passed and rep.instances_checked == 1
    with pytest.raises(ValueError):
        verify("nonsense")


def test_enumerators_leave_no_reference_cycles():
    calls = [
        lambda: enum_hvt((3, 1), EnumBounds(3, 2)),
        lambda: enum_sorted_strict((3, 2), (1,), 3),
        lambda: verify("phi_bijection", (3, 1)),
        lambda: verify("ggjdt_bijection", max_outer=4),
    ]
    for call in calls:
        gc.collect()
        # with collection off, a cycle the call leaves waits for gc.collect
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_verify_negative_control_arm_only():
    # the displayed (P1, Q1) pair is not the arm-only image of any tableau
    from hooktab.tableaux import MixedTableau, alpha
    from hooktab.uncrowding import arm_uncrowd

    P1 = parse_hvt(pc.NEG_P1)
    Q1 = MixedTableau((2, 1), pc.NEG_Q1_INNER, {(1, 2): alpha(1)})
    target = (serialize_hvt(P1), serialize_mixed(Q1))
    for T in enum_hvt((1, 1), EnumBounds(3, 3)):
        cur = T
        entries = {}
        while True:
            cur, rec = arm_uncrowd(cur)
            if rec is None:
                break
            entries[rec.created] = alpha(rec.origin[1])
        if cur.shape != (2, 1):
            continue
        Q = MixedTableau(cur.shape, (1, 1), entries)
        assert (serialize_hvt(cur), serialize_mixed(Q)) != target


def test_verify_report_json_shape():
    rep = verify("commute_lemma", lam=(1,), bounds=EnumBounds(2, 1))
    text = rep.to_json()
    assert '"schema": 1' in text
    assert "elapsed" not in text


def _sha256(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


REPORT_SHA256 = {
    "commute_lemma": "cf6988869ae0a5169597b40b7fdc97590b24332bad4c5525f599decea9c5b49d",
    "shuffle_theorem": "1200c2c85781b1e21596149ae220a9f31cd906c7e3ff6644268d7cf0936ca190",
    "uncrowd_image": "724b8210a594cc2677f99dcbf6bccd6b4c1a8b8e05dcc69b063639da2b0d4fdd",
    "phi_bijection": "37ff5dd52cd2f96e459033b37b95c17afd965feebc17f97ef8f98956f2aa3d84",
    "ggjdt_bijection": "0b24955238f0c5a61ba4415acaac8f442050db374614ae03a5b988b1aafbcd3f",
}


def test_verify_jobs_deterministic():
    for check_id in CHECK_IDS:
        if check_id == "ggjdt_bijection":
            kwargs = {"max_outer": 4}
        else:
            kwargs = {"lam": (2, 1), "bounds": EnumBounds(3, 2)}
        reports = {
            verify(check_id, jobs=jobs, seed=jobs, **kwargs).to_json()
            for jobs in (1, 2, 4)
        }
        assert len(reports) == 1, check_id
        digest = hashlib.sha256(reports.pop().encode()).hexdigest()
        assert digest == REPORT_SHA256[check_id], check_id


def _first_phi_per_shape():
    real, first = en.phi, {}

    def fake(T):
        if T.shape not in first:
            first[T.shape] = real(T)
        return first[T.shape]

    return fake


def test_verify_fault_reports_pinned():
    # each injected fault must fail its check with exactly these report bytes
    faults = [
        ("shuffle", lambda T: None, "shuffle_theorem", (3, 2), 448,
         "08afb303e828288ab40e245012ce2e3bc042828d94d3dc65b7b4f1f834d67f0d"),
        ("is_biflagged", lambda Q: False, "uncrowd_image", (3, 2), 448,
         "db244ed592a1b072268be294ad1527d9d9282f4ea2e2cc570ec30abe07e67e03"),
        ("phi", _first_phi_per_shape(), "phi_bijection", (3, 1), 165,
         "f4ea4e391f9346fb2ad448bcfc71a920f010e7ea0961f9179305d106f51503fe"),
        ("enum_exquisite", lambda outer, inner: [], "phi_bijection", (3, 1), 56,
         "618a91266f33f67cb161e2dbf61ae98bee5b4eafa7b910b95a4ff69e44405aef"),
        ("leg_bump", en.arm_bump, "commute_lemma", (3, 2), 60,
         "98fa30e806008a4047e9732674cb2e5e2f5bfdb8a2001132656cf1388cff459b"),
        ("is_exquisite", lambda T: len(T.entries) % 2 == 0, "ggjdt_bijection",
         None, 26,
         "bc39ca30c1460fd76257e57fbac41ac6938405212e1c29dd341c8dcef0f73a10"),
        ("weight_mixed", lambda Q: Monomial(), "uncrowd_image", (3, 2), 216,
         "cc0af70f3e5b7db3a7275f732cc27c7b1341caae9b4d2740d4398e1ecf6db407"),
    ]
    for name, fake, check_id, bounds, n_failures, digest in faults:
        with mock.patch.object(en, name, fake):
            if bounds is None:
                report = verify(check_id, max_outer=4)
            else:
                report = verify(check_id, (2, 1), EnumBounds(*bounds))
        assert not report.passed, name
        assert len(report.failures) == n_failures, name
        assert _sha256(report) == digest, name


def test_image_checks_refuse_an_insertion_with_excess():
    # the image checks test no excess themselves: canonical uncrowding, which
    # phi runs too, must refuse to return an insertion tableau that has some
    for check_id in ("uncrowd_image", "phi_bijection"):
        with mock.patch.object(uncrowding, "_canonical_word", lambda T, order: ""):
            with pytest.raises(InternalError, match="left excess"):
                verify(check_id, (2, 1), EnumBounds(3, 2))


def test_verify_accepts_plain_tuple_bounds():
    for check_id in ("commute_lemma", "phi_bijection"):
        plain = verify(check_id, (2, 1), (2, 2))
        named = verify(check_id, (2, 1), EnumBounds(2, 2))
        assert plain.instances_checked > 0
        assert plain.to_json() == named.to_json()


def test_verify_refuses_negative_bounds():
    cases = [
        ("commute_lemma", {"bounds": EnumBounds(2, -1)}, "excess", -1),
        ("phi_bijection", {"bounds": EnumBounds(2, -1)}, "excess", -1),
        ("shuffle_theorem", {"lam": (1,), "bounds": (-2, 1)}, "n", -2),
        ("ggjdt_bijection", {"max_outer": -3}, "max_outer", -3),
    ]
    boom = mock.Mock(side_effect=AssertionError("work done before the refusal"))
    for check_id, kwargs, name, value in cases:
        message = f"^{name} must be nonnegative, got {value}$"
        with mock.patch.multiple(en, enum_hvt=boom, skew_shapes=boom):
            with pytest.raises(ValueError, match=message):
                verify(check_id, **kwargs)


def test_phi_injective_and_counts():
    for lam in ((1,), (2,), (1, 1)):
        tableaux = enum_hvt(lam, EnumBounds(3, 2))
        images = {
            (serialize_hvt(P), serialize_mixed(E))
            for P, E in (phi(T) for T in tableaux)
        }
        assert len(images) == len(tableaux)


def test_exq_count_matches_bft_per_shape_golden():
    # |EXQ| = |BFT| = 4 on the worked shape
    assert len(enum_exquisite((3, 3, 1), (2, 1))) == 4
    assert len(enum_biflagged((3, 3, 1), (2, 1))) == 4


def test_subpartition_closure_of_enum():
    # every mu containing lambda with small excess is hit by some recording
    lam = (1,)
    seen = set()
    for T in enum_hvt(lam, EnumBounds(3, 2)):
        P, E = phi(T)
        seen.add(P.shape)
    from hooktab.shapes import partitions_containing

    expected = {
        mu for mu in partitions_containing(lam, 2) if len(mu) <= 3
    }
    assert seen == expected
