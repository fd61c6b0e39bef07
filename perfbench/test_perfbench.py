"""The benchmark's own tests: python3 -m pytest perfbench -q"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

# sha256 of every request of Cli(seed=7): kind, argv, stdin, exit code, stdout
CLI_SEED7_SHA256 = "1c12381e905a3ae5de523fbe987002723419161111e28c7845d76db4398cb0de"


@pytest.fixture(scope="module")
def hk():
    return run.load_hooktab()


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tr.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wls.WORKLOADS)


def _cli_bytes(wl):
    return "\n".join(repr(tuple(req)) for req in wl.items).encode()


def test_cli_expectations_are_byte_stable(hk):
    first = _cli_bytes(wls.Cli(hk, 7, 1))
    assert first == _cli_bytes(wls.Cli(hk, 7, 1))
    assert hashlib.sha256(first).hexdigest() == CLI_SEED7_SHA256
    assert first != _cli_bytes(wls.Cli(hk, 8, 1))


def test_cli_requests_pass_and_corrupted_expectation_fails(hk):
    wl = wls.Cli(hk, 7, 1)
    wl.items = wl.items[:40]
    assert {req.code for req in wl.items} == {0, 1}  # valid and invalid requests
    p = run.check_pass(wl, run.run_pass(wl))
    assert not any(p.verdict.failed)
    assert run.tally([p])["correct"]

    bad = wl.items[5]
    wl.items[5] = bad._replace(stdout=bad.stdout + "x")
    wl.items[9] = wl.items[9]._replace(code=wl.items[9].code + 1)
    p = run.check_pass(wl, run.run_pass(wl))
    assert [i for i, f in enumerate(p.verdict.failed) if f] == [5, 9]
    result = run.tally([p])
    assert not result["correct"] and result["failed"] == 2


def test_theorem_total_miss_is_a_failure(hk):
    wl = wls.Theorems(hk, 0, 1)
    reports = [
        hk.VerificationReport(check, {}, 1, []) for check, _, _ in wl.items
    ]
    verdict = wl.check(wl.items, reports)
    assert any("commute_lemma" in msg for msg in verdict.problems)
    # one instance per GG-jdt shape is the right total; the others are not
    for (check, _, _), failed in zip(wl.items, verdict.failed):
        assert failed == (check != "ggjdt_bijection")


def test_switching_disagreement_is_a_failure(hk):
    wl = wls.Switching(hk, 0, 1)
    T, U = hk.enum_sorted_strict((2, 1), (1,), 3)[:2]
    item = (0, T, (1,))
    good = wl.run_item(item)
    assert wl.check([item], [good]).failed == [False]
    nf, randoms, sh, gg, gg_nf = good
    wrong = (nf, [hk.fully_switch(U)], sh, gg, gg_nf)
    verdict = wl.check([item], [wrong])
    assert verdict.failed == [True]
    assert verdict.problems  # and the input count is not 5,973


def test_digest_mismatch_is_a_problem(hk):
    wl = wls.Identities(hk, 0, 1)
    items = [("threeway", ())]
    verdict = wl.check(items, [wl.run_item(items[0])])
    assert verdict.failed == [False]
    assert verdict.problems  # one item cannot match the full-pass digest


def test_tracer_spans_and_counts(hk):
    T = hk.parse_hvt("1|1|1|3^5 / 2|2+4 / 3|5+7^6 / 4")
    t = tr.Tracer(hk)
    with t:
        result = hk.uncrowd_canonical(T, "LA")
    assert t.counts["uncrowding.steps"] == len(result.records) > 0
    assert t.counts["uncrowding.bumps"] >= len(result.records)
    assert t.calls["uncrowding.uncrowd_canonical"] == 1
    names = [t.names[i] for i in t.span_name]
    assert names[0] == "uncrowding.uncrowd_canonical"
    assert t.span_parent[0] == -1
    assert all(p < i for i, p in enumerate(t.span_parent))
    assert all(s <= e for s, e in zip(t.span_start, t.span_end))
    top = t.inclusive["uncrowding.uncrowd_canonical"]
    assert 0 < t.self_time["uncrowding.uncrowd_canonical"] < top
    assert t.inclusive["uncrowding.arm_bump"] < top


def test_derived_switch_counts(hk):
    T = hk.parse_mixed(".|a2|a2|a1|b5|b1 / a2|a1|b6|b2|b1 / b8|b6|b5|b2")
    t = tr.Tracer(hk)
    with t:
        nf = hk.fully_switch(T)
        hk.gg_jdt(hk.enum_sorted_strict((2, 1), (1,), 3)[0])
    derived, problems = tr.derive_counts(hk, t)
    assert problems == []
    cur, applied = T, 0
    while moves := hk.available_switches(cur):
        cur, applied = moves[0][1], applied + 1
    assert cur == nf
    assert derived["switching.switches_applied"] == applied > 0
    assert 0 < derived["switching.legal_ratio"] <= 1
    metrics = tr.layer_metrics(t, derived, {})
    assert list(metrics) == [name for name, _ in tr.PER_LAYER]
    assert metrics["tableaux.classify_mixed.calls"] > applied


def test_tail_percentile_keeps_ten_samples_beyond():
    # three passes of each workload's items
    assert run.tail_percentile(3 * 22) == 75.0  # identities
    assert run.tail_percentile(3 * 278) == 95.0  # theorems
    assert run.tail_percentile(3 * 1000) == 99.0  # cli
    assert run.tail_percentile(3 * 5973) == 99.9  # switching
    assert run.percentile([1, 2, 3, 4], 50.0) == 2
