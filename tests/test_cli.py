import io
import json

import paper_cases as pc
from hooktab import uncrowding
from hooktab.cli import run


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_valid_hvt():
    code, out, _ = invoke(["validate"], pc.T1)
    assert code == 0
    assert out.startswith("valid")


def test_validate_invalid_hvt():
    code, out, _ = invoke(["validate"], pc.T2)
    assert code == 1
    assert "RowViolation" in out and "ColumnViolation" in out
    # uncrowd reads its input through the same check
    assert invoke(["uncrowd", "--word", "A"], pc.T2)[:2] == (1, out)


def test_validate_mixed():
    code, out, _ = invoke(["validate", "--family", "mixed"], pc.UNCROWD_Q)
    assert code == 0
    assert "flagged_mixed: True" in out


def test_validate_entry_beyond_index_limit():
    # weights hold dense exponent vectors, so a huge entry is refused
    code, out, err = invoke(["validate"], "1|1000000000")
    assert (code, out) == (1, "")
    assert err == "error: variable index 1000000000 above the limit 65536\n"


def test_validate_syntax_error():
    code, _, err = invoke(["validate"], "1|0")
    assert code == 1
    assert "expected" in err


def test_usage_error_exit_code():
    code, out, err = invoke(["uncrowd"])  # missing --word
    assert code == 2 and out == ""
    assert "the following arguments are required: --word" in err
    code, out, err = invoke(["--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: hooktab")
    code, _, _ = invoke(["frobnicate"])
    assert code == 2
    code, out, err = invoke(["enum", "--family", "hvt"])
    assert code == 2 and out == ""
    assert err == "error: enum --family hvt needs --lambda\n"
    code, out, err = invoke(["enum", "--family", "exq"])
    assert code == 2 and out == ""
    assert err == "error: enum --family exq needs --outer\n"


def test_negative_bounds_are_usage_errors():
    for argv in (
        ["identity", "--lambda", "1", "--excess", "-1"],
        ["identity", "--lambda", "1", "--n", "-1"],
        ["verify", "--check", "phi_bijection", "--excess", "-1"],
        ["verify", "--check", "ggjdt_bijection", "--max-outer", "-1"],
        ["enum", "--family", "hvt", "--lambda", "1", "--excess", "-1"],
    ):
        code, out, err = invoke(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage: hooktab "), argv
        assert err.endswith(": must be nonnegative, got -1\n"), argv


def test_non_partition_arguments_are_usage_errors():
    for argv in (
        ["enum", "--family", "hvt", "--lambda", "2,3"],
        ["verify", "--check", "commute_lemma", "--lambda", "1,2"],
        ["enum", "--family", "exq", "--outer", "1,2"],
        ["identity", "--lambda", "0"],
        ["identity", "--lambda", "a"],
    ):
        code, out, err = invoke(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage: hooktab "), argv
        assert err.endswith(f"argument {argv[-2]}: not a partition: '{argv[-1]}'\n")
    # containment relates two arguments, so it stays a runtime error
    code, out, err = invoke(["enum", "--family", "exq", "--outer", "2", "--inner", "3"])
    assert (code, out) == (1, "")
    assert err == "error: inner (3,) not contained in outer (2,)\n"


def test_bad_word_is_usage_error():
    # refused before stdin is read, so the invalid tableau T2 on stdin
    # prints no violations
    for word in ("XY", "ALX", "Linf", "lainf", "A L"):
        code, out, err = invoke(["uncrowd", "--word", word], pc.T2)
        assert code == 2 and out == "", word
        assert err.startswith("usage: hooktab uncrowd "), word
        assert err.endswith(f"argument --word: not a word over A/L, LAinf or ALinf: '{word}'\n")
    for word in ("", "A", "LLAA", "LAinf", "ALinf"):
        assert invoke(["uncrowd", "--word", word], pc.UNCROWD_INPUT)[0] == 0, word


def test_uncrowd_trace_golden():
    code, out, _ = invoke(
        ["uncrowd", "--word", "LLAA", "--trace"], pc.UNCROWD_INPUT
    )
    assert code == 0
    expected = [pc.UNCROWD_INPUT]
    for letter, tab in zip("AALL", pc.UNCROWD_TRACE):
        expected.extend([f"--{letter}-->", tab])
    expected.append(f"P: {pc.UNCROWD_P}")
    expected.append(f"Q: {pc.UNCROWD_Q}")
    assert out.splitlines() == expected


def test_uncrowd_canonical_words():
    code, out, _ = invoke(["uncrowd", "--word", "LAinf"], pc.UNCROWD_INPUT)
    assert code == 0
    assert out.splitlines() == [f"P: {pc.UNCROWD_P}", f"Q: {pc.UNCROWD_Q}"]
    code, out2, _ = invoke(["uncrowd", "--word", "LLAA"], pc.UNCROWD_INPUT)
    assert out2 == out
    code, out, _ = invoke(["uncrowd", "--word", "LAinf", "--trace"], pc.UNCROWD_INPUT)
    assert code == 0
    assert out == invoke(["uncrowd", "--word", "LLAA", "--trace"], pc.UNCROWD_INPUT)[1]


def test_uncrowd_canonical_tripwire(monkeypatch):
    # a canonical word one letter short leaves excess behind: the CLI must
    # report the library's tripwire, not print a P with arms or legs
    word = uncrowding._canonical_word
    monkeypatch.setattr(
        uncrowding, "_canonical_word", lambda T, order: word(T, order)[:-1]
    )
    code, out, err = invoke(["uncrowd", "--word", "LAinf"], pc.UNCROWD_INPUT)
    assert (code, out) == (3, "")
    message = "canonical uncrowding left excess in the insertion tableau"
    assert err == f"internal error: {message}\n"


def test_shuffle_and_switch_commands():
    code, out, _ = invoke(["shuffle"], pc.SWITCH_START)
    assert code == 0 and out.strip() == pc.SWITCH_END
    code, out, _ = invoke(["switch", "--all"], pc.SWITCH_START)
    assert code == 0 and out.strip() == pc.SWITCH_END
    code, out, _ = invoke(["switch", "--all", "--seed", "7"], pc.SWITCH_START)
    assert code == 0 and out.strip() == pc.SWITCH_END
    code, out, _ = invoke(["switch"], pc.SWITCH_START)
    assert code == 0 and out.strip() != pc.SWITCH_END  # a single switch


def test_ggjdt_command_trace():
    code, out, _ = invoke(["ggjdt", "--trace"], pc.GGJDT_INPUT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == pc.GGJDT_INPUT
    assert lines.count("--slide-->") == len(pc.GGJDT_TRACE)
    assert lines[-1] == f"E: {pc.GGJDT_RESULT}"
    assert lines[-2] == pc.GGJDT_RESULT


def test_enum_exq_golden():
    code, out, _ = invoke(
        ["enum", "--family", "exq", "--outer", "3,3,1", "--inner", "2,1"]
    )
    assert code == 0
    assert sorted(out.splitlines()) == sorted(pc.EXQ_331_21)
    assert len(out.splitlines()) == 4


def test_enum_hvt_and_ssyt():
    code, out, _ = invoke(
        ["enum", "--family", "ssyt", "--lambda", "2,1", "--n", "3"]
    )
    assert code == 0 and len(out.splitlines()) == 8
    code, out, _ = invoke(
        ["enum", "--family", "hvt", "--lambda", "1", "--n", "1", "--excess", "1"]
    )
    assert code == 0 and out.splitlines() == ["1", "1+1"]


def test_verify_command_json_and_exit():
    code, out, err = invoke(
        ["verify", "--check", "shuffle_theorem", "--lambda", "2,1",
         "--n", "3", "--excess", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["check_id"] == "shuffle_theorem"
    assert payload["failures"] == []
    assert payload["instances_checked"] == 224
    assert "elapsed" in err


def test_verify_refuses_unused_shape_arguments():
    # a shape argument the check would ignore must not reach the report
    cases = [
        (["ggjdt_bijection", "--inner", "1"], "inner without outer"),
        (["ggjdt_bijection", "--lambda", "1"], "lambda"),
        (["ggjdt_bijection", "--lambda", "1", "--outer", "2,1"], "lambda"),
    ]
    for check in ("commute_lemma", "shuffle_theorem", "uncrowd_image", "phi_bijection"):
        cases.append(([check, "--outer", "2,1"], "outer"))
        cases.append(([check, "--lambda", "1", "--inner", "1"], "inner"))
    for argv, name in cases:
        code, out, err = invoke(["verify", "--check"] + argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {argv[0]} does not use {name}\n", argv


def test_verify_determinism_across_jobs_and_seeds():
    args = ["verify", "--check", "commute_lemma", "--lambda", "2,1"]
    runs = [
        invoke(args + ["--jobs", "1", "--seed", "0"]),
        invoke(args + ["--jobs", "3", "--seed", "0"]),
        invoke(args + ["--jobs", "1", "--seed", "42"]),
    ]
    outs = {out for _, out, _ in runs}
    assert len(outs) == 1
    assert all(code == 0 for code, _, _ in runs)


def test_identity_three_way():
    code, out, _ = invoke(
        ["identity", "--lambda", "1", "--n", "2", "--excess", "1"]
    )
    assert code == 0
    assert "identical" in out
    assert "hvt terms:" in out


def test_identity_det():
    code, out, _ = invoke(
        ["identity", "--lambda", "1", "--n", "2", "--excess", "2", "--det"]
    )
    assert code == 0 and "identical" in out


def test_identity_empty_lambda():
    code, out, _ = invoke(["identity", "--n", "2", "--excess", "1"])
    assert code == 0 and "identical" in out
