"""Command-line front end.

Tableaux are read from standard input in the text format of textform;
results go to standard output.  Exit codes: 0 success / all checks passed,
1 verification or validation failure, 2 usage error, 3 internal assertion
failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout

from . import enumeration, genfun
from .enumeration import CHECK_IDS, EnumBounds
from .shapes import check_partition
from .switching import (
    InternalError,
    PreconditionViolation,
    available_switches,
    fully_switch,
    gg_jdt,
    shuffle,
)
from .tableaux import classify_mixed, hvt_violations, weight_hvt
from .textform import (
    TableauSyntaxError,
    parse_hvt,
    parse_mixed,
    serialize_hvt,
    serialize_mixed,
)
from .uncrowding import arm_uncrowd, leg_uncrowd, uncrowd, uncrowd_canonical


def _partition_arg(text: str):
    parts = text.split(",") if text.strip() else ()
    try:
        return check_partition(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}")


def _word_arg(text: str) -> str:
    if text in ("LAinf", "ALinf") or set(text) <= {"A", "L"}:
        return text
    raise argparse.ArgumentTypeError(f"not a word over A/L, LAinf or ALinf: {text!r}")


def _count_arg(text: str) -> int:
    """A bound that counts something (variables, excess, cells): an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooktab",
        description="hook-valued tableaux, uncrowding, switching and "
        "generating-function identity checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a tableau read from stdin")
    p.add_argument("--family", choices=("hvt", "mixed"), default="hvt")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("uncrowd", help="run the uncrowding map on an HVT")
    p.add_argument(
        "--word",
        type=_word_arg,
        required=True,
        help="word over A/L in subscript order (rightmost letter applied "
        "first), or LAinf / ALinf for the canonical orders",
    )
    p.add_argument("--trace", action="store_true")
    p.set_defaults(handler=_cmd_uncrowd)

    p = sub.add_parser("shuffle", help="jeu-de-taquin shuffle of a mixed tableau")
    p.set_defaults(handler=_cmd_shuffle)

    p = sub.add_parser("switch", help="apply switches to a mixed tableau")
    p.add_argument("--all", action="store_true", help="switch to the normal form")
    seeded = "use a seeded random strategy (with --all)"
    p.add_argument("--seed", type=int, default=None, help=seeded)
    p.set_defaults(handler=_cmd_switch)

    p = sub.add_parser("ggjdt", help="Goulden-Greene jeu de taquin")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(handler=_cmd_ggjdt)

    p = sub.add_parser("enum", help="enumerate a tableau family")
    p.add_argument("--family", choices=("hvt", "ssyt", "exq", "bft"), required=True)
    p.add_argument("--lambda", dest="lam", type=_partition_arg, default=None)
    p.add_argument("--outer", type=_partition_arg, default=None)
    p.add_argument("--inner", type=_partition_arg, default=())
    p.add_argument("--n", type=_count_arg, default=3)
    p.add_argument("--excess", type=_count_arg, default=2)
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("verify", help="run an exhaustive theorem check")
    p.add_argument("--check", choices=CHECK_IDS, required=True)
    p.add_argument("--lambda", dest="lam", type=_partition_arg, default=None)
    p.add_argument("--outer", type=_partition_arg, default=None)
    p.add_argument("--inner", type=_partition_arg, default=None)
    p.add_argument("--n", type=_count_arg, default=3)
    p.add_argument("--excess", type=_count_arg, default=2)
    p.add_argument("--max-outer", type=_count_arg, default=6)
    no_effect = "accepted for compatibility; changes neither the work nor the output"
    p.add_argument("--seed", type=int, default=0, help=no_effect)
    p.add_argument("--jobs", type=int, default=1, help=no_effect)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("identity", help="generating-function identity checks")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, default=())
    p.add_argument("--n", type=_count_arg, default=3)
    p.add_argument("--excess", type=_count_arg, default=2)
    p.add_argument(
        "--det",
        action="store_true",
        help="check the determinant formula instead of the three-way expansion",
    )
    p.set_defaults(handler=_cmd_identity)
    return parser


def _diff_polys(out, names, polys) -> bool:
    for name, poly in zip(names, polys):
        print(f"{name} terms: {len(poly.terms)}", file=out)
    monomials = sorted(
        {m for p in polys for m in p.terms}, key=lambda m: m.sort_key()
    )
    clean = True
    for m in monomials:
        coeffs = [p.coefficient(m) for p in polys]
        if len(set(coeffs)) != 1:
            clean = False
            detail = " ".join(f"{n}={c}" for n, c in zip(names, coeffs))
            print(f"mismatch: {m}: {detail}", file=out)
    if clean:
        print("identical", file=out)
    return clean


def _read_valid_hvt(stdin, out):
    """The HVT read from stdin, or None after printing its violations."""
    T = parse_hvt(stdin.read())
    bad = hvt_violations(T)
    for v in bad:
        print(" ".join(str(x) for x in v), file=out)
    return None if bad else T


def _cmd_validate(args, stdin, out, err) -> int:
    if args.family == "hvt":
        T = _read_valid_hvt(stdin, out)
        if T is None:
            return 1
        print(f"valid (weight {weight_hvt(T)})", file=out)
        return 0
    T = parse_mixed(stdin.read())
    flags = classify_mixed(T)
    print("valid", file=out)
    for name, value in flags._asdict().items():
        print(f"{name}: {value}", file=out)
    return 0


def _cmd_uncrowd(args, stdin, out, err) -> int:
    T = _read_valid_hvt(stdin, out)
    if T is None:
        return 1
    if args.word.endswith("inf"):
        result = uncrowd_canonical(T, args.word[:2])
    else:
        result = uncrowd(T, args.word)
    if args.trace:
        # each record is one effective step: replay it on the public map
        trace, cur = [serialize_hvt(T)], T
        for rec in result.records:
            arm = rec.kind == "arm"
            cur = (arm_uncrowd if arm else leg_uncrowd)(cur)[0]
            trace += ["--A-->" if arm else "--L-->", serialize_hvt(cur)]
        print("\n".join(trace), file=out)
    print(f"P: {serialize_hvt(result.insertion)}", file=out)
    print(f"Q: {serialize_mixed(result.recording)}", file=out)
    return 0


def _cmd_shuffle(args, stdin, out, err) -> int:
    print(serialize_mixed(shuffle(parse_mixed(stdin.read()))), file=out)
    return 0


def _cmd_switch(args, stdin, out, err) -> int:
    T = parse_mixed(stdin.read())
    if args.all:
        strategy = "deterministic" if args.seed is None else "random"
        print(serialize_mixed(fully_switch(T, strategy, args.seed)), file=out)
    else:
        moves = available_switches(T)
        print(serialize_mixed(moves[0][1] if moves else T), file=out)
    return 0


def _cmd_ggjdt(args, stdin, out, err) -> int:
    T = parse_mixed(stdin.read())
    if args.trace:
        result, steps = gg_jdt(T, trace=True)
        print(serialize_mixed(T), file=out)
        for step in steps:
            print("--slide-->", file=out)
            print(serialize_mixed(step), file=out)
    else:
        result = gg_jdt(T)
    print(f"E: {serialize_mixed(result)}", file=out)
    return 0


def _cmd_enum(args, stdin, out, err) -> int:
    if args.family in ("hvt", "ssyt"):
        if args.lam is None:
            print(f"error: enum --family {args.family} needs --lambda", file=err)
            return 2
        if args.family == "hvt":
            items = enumeration.enum_hvt(args.lam, EnumBounds(args.n, args.excess))
        else:
            items = enumeration.enum_ssyt(args.lam, args.n)
        for T in items:
            print(serialize_hvt(T), file=out)
    else:
        if args.outer is None:
            print(f"error: enum --family {args.family} needs --outer", file=err)
            return 2
        enum = (
            enumeration.enum_exquisite
            if args.family == "exq"
            else enumeration.enum_biflagged
        )
        for T in enum(args.outer, args.inner):
            print(serialize_mixed(T), file=out)
    return 0


def _cmd_verify(args, stdin, out, err) -> int:
    report = enumeration.verify(
        args.check,
        args.lam,
        EnumBounds(args.n, args.excess),
        outer=args.outer,
        inner=args.inner,
        max_outer=args.max_outer,
        seed=args.seed,
        jobs=args.jobs,
    )
    # elapsed goes to stderr so stdout stays byte-identical across runs
    print(report.to_json(), file=out)
    print(f"elapsed: {report.elapsed:.3f}s", file=err)
    return 0 if report.passed else 1


def _cmd_identity(args, stdin, out, err) -> int:
    lam = args.lam
    cap = sum(lam) + args.excess
    if args.det:
        lhs, rhs = genfun.det_formula_check(lam, args.n, cap)
        ok = _diff_polys(out, ("determinant", "vandermonde*hvt"), (lhs, rhs))
    else:
        bounds = EnumBounds(args.n, args.excess)
        polys = (
            genfun.hvt_genfun(lam, bounds, cap),
            genfun.schur_expansion_genfun(lam, bounds, cap, "EXQ"),
            genfun.schur_expansion_genfun(lam, bounds, cap, "BFT"),
        )
        ok = _diff_polys(out, ("hvt", "exq", "bft"), polys)
    return 0 if ok else 1


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Dispatch one command; returns the exit code.

    sys.stdout and sys.stderr are swapped for stdout and stderr while the
    arguments are parsed, so argparse's usage errors and --help reach them."""
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args, stdin, out, err)
    except (TableauSyntaxError, PreconditionViolation, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (AssertionError, InternalError) as exc:
        print(f"internal error: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
