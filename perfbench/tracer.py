"""Spans and counts for the traced benchmark run.

A ``sys.setprofile`` hook watches the public functions of each ``hooktab``
module listed in ``_specs``.  Nothing in the package is replaced or edited:
the hook only sees call and return events, and ignores every function that
is not listed.  For each watched call it keeps a span (name, start, end,
parent span, item id) in memory, its self time (span minus child spans) and
counts read from the arguments and return values.  Counts that need more
than one call's arguments (switches applied, GG-jdt slides, keep ratios)
are derived after the traced pass, with the hook off, from inputs captured
during it.

The hook runs on the calling thread only, so a traced pass must not fan out
to worker threads.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from math import prod
from time import perf_counter

# (metric name, unit) in output order; shared with BENCHMARK.json and the tests
PER_LAYER = [
    ("enumeration.verify.commute_lemma.s", "s"),
    ("enumeration.verify.shuffle_theorem.s", "s"),
    ("enumeration.verify.uncrowd_image.s", "s"),
    ("enumeration.verify.phi_bijection.s", "s"),
    ("enumeration.verify.ggjdt_bijection.s", "s"),
    ("enumeration.verify.jobs1_s", "s"),
    ("enumeration.verify.jobs_speedup", "ratio"),
    ("enumeration.enum_hvt.s", "s"),
    ("enumeration.enum_hvt.tableaux", "count"),
    ("enumeration.enum_sorted_strict.s", "s"),
    ("enumeration.enum_sorted_strict.keep_ratio", "ratio"),
    ("enumeration.enum_biflagged.s", "s"),
    ("enumeration.enum_exquisite.s", "s"),
    ("enumeration.fmt_filter.keep_ratio", "ratio"),
    ("uncrowding.uncrowd_canonical.s", "s"),
    ("uncrowding.uncrowd.s", "s"),
    ("uncrowding.steps", "count"),
    ("uncrowding.arm_bump.s", "s"),
    ("uncrowding.leg_bump.s", "s"),
    ("uncrowding.bumps", "count"),
    ("switching.fully_switch.s", "s"),
    ("switching.available_switches.s", "s"),
    ("switching.switches_applied", "count"),
    ("switching.legal_ratio", "ratio"),
    ("switching.shuffle.s", "s"),
    ("switching.gg_jdt.s", "s"),
    ("switching.gg_jdt.slides", "count"),
    ("switching.is_biflagged.s", "s"),
    ("tableaux.classify_mixed.s", "s"),
    ("tableaux.classify_mixed.calls", "count"),
    ("tableaux.classify_mixed.us_per_call", "us"),
    ("tableaux.is_exquisite.s", "s"),
    ("tableaux.weight.s", "s"),
    ("tableaux.hvt_violations.s", "s"),
    ("textform.serialize.s", "s"),
    ("textform.serialize.calls", "count"),
    ("textform.parse.s", "s"),
    ("textform.parse.calls", "count"),
    ("polynomials.mul.s", "s"),
    ("polynomials.mul.calls", "count"),
    ("polynomials.mul.term_pairs", "count"),
    ("polynomials.mul.us_per_term_pair", "us"),
    ("polynomials.eq.s", "s"),
    ("polynomials.terms", "count"),
    ("genfun.determinant_side.s", "s"),
    ("genfun.hvt_genfun.s", "s"),
    ("genfun.vandermonde.s", "s"),
    ("genfun.schur_expansion_genfun.s", "s"),
    ("genfun.extract_weight_counts.s", "s"),
    ("cli.run.s", "s"),
    ("cli.run.calls", "count"),
    ("cli.overhead_ms", "ms"),
    ("shapes.s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _verify_label(frame) -> str:
    return "enumeration.verify." + str(frame.f_locals.get("check_id"))


def _enum_hvt_return(tracer, state, value):
    if value is not None:
        tracer.counts["enumeration.enum_hvt.tableaux"] += len(value)


def _capture_args(key, *names):
    def on_call(tracer, frame):
        loc = frame.f_locals
        return key, tuple(loc[n] for n in names)

    return on_call


def _capture_with_result(tracer, state, value):
    if state is not None and value is not None:
        key, args = state
        tracer.captured[key].append((args, value))


def _fully_switch_call(tracer, frame):
    loc = frame.f_locals
    if loc["strategy"] == "deterministic":
        return "fully_switch", (loc["T"],)
    return None


def _uncrowd_return(tracer, state, value):
    if value is not None:
        tracer.counts["uncrowding.steps"] += len(value.records)


def _bump_return(tracer, state, value):
    if value is not None and value[1] is not None:
        tracer.counts["uncrowding.bumps"] += 1


def _mul_call(tracer, frame):
    loc = frame.f_locals
    other = loc["other"]
    right = len(other.terms) if hasattr(other, "terms") else 1
    tracer.counts["polynomials.mul.term_pairs"] += len(loc["self"].terms) * right
    return None


def _mul_return(tracer, state, value):
    if value is not None:
        tracer.counts["polynomials.terms"] += len(value.terms)


def _specs(hk):
    """(group, function, on_call, on_return) for every watched function.

    The group names the metric; on_call may return a state that on_return
    receives together with the return value."""
    E, U, S, T = hk.enumeration, hk.uncrowding, hk.switching, hk.tableaux
    X, P, G, SH = hk.textform, hk.polynomials, hk.genfun, hk.shapes
    captured_fmt = _capture_args("fmt_filter", "outer", "inner")
    return [
        (None, E.verify, None, None),  # labelled per check by _verify_label
        ("enumeration.enum_hvt", E.enum_hvt, None, _enum_hvt_return),
        (
            "enumeration.enum_sorted_strict",
            E.enum_sorted_strict,
            _capture_args("sorted_strict", "outer", "inner", "max_index"),
            _capture_with_result,
        ),
        ("enumeration.enum_biflagged", E.enum_biflagged, captured_fmt, _capture_with_result),
        ("enumeration.enum_exquisite", E.enum_exquisite, captured_fmt, _capture_with_result),
        ("uncrowding.uncrowd_canonical", U.uncrowd_canonical, None, None),
        ("uncrowding.uncrowd", U.uncrowd, None, _uncrowd_return),
        ("uncrowding.arm_bump", U.arm_bump, None, _bump_return),
        ("uncrowding.leg_bump", U.leg_bump, None, _bump_return),
        ("switching.fully_switch", S.fully_switch, _fully_switch_call, _capture_with_result),
        ("switching.available_switches", S.available_switches, None, None),
        ("switching.shuffle", S.shuffle, None, None),
        (
            "switching.gg_jdt",
            S.gg_jdt,
            _capture_args("gg_jdt", "T", "trace"),
            _capture_with_result,
        ),
        ("switching.is_biflagged", S.is_biflagged, None, None),
        ("tableaux.classify_mixed", T.classify_mixed, None, None),
        ("tableaux.is_exquisite", T.is_exquisite, None, None),
        ("tableaux.weight", T.weight_hvt, None, None),
        ("tableaux.weight", T.weight_mixed, None, None),
        ("tableaux.hvt_violations", T.hvt_violations, None, None),
        ("textform.serialize", X.serialize_hvt, None, None),
        ("textform.serialize", X.serialize_mixed, None, None),
        ("textform.parse", X.parse_hvt, None, None),
        ("textform.parse", X.parse_mixed, None, None),
        ("polynomials.mul", P.TruncatedPolynomial.__mul__, _mul_call, _mul_return),
        ("polynomials.eq", P.TruncatedPolynomial.__eq__, None, None),
        ("genfun.determinant_side", G.determinant_side, None, None),
        ("genfun.hvt_genfun", G.hvt_genfun, None, None),
        ("genfun.vandermonde", G.vandermonde, None, None),
        ("genfun.schur_expansion_genfun", G.schur_expansion_genfun, None, None),
        ("genfun.extract_weight_counts", G.extract_weight_counts, None, None),
        ("cli.run", hk.cli.run, None, None),
        ("shapes", SH.skew_shapes, None, None),
        ("shapes", SH.partitions_of, None, None),
        ("shapes", SH.partitions_up_to, None, None),
        ("shapes", SH.partitions_between, None, None),
        ("shapes", SH.partitions_containing, None, None),
        ("shapes", SH.subpartitions, None, None),
    ]


class Tracer:
    """Collects spans, self times and counts while entered as a context
    manager.

    A generator's span covers one resume-to-yield stretch, because that is
    what the profile events delimit."""

    def __init__(self, hk):
        self._watch = {}
        for group, fn, on_call, on_return in _specs(hk):
            name = f"{fn.__module__.removeprefix('hooktab.')}.{fn.__qualname__}"
            self._watch[fn.__code__] = (group, name, on_call, on_return)
        self.item = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # spans, one entry per watched call, in start order
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_item: list[int] = []
        self.calls: Counter = Counter()  # per group
        self.inclusive: Counter = Counter()  # per group, outermost spans only
        self.self_time: Counter = Counter()  # per function name
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)
        self._depth: Counter = Counter()
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _profile(self, frame, event, arg):
        if event == "call":
            spec = self._watch.get(frame.f_code)
            if spec is None:
                return
            group, name, on_call, on_return = spec
            if group is None:
                group = name = _verify_label(frame)
            state = on_call(self, frame) if on_call is not None else None
            stack = self._stack
            idx = len(self.span_start)
            self.span_name.append(self._name_id(name))
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_item.append(self.item)
            self.span_end.append(0.0)
            self.calls[group] += 1
            outermost = self._depth[group] == 0
            self._depth[group] += 1
            # [frame, span, group, name, outermost, state, on_return, child time, start]
            entry = [frame, idx, group, name, outermost, state, on_return, 0.0, 0.0]
            stack.append(entry)
            entry[8] = start = perf_counter()
            self.span_start.append(start)
        elif event == "return":
            stack = self._stack
            if stack and stack[-1][0] is frame:
                end = perf_counter()
                _, idx, group, name, outermost, state, on_return, child, start = stack.pop()
                self.span_end[idx] = end
                dur = end - start
                self.self_time[name] += dur - child
                self._depth[group] -= 1
                if outermost:
                    self.inclusive[group] += dur
                if stack:
                    stack[-1][7] += dur
                if on_return is not None:
                    on_return(self, state, arg)

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def write_spans(self, path) -> None:
        """Spans as columns; times in microseconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0

        def us(values):
            return [round((v - t0) * 1e6, 1) for v in values]

        payload = {
            "names": self.names,
            "columns": ["name", "start_us", "end_us", "parent", "item"],
            "name": self.span_name,
            "start_us": us(self.span_start),
            "end_us": us(self.span_end),
            "parent": self.span_parent,
            "item": self.span_item,
            "self_s": {n: self.self_time[n] for n in self.names},
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def derive_counts(hk, tracer: Tracer) -> tuple[dict, list[str]]:
    """Counts that need the captured inputs; run with the hook off.

    Switches applied and the legal ratio come from driving the deterministic
    switching loop through the public ``available_switches`` and checking it
    ends where ``fully_switch`` ended.  GG-jdt slides come from the public
    trace of the same input.  Returns the counts and any mismatch found."""
    problems = []
    applied = legal = candidates = 0
    for (T,), result in tracer.captured["fully_switch"]:
        cur = T
        while True:
            candidates += _adjacent_alpha_beta(cur)
            moves = hk.available_switches(cur)
            legal += len(moves)
            if not moves:
                break
            applied += 1
            cur = moves[0][1]
        if cur != result:
            problems.append("driven switching loop disagrees with fully_switch")
    slides = 0
    for (T, traced), result in tracer.captured["gg_jdt"]:
        if traced:
            slides += len(result[1])
            continue
        end, steps = hk.gg_jdt(T, trace=True)
        slides += len(steps)
        if end != result:
            problems.append("traced GG-jdt disagrees with gg_jdt")
    kept = cand = 0
    for (outer, inner, max_index), result in tracer.captured["sorted_strict"]:
        outer, inner = tuple(outer), tuple(inner)
        cells = sum(outer) - sum(inner)
        cand += len(hk.partitions_between(inner, outer)) * max_index**cells
        kept += len(result)
    fmt_kept = fmt_cand = 0
    for (outer, inner), result in tracer.captured["fmt_filter"]:
        cells = hk.shapes.skew_cells(tuple(outer), tuple(inner))
        fmt_cand += prod((c - 1) + (r - 1) for r, c in cells)
        fmt_kept += len(result)
    return {
        "switching.switches_applied": applied,
        "switching.legal_ratio": legal / candidates if candidates else 0.0,
        "switching.gg_jdt.slides": slides,
        "enumeration.enum_sorted_strict.keep_ratio": kept / cand if cand else 0.0,
        "enumeration.fmt_filter.keep_ratio": fmt_kept / fmt_cand if fmt_cand else 0.0,
    }, sorted(set(problems))


def _adjacent_alpha_beta(T) -> int:
    """Alpha cells with a beta directly above or to the right, per direction."""
    n = 0
    for (r, c), e in T.entries.items():
        if e.kind != "a":
            continue
        for p in ((r + 1, c), (r, c + 1)):
            v = T.entries.get(p)
            if v is not None and v.kind == "b":
                n += 1
    return n


def layer_metrics(tracer: Tracer, derived: dict, extra: dict) -> dict:
    """Every PER_LAYER metric, from the tracer, the derived counts and the
    untraced timings in ``extra``; layers the workload never calls read 0."""
    values = dict(extra)
    values.update(derived)
    for (name, unit) in PER_LAYER:
        if name in values or unit != "s":
            continue
        values[name] = tracer.inclusive[name.removesuffix(".s")]
    calls = tracer.calls
    values["enumeration.verify.jobs1_s"] = extra.get("enumeration.verify.jobs1_s", 0.0)
    values["enumeration.enum_hvt.tableaux"] = tracer.counts["enumeration.enum_hvt.tableaux"]
    values["uncrowding.steps"] = tracer.counts["uncrowding.steps"]
    values["uncrowding.bumps"] = tracer.counts["uncrowding.bumps"]
    cm_calls = calls["tableaux.classify_mixed"]
    values["tableaux.classify_mixed.calls"] = cm_calls
    values["tableaux.classify_mixed.us_per_call"] = (
        tracer.inclusive["tableaux.classify_mixed"] / cm_calls * 1e6 if cm_calls else 0.0
    )
    values["textform.serialize.calls"] = calls["textform.serialize"]
    values["textform.parse.calls"] = calls["textform.parse"]
    pairs = tracer.counts["polynomials.mul.term_pairs"]
    values["polynomials.mul.calls"] = calls["polynomials.mul"]
    values["polynomials.mul.term_pairs"] = pairs
    values["polynomials.mul.us_per_term_pair"] = (
        tracer.inclusive["polynomials.mul"] / pairs * 1e6 if pairs else 0.0
    )
    values["polynomials.terms"] = tracer.counts["polynomials.terms"]
    values["cli.run.calls"] = calls["cli.run"]
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}
