"""hooktab benchmark: one command for every workload, untraced or traced.

    python3 perfbench/run.py --workload theorems --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-module metrics of a traced pass.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, Tracer, derive_counts, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("instances_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SetupError(Exception):
    pass


def load_hooktab():
    """Import hooktab afresh from this checkout's src/ (never an installed copy)."""
    if not (SRC / "hooktab" / "__init__.py").is_file():
        raise SetupError(f"no hooktab package under {SRC}")
    for name in [m for m in sys.modules if m == "hooktab" or m.startswith("hooktab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    hk = importlib.import_module("hooktab")
    importlib.import_module("hooktab.cli")
    if Path(hk.__file__).resolve().parent != SRC / "hooktab":
        raise SetupError(f"imported hooktab from {hk.__file__}, not from {SRC}")
    return hk


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def commit() -> str:
    """The checked-out commit when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(name: str, seed: int, jobs: int):
    """Import plus input generation, repeated at least SETUP_REPEATS times
    and for at least SETUP_SECONDS; returns the last workload and the median
    set-up time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = perf_counter()
        hk = load_hooktab()
        wl = WORKLOADS[name](hk, seed, jobs)
        times.append(perf_counter() - t0)
    return hk, wl, statistics.median(times)


class Pass:
    def __init__(self, items, results, item_s, wall):
        self.items = items
        self.results = results
        self.item_s = item_s
        self.wall = wall
        self.verdict = None


def run_pass(wl, tracer=None) -> Pass:
    t0 = perf_counter()
    items = wl.prepare()
    results = []
    item_s = []
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        s = perf_counter()
        try:
            res = wl.run_item(item)
        except Exception as exc:  # counted as a failed item, reported below
            res = exc
        item_s.append(perf_counter() - s)
        results.append(res)
    p = Pass(items, results, item_s, perf_counter() - t0)
    if tracer is not None:
        tracer.item = -1
    return p


def check_pass(wl, p: Pass) -> Pass:
    """Check every output, then drop the outputs so that later passes run
    on a heap of the same size."""
    p.verdict = wl.check(p.items, p.results)
    for res in p.results:
        if isinstance(res, Exception):
            traceback.print_exception(res, file=sys.stderr)
            break
    p.n_items = len(p.items)
    p.items = p.results = None
    return p


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tally(passes, extra_problems=()) -> dict:
    """correct / attempted / failed plus the gate details, over all passes.
    Every gate miss counts as one failure on top of the failed items."""
    attempted = sum(p.n_items for p in passes)
    failed = sum(sum(p.verdict.failed) + len(p.verdict.problems) for p in passes)
    failed += len(extra_problems)
    problems = sorted({msg for p in passes for msg in p.verdict.problems})
    problems += extra_problems
    digests = sorted({p.verdict.digest for p in passes})
    if len(digests) > 1:
        problems.append(f"output digest changed between passes: {digests}")
        failed += 1
    failed = min(failed, attempted)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests[0] if len(digests) == 1 else None,
    }


def measure(wl, seconds: float):
    passes = []
    start = perf_counter()
    while True:
        passes.append(check_pass(wl, run_pass(wl)))
        if passes[-1].n_items != passes[0].n_items:
            raise SystemExit("perfbench: passes differ in their items")
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
            return passes


def end_to_end(wl, passes, setup_s) -> tuple[dict, dict]:
    """Medians over the run: wall_s over its passes, the item percentiles
    over every item time of every pass.  The tail percentile is fixed per
    workload from MIN_PASSES passes, so it does not depend on how many
    passes a run manages."""
    wall = statistics.median(p.wall for p in passes)
    items = sorted(t for p in passes for t in p.item_s)
    pct = tail_percentile(MIN_PASSES * passes[0].n_items)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "instances_per_s": wl.instances_per_pass / wall,
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_tail_ms": percentile(items, pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "item_samples": len(items),
        "item_tail_percentile": pct,
        "instances_per_pass": wl.instances_per_pass,
    }
    return values, notes


def traced(hk, wl):
    """One untraced and one traced pass of the same items, plus the derived
    counts.  The traced pass runs with jobs=1 so every span is on this
    thread; the untraced jobs=1 pass is the base of trace.overhead_ratio."""
    jobs = wl.jobs
    untraced = check_pass(wl, run_pass(wl))
    passes = [untraced]
    extra = {}
    if wl.name == "theorems":
        wl.jobs = 1
        base = check_pass(wl, run_pass(wl))
        passes.append(base)
        extra["enumeration.verify.jobs1_s"] = base.wall
        extra["enumeration.verify.jobs_speedup"] = base.wall / untraced.wall
    else:
        base = untraced
    if wl.name == "cli":
        direct = []
        for req in wl.items:
            t0 = perf_counter()
            wl.direct(req)
            direct.append(perf_counter() - t0)
        extra["cli.overhead_ms"] = (sum(base.item_s) - sum(direct)) / len(direct) * 1e3
    tracer = Tracer(hk)
    with tracer:
        p = run_pass(wl, tracer)
    passes.append(check_pass(wl, p))
    wl.jobs = jobs
    extra["trace.overhead_ratio"] = p.wall / base.wall
    derived, problems = derive_counts(hk, tracer)
    notes = {
        "untraced_wall_s": base.wall,
        "traced_wall_s": p.wall,
        "spans": len(tracer.span_start),
        "derivation_problems": problems,
    }
    return layer_metrics(tracer, derived, extra), passes, notes, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    jobs = min(2, nproc())
    try:
        hk, wl, setup_s = setup(args.workload, args.seed, jobs)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": commit(),
    }
    if args.trace:
        values, passes, notes, tracer = traced(hk, wl)
        units = dict(PER_LAYER)
    else:
        passes = measure(wl, args.seconds)
        values, notes = end_to_end(wl, passes, setup_s)
        units = dict(END_TO_END)
        tracer = None
    result = tally(passes, notes.get("derivation_problems", []))

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# notes {json.dumps(notes, sort_keys=True)}")
    print(f"# digest {result['digest']}")
    print(f"# fail_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    for msg in result["problems"]:
        print(f"# FAIL {msg}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.json.gz")
    record = {"env": env, "notes": notes, **result, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
