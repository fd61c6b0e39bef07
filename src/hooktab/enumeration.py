"""Exhaustive generators, the full bijection, and verification drivers.

All generators return canonically ordered lists (lexicographic on the text
serialization) so that counts and golden files are stable across runs;
enum_mixed keeps itertools.product order.  The mixed families are filled
cell by cell, each entry checked against its left and lower neighbours
only, by the rules the tableaux predicates scan with (tableaux._sorted_strict
says why neighbours suffice).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, NamedTuple

from .shapes import (
    Partition,
    check_partition,
    check_skew,
    partitions_containing,
    partitions_up_to,
    skew_cells,
    skew_shapes,
)
from .switching import gg_jdt, is_biflagged, shuffle
from .tableaux import (
    HookCell,
    HookValuedTableau,
    MixedTableau,
    _exquisite_fits,
    _sorted_strict,
    alpha,
    beta,
    is_exquisite,
    weight_hvt,
    weight_mixed,
)
from .textform import serialize_hvt, serialize_mixed
from .uncrowding import arm_bump, leg_bump, uncrowd, uncrowd_canonical


class EnumBounds(NamedTuple):
    max_entry: int
    max_excess: int


def check_bounds(bounds) -> EnumBounds:
    """bounds as EnumBounds; raises ValueError if one is negative."""
    bounds = EnumBounds(*bounds)
    for name, value in zip(("n", "excess"), bounds):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return bounds


DEFAULT_BOUNDS = EnumBounds(3, 2)
DEFAULT_LAMBDA_LIMIT = 4
DEFAULT_OUTER_LIMIT = 6


def hook_cells(hook: int, max_entry: int, budget: int):
    """All hooks with the given hook entry, entries <= max_entry and at most
    budget extra (arm plus leg) entries."""
    for extra in range(budget + 1):
        for n_arms in range(extra + 1):
            n_legs = extra - n_arms
            for arms in combinations_with_replacement(
                range(hook, max_entry + 1), n_arms
            ):
                for legs in combinations(range(hook + 1, max_entry + 1), n_legs):
                    yield HookCell(hook, arms, legs)


def enum_hvt(lam: Partition, bounds: EnumBounds) -> list[HookValuedTableau]:
    """All hook-valued tableaux of shape lam with entries <= max_entry and
    total excess <= max_excess."""
    lam = check_partition(lam)
    n, emax = bounds
    positions = [(r, c) for r, width in enumerate(lam, 1) for c in range(1, width + 1)]
    out: list[HookValuedTableau] = []
    grid: dict[tuple[int, int], HookCell] = {}
    # (hook floor, budget) -> [(cell, budget left)], each built once per call
    menus: dict[tuple[int, int], list[tuple[HookCell, int]]] = {}

    def place(idx: int, budget: int) -> None:
        if idx == len(positions):
            rows = [
                [grid[(r, c)] for c in range(1, width + 1)]
                for r, width in enumerate(lam, 1)
            ]
            out.append(HookValuedTableau(rows))
            return
        r, c = positions[idx]
        hook_min = 1
        left = grid.get((r, c - 1))
        if left is not None:
            hook_min = max(hook_min, left.max_entry)
        below = grid.get((r - 1, c))
        if below is not None:
            hook_min = max(hook_min, below.max_entry + 1)
        menu = menus.get((hook_min, budget))
        if menu is None:
            menu = menus[hook_min, budget] = [
                (cell, budget - len(cell.arms) - len(cell.legs))
                for hook in range(hook_min, n + 1)
                for cell in hook_cells(hook, n, budget)
            ]
        for cell, left in menu:
            grid[(r, c)] = cell
            place(idx + 1, left)
        grid.pop((r, c), None)

    place(0, emax)
    del place  # the closure refers to itself: free it without the cyclic GC
    return sorted(out, key=serialize_hvt)


def enum_ssyt(mu: Partition, n: int) -> list[HookValuedTableau]:
    """All semistandard Young tableaux of shape mu with entries in 1..n,
    as zero-excess hook-valued tableaux."""
    return enum_hvt(mu, EnumBounds(n, 0))


def _flags(p):
    """The flagged entries of p = (r, c): alpha_1..alpha_{c-1}, beta_1..beta_{r-1}."""
    return [alpha(k) for k in range(1, p[1])] + [beta(k) for k in range(1, p[0])]


def _fill(outer, inner, pool, fits) -> list[MixedTableau]:
    """The fillings of outer/inner, cell by cell in row order, by an entry e from
    pool(p) at each cell p with fits(e, p, n, q) for each left or lower n at q."""
    outer, inner = check_skew(outer, inner)
    cells = sorted(skew_cells(outer, inner))
    near = [[q for q in ((r, c - 1), (r - 1, c)) if q in cells] for r, c in cells]
    pools = [pool(p) for p in cells]
    entries, out = {}, []

    def place(i: int) -> None:
        if i == len(cells):
            # a fresh row-order dict per tableau, never the one reused here
            out.append(MixedTableau(outer, inner, {q: entries[q] for q in cells}))
            return
        p = cells[i]
        for e in pools[i]:
            if all(fits(e, p, entries[q], q) for q in near[i]):
                entries[p] = e
                place(i + 1)

    place(0)
    del place  # the closure refers to itself: free it without the cyclic GC
    return out


def enum_exquisite(outer, inner) -> list[MixedTableau]:
    """All exquisite tableaux of the skew shape (finite via the flags)."""
    return sorted(_fill(outer, inner, _flags, _exquisite_fits), key=serialize_mixed)


def enum_biflagged(outer, inner) -> list[MixedTableau]:
    """All biflagged tableaux of the skew shape."""
    bft = filter(is_biflagged, _fill(outer, inner, _flags, _sorted_strict))
    return sorted(bft, key=serialize_mixed)


def enum_sorted_strict(outer, inner, max_index: int) -> list[MixedTableau]:
    """All alpha-column-strict, beta-row-strict, (alpha,beta)-sorted mixed
    tableaux with indices in 1..max_index (switching-theorem inputs)."""
    pool = [kind(k) for kind in (alpha, beta) for k in range(1, max_index + 1)]
    strict = _fill(outer, inner, lambda p: pool, _sorted_strict)
    return sorted(strict, key=serialize_mixed)


def enum_mixed(outer, inner, alpha_indices, beta_indices) -> list[MixedTableau]:
    """All mixed tableaux over the given index alphabets (oracle fodder)."""
    pool = [alpha(k) for k in alpha_indices if k > 0] + [beta(k) for k in beta_indices]
    return _fill(outer, inner, lambda p: pool, lambda *_: True)


def phi(T: HookValuedTableau):
    """The composite bijection: canonical uncrowding then GG-jdt on the
    recording tableau, landing in SSYT x EXQ."""
    result = uncrowd_canonical(T, "LA")
    return result.insertion, gg_jdt(result.recording)


# ---------------------------------------------------------------------------
# Verification drivers


@dataclass
class VerificationReport:
    check_id: str
    parameters: dict
    instances_checked: int
    failures: list[str]
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "check_id": self.check_id,
            "parameters": self.parameters,
            "instances_checked": self.instances_checked,
            "failures": self.failures,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _check_commute(lam, bounds):
    """Lemma on commuting arm and leg bumps, all three cases."""
    relevant = [
        T for T in enum_hvt(lam, bounds) if T.arm_excess >= 1 and T.leg_excess >= 1
    ]
    failures = []
    for T in relevant:
        TA, _ = arm_bump(T)
        ga = TA.num_cells - T.num_cells
        TLA, _ = leg_bump(TA)
        gla = TLA.num_cells - TA.num_cells
        TL, _ = leg_bump(T)
        gl = TL.num_cells - T.num_cells
        TAL, _ = arm_bump(TL)
        gal = TAL.num_cells - TL.num_cells
        if ga == 1 and gla == 1 and gl == 1 and gal == 0:
            TAAL, _ = arm_bump(TAL)
            if TLA != TAAL:
                failures.append(f"case1 equality fails for {serialize_hvt(T)}")
            if TAAL.num_cells - TAL.num_cells != 1:
                failures.append(f"case1 type A(1)A(0)L(1) fails for {serialize_hvt(T)}")
        elif ga == 1 and gla == 0 and gl == 1 and gal == 1:
            TLLA, _ = leg_bump(TLA)
            if TLLA != TAL:
                failures.append(f"case2 equality fails for {serialize_hvt(T)}")
            if TLLA.num_cells - TLA.num_cells != 1:
                failures.append(f"case2 type L(1)L(0)A(1) fails for {serialize_hvt(T)}")
        else:
            if gl != gla or gal != ga:
                failures.append(f"case3 type swap fails for {serialize_hvt(T)}")
            if TLA != TAL:
                failures.append(f"case3 equality fails for {serialize_hvt(T)}")
    return len(relevant), failures


def _check_shuffle_theorem(lam, bounds):
    """Interchanging the uncrowding order: equal insertions, shuffled
    recordings, for both the length-two words and the canonical orders."""
    tableaux = enum_hvt(lam, bounds)
    failures = []
    for T in tableaux:
        for label, (p1, q1, _), (p2, q2, _) in (
            ("single", uncrowd(T, "LA"), uncrowd(T, "AL")),
            ("canonical", uncrowd_canonical(T, "LA"), uncrowd_canonical(T, "AL")),
        ):
            if p2 != p1:
                failures.append(
                    f"{label}: insertion tableaux differ for {serialize_hvt(T)}"
                )
            if q2 != shuffle(q1):
                failures.append(
                    f"{label}: recording is not the shuffle for {serialize_hvt(T)}"
                )
    return len(tableaux), failures


def _expected_pairs(lam, bounds, recording_enum):
    n, emax = bounds
    expected = set()
    for mu in partitions_containing(lam, emax):
        if len(mu) > n:
            continue
        qs = recording_enum(mu, lam)
        if qs:
            expected.update(product(enum_ssyt(mu, n), qs))
    return expected


def _pair_text(pair) -> tuple[str, str]:
    """A (P, Q) pair as it appears in a failure message."""
    P, Q = pair
    return serialize_hvt(P), serialize_mixed(Q)


def _check_image(lam, bounds, *, use_phi: bool):
    """Bijectivity and weight preservation of canonical uncrowding (onto
    SSYT x BFT) or of the composite map (onto SSYT x EXQ).  Canonical
    uncrowding, which phi runs, refuses an insertion tableau with excess."""
    tableaux = enum_hvt(lam, bounds)
    failures = []
    seen = {}  # (P, Q) -> the tableau mapped to it
    for T in tableaux:
        if use_phi:
            P, Q = phi(T)
            if not is_exquisite(Q):
                failures.append(f"phi recording not exquisite for {serialize_hvt(T)}")
        else:
            P, Q, _ = uncrowd_canonical(T, "LA")
            if not is_biflagged(Q):
                failures.append(f"recording not biflagged for {serialize_hvt(T)}")
        if weight_hvt(T) != weight_hvt(P) * weight_mixed(Q):
            failures.append(f"weight not preserved for {serialize_hvt(T)}")
        earlier = seen.setdefault((P, Q), T)
        if earlier is not T:
            first, second = serialize_hvt(T), serialize_hvt(earlier)
            failures.append(f"collision: {first} and {second} map to {_pair_text((P, Q))}")
            seen[P, Q] = T
    expected = _expected_pairs(
        lam, bounds, enum_exquisite if use_phi else enum_biflagged
    )
    extra = [pair for pair in seen if pair not in expected]
    # with no extra pair, as many pairs as expected leave none missing
    if extra or len(seen) != len(expected):
        for missing in sorted(map(_pair_text, expected - seen.keys())):
            failures.append(f"pair not attained for lambda={lam}: {missing}")
    for pair in sorted(map(_pair_text, extra)):
        failures.append(f"unexpected pair for lambda={lam}: {pair}")
    return len(tableaux), failures


def _check_ggjdt_bijection(shape, bounds):
    """GG-jdt as a weight-preserving bijection BFT -> EXQ on one skew shape."""
    mu, lam = shape
    bft = enum_biflagged(mu, lam)
    exq = enum_exquisite(mu, lam)
    images = [gg_jdt(Q) for Q in bft]
    failures = []
    for Q, E in zip(bft, images):
        if not is_exquisite(E):
            failures.append(f"{mu}/{lam}: image of {serialize_mixed(Q)} not exquisite")
        if weight_mixed(E) != weight_mixed(Q):
            failures.append(f"{mu}/{lam}: weight changed for {serialize_mixed(Q)}")
    if len(set(images)) != len(images):
        failures.append(f"{mu}/{lam}: GG-jdt not injective")
    if len(bft) != len(exq):
        failures.append(f"{mu}/{lam}: |BFT|={len(bft)} but |EXQ|={len(exq)}")
    elif set(images) != set(exq):
        failures.append(f"{mu}/{lam}: image differs from EXQ")
    return 1, failures


def _each_lambda(shape, max_outer):
    """One shard per lambda: the given one, or each partition of size at most
    DEFAULT_LAMBDA_LIMIT."""
    lam = shape["lambda"]
    if lam is None:
        return partitions_up_to(DEFAULT_LAMBDA_LIMIT)
    return [check_partition(lam)]


def _each_skew_shape(shape, max_outer):
    """One shard per skew shape: outer/inner, or each with |outer| <= max_outer."""
    outer, inner = shape["outer"], shape["inner"]
    if outer is None and inner is not None:
        raise ValueError("ggjdt_bijection does not use inner without outer")
    return skew_shapes(max_outer) if outer is None else [check_skew(outer, inner or ())]


class Check(NamedTuple):
    uses: tuple[str, ...]  # the shape arguments the check reads
    shards: Callable  # (shape arguments, max_outer) -> shards, in order
    run: Callable  # (shard, bounds) -> (instances checked, failures)


_LAMBDA, _SKEW = ("lambda",), ("outer", "inner")
CHECKS = {
    "commute_lemma": Check(_LAMBDA, _each_lambda, _check_commute),
    "shuffle_theorem": Check(_LAMBDA, _each_lambda, _check_shuffle_theorem),
    "uncrowd_image": Check(_LAMBDA, _each_lambda, partial(_check_image, use_phi=False)),
    "phi_bijection": Check(_LAMBDA, _each_lambda, partial(_check_image, use_phi=True)),
    "ggjdt_bijection": Check(_SKEW, _each_skew_shape, _check_ggjdt_bijection),
}
CHECK_IDS = tuple(CHECKS)


def verify(
    check_id: str,
    lam=None,
    bounds: EnumBounds = DEFAULT_BOUNDS,
    *,
    outer=None,
    inner=None,
    max_outer: int = DEFAULT_OUTER_LIMIT,
    seed: int = 0,
    jobs: int = 1,
) -> VerificationReport:
    """Run one exhaustive theorem check and collect every counterexample.

    The check's row in CHECKS names the shape arguments it reads, its
    shards and the function that checks one shard.  Every shard runs
    sequentially in this thread.  seed and jobs are accepted for
    compatibility and change neither the work done nor the report; a
    negative bound, or a shape argument the check would ignore, raises
    ValueError.
    """
    if check_id not in CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {CHECK_IDS}")
    check = CHECKS[check_id]
    bounds = check_bounds(bounds)
    if max_outer < 0:
        raise ValueError(f"max_outer must be nonnegative, got {max_outer}")
    shape = {"lambda": lam, "outer": outer, "inner": inner}
    for name, value in shape.items():
        if value is not None and name not in check.uses:
            raise ValueError(f"{check_id} does not use {name}")
    t0 = time.perf_counter()
    instances, failures = 0, []
    for shard in check.shards(shape, max_outer):
        n, found = check.run(shard, bounds)
        instances += n
        failures += found
    elapsed = time.perf_counter() - t0
    # only bounds and shapes: seed and jobs must not change the output bytes
    params = dict(n=bounds.max_entry, excess=bounds.max_excess, max_outer=max_outer)
    params.update((k, None if v is None else list(v)) for k, v in shape.items())
    return VerificationReport(check_id, params, instances, sorted(failures), elapsed)
