"""The four benchmark workloads.

Each workload is built from the loaded ``hooktab`` package and the seed, and
offers three steps that the harness in ``run.py`` drives:

* ``prepare()`` returns the items of one pass (it is part of the timed pass);
* ``run_item(item)`` does the work of one item through the public API;
* ``check(items, results)`` checks every output after the pass, outside the
  timed region, and returns a ``Verdict``.

All workloads are closed loops: one caller, and the next item starts when
the previous one returns.
"""

from __future__ import annotations

import hashlib
import io
import random
from collections import Counter
from typing import NamedTuple

# Instance totals of the exhaustive checks at n=3, E=2, |lambda| <= 4, and
# one GG-jdt instance per skew shape with |mu| <= 6.
THEOREM_CHECKS = ("commute_lemma", "shuffle_theorem", "uncrowd_image", "phi_bijection")
EXPECTED_TOTALS = {
    "commute_lemma": 532,
    "shuffle_theorem": 2103,
    "uncrowd_image": 2103,
    "phi_bijection": 2103,
    "ggjdt_bijection": 230,
}
SWITCHING_INPUTS = 5973  # enum_sorted_strict(mu, lam, 3) over |mu| <= 5
RANDOM_STRATEGIES = 3  # seeded random switch orders per switching input
CLI_REQUESTS = 1000
CLI_INVALID_SHARE = 0.2

# Digests of the output bytes of the seed-invariant workloads; any change in
# a serialization, a report or a normal form shows here.
EXPECTED_DIGESTS = {
    "theorems": "e1dcd3456357ff4b1481139636e3ba04596a95c5d267d069b2f242c8749c9ef7",
    "switching": "6ae67cd4a992f75d9d5988c47311c845a66596d54a2b1200f87283b097d81bdd",
    "identities": "dd1ab83713dde47dc3108cb0ae14f11cdfaa5fc53290a5995a8875cf4ef8e288",
}


class Verdict(NamedTuple):
    failed: list[bool]  # one flag per item
    problems: list[str]  # gate misses not tied to one item
    digest: str


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


def _digest_problems(name: str, got: str) -> list[str]:
    want = EXPECTED_DIGESTS.get(name)
    if want is not None and got != want:
        return [f"{name}: output digest {got[:16]} differs from {want[:16]}"]
    return []


class Workload:
    name = ""

    def __init__(self, hk, seed: int, jobs: int):
        self.hk = hk
        self.jobs = jobs
        self.items: list = []

    @property
    def instances_per_pass(self) -> int:
        return len(self.items)

    def prepare(self) -> list:
        return self.items

    def run_item(self, item):
        raise NotImplementedError

    def check(self, items, results) -> Verdict:
        raise NotImplementedError


class Theorems(Workload):
    """Every exhaustive ``verify`` check, one call per (check, lambda) and one
    GG-jdt call per skew shape, as ``hooktab verify --lambda ... --jobs``."""

    name = "theorems"

    def __init__(self, hk, seed, jobs):
        super().__init__(hk, seed, jobs)
        self.bounds = hk.EnumBounds(3, 2)
        self.items = [
            (check, lam, None)
            for check in THEOREM_CHECKS
            for lam in hk.partitions_up_to(4)
        ] + [("ggjdt_bijection", outer, inner) for outer, inner in hk.skew_shapes(6)]

    @property
    def instances_per_pass(self) -> int:
        return sum(EXPECTED_TOTALS.values())

    def run_item(self, item):
        check, lam, inner = item
        if check == "ggjdt_bijection":
            return self.hk.verify(
                check, bounds=self.bounds, outer=lam, inner=inner, jobs=self.jobs
            )
        return self.hk.verify(check, lam, self.bounds, jobs=self.jobs)

    def check(self, items, results) -> Verdict:
        report_type = self.hk.VerificationReport
        failed = []
        totals: Counter = Counter()
        chunks = []
        for (check, _, _), rep in zip(items, results):
            ok = isinstance(rep, report_type) and rep.passed
            failed.append(not ok)
            if isinstance(rep, report_type):
                totals[check] += rep.instances_checked
                chunks.append(rep.to_json())
            else:
                chunks.append(repr(rep))
        problems = []
        for check, want in EXPECTED_TOTALS.items():
            if totals[check] != want:
                problems.append(f"{check}: {totals[check]} instances, expected {want}")
                for i, item in enumerate(items):
                    if item[0] == check:
                        failed[i] = True
        d = digest(chunks)
        return Verdict(failed, problems + _digest_problems(self.name, d), d)


class Switching(Workload):
    """Every sorted strict switching input with |mu| <= 5: the deterministic
    normal form, seeded random strategies, the shuffle and GG-jdt followed by
    switching, which must all agree."""

    name = "switching"

    def __init__(self, hk, seed, jobs):
        super().__init__(hk, seed, jobs)
        self.shapes = hk.skew_shapes(5)
        rng = random.Random(seed)
        self.strategy_seeds = [
            tuple(rng.getrandbits(32) for _ in range(RANDOM_STRATEGIES))
            for _ in range(SWITCHING_INPUTS)
        ]

    @property
    def instances_per_pass(self) -> int:
        return SWITCHING_INPUTS

    def prepare(self):
        items = []
        seeds = self.strategy_seeds
        for shape_id, (outer, inner) in enumerate(self.shapes):
            for T in self.hk.enum_sorted_strict(outer, inner, 3):
                items.append((shape_id, T, seeds[len(items) % len(seeds)]))
        return items

    def run_item(self, item):
        hk = self.hk
        _, T, seeds = item
        nf = hk.fully_switch(T)
        randoms = [hk.fully_switch(T, "random", s) for s in seeds]
        gg = hk.gg_jdt(T)
        return nf, randoms, hk.shuffle(T), gg, hk.fully_switch(gg)

    def check(self, items, results) -> Verdict:
        hk = self.hk
        ser = hk.serialize_mixed
        failed = []
        chunks = []
        seen: dict[tuple[int, str], int] = {}
        for i, ((shape_id, T, _), res) in enumerate(zip(items, results)):
            if isinstance(res, Exception):
                failed.append(True)
                chunks.append(repr(res))
                continue
            nf, randoms, sh, gg, gg_nf = res
            flags = hk.classify_mixed(nf)
            ok = (
                flags.alpha_column_strict
                and flags.beta_row_strict
                and flags.sorted_beta_alpha
                and all(r == nf for r in randoms)
                and sh == nf
                and gg_nf == nf
            )
            key = (shape_id, ser(nf))
            if key in seen:  # two inputs of one shape share a normal form
                failed[seen[key]] = True
                ok = False
            seen[key] = i
            failed.append(not ok)
            chunks.append(f"{ser(T)} -> {key[1]} ; {ser(gg)}")
        problems = []
        if len(items) != SWITCHING_INPUTS:
            problems.append(f"{len(items)} switching inputs, expected {SWITCHING_INPUTS}")
        d = digest(chunks)
        return Verdict(failed, problems + _digest_problems(self.name, d), d)


class Identities(Workload):
    """The determinant formula at n=4, the three-way Schur expansion and
    coefficient extraction against enumeration counts."""

    name = "identities"

    def __init__(self, hk, seed, jobs):
        super().__init__(hk, seed, jobs)
        self.bounds = hk.EnumBounds(3, 2)
        self.items = (
            [("det", lam) for lam in hk.partitions_up_to(4)]
            + [("threeway", lam) for lam in hk.partitions_up_to(3)]
            + [("extract", lam) for lam in ((), (1,), (2, 1))]
        )

    def run_item(self, item):
        hk = self.hk
        kind, lam = item
        cap = sum(lam) + 2
        if kind == "det":
            lhs, rhs = hk.det_formula_check(lam, 4, cap)
            return lhs == rhs, lhs.serialize()
        if kind == "threeway":
            h = hk.hvt_genfun(lam, self.bounds, cap)
            exq = hk.schur_expansion_genfun(lam, self.bounds, cap, "EXQ")
            bft = hk.schur_expansion_genfun(lam, self.bounds, cap, "BFT")
            return h == exq and h == bft, h.serialize()
        counts = {
            m: c
            for m, c in hk.extract_weight_counts(lam, 3, cap).items()
            if m.x_degree <= cap
        }
        enum_counts = Counter(hk.weight_hvt(T) for T in hk.enum_hvt(lam, self.bounds))
        text = "\n".join(
            f"{c} * {m}" for m, c in sorted(counts.items(), key=lambda mc: mc[0].sort_key())
        )
        return counts == dict(enum_counts), text

    def check(self, items, results) -> Verdict:
        failed = []
        chunks = []
        for item, res in zip(items, results):
            if isinstance(res, Exception):
                failed.append(True)
                chunks.append(repr(res))
                continue
            equal, text = res
            failed.append(not equal)
            chunks.append(f"{item}\n{text}")
        d = digest(chunks)
        return Verdict(failed, _digest_problems(self.name, d), d)


CLI_VERBS = {
    "validate-hvt": ("validate", "--family", "hvt"),
    "validate-mixed": ("validate", "--family", "mixed"),
    "uncrowd": ("uncrowd", "--word", "LAinf", "--trace"),
    "shuffle": ("shuffle",),
    "switch": ("switch", "--all"),
    "ggjdt": ("ggjdt", "--trace"),
}


class Request(NamedTuple):
    kind: str
    argv: tuple
    stdin: str
    code: int
    stdout: str


class Cli(Workload):
    """A seeded sample of serialized tableaux sent through ``cli.run`` in
    process; every expected exit code and stdout is computed in set-up from
    library calls."""

    name = "cli"

    def __init__(self, hk, seed, jobs):
        super().__init__(hk, seed, jobs)
        rng = random.Random(seed)
        bounds = hk.EnumBounds(3, 2)
        hvts = [T for lam in hk.partitions_up_to(4) if lam for T in hk.enum_hvt(lam, bounds)]
        self.shapes = [(o, i) for o, i in hk.skew_shapes(5) if sum(o) > sum(i)]
        kinds = list(CLI_VERBS)
        for _ in range(CLI_REQUESTS):
            kind = rng.choice(kinds)
            invalid = rng.random() < CLI_INVALID_SHARE
            if kind in ("validate-hvt", "uncrowd"):
                T = self._broken_hvt(rng, hvts) if invalid else rng.choice(hvts)
                text = hk.serialize_hvt(T)
            else:
                T = self._unstrict_mixed(rng) if invalid else self._strict_mixed(rng)
                text = hk.serialize_mixed(T)
            code, out = self.expect(kind, T)
            self.items.append(Request(kind, CLI_VERBS[kind], text + "\n", code, out))

    def _strict_mixed(self, rng):
        """A member of the switching domain enum_sorted_strict(mu, lam, 3),
        by rejection: alphas fill nu/lam and betas mu/nu."""
        hk = self.hk
        while True:
            outer, inner = rng.choice(self.shapes)
            nu = rng.choice(hk.partitions_between(inner, outer))
            entries = {p: hk.alpha(rng.randint(1, 3)) for p in hk.shapes.skew_cells(nu, inner)}
            for p in hk.shapes.skew_cells(outer, nu):
                entries[p] = hk.beta(rng.randint(1, 3))
            T = hk.MixedTableau(outer, inner, entries)
            if self._strict(T):
                return T

    def _unstrict_mixed(self, rng):
        hk = self.hk
        pool = [hk.alpha(k) for k in (1, 2, 3)] + [hk.beta(k) for k in (1, 2, 3)]
        while True:
            outer, inner = rng.choice(self.shapes)
            cells = sorted(hk.shapes.skew_cells(outer, inner))
            T = hk.MixedTableau(outer, inner, {p: rng.choice(pool) for p in cells})
            if not self._strict(T):
                return T

    def _strict(self, T) -> bool:
        flags = self.hk.classify_mixed(T)
        return flags.alpha_column_strict and flags.beta_row_strict

    def _broken_hvt(self, rng, hvts):
        hk = self.hk
        while True:
            T = rng.choice(hvts)
            (r, c), _ = rng.choice(list(T.cells()))
            hook = rng.randint(1, 4)
            arms = sorted(rng.sample(range(1, 5), rng.randint(0, 1)))
            broken = T.replace(r, c, hk.HookCell(hook, arms, ()))
            if hk.hvt_violations(broken):
                return broken

    def expect(self, kind, T) -> tuple[int, str]:
        """Exit code and stdout of one request, from library calls alone."""
        hk = self.hk
        out = io.StringIO()
        if kind in ("validate-hvt", "uncrowd"):
            bad = hk.hvt_violations(T)
            if bad:
                for v in bad:
                    print(" ".join(str(x) for x in v), file=out)
                return 1, out.getvalue()
            if kind == "validate-hvt":
                return 0, f"valid (weight {hk.weight_hvt(T)})\n"
            # LAinf applies every arm step, then every leg step
            print(hk.serialize_hvt(T), file=out)
            cur = T
            steps = [("A", hk.arm_uncrowd)] * T.arm_excess + [("L", hk.leg_uncrowd)] * T.leg_excess
            for letter, step in steps:
                nxt, rec = step(cur)
                if rec is not None:
                    cur = nxt
                    print(f"--{letter}-->", file=out)
                    print(hk.serialize_hvt(cur), file=out)
            result = hk.uncrowd_canonical(T, "LA")
            print(f"P: {hk.serialize_hvt(result.insertion)}", file=out)
            print(f"Q: {hk.serialize_mixed(result.recording)}", file=out)
            return 0, out.getvalue()
        flags = hk.classify_mixed(T)
        if kind == "validate-mixed":
            print("valid", file=out)
            for name, value in flags._asdict().items():
                print(f"{name}: {value}", file=out)
            return 0, out.getvalue()
        if not (flags.alpha_column_strict and flags.beta_row_strict):
            return 1, ""
        ser = hk.serialize_mixed
        if kind == "shuffle":
            return 0, ser(hk.shuffle(T)) + "\n"
        if kind == "switch":
            return 0, ser(hk.fully_switch(T)) + "\n"
        result, steps = hk.gg_jdt(T, trace=True)
        print(ser(T), file=out)
        for step in steps:
            print("--slide-->", file=out)
            print(ser(step), file=out)
        print(f"E: {ser(result)}", file=out)
        return 0, out.getvalue()

    def direct(self, req: Request) -> tuple[int, str]:
        """The request answered by parse + library call + serialize, without
        the CLI."""
        family = "hvt" if req.kind in ("validate-hvt", "uncrowd") else "mixed"
        return self.expect(req.kind, self.hk.parse_tableau(req.stdin, family))

    def run_item(self, req: Request):
        out, err = io.StringIO(), io.StringIO()
        code = self.hk.cli.run(
            list(req.argv), stdin=io.StringIO(req.stdin), stdout=out, stderr=err
        )
        return code, out.getvalue()

    def check(self, items, results) -> Verdict:
        failed = []
        chunks = []
        for req, res in zip(items, results):
            if isinstance(res, Exception):
                failed.append(True)
                chunks.append(repr(res))
                continue
            code, out = res
            failed.append(code != req.code or out != req.stdout)
            chunks.append(f"{req.kind} {code}\n{out}")
        return Verdict(failed, [], digest(chunks))


WORKLOADS = {w.name: w for w in (Theorems, Switching, Identities, Cli)}
