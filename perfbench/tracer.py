"""Span tracing around the calls between grouplab modules.

The tracer patches module attributes from outside the package: each wrapped
name is replaced where its callers look it up (``sol.closure_test``,
``analysis._soluble_raw``, ``perm._Chain.extend``, ...), so nothing under
``src/`` changes. Every wrapped call records a span ``(id, name, start, end,
parent)``; spans stay in memory until the run ends and are then written out.

Two boundaries are too hot for one record per call:

* ``perm._Chain.extend`` runs hundreds of thousands of times per workload, so
  it keeps only its call count, how often the chain grew and its total time;
  that time is still charged to the enclosing span, so self times stay exact.
* ``perm._raw_mult`` is not wrapped at all: at about 0.5 us per call a wrapper
  would cost more than the call.

A span's self time is its duration minus the time covered by its child spans
(and by the ``extend`` calls made directly under it).
"""

from __future__ import annotations

import contextlib
import json
import math
import time

# (module, attribute owner, attribute, span name). Functions that several
# modules import by name are patched in each importing module.
_SPANS = (
    ("catalog", None, "build_named_group", "catalog.build_named_group"),
    ("perm", "PermGroup", "conjugacy_classes", "perm.conjugacy_classes"),
    ("perm", None, "closure_test", "perm.closure_test"),
    ("sol", None, "closure_test", "perm.closure_test"),
    ("analysis", None, "is_soluble", "analysis.is_soluble"),
    ("analysis", None, "soluble_radical", "analysis.soluble_radical"),
    ("analysis", None, "sylow_subgroup", "analysis.sylow_subgroup"),
    ("analysis", None, "is_simple", "analysis.is_simple"),
    ("analysis", None, "fitting_subgroup", "analysis.fitting_subgroup"),
    ("sol", None, "solubilizer", "sol.solubilizer"),
    ("sol", None, "ell_invariant", "sol.ell_invariant"),
    ("sol", None, "sol_core_check", "sol.sol_core_check"),
    ("sol", None, "identify_small_group", "sol.identify_small_group"),
    ("sol", None, "quotient_sol_check", "sol.quotient_sol_check"),
    ("sol", None, "lemma_checks_for_rep", "sol.lemma_checks_for_rep"),
    ("suite", None, "render", "suite.render"),
)

PAIR_SOLUBLE = "analysis.pair_test.soluble"
PAIR_INSOLUBLE = "analysis.pair_test.insoluble"


class Tracer:
    """Records spans for one traced run. Use install() once per process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, name, start, end, parent, self_s)
        self.stack: list[list] = []  # open frames: [id, name, start, child_s, pair_tests]
        self.next_id = 0
        self.open_names: dict[str, int] = {}
        # name -> [calls, inclusive seconds (outermost calls only), self seconds]
        self.totals: dict[str, list] = {}
        self.extend = [0, 0, 0.0]  # calls, grew, seconds
        self.sol_calls: list[tuple[int, int]] = []  # (direct pair tests, |Sol|)
        self.radical_checks: dict[int, int] = {}  # id(certificate) -> witness checks
        self.groups_seen: set[int] = set()
        self.cold_builds = 0
        self._restore: list[tuple] = []

    # -------------------------------------------------------------- frames

    def _enter(self, name: str) -> list:
        frame = [self.next_id, name, self.clock(), 0.0, 0]
        self.next_id += 1
        self.open_names[name] = self.open_names.get(name, 0) + 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str | None = None) -> None:
        end = self.clock()
        span_id, opened, start, child_s, _ = frame
        name = name or opened
        self.stack.pop()
        dur = end - start
        self_s = dur - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, self_s))
        depth = self.open_names[opened] - 1
        self.open_names[opened] = depth
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        if depth == 0:
            tot[1] += dur
        tot[2] += self_s

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, orig, name: str):
        enter, leave = self._enter, self._exit
        after = {
            "catalog.build_named_group": self._after_build,
            "analysis.soluble_radical": self._after_radical,
        }.get(name)

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _wrap_solubilizer(self, orig):
        enter, leave, calls = self._enter, self._exit, self.sol_calls

        def solubilizer(*args, **kwargs):
            frame = enter("sol.solubilizer")
            try:
                result = orig(*args, **kwargs)
            finally:
                leave(frame)
            calls.append((frame[4], result.order.value))
            return result

        solubilizer.__wrapped__ = orig
        return solubilizer

    def _wrap_pair_test(self, orig):
        enter, leave, stack = self._enter, self._exit, self.stack

        def _soluble_raw(n, gens):
            frame = enter("analysis.pair_test")
            result = False
            try:
                result = orig(n, gens)
            finally:
                leave(frame, PAIR_SOLUBLE if result else PAIR_INSOLUBLE)
            if stack:
                stack[-1][4] += 1
            return result

        _soluble_raw.__wrapped__ = orig
        return _soluble_raw

    def _wrap_extend(self, orig):
        clock, stack, agg = self.clock, self.stack, self.extend

        def extend(chain, g):
            t0 = clock()
            grew = orig(chain, g)
            dur = clock() - t0
            agg[0] += 1
            agg[1] += grew
            agg[2] += dur
            if stack:
                stack[-1][3] += dur
            return grew

        extend.__wrapped__ = orig
        return extend

    def _after_build(self, group) -> None:
        if id(group) not in self.groups_seen:
            self.groups_seen.add(id(group))
            self.cold_builds += 1

    def _after_radical(self, cert) -> None:
        self.radical_checks.setdefault(id(cert), cert.witness_checks)

    # --------------------------------------------------------- patch/unpatch

    def install(self, modules: dict) -> None:
        """Patch the grouplab modules given as {"perm": module, ...}."""
        wrapped: dict[int, object] = {}  # id(original) -> wrapper, shared by importers

        def patch(owner, attr, make):
            orig = getattr(owner, attr)
            if id(orig) not in wrapped:
                wrapped[id(orig)] = make(orig)
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, wrapped[id(orig)])

        for mod_name, cls_name, attr, name in _SPANS:
            owner = modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            if name == "sol.solubilizer":
                patch(owner, attr, self._wrap_solubilizer)
            else:
                patch(owner, attr, lambda orig, name=name: self._wrap(orig, name))
        patch(modules["analysis"], "_soluble_raw", self._wrap_pair_test)
        patch(modules["perm"]._Chain, "extend", self._wrap_extend)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------- results

    def counters(self) -> dict:
        """The work counters that must repeat exactly from run to run."""
        cold = [c for c in self.sol_calls if c[0] > 0]
        return {
            "calls": {name: tot[0] for name, tot in sorted(self.totals.items())},
            "perm.chain_extend.calls": self.extend[0],
            "perm.chain_extend.grew": self.extend[1],
            "catalog.build_named_group.cold_calls": self.cold_builds,
            "sol.solubilizer.cache_hits": len(self.sol_calls) - len(cold),
            "sol.solubilizer.pair_tests": sum(c[0] for c in cold),
            "sol.solubilizer.members": sum(c[1] for c in cold),
            "analysis.soluble_radical.witness_checks": sum(self.radical_checks.values()),
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics: name -> {value, unit, base, samples}."""
        out: dict[str, dict] = {}
        counters = self.counters()

        def put(name, value, unit, base, samples):
            out[name] = {"value": value, "unit": unit, "base": base, "samples": samples}

        def timed(span, with_calls=False, with_self=False):
            calls, incl, self_s = self.totals.get(span, (0, 0.0, 0.0))
            if with_calls:
                put(f"{span}.calls", calls, "count", "calls", calls)
            put(f"{span}.s", incl, "s", "outermost calls, inclusive", calls)
            if with_self:
                put(f"{span}.self_s", self_s, "s", "all calls, minus child spans", calls)
            return calls, incl

        builds = self.totals.get("catalog.build_named_group", (0,))[0]
        put("catalog.build_named_group.cold_calls", counters["catalog.build_named_group.cold_calls"],
            "count", "calls that built a new group", builds)
        timed("catalog.build_named_group")

        timed("perm.conjugacy_classes")
        ext_calls, grew, ext_s = self.extend
        put("perm.chain_extend.calls", ext_calls, "count", "_Chain.extend calls", ext_calls)
        put("perm.chain_extend.grew", grew, "count", "extend calls that grew the chain", ext_calls)
        put("perm.chain_extend.self_s", ext_s, "s", "all extend calls", ext_calls)
        timed("perm.closure_test", with_calls=True)

        for name in (PAIR_INSOLUBLE, PAIR_SOLUBLE):
            calls, secs = timed(name, with_calls=True)
            put(f"{name}.us_mean", 1e6 * secs / calls if calls else 0.0,
                "us", "per pair test with this outcome", calls)
        timed("analysis.soluble_radical")
        put("analysis.soluble_radical.witness_checks",
            counters["analysis.soluble_radical.witness_checks"], "count",
            "pair tests of the cold radical computations", len(self.radical_checks))
        for name in ("sylow_subgroup", "is_simple", "fitting_subgroup"):
            timed(f"analysis.{name}")

        calls, _ = timed("sol.solubilizer", with_calls=True, with_self=True)
        put("sol.solubilizer.cache_hits", counters["sol.solubilizer.cache_hits"], "count",
            "calls that issued no pair test", calls)
        tests = counters["sol.solubilizer.pair_tests"]
        put("sol.solubilizer.pair_tests", tests, "count",
            "pair tests issued directly by solubilizer calls", calls)
        put("sol.solubilizer.members_per_test",
            counters["sol.solubilizer.members"] / tests if tests else 0.0, "ratio",
            "sum of |Sol| over calls that ran pair tests / their pair tests", tests)
        for name in ("ell_invariant", "sol_core_check", "identify_small_group",
                     "quotient_sol_check"):
            timed(f"sol.{name}")
        lemma = sorted(self.durations("sol.lemma_checks_for_rep"))
        put("sol.lemma_checks_for_rep.calls", len(lemma), "count", "calls", len(lemma))
        put("sol.lemma_checks_for_rep.p50_s", percentile(lemma, 50), "s",
            "per call, median", len(lemma))
        pct = tail_percentile(len(lemma), 90)
        put("sol.lemma_checks_for_rep.p90_s", percentile(lemma, pct), "s",
            f"per call, percentile {pct} (highest <= 90 with 10 samples beyond)", len(lemma))
        timed("suite.render")
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def write(self, path, header: dict) -> None:
        """Write the header and every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write('["id", "name", "start", "end", "parent", "self_s"]\n')
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def tail_percentile(samples: int, target: int) -> int:
    """The highest whole percentile up to ``target`` that leaves at least ten
    samples beyond it, and never below the median."""
    for pct in range(target, 50, -1):
        if samples - math.ceil(pct * samples / 100) >= 10:
            return pct
    return 50
