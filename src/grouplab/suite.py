"""Batch runners: the 14-group table reproduction, the lemma/theorem
regression suite, and the conjecture falsification scan, with deterministic
JSON/CSV/text rendering.

Reports are deterministic for a fixed (config, seed): everything that varies
between runs (timestamps, wall times) lives under the "meta" key and nowhere
else.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from . import analysis, catalog, sol
from .perm import DEFAULT_CAP, FactoredInteger, PermGroup, parse_permutation, prime_power_base

SCHEMA = "grouplab-report/1"

_SELECTORS = ("all_class_reps", "orders", "explicit")
_FORMATS = ("text", "json", "csv")


def available_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# the seam between pool_map's two paths: "fork" forks the workers directly
# (_fork_map), so each inherits the groups this process has built; any other
# start method runs ProcessPoolExecutor with it, and None with the platform's
# default, where spawn and forkserver (the Linux default from Python 3.14)
# make each worker rebuild them
_START_METHOD = "fork" if sys.platform == "linux" else None

# task numbers go down the shared pipe in writes of this many bytes: 512 is
# the least PIPE_BUF that POSIX allows, so each write is atomic and, being a
# multiple of 4, every 4-byte read takes one whole task number
_TASK_WRITE = 512


def pool_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], in input order, on min(workers, len(items))
    worker processes; in this process when workers <= 1 or there is at most
    one item. A task's exception is raised here, the first in input order.

    On Linux the workers are forked directly (_fork_map). Elsewhere they run
    in a ProcessPoolExecutor, so fn must be a module-level function that
    pickles; under spawn, the start method there, each worker rebuilds the
    groups it needs."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    if _START_METHOD == "fork":
        return _fork_map(fn, items, workers)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_START_METHOD)
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items))


def _fork_map(fn, items: list, workers: int) -> list:
    """pool_map on `workers` forked processes that share one task pipe.

    Each worker reads 4-byte task numbers until EOF and runs fn(items[i]) for
    each; after its first exception it reads on but runs nothing more. It then
    writes one pickled reply on a pipe of its own: its (i, result) pairs and
    its first (i, exception), or None. Writing every task number before
    reading any reply cannot block for good, since the workers drain the task
    pipe whatever their tasks do. A worker ends in os._exit, so it runs none
    of this process's exit handlers and flushes none of the output buffers it
    inherited (a task that prints must flush). A worker that exits without a
    reply, or a reply that pickle cannot carry, raises RuntimeError here. On
    every path the pipes are closed and each worker is killed and reaped, so
    none outlives the call, not even one blocked on a large reply."""
    import pickle
    import signal

    tasks_r, tasks_w = os.pipe()
    unclosed = {tasks_r, tasks_w}
    replies: list[int] = []  # read ends, one per worker
    pids: list[int] = []
    try:
        for _ in range(workers):
            reply_r, reply_w = os.pipe()
            unclosed |= {reply_r, reply_w}
            pid = os.fork()
            if pid == 0:  # the worker: it never leaves this branch
                code = 1
                try:
                    # a worker holding the task pipe's write end would never see EOF
                    for fd in unclosed - {tasks_r, reply_w}:
                        os.close(fd)
                    _work(fn, items, tasks_r, reply_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            replies.append(reply_r)
            os.close(reply_w)
            unclosed.remove(reply_w)
        os.close(tasks_r)
        unclosed.remove(tasks_r)
        numbers = b"".join(i.to_bytes(4, "little") for i in range(len(items)))
        try:
            for start in range(0, len(numbers), _TASK_WRITE):
                os.write(tasks_w, numbers[start:start + _TASK_WRITE])
        except BrokenPipeError:
            pass  # every worker has exited; the missing replies say so below
        os.close(tasks_w)
        unclosed.remove(tasks_w)

        results: list = [None] * len(items)
        first = None  # the (i, exception) of the first failed task
        for fd in replies:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            if not chunks:
                raise RuntimeError("a pool worker exited without a reply")
            try:
                done, error = pickle.loads(b"".join(chunks))
            except Exception as exc:
                raise RuntimeError(f"a pool worker's reply could not be read: {exc}") from exc
            for i, result in done:
                results[i] = result
            if error is not None and (first is None or error[0] < first[0]):
                first = error
        if first is not None:
            raise first[1]
        return results
    finally:
        for fd in unclosed:
            os.close(fd)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)  # a zombie that has replied ignores it
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _work(fn, items: list, tasks: int, reply: int) -> None:
    """A forked worker's tasks and reply (see _fork_map)."""
    import pickle

    done: list[tuple] = []
    error = None
    while number := os.read(tasks, 4):
        if error is None:
            i = int.from_bytes(number, "little")
            try:
                done.append((i, fn(items[i])))
            except BaseException as exc:
                error = (i, exc)
    try:
        payload = pickle.dumps((done, error))
    except Exception as exc:  # a result or an exception that pickle cannot carry
        failure = RuntimeError(f"a pool worker could not send its reply: {exc}")
        payload = pickle.dumps(([], (-1, failure)))
    view = memoryview(payload)
    while view:
        view = view[os.write(reply, view):]


@dataclass(frozen=True)
class RunConfig:
    groups: tuple[str, ...] = catalog.TABLE1_NAMES
    selector: str = "all_class_reps"
    orders: tuple[int, ...] = ()
    elements: tuple[str, ...] = ()
    cap: int = DEFAULT_CAP
    workers: int = 0  # 0 = all available cores
    seed: int = 0
    format: str = "text"
    out: str | None = None
    include_psl31: bool = False
    product_powers: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = (str, type(None)) if f.default is None else type(f.default)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                want = getattr(kind, "__name__", "str or null")
                raise ValueError(f"config field {f.name} must be {want}, not {value!r}")
        for key, kind in (("groups", str), ("elements", str), ("orders", int)):
            if not all(isinstance(v, kind) and type(v) is not bool for v in getattr(self, key)):
                raise ValueError(f"config field {key} must list {kind.__name__} values")
        if self.selector not in _SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}; expected one of {_SELECTORS}")
        if self.format not in _FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {_FORMATS}")
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if not 0 <= self.product_powers <= 3:
            raise ValueError("product_powers must be between 0 and 3")
        if self.selector == "orders" and not self.orders:
            raise ValueError("selector 'orders' requires a nonempty order list")
        if self.selector == "explicit" and not self.elements:
            raise ValueError("selector 'explicit' requires explicit elements")
        named: set[str] = set()
        for name in self.groups:
            spec = catalog.group_spec(name)
            if spec.name in named:
                raise ValueError(f"group {spec.name} is named twice")
            named.add(spec.name)
            if spec.expected_order.value > self.cap:
                raise ValueError(
                    f"group {name} has order {spec.expected_order.value} over the cap {self.cap}"
                )

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else available_workers()

    def to_json(self) -> dict:
        return {
            "groups": list(self.groups),
            "selector": self.selector,
            "orders": list(self.orders),
            "elements": list(self.elements),
            "cap": self.cap,
            "workers": self.workers,
            "seed": self.seed,
            "format": self.format,
            "out": self.out,
            "include_psl31": self.include_psl31,
            "product_powers": self.product_powers,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        for key in ("groups", "orders", "elements"):
            if isinstance(known.get(key), list):
                known[key] = tuple(known[key])
        return cls(**known)


@dataclass(frozen=True)
class ConjectureScanRecord:
    group: str
    representative: str
    x_order: int
    sol_order: FactoredInteger
    conjecture: int
    status: str  # hypothesis_not_triggered | verified | COUNTEREXAMPLE
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "group": self.group,
            "representative": self.representative,
            "x_order": self.x_order,
            "sol_order": self.sol_order.to_json(),
            "conjecture": self.conjecture,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ----------------------------------------------------------------- helpers


def _rep_indices(G: PermGroup, config: RunConfig) -> list[int]:
    table = G.conjugacy_classes(config.cap)
    if config.selector == "all_class_reps":
        return list(range(len(table.classes)))
    if config.selector == "orders":
        wanted = set(config.orders)
        return [i for i, c in enumerate(table.classes) if c.element_order in wanted]
    # explicit cycle strings; every element must resolve to its class
    out = set()
    for text in config.elements:
        x = parse_permutation(text, G.degree)
        if not G.contains(x):
            raise ValueError(f"element {text} is not in the group")
        out.add(table.class_index(x))
    return sorted(out)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _run_task(task: tuple) -> tuple:
    """Run one ``(function, *args)`` task; return its result and its wall seconds."""
    fn, *args = task
    started = time.monotonic()
    result = fn(*args)
    return result, time.monotonic() - started


def _lemma_task(name: str, rep_idx: int, seed: int, cap: int, full: bool):
    G = catalog.build_named_group(name, cap)
    return sol.lemma_checks_for_rep(G, rep_idx, name, seed, cap, full_equivariance=full)


def _quotient_task(name: str, mode: str, rep_idx: int, cap: int) -> dict:
    G = catalog.build_named_group(name, cap)
    N = analysis.center(G, cap) if mode == "center" else analysis.derived_subgroup(G)
    x = G.conjugacy_classes(cap).classes[rep_idx].representative
    report = sol.quotient_sol_check(G, N, x, cap)
    return {**report.to_json(), "group": name, "kernel": mode}


def _product_task(m: int, cap: int) -> dict:
    pgl = catalog.build_named_group("PGL2:7", cap)
    x8 = next(
        c.representative
        for c in pgl.conjugacy_classes(cap).classes
        if c.element_order == 8
    )
    A = catalog.build_named_group(f"C:{2 ** m}", cap)
    report = sol.direct_product_sol_check(A, pgl, x8, cap)
    return {**report.to_json(), "product": f"C:{2 ** m} x PGL2:7"}


def _explore_task(name: str, rep_idx: int, cap: int) -> dict:
    G = catalog.build_named_group(name, cap)
    cls = G.conjugacy_classes(cap).classes[rep_idx]
    result = sol.solubilizer(G, cls.representative, cap)
    return {
        **result.to_json(),
        "is_two_group": prime_power_base(result.order.value) == 2,
        "group": name,
    }


# ------------------------------------------------------------------ table1


def _table1_row(name: str, cap: int) -> dict:
    spec = catalog.group_spec(name)
    row = catalog.catalog_row(name, cap)
    G = catalog.build_named_group(name, cap)
    radical = analysis.soluble_radical(G, cap).radical.order
    ok = (
        G.order == spec.expected_order.value
        and row["insoluble"]
        and row["fitting_order"] == 1
        and radical == 1
    )
    items = list(row.items())
    items.insert(3, ("expected_order", spec.expected_order.value))  # right after "order"
    items += [("radical_order", radical), ("ok", ok)]
    return dict(items)


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[dict, ...]
    seed: int
    meta: dict = field(compare=False)

    @property
    def all_ok(self) -> bool:
        return all(r["ok"] for r in self.rows)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "table1",
            "seed": self.seed,
            "all_ok": self.all_ok,
            "rows": list(self.rows),
            "meta": self.meta,
        }


def run_table1(config: RunConfig | None = None) -> Table1Report:
    """Reproduce the 14-row trivial-Fitting table: order, insolubility,
    |Fit(G)| = 1 and |R(G)| = 1 for every catalog group."""
    config = config or RunConfig()
    started = _utc_now()
    tasks = [(_table1_row, name, config.cap) for name in catalog.TABLE1_NAMES]
    results = pool_map(_run_task, tasks, config.resolved_workers())
    meta = {
        "started": started,
        "finished": _utc_now(),
        "wall_times": {row["group"]: round(seconds, 3) for row, seconds in results},
    }
    return Table1Report(tuple(row for row, _ in results), config.seed, meta)


# -------------------------------------------------------------------- scan


def _scan_records_for_rep(name: str, rep_idx: int, cap: int) -> list[ConjectureScanRecord]:
    G = catalog.build_named_group(name, cap)
    cls = G.conjugacy_classes(cap).classes[rep_idx]
    x = cls.representative
    rep = x.cycle_string()
    result = sol.solubilizer(G, x, cap)
    s = result.order.value
    records = []

    def emit(conj: int, status: str, witness: dict | None = None):
        records.append(
            ConjectureScanRecord(name, rep, cls.element_order, result.order, conj, status, witness)
        )

    counterexample = {"group": name, "element": rep, "sol_order": s}

    # C1: |Sol| = 2^n implies Sol is a subgroup
    if prime_power_base(s) == 2:
        emit(1, "verified" if result.is_subgroup else "COUNTEREXAMPLE",
             None if result.is_subgroup else counterexample)
    else:
        emit(1, "hypothesis_not_triggered")

    # C2: |Sol| is never a power of an odd prime
    base = prime_power_base(s)
    odd_power = base is not None and base != 2
    emit(2, "COUNTEREXAMPLE" if odd_power else "verified", counterexample if odd_power else None)

    # C3: |N_G(<x>)| divides |Sol|
    n_order = result.normalizer_order.value
    divides = s % n_order == 0
    emit(3, "verified" if divides else "COUNTEREXAMPLE",
         None if divides else {**counterexample, "normalizer_order": n_order})
    return records


@dataclass(frozen=True)
class ConjectureScanReport:
    records: tuple[ConjectureScanRecord, ...]
    seed: int
    meta: dict = field(compare=False)

    @property
    def counterexamples(self) -> list[ConjectureScanRecord]:
        return [r for r in self.records if r.status == "COUNTEREXAMPLE"]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "conjecture_scan",
            "seed": self.seed,
            "counterexamples": len(self.counterexamples),
            "records": [r.to_json() for r in self.records],
            "meta": self.meta,
        }


def run_conjecture_scan(config: RunConfig | None = None) -> ConjectureScanReport:
    """Falsification scan for the three open conjectures over every selected
    class representative. Soluble groups satisfy all three trivially and are
    skipped with hypothesis_not_triggered markers."""
    config = config or RunConfig()
    started = _utc_now()
    tasks: list[tuple] = []
    skipped: list[ConjectureScanRecord] = []
    for name in config.groups:
        if catalog.group_spec(name).flags.get("soluble", False):
            one = FactoredInteger.from_int(1)
            for conj in (1, 2, 3):
                skipped.append(
                    ConjectureScanRecord(
                        name, "", 0, one, conj, "hypothesis_not_triggered",
                        {"reason": "soluble ambient group"},
                    )
                )
            continue
        G = catalog.build_named_group(name, config.cap)
        tasks.extend(
            (_scan_records_for_rep, name, rep_idx, config.cap)
            for rep_idx in _rep_indices(G, config)
        )
    records = list(skipped)
    for chunk, _ in pool_map(_run_task, tasks, config.resolved_workers()):
        records.extend(chunk)
    meta = {"started": started, "finished": _utc_now()}
    return ConjectureScanReport(tuple(records), config.seed, meta)


# -------------------------------------------------------------- full suite


# quotient exercises shipped with the default suite: a soluble kernel
# (center of SL(2,7), equality expected) and an insoluble one (derived
# subgroup of S5, containment only)
_QUOTIENT_SECTIONS = (("SL2:7", "center"), ("S:5", "derived"))


@dataclass(frozen=True)
class FullSuiteReport:
    config: RunConfig
    groups: tuple[dict, ...]
    quotient_checks: tuple[dict, ...]
    product_checks: tuple[dict, ...]
    exploration: tuple[dict, ...]
    meta: dict = field(compare=False)

    @property
    def all_passed(self) -> bool:
        return (
            all(g["all_passed"] for g in self.groups)
            and all(q["passed"] for q in self.quotient_checks)
            and all(p["passed"] for p in self.product_checks)
        )

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "full_suite",
            "seed": self.config.seed,
            "config": self.config.to_json(),
            "all_passed": self.all_passed,
            "groups": list(self.groups),
            "quotient_checks": list(self.quotient_checks),
            "product_checks": list(self.product_checks),
            "exploration": list(self.exploration),
            "meta": self.meta,
        }


def run_full_suite(config: RunConfig | None = None) -> FullSuiteReport:
    """The full regression battery: every lemma item and theorem instance at
    every selected representative of every selected group, plus the quotient
    and direct-product exercises, assembled in catalog order."""
    config = config or RunConfig()
    started = _utc_now()
    walls: dict[str, float] = {}

    group_names = list(config.groups)
    if config.include_psl31 and "PSL2:31" not in group_names:
        group_names.append("PSL2:31")

    group_tasks: list[tuple[str, list[tuple]]] = []
    for name in group_names:
        t0 = time.monotonic()
        G = catalog.build_named_group(name, config.cap)
        indices = _rep_indices(G, config)
        walls[f"prepare:{name}"] = round(time.monotonic() - t0, 3)
        # the one full Sol(x^g) = Sol(x)^g recomputation per group runs at the
        # first non-identity class, which is index 1: classes are sorted by
        # element order and the identity is the only element of order 1
        group_tasks.append((name, [
            (_lemma_task, name, rep_idx, config.seed, config.cap, rep_idx == 1)
            for rep_idx in indices
        ]))

    # report section (a FullSuiteReport field) -> its tasks, in report order
    sections: dict[str, list[tuple]] = {
        "quotient_checks": [],
        "product_checks": [(_product_task, m, config.cap)
                           for m in range(1, config.product_powers + 1)],
        "exploration": [],
    }
    if config.selector == "all_class_reps" and tuple(config.groups) == catalog.TABLE1_NAMES:
        for name, mode in _QUOTIENT_SECTIONS:
            G = catalog.build_named_group(name, config.cap)
            sections["quotient_checks"].extend(
                (_quotient_task, name, mode, rep_idx, config.cap)
                for rep_idx in range(len(G.conjugacy_classes(config.cap).classes))
            )
    if config.include_psl31:
        G = catalog.build_named_group("PSL2:31", config.cap)
        sections["exploration"].extend(
            (_explore_task, "PSL2:31", rep_idx, config.cap) for rep_idx in _rep_indices(G, config)
        )

    t0 = time.monotonic()
    all_tasks = [t for _, tasks in group_tasks + list(sections.items()) for t in tasks]
    results = iter(pool_map(_run_task, all_tasks, config.resolved_workers()))
    walls["checks"] = round(time.monotonic() - t0, 3)

    def take(key: str, tasks: list) -> list:
        """The next len(tasks) results, with their summed seconds under checks:<key>."""
        timed = [next(results) for _ in tasks]
        walls[f"checks:{key}"] = round(sum(seconds for _, seconds in timed), 3)
        return [payload for payload, _ in timed]

    groups: list[dict] = []
    for name, tasks in group_tasks:
        lemma_records: list[sol.CheckRecord] = []
        theorem_records: list[sol.CheckRecord] = []
        for lemma, thm in take(name, tasks):
            lemma_records.extend(lemma)
            theorem_records.extend(thm)
        groups.append(
            {
                "group": name,
                "order": catalog.group_spec(name).expected_order.to_json(),
                "representatives": len(tasks),
                "all_passed": all(r.passed for r in lemma_records + theorem_records),
                "lemma_checks": [r.to_json() for r in lemma_records],
                "theorem_checks": [r.to_json() for r in theorem_records],
            }
        )
    done = {key: tuple(take(key, tasks)) if tasks else () for key, tasks in sections.items()}

    meta = {"started": started, "finished": _utc_now(), "wall_times": walls}
    return FullSuiteReport(config, tuple(groups), meta=meta, **done)


# --------------------------------------------------------------- rendering


_CSV_HEADER = ["group", "representative", "check", "status", "detail"]


def _detail(d: dict, skip=()) -> str:
    parts = []
    for k, v in d.items():
        if k in skip or isinstance(v, (dict, list)):
            continue
        parts.append(f"{k}={v}")
    return ";".join(parts)


def _table1_layout(doc: dict) -> tuple[list[str], list[list]]:
    lines = [f"{'group':14s} {'order':>8s} {'insoluble':>9s} {'|Fit|':>6s} {'|R|':>4s} ok"]
    rows = []
    for r in doc["rows"]:
        status = "pass" if r["ok"] else "FAIL"
        lines.append(
            f"{r['group']:14s} {r['order']['value']:8d} {str(r['insoluble']):>9s}"
            f" {r['fitting_order']:6d} {r['radical_order']:4d} {status}"
        )
        detail = _detail(r, skip=("group", "ok", "order")) + f";order={r['order']['value']}"
        rows.append([r["group"], "", "table1_row", status, detail])
    lines.append(f"table1: {'all rows pass' if doc['all_ok'] else 'MISMATCH'}")
    return lines, rows


def _scan_layout(doc: dict) -> tuple[list[str], list[list]]:
    lines = []
    rows = []
    counts: dict[str, int] = {}
    for r in doc["records"]:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
        if r["status"] == "COUNTEREXAMPLE":
            lines.append(
                f"COUNTEREXAMPLE conjecture {r['conjecture']}: group={r['group']}"
                f" element={r['representative']} |Sol|={r['sol_order']['value']}"
            )
        rows.append(
            [
                r["group"],
                r["representative"],
                f"conjecture_{r['conjecture']}",
                r["status"],
                f"x_order={r['x_order']};sol_order={r['sol_order']['value']}",
            ]
        )
    lines.append(
        "scan: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return lines, rows


def _suite_layout(doc: dict) -> tuple[list[str], list[list]]:
    lines = []
    rows = []
    for g in doc["groups"]:
        n_checks = len(g["lemma_checks"]) + len(g["theorem_checks"])
        failed = [
            c
            for c in g["lemma_checks"] + g["theorem_checks"]
            if not c["passed"]
        ]
        lines.append(
            f"{g['group']:14s} reps={g['representatives']:3d} checks={n_checks:4d} "
            + ("pass" if g["all_passed"] else f"FAIL ({len(failed)})")
        )
        for c in failed:
            lines.append(f"  FAIL {c['item']} at {c['rep']}: {c.get('witness')}")
        for section, key in (("lemma", "lemma_checks"), ("theorem", "theorem_checks")):
            for c in g[key]:
                status = (
                    "pass" if c["passed"] else "FAIL"
                ) if c["triggered"] else "not_triggered"
                rows.append([g["group"], c["rep"], f"{section}:{c['item']}", status, ""])
    for q in doc["quotient_checks"]:
        status = "pass" if q["passed"] else "FAIL"
        lines.append(f"quotient {q['group']}/{q['kernel']} at {q['rep']}: {status}")
        rows.append(
            [
                q["group"],
                q["rep"],
                f"quotient:{q['kernel']}",
                status,
                _detail(q, skip=("group", "rep", "kernel", "passed")),
            ]
        )
    for p in doc["product_checks"]:
        status = "pass" if p["passed"] else "FAIL"
        lines.append(f"product {p['product']} at {p['rep']}: |Sol|={p['sol_in_product']} {status}")
        rows.append(
            [
                p["product"],
                p["rep"],
                "product",
                status,
                _detail(p, skip=("product", "rep", "passed")),
            ]
        )
    for e in doc["exploration"]:
        lines.append(
            f"exploration {e['group']} at {e['element']} (|x|={e['element_order']}):"
            f" |Sol|={e['order']['value']} subgroup={e['is_subgroup']}"
            f" two_group={e['is_two_group']}"
        )
        rows.append(
            [
                e["group"],
                e["element"],
                "exploration",
                "reported",
                f"sol_order={e['order']['value']};is_subgroup={e['is_subgroup']}"
                f";is_two_group={e['is_two_group']}",
            ]
        )
    lines.append(f"suite: {'all passed' if doc['all_passed'] else 'FAILURES PRESENT'}")
    return lines, rows


def _sol_layout(doc: dict) -> tuple[list[str], list[list]]:
    r = doc["result"]
    ell = doc["ell"]
    label = r["structure"]["label"] if r["structure"] else None
    # the document has no ambient order; the spec's is the one the build validated
    lines = [
        f"group: {doc['group']} (order {catalog.group_spec(doc['group']).expected_order})",
        f"element: {r['element']}  (order {r['element_order']})",
        f"|Sol| = {FactoredInteger.from_int(r['order']['value'])}",
        f"subgroup: {'yes' if r['is_subgroup'] else 'no'}",
        f"structure: {label or '-'}",
        f"normalizer order: {FactoredInteger.from_int(r['normalizer_order']['value'])}",
        f"centralizer order: {FactoredInteger.from_int(r['centralizer_order']['value'])}",
        f"ell: {ell['ell'] if ell['ell'] is not None else '-'}  dichotomy: {ell['dichotomy']}",
    ]
    detail = (
        f"sol_order={r['order']['value']};is_subgroup={r['is_subgroup']}"
        f";structure={label or ''}"
        f";normalizer={r['normalizer_order']['value']}"
        f";centralizer={r['centralizer_order']['value']}"
        f";ell={ell['ell']};dichotomy={ell['dichotomy']}"
    )
    return lines, [[doc["group"], r["element"], "sol", "reported", detail]]


def _catalog_layout(doc: dict) -> tuple[list[str], list[list]]:
    lines = [f"{'group':14s} {'degree':>6s} {'order':>8s} {'insoluble':>9s} {'|Fit|':>6s}"]
    rows = []
    for r in doc["rows"]:
        lines.append(
            f"{r['group']:14s} {r['degree']:6d} {r['order']['value']:8d}"
            f" {str(r['insoluble']):>9s} {r['fitting_order']:6d}"
        )
        detail = (
            f"degree={r['degree']};order={r['order']['value']}"
            f";insoluble={r['insoluble']};fitting={r['fitting_order']}"
        )
        rows.append([r["group"], "", "catalog_row", "ok", detail])
    return lines, rows


# report kind -> the report's text lines and CSV rows, both built from its
# JSON document
_LAYOUTS = {
    "table1": _table1_layout,
    "conjecture_scan": _scan_layout,
    "full_suite": _suite_layout,
    "sol": _sol_layout,
    "catalog": _catalog_layout,
}


def render(doc: dict, fmt: str) -> str:
    """A report's JSON document (``report.to_json()``) as json, csv or text."""
    if fmt == "json":
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    lines, rows = _LAYOUTS[doc["kind"]](doc)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([_CSV_HEADER] + rows)
        return buf.getvalue()
    return "\n".join(lines) + "\n"
