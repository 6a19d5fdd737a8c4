"""Batch runners: the 14-group table reproduction, the lemma/theorem
regression suite, and the conjecture falsification scan, with deterministic
JSON/CSV/text rendering.

Each runner returns its report as the JSON document itself: a dict of plain
JSON values whose keys are in report order, which render() prints as json,
csv or text and from which the CLI reads its exit code. The json format is
the canonical two-space dump of the document, json.dumps(doc, indent=2,
ensure_ascii=False) plus a newline, byte for byte.

The runners give pool_map one task per group or report section, so that a
group's solubilizers share one process, and each task returns a finished part
of the document: a suite group's groups[] entry, a section's or a scanned
group's records, or a Table 1 row.

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
from datetime import datetime, timezone
from functools import cache, partial
from itertools import chain
from typing import NamedTuple

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


class _RunConfigFields(NamedTuple):
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


class RunConfig(_RunConfigFields):
    """The fields of _RunConfigFields, checked on every construction."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable) -> "RunConfig":
        # _replace builds its result through _make, so it is checked too
        return cls(*iterable)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            default = self._field_defaults[name]
            kind = (str, type(None)) if default is None else type(default)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                want = getattr(kind, "__name__", "str or null")
                raise ValueError(f"config field {name} must be {want}, not {value!r}")
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
        if self.orders and self.selector != "orders":
            raise ValueError(f"orders are only read under selector 'orders', not {self.selector!r}")
        if self.elements and self.selector != "explicit":
            raise ValueError(
                f"elements are only read under selector 'explicit', not {self.selector!r}"
            )
        named: set[str] = set()
        for name in self.groups:
            spec = catalog.group_spec(name)
            if spec.name in named:
                raise ValueError(f"group {spec.name} is named twice")
            named.add(spec.name)
        products = [f"C:{2 ** m} x PGL2:7" for m in range(1, self.product_powers + 1)]
        for name in self.group_names() + products:
            order = catalog.group_spec(name).expected_order.value
            if order > self.cap:
                raise ValueError(f"group {name} has order {order} over the cap {self.cap}")
        return self

    def group_names(self) -> list[str]:
        """The groups whose checks or catalog rows a run builds: groups, then
        PSL2:31 under include_psl31 unless groups names it."""
        names = list(self.groups)
        if self.include_psl31 and "PSL2:31" not in names:
            names.append("PSL2:31")
        return names

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else available_workers()

    def to_json(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        known = {f: data[f] for f in cls._fields if f in data}
        extra = set(data) - set(cls._fields)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        for key in ("groups", "orders", "elements"):
            if isinstance(known.get(key), list):
                known[key] = tuple(known[key])
        return cls(**known)


# ----------------------------------------------------------------- helpers


def _rep_indices(G: PermGroup, config: RunConfig) -> list[int]:
    table = G.conjugacy_classes()
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


def _require_a_match(config: RunConfig, selected: dict[str, list]):
    """ValueError when the orders selector picked no class representative in
    any group the run built, so a run that would check nothing fails instead
    of reporting a pass. selected maps each built group to what it picked."""
    if config.selector == "orders" and selected and not any(selected.values()):
        orders = " or ".join(map(str, config.orders))
        raise ValueError(f"no class representative of order {orders} in {', '.join(selected)}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _run_task(task: tuple) -> tuple:
    """Run one ``(function, *args)`` task; return its result and its wall seconds."""
    fn, *args = task
    started = time.monotonic()
    result = fn(*args)
    return result, time.monotonic() - started


def _group_task(name: str, indices: list[int], seed: int, cap: int) -> dict:
    """One group's finished groups[] entry: the battery at each selected class
    representative, in one process, with the one full Sol(x^g) = Sol(x)^g
    recomputation at index 1, the first class past the identity's."""
    G = catalog.build_named_group(name, cap)
    pairs = [sol.lemma_checks_for_rep(G, i, name, seed) for i in indices]
    lemma_records = [r for lemma, _ in pairs for r in lemma]
    theorem_records = [r for _, theorem in pairs for r in theorem]
    return {
        "group": name,
        "order": catalog.group_spec(name).expected_order.to_json(),
        "representatives": len(indices),
        "all_passed": all(r["passed"] for r in lemma_records + theorem_records),
        "lemma_checks": lemma_records,
        "theorem_checks": theorem_records,
    }


def _quotient_task(name: str, mode: str, cap: int) -> list[dict]:
    """One quotient section's records, a record per class, with N built once."""
    G = catalog.build_named_group(name, cap)
    N = analysis.center(G) if mode == "center" else analysis.derived_subgroup(G)
    return [{**sol.quotient_sol_check(G, N, cls.representative), "group": name, "kernel": mode}
            for cls in G.conjugacy_classes().classes]


def _product_task(m: int, cap: int) -> list[dict]:
    pgl = catalog.build_named_group("PGL2:7", cap)
    x8 = next(c.representative for c in pgl.conjugacy_classes().classes
              if c.element_order == 8)
    A = catalog.build_named_group(f"C:{2 ** m}", cap)
    return [{**sol.direct_product_sol_check(A, pgl, x8), "product": f"C:{2 ** m} x PGL2:7"}]


def _explore_task(name: str, indices: list[int], cap: int) -> list[dict]:
    G = catalog.build_named_group(name, cap)
    classes = G.conjugacy_classes().classes
    results = [sol.solubilizer(G, classes[i].representative) for i in indices]
    return [{**r.to_json(), "is_two_group": prime_power_base(r.order.value) == 2, "group": name}
            for r in results]


# ------------------------------------------------------------------ table1


def _table1_row(name: str, cap: int) -> dict:
    spec = catalog.group_spec(name)
    row = catalog.catalog_row(name, cap)
    G = catalog.build_named_group(name, cap)
    radical = analysis.soluble_radical(G).radical.order
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


def run_table1(config: RunConfig | None = None) -> dict:
    """Reproduce the 14-row trivial-Fitting table: order, insolubility,
    |Fit(G)| = 1 and |R(G)| = 1 for every catalog group. Returns the report's
    JSON document."""
    config = config or RunConfig()
    started = _utc_now()
    tasks = [(_table1_row, name, config.cap) for name in catalog.TABLE1_NAMES]
    results = pool_map(_run_task, tasks, config.resolved_workers())
    rows = [row for row, _ in results]
    return {
        "schema": SCHEMA,
        "kind": "table1",
        "seed": config.seed,
        "all_ok": all(r["ok"] for r in rows),
        "rows": rows,
        "meta": {
            "started": started,
            "finished": _utc_now(),
            "wall_times": {row["group"]: round(seconds, 3) for row, seconds in results},
        },
    }


# -------------------------------------------------------------------- scan


def _scan_record(group: str, rep: str, x_order: int, sol_order: FactoredInteger, conj: int,
                 status: str, witness: dict | None = None) -> dict:
    """One record of the scan's document; status is hypothesis_not_triggered,
    verified or COUNTEREXAMPLE, and witness is left out when there is none."""
    record = {
        "group": group,
        "representative": rep,
        "x_order": x_order,
        "sol_order": sol_order.to_json(),
        "conjecture": conj,
        "status": status,
    }
    if witness is not None:
        record["witness"] = witness
    return record


def _scan_group_task(name: str, indices: list[int], cap: int) -> list[dict]:
    """One insoluble group's scan records, three per selected representative."""
    G = catalog.build_named_group(name, cap)
    records = []
    for rep_idx in indices:
        cls = G.conjugacy_classes().classes[rep_idx]
        rep = cls.representative.cycle_string()
        result = sol.solubilizer(G, cls.representative)
        s = result.order.value
        emit = partial(_scan_record, name, rep, cls.element_order, result.order)
        counterexample = {"group": name, "element": rep, "sol_order": s}
        base = prime_power_base(s)

        # C1: |Sol| = 2^n implies Sol is a subgroup
        if base != 2:
            records.append(emit(1, "hypothesis_not_triggered"))
        elif result.is_subgroup:
            records.append(emit(1, "verified"))
        else:
            # a, b in Sol with a*b outside it: the certificate that Sol is not closed
            pair = sol._non_closure_pair(result.members)
            if pair is None:
                raise RuntimeError(f"Sol at {rep} in {name} failed the closure test but is closed")
            certificate = {"a": pair[0].cycle_string(), "b": pair[1].cycle_string()}
            records.append(emit(1, "COUNTEREXAMPLE",
                                {**counterexample, "certificate": certificate}))

        # C2: |Sol| is never a power of an odd prime
        odd_power = base is not None and base != 2
        records.append(emit(2, "COUNTEREXAMPLE" if odd_power else "verified",
                            counterexample if odd_power else None))

        # C3: |N_G(<x>)| divides |Sol|
        n_order = result.normalizer_order.value
        divides = s % n_order == 0
        records.append(emit(3, "verified" if divides else "COUNTEREXAMPLE",
                            None if divides else {**counterexample, "normalizer_order": n_order}))
    return records


def run_conjecture_scan(config: RunConfig | None = None) -> dict:
    """Falsification scan for the three open conjectures over every selected
    class representative. Soluble groups satisfy all three trivially and are
    skipped with hypothesis_not_triggered markers. Returns the report's JSON
    document, whose counterexamples is the number of COUNTEREXAMPLE records."""
    config = config or RunConfig()
    started = _utc_now()
    selected: dict[str, list[int]] = {}  # insoluble group -> its chosen class positions
    records: list[dict] = []  # the soluble groups' markers come first
    for name in config.groups:
        if catalog.group_spec(name).flags.get("soluble", False):
            one = FactoredInteger.from_int(1)
            records.extend(
                _scan_record(name, "", 0, one, conj, "hypothesis_not_triggered",
                             {"reason": "soluble ambient group"})
                for conj in (1, 2, 3)
            )
            continue
        selected[name] = _rep_indices(catalog.build_named_group(name, config.cap), config)
    _require_a_match(config, selected)
    tasks = [(_scan_group_task, name, indices, config.cap) for name, indices in selected.items()]
    for chunk, _ in pool_map(_run_task, tasks, config.resolved_workers()):
        records.extend(chunk)
    return {
        "schema": SCHEMA,
        "kind": "conjecture_scan",
        "seed": config.seed,
        "counterexamples": sum(r["status"] == "COUNTEREXAMPLE" for r in records),
        "records": records,
        "meta": {"started": started, "finished": _utc_now()},
    }


# -------------------------------------------------------------- full suite


# quotient exercises shipped with the default suite: a soluble kernel
# (center of SL(2,7), equality expected) and an insoluble one (derived
# subgroup of S5, containment only)
_QUOTIENT_SECTIONS = (("SL2:7", "center"), ("S:5", "derived"))


def run_full_suite(config: RunConfig | None = None) -> dict:
    """The full regression battery: every lemma item and theorem instance at
    every selected representative of every selected group, plus the quotient
    and direct-product exercises, assembled in catalog order. Returns the
    report's JSON document."""
    config = config or RunConfig()
    started = _utc_now()
    walls: dict[str, float] = {}  # seconds, rounded to the ms in the report

    selected: dict[str, list[int]] = {}  # group -> its chosen class positions
    for name in config.group_names():
        t0 = time.monotonic()
        selected[name] = _rep_indices(catalog.build_named_group(name, config.cap), config)
        walls[f"prepare:{name}"] = time.monotonic() - t0
    _require_a_match(config, selected)

    # (key, task) in report order: a group's task returns its groups[] entry
    # and is keyed by its name, a section's task a list of its records
    tasks = [(name, (_group_task, name, indices, config.seed, config.cap))
             for name, indices in selected.items()]
    if config.selector == "all_class_reps" and tuple(config.groups) == catalog.TABLE1_NAMES:
        tasks += [("quotient_checks", (_quotient_task, name, mode, config.cap))
                  for name, mode in _QUOTIENT_SECTIONS]
    tasks += [("product_checks", (_product_task, m, config.cap))
              for m in range(1, config.product_powers + 1)]
    if config.include_psl31:  # then group_names() holds PSL2:31
        tasks.append(("exploration", (_explore_task, "PSL2:31", selected["PSL2:31"], config.cap)))

    t0 = time.monotonic()
    results = pool_map(_run_task, [task for _, task in tasks], config.resolved_workers())
    walls["checks"] = time.monotonic() - t0

    groups: list[dict] = []
    sections = {key: [] for key in ("quotient_checks", "product_checks", "exploration")}
    for (key, _), (result, seconds) in zip(tasks, results):
        walls[f"checks:{key}"] = walls.get(f"checks:{key}", 0.0) + seconds
        if key in sections:
            sections[key] += result
        else:
            groups.append(result)
    walls = {key: round(seconds, 3) for key, seconds in walls.items()}
    return {
        "schema": SCHEMA,
        "kind": "full_suite",
        "seed": config.seed,
        "config": {**config.to_json(), "out": None},  # where it went is in meta
        "all_passed": (
            all(g["all_passed"] for g in groups)
            and all(q["passed"] for q in sections["quotient_checks"])
            and all(p["passed"] for p in sections["product_checks"])
        ),
        "groups": groups,
        **sections,
        "meta": {"started": started, "finished": _utc_now(), "wall_times": walls,
                 **({"out": config.out} if config.out else {})},
    }


# --------------------------------------------------------------- rendering


_CSV_HEADER = ["group", "representative", "check", "status", "detail"]


def _detail(d: dict, skip=()) -> str:
    parts = []
    for k, v in d.items():
        if k in skip or isinstance(v, (dict, list)):
            continue
        parts.append(f"{k}={v}")
    return ";".join(parts)


def _witness_detail(record: dict) -> str:
    """A record's witness as witness.key=value pairs; "" for a record without
    one, as every passing record is."""
    return ";".join(f"witness.{k}={v}" for k, v in (record.get("witness") or {}).items())


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
                # a failed record is FAIL whether or not it triggered
                status = ("pass" if c["triggered"] else "not_triggered") if c["passed"] else "FAIL"
                rows.append([g["group"], c["rep"], f"{section}:{c['item']}", status,
                             _witness_detail(c)])
    for q in doc["quotient_checks"]:
        status = "pass" if q["passed"] else "FAIL"
        lines.append(f"quotient {q['group']}/{q['kernel']} at {q['rep']}: {status}")
        detail = _detail(q, skip=("group", "rep", "kernel", "passed"))
        if not q["passed"]:
            lines.append(f"  FAIL quotient:{q['kernel']} at {q['rep']}: {q.get('witness')}")
            detail = ";".join(filter(None, (detail, _witness_detail(q))))
        rows.append([q["group"], q["rep"], f"quotient:{q['kernel']}", status, detail])
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


# what json writes as an object or an array, on several lines under indent
# unless it is empty
_CONTAINERS = (dict, list, tuple)


def _scalars(values) -> bool:
    """Whether none of values is a dict, list or tuple: one C loop over
    their types, then a test per distinct type."""
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _records(items) -> bool:
    """Whether items are records: non-empty dicts of scalars."""
    return (
        all(issubclass(t, dict) for t in set(map(type, items)))
        and all(items)
        and _scalars(chain.from_iterable(map(dict.values, items)))
    )


@cache
def _encoder(pad: str):
    """json's C encoder, with indent=2's newline and pad between items. A
    report is a tree, so the check for cycles is left out."""
    return json.JSONEncoder(
        ensure_ascii=False, check_circular=False, separators=(",\n" + pad, ": ")
    ).encode


def _write(value, pad: str, out: list) -> None:
    """Append json.dumps(value, indent=2, ensure_ascii=False) to out, with
    each line after the first indented by pad.

    json drops its C encoder whenever indent is set, so this hands it whole
    containers, with indent's newline and pad as the item separator:
    - a list of scalars is one call, and so is each run of scalars in a
      dict, which writes their keys too;
    - a list of records is one call with the records' pad; a record boundary
      "},\\n<pad>{" is then moved out to the list's pad. A JSON string never
      holds a raw newline, so the boundaries are the only matches;
    - anything else recurses: the report shell, a record that holds a
      witness, a structure or a factored order.
    """
    if not isinstance(value, _CONTAINERS) or not value:
        out.append(_encoder(pad)(value))
        return
    inner = pad + "  "
    encode = _encoder(inner)
    if isinstance(value, dict):
        out.append("{\n" + inner)
        run = {}
        for k, v in value.items():
            if isinstance(v, _CONTAINERS):
                run[k] = 0  # json writes the key; the 0 is cut off
                out.append(encode(run)[1:-2])
                _write(v, inner, out)
                out.append(",\n" + inner)
                run = {}
            else:
                run[k] = v
        if run:
            out.append(encode(run)[1:-1])
        else:
            out.pop()
        out.append(f"\n{pad}}}")
        return
    out.append("[\n" + inner)
    if _scalars(value):
        out.append(encode(value)[1:-1])
    elif _records(value):
        deep = inner + "  "
        boundary = f"\n{inner}}},\n{inner}{{\n{deep}"
        text = _encoder(deep)(value).replace("},\n" + deep + "{", boundary)
        out += (f"{{\n{deep}", text[2:-2], f"\n{inner}}}")
    else:
        for v in value:
            _write(v, inner, out)
            out.append(",\n" + inner)
        out.pop()
    out.append(f"\n{pad}]")


def render(doc: dict, fmt: str) -> str:
    """A report's JSON document, as a runner returns it, as json, csv or text.

    The json format is the canonical two-space dump of the document,
    json.dumps(doc, indent=2, ensure_ascii=False) plus a newline, byte for
    byte, which _write prints through json's C encoder."""
    if fmt == "json":
        out: list[str] = []
        _write(doc, "", out)
        out.append("\n")
        return "".join(out)
    lines, rows = _LAYOUTS[doc["kind"]](doc)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([_CSV_HEADER] + rows)
        return buf.getvalue()
    return "\n".join(lines) + "\n"
