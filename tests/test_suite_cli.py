"""Report plumbing and CLI contract: configs, determinism, formats, exit codes."""

import csv
import functools
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy.combinatorics import Permutation as SPerm, PermutationGroup

import grouplab
from grouplab import build_named_group, catalog, parse_permutation
from grouplab import analysis as analysis_mod
from grouplab import sol as sol_mod
from grouplab import suite as suite_mod
from grouplab.cli import build_parser, main
from grouplab.suite import (
    RunConfig,
    render,
    run_conjecture_scan,
    run_full_suite,
    run_table1,
)


# ------------------------------------------------------------- RunConfig


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        RunConfig(selector="everything")
    with pytest.raises(ValueError):
        RunConfig(format="yaml")
    with pytest.raises(ValueError):
        RunConfig(cap=0)
    with pytest.raises(ValueError):
        RunConfig(workers=-1)
    with pytest.raises(ValueError):
        RunConfig(product_powers=4)
    with pytest.raises(ValueError):
        RunConfig(selector="orders")
    with pytest.raises(ValueError):
        RunConfig(selector="explicit")
    with pytest.raises(ValueError, match="over the cap"):
        RunConfig(groups=("S:7",), cap=100)


def test_config_rejects_a_group_named_twice():
    # names that resolve to one catalog group would run its battery twice
    for groups in [("A:5", "A:5"), ("A:5", "PSL2:7", " A:5"), ("S:4 x S:4", "S:4 x  S:4")]:
        with pytest.raises(ValueError, match="named twice"):
            RunConfig(groups=groups)
    assert RunConfig(groups=("A:5", "S:4 x A:5")).groups == ("A:5", "S:4 x A:5")


@pytest.mark.parametrize(
    "fields",
    [
        {"cap": "100"},
        {"workers": 1.5},
        {"seed": True},
        {"include_psl31": 1},
        {"format": None},
        {"out": 3},
        {"groups": "A:5"},
        {"groups": ["A:5"]},
        {"groups": ("A:5", 5)},
        {"orders": (2, True), "selector": "orders"},
        {"elements": ((1, 2),), "selector": "explicit"},
    ],
)
def test_config_rejects_wrong_types(fields):
    with pytest.raises(ValueError, match="config field"):
        RunConfig(**fields)


def test_config_rejects_orders_or_elements_its_selector_ignores():
    for selector in ("all_class_reps", "explicit"):
        with pytest.raises(ValueError, match="orders are only read under selector 'orders'"):
            RunConfig(selector=selector, orders=(5,), elements=("(1,2,3)",))
    for selector in ("all_class_reps", "orders"):
        with pytest.raises(ValueError, match="elements are only read under selector 'explicit'"):
            RunConfig(selector=selector, orders=(5,) * (selector == "orders"),
                      elements=("(1,2,3)",))
    with pytest.raises(ValueError, match="orders are only read"):
        RunConfig.from_json({"groups": ["A:5"], "selector": "all_class_reps", "orders": [5]})


def test_config_json_round_trip():
    cfg = RunConfig(groups=("A:5", "PSL2:7"), selector="orders", orders=(2, 5), workers=3)
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_config_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_json({"groups": ["A:5"], "bogus": 1})


def test_config_resolved_workers():
    assert RunConfig(workers=3).resolved_workers() == 3
    assert RunConfig(workers=0).resolved_workers() >= 1


# ----------------------------------------------------------- determinism


def test_full_suite_json_is_deterministic_across_runs_and_workers():
    cfg1 = RunConfig(groups=("A:5", "PSL2:7"), workers=2)
    first = run_full_suite(cfg1)
    second = run_full_suite(cfg1)
    doc1 = json.loads(render(first, "json"))
    doc2 = json.loads(render(second, "json"))
    assert doc1.pop("meta") != {} and doc2.pop("meta") != {}
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    # worker count must not leak into the content
    serial = run_full_suite(RunConfig(groups=("A:5", "PSL2:7"), workers=1))
    assert serial["groups"] == first["groups"]
    assert serial["product_checks"] == first["product_checks"]
    assert serial["exploration"] == first["exploration"]


def _without_meta(doc: dict) -> dict:
    doc = json.loads(render(doc, "json"))
    doc.pop("meta")
    return doc


def test_full_suite_runs_every_section_through_one_pool():
    docs = [
        _without_meta(run_full_suite(RunConfig(
            groups=("A:5",), include_psl31=True, orders=(2,), selector="orders",
            product_powers=2, workers=workers,
        )))
        for workers in (1, 2)
    ]
    assert [doc["config"].pop("workers") for doc in docs] == [1, 2]
    assert docs[0] == docs[1]
    doc = docs[0]
    assert [g["group"] for g in doc["groups"]] == ["A:5", "PSL2:31"]
    assert {p["product"]: p["sol_in_product"] for p in doc["product_checks"]} == {
        "C:2 x PGL2:7": 32,
        "C:4 x PGL2:7": 64,
    }
    assert [(e["group"], e["order"]["value"]) for e in doc["exploration"]] == [
        ("PSL2:31", 1120)
    ]


def test_runners_time_every_group_and_section_in_meta():
    doc = run_full_suite(RunConfig(groups=("A:5",), product_powers=1, workers=1))
    walls = doc["meta"]["wall_times"]
    assert set(walls) == {"prepare:A:5", "checks", "checks:A:5", "checks:product_checks"}
    assert all(seconds >= 0 for seconds in walls.values())
    table1 = run_table1(RunConfig(workers=1))
    assert list(table1["meta"]["wall_times"]) == [row["group"] for row in table1["rows"]]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_full_suite_does_not_depend_on_the_start_method(monkeypatch, method):
    # "fork" forks the workers directly; "spawn" runs ProcessPoolExecutor
    # under spawn, the path off Linux
    config = RunConfig(groups=("A:5", "PSL2:7"), product_powers=1, workers=2)
    monkeypatch.setattr(suite_mod, "_START_METHOD", "fork")
    expected = _without_meta(run_full_suite(config))
    monkeypatch.setattr(suite_mod, "_START_METHOD", method)
    assert _without_meta(run_full_suite(config)) == expected


def _built_before_the_pool(name):
    return (name, grouplab.DEFAULT_CAP) in catalog._BUILD_CACHE


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
def test_suite_pool_forks_on_linux(monkeypatch):
    # whatever the platform default, a worker is forked, so it inherits the
    # groups built here; under spawn or forkserver its cache starts empty
    monkeypatch.setattr(catalog, "_BUILD_CACHE", {})
    build_named_group("A:5")
    assert suite_mod.pool_map(_built_before_the_pool, ["A:5", "PSL2:7"], 2) == [True, False]


# ------------------------------------------------------- pool failure paths


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers that pool_map forks, on its direct-fork path."""
    pids = []
    real = os.fork

    def recorded():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(suite_mod, "_START_METHOD", "fork")
    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _all_reaped(pids) -> bool:
    # per pid, not os.waitpid(-1): the spawn test above leaves multiprocessing's
    # resource tracker running as a child of this process
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return True


def test_task_error_at_two_workers_exits_one_as_at_one(monkeypatch, capsys, forked):
    real = sol_mod.lemma_checks_for_rep

    def injected(G, rep_idx, *args, **kwargs):
        if rep_idx == 2:
            raise RuntimeError("injected")
        return real(G, rep_idx, *args, **kwargs)

    monkeypatch.setattr(sol_mod, "lemma_checks_for_rep", injected)
    runs = []
    for workers in ("1", "2"):
        # two groups, so that two workers fork: each group is one task
        code = main(["suite", "--groups", "A:5,S:5", "--workers", workers])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1 and runs[0][1].err == "error: injected\n"
    assert len(forked) == 2 and _all_reaped(forked)


def _exits_at_three(i):
    if i == 3:
        os._exit(3)
    return i


def test_worker_that_exits_without_a_reply_raises(forked):
    with pytest.raises(RuntimeError, match="without a reply"):
        suite_mod.pool_map(_exits_at_three, list(range(8)), 2)
    assert _all_reaped(forked)


def _large_reply_unless_one(failure, i):
    if i == 1:
        time.sleep(0.2)  # meanwhile the other worker takes every other task
        if failure == "raise":
            raise ValueError("task 1")
        os._exit(3)
    return bytes(100_000)  # more than a pipe holds


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_large_reply_beside_a_failed_task_does_not_hang(forked, failure):
    # the other worker's reply is 500 KB; when the failed worker exited, its
    # missing reply may be read first, so the parent gives up while the other
    # is still blocked writing
    task = functools.partial(_large_reply_unless_one, failure)
    error = ValueError if failure == "raise" else RuntimeError
    with pytest.raises(error, match="task 1" if failure == "raise" else "without a reply"):
        suite_mod.pool_map(task, list(range(6)), 2)
    assert _all_reaped(forked)


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_exception_in_the_parent_kills_the_workers(forked):
    previous = signal.signal(signal.SIGALRM, _interrupt)
    started = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(_Interrupted):
            suite_mod.pool_map(time.sleep, [30, 30, 30], 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 10  # the workers did not finish their tasks
    assert len(forked) == 2 and _all_reaped(forked)


def _unpicklable_error(i):
    raise ValueError(lambda: i)


def _exits_python_at_two(i):
    if i == 2:
        raise SystemExit(5)
    return i


def test_worker_errors_that_do_not_pickle_or_are_not_exceptions(forked):
    with pytest.raises(RuntimeError, match="could not send its reply"):
        suite_mod.pool_map(_unpicklable_error, [1, 2, 3], 2)
    with pytest.raises(SystemExit) as exit_info:
        suite_mod.pool_map(_exits_python_at_two, list(range(6)), 2)
    assert exit_info.value.code == 5
    assert len(forked) == 4 and _all_reaped(forked)


def _append(path, line: str):
    """One write to a file opened for appending, so that the lines that
    several processes write stay whole."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def _logged(path, i):
    _append(path, f"{i}\n")
    return -i


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_map_runs_every_item_exactly_once(tmp_path, forked, workers):
    log = tmp_path / "ran"
    task = functools.partial(_logged, log)
    assert suite_mod.pool_map(task, list(range(200)), workers) == [-i for i in range(200)]
    assert sorted(map(int, log.read_text().split())) == list(range(200))
    assert len(forked) == workers and _all_reaped(forked)


def _pool_tasks(monkeypatch) -> list:
    """A list that gets, for each suite.pool_map call, the (function name,
    first argument) of every task it is given."""
    calls = []
    real = suite_mod.pool_map

    def recording(fn, items, workers):
        calls.append([(task[0].__name__, task[1]) for task in items])
        return real(fn, items, workers)

    monkeypatch.setattr(suite_mod, "pool_map", recording)
    return calls


def test_suite_and_scan_give_the_pool_one_task_per_group_or_section(monkeypatch):
    calls = _pool_tasks(monkeypatch)
    run_full_suite(RunConfig(workers=2))
    run_full_suite(RunConfig(groups=("A:5",), include_psl31=True, orders=(2,),
                             selector="orders", product_powers=2, workers=2))
    run_conjecture_scan(RunConfig(groups=("A:5", "C:6", "S:5"), workers=2))
    assert calls == [
        [("_group_task", name) for name in catalog.TABLE1_NAMES]
        + [("_quotient_task", "SL2:7"), ("_quotient_task", "S:5")],
        [("_group_task", "A:5"), ("_group_task", "PSL2:31"), ("_product_task", 1),
         ("_product_task", 2), ("_explore_task", "PSL2:31")],
        [("_scan_group_task", "A:5"), ("_scan_group_task", "S:5")],
    ]


def test_a_groups_representatives_run_in_one_process_at_any_worker_count(
        monkeypatch, tmp_path, forked):
    # each battery logs (group, representative, pid, pair tests it ran); the
    # pair tests include those of the Sol walks, which the group's memos save
    pair_tests = [0]
    real_pair = analysis_mod.pair_soluble
    real_checks = sol_mod.lemma_checks_for_rep

    def counted(*args):
        pair_tests[0] += 1
        return real_pair(*args)

    def logged(G, rep_idx, name, *args, **kwargs):
        before = pair_tests[0]
        result = real_checks(G, rep_idx, name, *args, **kwargs)
        _append(log, json.dumps([name, rep_idx, os.getpid(), pair_tests[0] - before]) + "\n")
        return result

    monkeypatch.setattr(analysis_mod, "pair_soluble", counted)
    monkeypatch.setattr(sol_mod, "lemma_checks_for_rep", logged)
    groups = ("A:5", "S:5", "PSL2:7")
    runs = {}
    for workers in (2, 1):
        monkeypatch.setattr(catalog, "_BUILD_CACHE", {})  # every group is built cold
        log = tmp_path / f"workers-{workers}"
        run_full_suite(RunConfig(groups=groups, workers=workers))
        runs[workers] = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(forked) == 2 and _all_reaped(forked)
    for workers, entries in runs.items():
        pids = {name: {pid for group, _, pid, _ in entries if group == name} for name in groups}
        assert all(len(ran_in) == 1 for ran_in in pids.values()), pids
        assert (os.getpid() in set().union(*pids.values())) == (workers == 1)
    counts = {w: {(name, rep): n for name, rep, _, n in entries} for w, entries in runs.items()}
    assert counts[2] == counts[1]
    assert [name for name, _ in counts[1]] == [name for name in groups
                                               for _ in build_named_group(name).conjugacy_classes()]


def _last_stderr_line_of(script: str):
    """Run script in a fresh interpreter that imports this grouplab, and
    read the JSON on the last line of its stderr."""
    env = dict(os.environ)
    src = str(Path(grouplab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    return json.loads(run.stderr.splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="off Linux the pool is ProcessPoolExecutor")
def test_cli_imports_no_multiprocessing():
    script = (
        "import json, sys\n"
        "def pool_modules():\n"
        "    return [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "import grouplab.cli\n"
        "imported = pool_modules()\n"
        "code = grouplab.cli.main(['suite', '--groups', 'A:5', '--workers', '1'])\n"
        "print(json.dumps([imported, pool_modules(), code]), file=sys.stderr)\n"
    )
    assert _last_stderr_line_of(script) == [[], [], 0]


def test_cli_import_generates_no_code():
    # the records are NamedTuples, so importing the CLI loads neither
    # dataclasses nor what it pulls in; modules the bare interpreter already
    # holds (from site packages, say) do not count
    script = (
        "import json, sys\n"
        "bare = set(sys.modules)\n"
        "import grouplab.cli\n"
        "added = set(sys.modules) - bare\n"
        "print(json.dumps(sorted(added & {'dataclasses', 'inspect', 'ast', 'dis'})), file=sys.stderr)\n"
    )
    assert _last_stderr_line_of(script) == []


def test_scan_records_are_deterministic():
    cfg = RunConfig(groups=("A:5",), workers=2)
    assert run_conjecture_scan(cfg)["records"] == run_conjecture_scan(cfg)["records"]


# ---------------------------------------------------------------- formats


def _parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# each runner's document, keys in report order
DOCUMENT_KEYS = {
    "table1": ["schema", "kind", "seed", "all_ok", "rows", "meta"],
    "conjecture_scan": ["schema", "kind", "seed", "counterexamples", "records", "meta"],
    "full_suite": ["schema", "kind", "seed", "config", "all_passed", "groups",
                   "quotient_checks", "product_checks", "exploration", "meta"],
}
SCAN_RECORD_KEYS = ["group", "representative", "x_order", "sol_order", "conjecture", "status"]


def test_runners_return_their_json_documents():
    # the document is the report: plain JSON values (a tuple would not equal
    # the list it prints as), keys in report order
    docs = [
        run_table1(RunConfig(workers=2)),
        run_conjecture_scan(RunConfig(groups=("A:5", "C:6"), workers=2)),
        run_full_suite(RunConfig(groups=("A:5",), product_powers=1, workers=2)),
    ]
    for doc in docs:
        assert doc == json.loads(render(doc, "json"))
        assert list(doc) == DOCUMENT_KEYS[doc["kind"]]
    scan = docs[1]
    assert scan["counterexamples"] == 0
    for record in scan["records"]:
        assert list(record) == SCAN_RECORD_KEYS + ["witness"] * ("witness" in record)
    assert [r["group"] for r in scan["records"] if "witness" in r] == ["C:6"] * 3


def test_csv_shape_for_scan():
    doc = run_conjecture_scan(RunConfig(groups=("A:5", "C:6"), workers=2))
    rows = _parse_csv(render(doc, "csv"))
    assert rows[0] == ["group", "representative", "check", "status", "detail"]
    assert all(len(r) == 5 for r in rows)
    # 5 classes in A5 and the C:6 skip markers, three conjectures each
    assert len(rows) - 1 == 3 * 5 + 3


def test_scan_skips_soluble_groups_with_markers():
    doc = run_conjecture_scan(RunConfig(groups=("C:6",), workers=1))
    assert len(doc["records"]) == 3
    assert {r["status"] for r in doc["records"]} == {"hypothesis_not_triggered"}
    assert {r["representative"] for r in doc["records"]} == {""}
    assert not doc["counterexamples"]


def test_explicit_selector_resolves_elements_to_classes():
    # (2,4,3) and (1,2,3) share a class; (1,5)(2,4) is an involution
    elements = ("(2,4,3)", "(1,5)(2,4)", "(1,2,3)")
    cfg = RunConfig(groups=("A:5",), selector="explicit", elements=elements)
    assert suite_mod._rep_indices(build_named_group("A:5"), cfg) == [1, 2]
    assert len(run_conjecture_scan(cfg)["records"]) == 6
    outside = RunConfig(groups=("A:5",), selector="explicit", elements=("(1,2)",))
    with pytest.raises(ValueError):
        run_conjecture_scan(outside)


def test_csv_shape_for_suite():
    doc = run_full_suite(RunConfig(groups=("A:5",), workers=2))
    rows = _parse_csv(render(doc, "csv"))
    assert rows[0] == ["group", "representative", "check", "status", "detail"]
    assert all(len(r) == 5 for r in rows)
    lemma_rows = [r for r in rows[1:] if r[0] == "A:5"]
    # 13 lemma items x 5 classes plus the theorem instances
    assert len(lemma_rows) >= 65


def test_table1_report():
    report = run_table1(RunConfig(workers=0))
    assert report["all_ok"]
    assert len(report["rows"]) == 14
    text = render(report, "text")
    assert "all rows pass" in text
    doc = json.loads(render(report, "json"))
    assert doc["schema"] == "grouplab-report/1"
    assert doc["kind"] == "table1"
    assert all("_wall" not in row for row in doc["rows"])


def test_empty_group_list_gives_empty_reports():
    scan = run_conjecture_scan(RunConfig(groups=(), workers=1))
    assert scan["records"] == [] and not scan["counterexamples"]
    full = run_full_suite(RunConfig(groups=(), workers=1))
    assert full["all_passed"]
    assert full["groups"] == [] and full["quotient_checks"] == []


# -------------------------------------------------------------- CLI: sol


def test_cli_sol_by_order(capsys):
    assert main(["sol", "--group", "A:5", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "2*5" in out and "dihedral 10" in out


def test_cli_sol_json(capsys):
    assert main(["sol", "--group", "S:5", "--element", "(1,2,3)(4,5)",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "sol"
    assert doc["result"]["order"]["value"] == 12
    assert doc["result"]["structure"]["label"] == "dihedral 12"


def test_cli_sol_checks_the_cap_against_the_queried_group_only(capsys):
    # the catalog holds groups of order up to 1512; only A:5, of order 60,
    # is queried, so a cap of 60 answers as the default cap does
    orders = []
    for cap in ([], ["--cap", "60"]):
        assert main(["sol", "--group", "A:5", "--order", "5", "--format", "json", *cap]) == 0
        orders.append(json.loads(capsys.readouterr().out)["result"]["order"]["value"])
    assert orders == [10, 10]
    assert main(["sol", "--group", "A:5", "--order", "5", "--cap", "59"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "over the cap 59" in captured.err


def test_cli_checks_the_cap_against_every_group_a_run_builds(capsys, monkeypatch, tmp_path):
    # PSL2:31 under --include-psl31 and C:2 x PGL2:7 under --product-powers
    # are checked with the named groups, before any group is built
    monkeypatch.setattr(catalog, "_BUILD_CACHE", {})
    runs = [
        (["suite", "--groups", "A:5", "--include-psl31", "--cap", "2000"], "PSL2:31", 14880),
        (["suite", "--groups", "A:5", "--product-powers", "1", "--cap", "400"], "C:2 x PGL2:7", 672),
        (["catalog", "--include-psl31", "--cap", "2000"], "PSL2:31", 14880),
    ]
    for argv, name, order in runs:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: group {name} has order {order} over the cap {argv[-1]}\n"
    assert catalog._BUILD_CACHE == {}
    # sol checks the queried group alone, whatever a config file adds
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"include_psl31": True, "product_powers": 3}))
    assert main(["sol", "--group", "A:5", "--order", "5", "--cap", "60", "--config", str(config)]) == 0
    capsys.readouterr()


def test_cli_sol_workers_flag_parses_and_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("sol started a process pool")

    monkeypatch.setattr(suite_mod, "pool_map", no_pool)
    monkeypatch.setattr(os, "fork", no_pool)
    docs = []
    for workers in ("1", "2"):
        assert main(["sol", "--group", "PGL2:11", "--order", "2", "--format", "json",
                     "--workers", workers]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("meta")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_cli_sol_element_not_in_group(capsys):
    assert main(["sol", "--group", "A:5", "--element", "(1,2)"]) == 1
    assert "is not in A:5" in capsys.readouterr().err


def test_cli_sol_malformed_element(capsys):
    assert main(["sol", "--group", "A:5", "--element", "(1,2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sol_unresolvable_order(capsys):
    assert main(["sol", "--group", "S:5", "--order", "7"]) == 1
    err = capsys.readouterr().err
    assert "no class representative of order 7" in err
    assert "[1, 2, 3, 4, 5, 6]" in err


def test_cli_usage_errors_exit_one(capsys):
    assert main(["sol", "--group", "A:5"]) == 1            # neither selector
    assert main(["sol", "--group", "A:5", "--order", "5", "--element", "()"]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


# subcommands with usage errors in between, each run both in one process and
# in a fresh one
CLI_SEQUENCE = [
    ["sol", "--group", "A:5", "--order", "5", "--format", "json"],
    ["sol", "--group", "A:5"],
    ["catalog", "--format", "csv"],
    ["frobnicate"],
    ["sol", "--group", "S:5", "--element", "(1,2,3)(4,5)", "--format", "json"],
    ["suite", "--groups", "A:5", "--orders", "2,x"],
    ["suite", "--groups", "A:5", "--workers", "1", "--format", "json"],
]


def without_meta(out: str) -> str:
    if not out.startswith("{"):
        return out
    doc = json.loads(out)
    doc.pop("meta", None)
    return json.dumps(doc, sort_keys=True)


def test_cli_parser_is_built_once_and_reused(capsys):
    # main() shares one parser within a process; a run of calls through it
    # must print and exit as each call does alone in a new process
    assert build_parser() is build_parser()
    env = dict(os.environ)
    src = str(Path(grouplab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from grouplab.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in CLI_SEQUENCE:
        code = main(argv)
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert code == alone.returncode, argv
        assert without_meta(captured.out) == without_meta(alone.stdout), argv
        assert captured.err == alone.stderr, argv


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "grouplab" in capsys.readouterr().out


def test_cli_unknown_group(capsys):
    assert main(["sol", "--group", "X:9", "--order", "2"]) == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------ CLI: batch modes


def test_cli_scan_ok(capsys):
    assert main(["scan", "--groups", "A:5,C:6", "--workers", "2"]) == 0
    assert "scan:" in capsys.readouterr().out


def test_cli_suite_small(capsys):
    assert main(["suite", "--groups", "A:5", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_cli_suite_empty_groups(capsys):
    assert main(["suite", "--groups", "", "--workers", "1"]) == 0
    capsys.readouterr()


def test_suite_out_path_changes_only_meta(tmp_path, capsys):
    # the config echo holds out as null, so --out a.json, --out b.json and
    # stdout give one report outside meta; meta.out names the file written
    argv = ["suite", "--groups", "A:5", "--workers", "1", "--format", "json"]
    docs = []
    for out in ("a.json", "b.json", None):
        path = tmp_path / out if out else None
        assert main(argv + (["--out", str(path)] if path else [])) == 0
        doc = json.loads(path.read_text() if path else capsys.readouterr().out)
        assert doc["meta"].get("out") == (str(path) if path else None)
        assert doc["config"]["out"] is None
        doc.pop("meta")
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


def test_cli_table1(capsys):
    assert main(["table1", "--workers", "0"]) == 0
    assert "all rows pass" in capsys.readouterr().out


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "PGammaL2:9" in out and "M10" in out


def test_cli_catalog_csv(capsys):
    assert main(["catalog", "--format", "csv"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[0] == ["group", "representative", "check", "status", "detail"]
    assert len(rows) == 15


def test_cli_catalog_takes_no_workers_or_seed(tmp_path, capsys):
    # catalog starts no pool and records no seed, so the flags are usage
    # errors; a config file that holds the fields still loads
    for flag in ("--workers", "--seed"):
        assert main(["catalog", flag, "2"]) == 1
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workers": 7, "seed": 99}))
    assert main(["catalog", "--config", str(path), "--format", "csv"]) == 0
    assert len(_parse_csv(capsys.readouterr().out)) == 15


def test_cli_small_projective_groups_are_soluble(capsys):
    # PSL2:3 is A4: sol runs, and scan skips it as a soluble ambient group
    assert main(["sol", "--group", "PSL2:3", "--order", "2"]) == 0
    assert "structure: A4" in capsys.readouterr().out
    assert main(["scan", "--groups", "PSL2:3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["group"], r["status"]) for r in doc["records"]] == [
        ("PSL2:3", "hypothesis_not_triggered")] * 3


def test_cli_scan_counterexample_exits_two(monkeypatch, capsys):
    witness = {"group": "A:5", "element": "(1,2,3,4,5)", "sol_order": 27}
    fake = {
        "schema": suite_mod.SCHEMA,
        "kind": "conjecture_scan",
        "seed": 0,
        "counterexamples": 1,
        "records": [
            {
                "group": "A:5",
                "representative": "(1,2,3,4,5)",
                "x_order": 5,
                "sol_order": {"value": 27, "factors": {"3": 3}},
                "conjecture": 2,
                "status": "COUNTEREXAMPLE",
                "witness": witness,
            },
        ],
        "meta": {},
    }
    monkeypatch.setattr(suite_mod, "run_conjecture_scan", lambda config=None: fake)
    assert main(["scan"]) == 2
    out = capsys.readouterr().out
    assert "COUNTEREXAMPLE" in out and "A:5" in out
    # the recorded witness is enough to replay the offending query
    assert main(["sol", "--group", witness["group"], "--element", witness["element"]]) == 0
    capsys.readouterr()


def test_a8_is_a_counterexample_to_scan_question_1(capsys):
    # question 1: is Sol a subgroup whenever |Sol| is a power of 2? In A:8,
    # 160 elements over the default cap, Sol((3,4)(5,6,7,8)) has 1024 = 2^10
    # elements, more than the Sylow 2-subgroup's 64
    assert main(["scan", "--groups", "A:8", "--cap", "20160", "--workers", "1",
                 "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexamples"] == 1
    [record] = [r for r in doc["records"] if r["status"] == "COUNTEREXAMPLE"]
    witness = {"group": "A:8", "element": "(3,4)(5,6,7,8)", "sol_order": 1024,
               "certificate": {"a": "(6,7,8)", "b": "(4,5)(6,8)"}}
    assert record == {
        "group": "A:8", "representative": "(3,4)(5,6,7,8)", "x_order": 4,
        "sol_order": {"value": 1024, "factors": {"2": 10}}, "conjecture": 1,
        "status": "COUNTEREXAMPLE", "witness": witness,
    }
    # the record's certificate that Sol is not closed: a and b lie in Sol,
    # a*b does not
    G = build_named_group("A:8", 20160)
    x, a, b = (parse_permutation(c, 8) for c in
               ("(3,4)(5,6,7,8)", *witness["certificate"].values()))
    ab = parse_permutation("(4,5)(6,7)", 8)
    assert a * b == ab and all(G.contains(g) for g in (x, a, b, ab))
    result = sol_mod.solubilizer(G, x)
    assert result.order.value == 1024 and not result.is_subgroup
    assert a in result.members and b in result.members and ab not in result.members
    # and it is the first such pair in member order: the identity and (6,7,8)
    # come first, and (6,7,8) times each member before b stays in Sol
    members = list(result.members)
    assert members[:2] == [G.identity(), a]
    before_b = members[: members.index(b)]
    assert all(a * c in result.members for c in before_b) and len(before_b) == 12
    # and by sympy alone, which multiplies left to right as grouplab does
    X, A, B, AB = (SPerm([v - 1 for v in g.images]) for g in (x, a, b, ab))
    assert A * B == AB
    assert PermutationGroup([X, A]).is_solvable and PermutationGroup([X, B]).is_solvable
    H = PermutationGroup([X, AB])
    assert H.order() == 360 and not H.is_solvable


def test_flipped_pair_verdict_fails_the_checks_of_a_soluble_group(monkeypatch, capsys):
    # one wrong pair answer at one representative of a soluble G, where every
    # pair is decided from x and y without a walk: the containment spot check
    # and the equivariance check must each report FAIL with a witness, every
    # other record must still print and pass, and suite must exit 1. The
    # generator (1,2,3,4,5,6,7) centralizes x = (9,10,11), so the
    # equivariance check asks for the same pair again. The one-block
    # solubilizer tests only the identity, so Sol stays G
    args = ["suite", "--groups", "C7:C3 x S:4", "--workers", "1", "--format", "json"]
    assert main(args) == 0
    clean = json.loads(capsys.readouterr().out)
    G = build_named_group("C7:C3 x S:4")
    x = grouplab.parse_permutation("(9,10,11)", G.degree)._raw
    y = grouplab.parse_permutation("(1,2,3,4,5,6,7)", G.degree)._raw
    real = analysis_mod._pair_verdict
    assert real(G, x, y) == (True, "soluble G")

    def flipped(H, a, b):
        verdict, branch = real(H, a, b)
        return (not verdict if (a, b) == (x, y) else verdict), branch

    monkeypatch.setattr(analysis_mod, "_pair_verdict", flipped)
    assert main(args) == 1
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    assert not report["all_passed"]
    (group,), (clean_group,) = report["groups"], clean["groups"]
    records = group["lemma_checks"] + group["theorem_checks"]
    clean_records = clean_group["lemma_checks"] + clean_group["theorem_checks"]
    assert len(records) == len(clean_records) > 2
    failed = [c for c in records if not c["passed"]]
    flipped_keys = [(c["item"], c["rep"]) for c in failed]
    assert flipped_keys == [("containment", "(9,10,11)"), ("conjugation_equivariance", "(9,10,11)")]
    assert failed[0]["witness"] == {"y": "(1,2,3,4,5,6,7)", "pair_soluble": False, "in_sol": True}
    assert failed[1]["witness"] == {"g": "(1,2,3,4,5,6,7)"}
    assert [c for c in records if c["passed"]] == [
        c for c in clean_records if (c["item"], c["rep"]) not in flipped_keys
    ]
    # the witness replays: sol on that group and element exits 0
    assert main(["sol", "--group", "C7:C3 x S:4", "--element", failed[0]["rep"]]) == 0
    capsys.readouterr()


def test_containment_witness_names_the_sampled_member_dropped_from_sol(monkeypatch, capsys):
    # Sol at A:5's first 5-cycle class with one sampled member outside <x>
    # dropped: the containment record names that y, with its pair verdict
    # and its membership, and N_G(<x>) as the part of Sol's lower bound now
    # outside it; every other record still prints, suite exits 1, and the
    # witness replays
    G = build_named_group("A:5")
    rep_idx, x = next((i, c.representative) for i, c in
                      enumerate(G.conjugacy_classes().classes) if c.element_order == 5)
    real = sol_mod.solubilizer
    members = real(G, x).members._raws  # Sol = N_G(<x>), dihedral of order 10
    powers = sol_mod._cyclic_raws(x._raw, G.degree)
    dropped = next(y for y in sol_mod._sampled_elements(G, f"A:5:{rep_idx}", 0)
                   if y in members and y not in powers)  # an involution of N_G(<x>)
    y_text = grouplab.Permutation._from_raw(dropped, G.degree).cycle_string()

    def injected(H, z):
        result = real(H, z)
        if H is G and z == x:
            return result._replace(members=grouplab.ElementSet._from_raws(G, members - {dropped}))
        return result

    args = ["suite", "--groups", "A:5", "--workers", "1", "--format", "json"]
    assert main(args) == 0
    clean = json.loads(capsys.readouterr().out)["groups"][0]
    monkeypatch.setattr(sol_mod, "solubilizer", injected)
    assert main(args) == 1
    monkeypatch.undo()
    group = json.loads(capsys.readouterr().out)["groups"][0]
    assert len(group["lemma_checks"]) == len(clean["lemma_checks"])
    [record] = [c for c in group["lemma_checks"] if c["item"] == "containment" and not c["passed"]]
    assert record["rep"] == x.cycle_string()
    assert record["witness"] == {"not_in_sol": "N_G(<x>)", "y": y_text, "pair_soluble": True,
                                 "in_sol": False}
    assert main(["sol", "--group", "A:5", "--element", record["rep"]]) == 0
    capsys.readouterr()


def test_a_failed_record_that_did_not_trigger_is_fail_in_csv_and_text(monkeypatch, capsys):
    # the companion check of involution_class_in_core fails at A:5's
    # involution, where Sol is not a subgroup, so its record fails with
    # triggered false: the CSV status and the text both read FAIL, and suite
    # exits 1
    G = build_named_group("A:5")
    x = G.conjugacy_classes().classes[1].representative
    witness = {"g": "(1,2,3)", "companion": True}
    real = sol_mod.sol_core_check

    def failing(H, y, seed=0):
        report = real(H, y, seed)
        if H is G and y == x:
            assert not report["applicable"]
            return {**report, "passed": False, "witness": witness}
        return report

    monkeypatch.setattr(sol_mod, "sol_core_check", failing)
    args = ["suite", "--groups", "A:5", "--workers", "1", "--format"]
    rep = x.cycle_string()
    assert main(args + ["csv"]) == 1
    failed = [row for row in _parse_csv(capsys.readouterr().out) if row[3] == "FAIL"]
    assert failed == [["A:5", rep, "lemma:involution_class_in_core", "FAIL",
                       "witness.g=(1,2,3);witness.companion=True"]]
    assert main(args + ["text"]) == 1
    text = capsys.readouterr().out.splitlines()
    assert text[0].endswith("FAIL (1)")
    assert f"  FAIL involution_class_in_core at {rep}: {witness}" in text
    assert text[-1] == "suite: FAILURES PRESENT"


def test_failed_quotient_check_keeps_its_witness(monkeypatch, capsys):
    # one failing quotient check at one representative of SL2:7: its record
    # carries the witness, every other quotient record still prints and
    # passes without one, and suite exits 1
    rep = build_named_group("SL2:7").conjugacy_classes().classes[1].representative
    witness = {"projected": 1, "quotient_sol": 2, "sol": 3, "n": 2}
    real = sol_mod.quotient_sol_check

    def failing(G, N, x):
        report = real(G, N, x)
        if G is build_named_group("SL2:7") and x == rep:
            return {**report, "passed": False, "witness": witness}
        return report

    monkeypatch.setattr(sol_mod, "quotient_sol_check", failing)
    assert main(["suite", "--workers", "1", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["all_passed"]
    records = doc["quotient_checks"]
    assert len(records) == 11 + 7  # the classes of SL2:7 and of S:5
    failed = [q for q in records if not q["passed"]]
    assert [(q["group"], q["rep"], q["witness"]) for q in failed] == [
        ("SL2:7", rep.cycle_string(), witness)]
    assert not any("witness" in q for q in records if q["passed"])


def test_failed_records_show_their_witness_in_text_and_csv(monkeypatch, capsys):
    # a failing quotient check at one representative of SL2:7, and a failing
    # lemma and theorem record at one representative of A:5: the text prints
    # each witness under its FAIL line, the CSV puts it into the row's
    # detail, every passing row keeps its detail, and suite exits 1
    clean = {}
    for fmt in ("text", "csv"):
        assert main(["suite", "--workers", "1", "--format", fmt]) == 0
        clean[fmt] = capsys.readouterr().out
    qrep = build_named_group("SL2:7").conjugacy_classes().classes[1].representative
    lrep = build_named_group("A:5").conjugacy_classes().classes[1].representative
    q_witness = {"projected": 1, "quotient_sol": 2, "sol": 3, "n": 2}
    real_quotient, real_lemma = sol_mod.quotient_sol_check, sol_mod.lemma_checks_for_rep

    def failing_quotient(G, N, x):
        report = real_quotient(G, N, x)
        if G is build_named_group("SL2:7") and x == qrep:
            return {**report, "passed": False, "witness": q_witness}
        return report

    def failing_lemma(G, rep_idx, name="", *args, **kwargs):
        lemma, theorem = real_lemma(G, rep_idx, name, *args, **kwargs)
        if name == "A:5" and rep_idx == 1:
            lemma[0] = {**lemma[0], "passed": False, "witness": {"x_order": 2, "sol": 7}}
            theorem[0] = {**theorem[0], "passed": False, "triggered": True, "witness": {"sol": 7}}
        return lemma, theorem

    monkeypatch.setattr(sol_mod, "quotient_sol_check", failing_quotient)
    monkeypatch.setattr(sol_mod, "lemma_checks_for_rep", failing_lemma)
    q, l = qrep.cycle_string(), lrep.cycle_string()
    assert main(["suite", "--workers", "1", "--format", "text"]) == 1
    text = capsys.readouterr().out.splitlines()
    lines = [f"  FAIL order_divides at {l}: {{'x_order': 2, 'sol': 7}}",
             f"  FAIL sol_2p at {l}: {{'sol': 7}}",
             f"quotient SL2:7/center at {q}: FAIL",
             f"  FAIL quotient:center at {q}: {q_witness}"]
    assert all(line in text for line in lines)
    assert [line for line in text if line not in lines] == [
        line.replace("pass", "FAIL (2)") if line.startswith("A:5 ") else line
        for line in clean["text"].replace("all passed", "FAILURES PRESENT").splitlines()
        if line != f"quotient SL2:7/center at {q}: pass"
    ]

    assert main(["suite", "--workers", "1", "--format", "csv"]) == 1
    rows, clean_rows = _parse_csv(capsys.readouterr().out), _parse_csv(clean["csv"])
    failed = [row for row in rows if row[3] == "FAIL"]
    assert failed == [
        ["A:5", l, "lemma:order_divides", "FAIL", "witness.x_order=2;witness.sol=7"],
        ["A:5", l, "theorem:sol_2p", "FAIL", "witness.sol=7"],
        ["SL2:7", q, "quotient:center", "FAIL",
         next(r[4] for r in clean_rows if r[:3] == ["SL2:7", q, "quotient:center"])
         + ";witness.projected=1;witness.quotient_sol=2;witness.sol=3;witness.n=2"],
    ]
    assert [row for row in rows if row[3] != "FAIL"] == [
        row for row in clean_rows if row[:3] not in [r[:3] for r in failed]]


# --------------------------------------------------------- config and out


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": ["A:5"], "workers": 2, "format": "json"}))
    assert main(["scan", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "conjecture_scan"
    # explicit flag beats the file
    assert main(["scan", "--config", str(cfg), "--format", "csv"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[0][0] == "group"


@pytest.mark.parametrize(
    "config",
    [
        {"include_psl31": "false", "groups": ["A:5"], "orders": [2]},
        {"cap": "100"},
        {"workers": 1.5},
        ["A:5"],
    ],
    ids=["string-bool", "string-int", "float-int", "list"],
)
def test_cli_config_of_the_wrong_type_is_one_error_line(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["suite", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_group_named_twice_is_one_error_line(capsys):
    assert main(["suite", "--groups", "A:5, A:5", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group A:5 is named twice\n"


def test_cli_config_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["table1", "--config", str(cfg)]) == 1
    assert "unknown config fields" in capsys.readouterr().err


def test_cli_orders_flag_switches_selector(capsys):
    assert main(["scan", "--groups", "A:5", "--orders", "5", "--workers", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    reps = {r["x_order"] for r in doc["records"]}
    assert reps == {5}


def test_cli_orders_flag_beats_the_selector_of_a_config_file(tmp_path, capsys):
    # a report's config block, saved without out, is a config file that sets
    # the selector; an explicit --orders still selects by order
    assert main(["suite", "--groups", "A:5", "--workers", "1", "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config.pop("out") is None and config["selector"] == "all_class_reps"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["suite", "--config", str(cfg), "--orders", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["config"]["selector"], doc["config"]["orders"]) == ("orders", [5])
    assert doc["groups"][0]["representatives"] == 2  # the two classes of 5-cycles
    # a file whose orders its own selector would ignore is one error line
    cfg.write_text(json.dumps({**config, "orders": [5]}))
    assert main(["suite", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: orders are only read under selector 'orders', not 'all_class_reps'\n"
    )


def test_cli_projective_group_outside_the_field_rule_is_one_error_line(capsys):
    for q in (16, 1031):
        assert main(["sol", "--group", f"PSL2:{q}", "--order", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {q} is not p^k with p prime, k <= 3 and p^k <= 1024\n"
    assert main(["sol", "--group", "PSL2:37", "--order", "2", "--cap", "30000"]) == 0
    assert "group: PSL2:37 (order 2^2*3^2*19*37)" in capsys.readouterr().out


def test_an_orders_selector_that_matches_no_class_is_one_error_line(capsys):
    # A:5 has no element of order 7, so the run would check nothing
    for command in ("suite", "scan"):
        assert main([command, "--groups", "A:5", "--orders", "7", "--workers", "1"]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no class representative of order 7 in A:5\n"
    assert main(["scan", "--groups", "A:5,S:5", "--orders", "7,11"]) == 1
    assert capsys.readouterr().err == "error: no class representative of order 7 or 11 in A:5, S:5\n"
    # a group without the orders is allowed while another group has them
    for command in ("suite", "scan"):
        assert main([command, "--groups", "A:5,PSL2:7", "--orders", "7", "--workers", "1",
                     "--format", "json"]) == 0, command
        doc = json.loads(capsys.readouterr().out)
        if command == "scan":
            assert {(r["group"], r["x_order"]) for r in doc["records"]} == {("PSL2:7", 7)}
        else:
            assert [(g["group"], g["representatives"]) for g in doc["groups"]] == [
                ("A:5", 0), ("PSL2:7", 2)]


def test_cli_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["table1", "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["kind"] == "table1" and doc["all_ok"]


def test_cli_out_unwritable_path(tmp_path, capsys):
    bad = tmp_path / "missing" / "report.json"
    assert main(["table1", "--out", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
