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

import grouplab
from grouplab import FactoredInteger, build_named_group, catalog
from grouplab import analysis as analysis_mod
from grouplab import sol as sol_mod
from grouplab import suite as suite_mod
from grouplab.cli import build_parser, main
from grouplab.suite import (
    ConjectureScanRecord,
    ConjectureScanReport,
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
    doc1 = json.loads(render(first.to_json(), "json"))
    doc2 = json.loads(render(second.to_json(), "json"))
    assert doc1.pop("meta") != {} and doc2.pop("meta") != {}
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    # worker count must not leak into the content
    serial = run_full_suite(RunConfig(groups=("A:5", "PSL2:7"), workers=1))
    assert serial.groups == first.groups
    assert serial.product_checks == first.product_checks
    assert serial.exploration == first.exploration


def _without_meta(report) -> dict:
    doc = json.loads(render(report.to_json(), "json"))
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
    report = run_full_suite(RunConfig(groups=("A:5",), product_powers=1, workers=1))
    walls = report.meta["wall_times"]
    assert set(walls) == {"prepare:A:5", "checks", "checks:A:5", "checks:product_checks"}
    assert all(seconds >= 0 for seconds in walls.values())
    table1 = run_table1(RunConfig(workers=1))
    assert list(table1.meta["wall_times"]) == [row["group"] for row in table1.rows]


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
    return name in catalog._BUILD_CACHE


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
        code = main(["suite", "--groups", "A:5", "--workers", workers])
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


def _logged(path, i):
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, b"%d\n" % i)
    finally:
        os.close(fd)
    return -i


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_map_runs_every_item_exactly_once(tmp_path, forked, workers):
    log = tmp_path / "ran"
    task = functools.partial(_logged, log)
    assert suite_mod.pool_map(task, list(range(200)), workers) == [-i for i in range(200)]
    assert sorted(map(int, log.read_text().split())) == list(range(200))
    assert len(forked) == workers and _all_reaped(forked)


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
    env = dict(os.environ)
    src = str(Path(grouplab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert json.loads(run.stderr.splitlines()[-1]) == [[], [], 0]


def test_scan_records_are_deterministic():
    cfg = RunConfig(groups=("A:5",), workers=2)
    assert run_conjecture_scan(cfg).records == run_conjecture_scan(cfg).records


# ---------------------------------------------------------------- formats


def _parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def test_csv_shape_for_scan():
    report = run_conjecture_scan(RunConfig(groups=("A:5", "C:6"), workers=2))
    rows = _parse_csv(render(report.to_json(), "csv"))
    assert rows[0] == ["group", "representative", "check", "status", "detail"]
    assert all(len(r) == 5 for r in rows)
    # 5 classes in A5 and the C:6 skip markers, three conjectures each
    assert len(rows) - 1 == 3 * 5 + 3


def test_scan_skips_soluble_groups_with_markers():
    report = run_conjecture_scan(RunConfig(groups=("C:6",), workers=1))
    assert len(report.records) == 3
    assert {r.status for r in report.records} == {"hypothesis_not_triggered"}
    assert {r.representative for r in report.records} == {""}
    assert not report.counterexamples


def test_explicit_selector_resolves_elements_to_classes():
    # (2,4,3) and (1,2,3) share a class; (1,5)(2,4) is an involution
    elements = ("(2,4,3)", "(1,5)(2,4)", "(1,2,3)")
    cfg = RunConfig(groups=("A:5",), selector="explicit", elements=elements)
    assert suite_mod._rep_indices(build_named_group("A:5"), cfg) == [1, 2]
    assert len(run_conjecture_scan(cfg).records) == 6
    outside = RunConfig(groups=("A:5",), selector="explicit", elements=("(1,2)",))
    with pytest.raises(ValueError):
        run_conjecture_scan(outside)


def test_csv_shape_for_suite():
    report = run_full_suite(RunConfig(groups=("A:5",), workers=2))
    rows = _parse_csv(render(report.to_json(), "csv"))
    assert rows[0] == ["group", "representative", "check", "status", "detail"]
    assert all(len(r) == 5 for r in rows)
    lemma_rows = [r for r in rows[1:] if r[0] == "A:5"]
    # 13 lemma items x 5 classes plus the theorem instances
    assert len(lemma_rows) >= 65


def test_table1_report():
    report = run_table1(RunConfig(workers=0))
    assert report.all_ok
    assert len(report.rows) == 14
    text = render(report.to_json(), "text")
    assert "all rows pass" in text
    doc = json.loads(render(report.to_json(), "json"))
    assert doc["schema"] == "grouplab-report/1"
    assert doc["kind"] == "table1"
    assert all("_wall" not in row for row in doc["rows"])


def test_empty_group_list_gives_empty_reports():
    scan = run_conjecture_scan(RunConfig(groups=(), workers=1))
    assert scan.records == () and not scan.counterexamples
    full = run_full_suite(RunConfig(groups=(), workers=1))
    assert full.all_passed
    assert full.groups == () and full.quotient_checks == ()


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


def test_cli_scan_counterexample_exits_two(monkeypatch, capsys):
    witness = {"group": "A:5", "element": "(1,2,3,4,5)", "sol_order": 27}
    fake = ConjectureScanReport(
        records=(
            ConjectureScanRecord(
                group="A:5",
                representative="(1,2,3,4,5)",
                x_order=5,
                sol_order=FactoredInteger.from_int(27),
                conjecture=2,
                status="COUNTEREXAMPLE",
                witness=witness,
            ),
        ),
        seed=0,
        meta={},
    )
    monkeypatch.setattr(suite_mod, "run_conjecture_scan", lambda config=None: fake)
    assert main(["scan"]) == 2
    out = capsys.readouterr().out
    assert "COUNTEREXAMPLE" in out and "A:5" in out
    # the recorded witness is enough to replay the offending query
    assert main(["sol", "--group", witness["group"], "--element", witness["element"]]) == 0
    capsys.readouterr()


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
    assert failed[0]["witness"] == {"rep": "(9,10,11)"}
    assert failed[1]["witness"] == {"g": "(1,2,3,4,5,6,7)"}
    assert [c for c in records if c["passed"]] == [
        c for c in clean_records if (c["item"], c["rep"]) not in flipped_keys
    ]
    # the witness replays: sol on that group and element exits 0
    assert main(["sol", "--group", "C7:C3 x S:4", "--element", failed[0]["rep"]]) == 0
    capsys.readouterr()


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
