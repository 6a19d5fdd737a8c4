"""One pass of one workload in a fresh process.

    python3 perfbench/one_pass.py --workload NAME --seed N --workers W
        [--setup-only] [--trace SPANS_FILE] [--write-reference]

Set-up imports grouplab from ``src/`` of the checkout and builds the
workload's groups and class tables. The timed phase then runs the workload's
command lines back to back through ``grouplab.cli.main`` and checks the
output. The pass prints one JSON line with its measurements on stdout.

``--trace`` patches the span wrappers in before set-up, writes every span to
SPANS_FILE at the end and adds the per-layer metrics to the line.
``--write-reference`` stores the normalized output as the workload's
reference instead of checking it; run it only on a commit whose output is
known to be right.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("perm", "analysis", "catalog", "sol", "suite", "cli")

sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_grouplab() -> dict:
    """The grouplab modules of this checkout, never an installed copy."""
    if not (SRC / "grouplab" / "cli.py").is_file():
        raise SystemExit(f"error: no grouplab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"grouplab.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported grouplab from {mods['cli'].__file__}, not {SRC}")
    return mods


def cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def run_calls(cli, calls: list[list[str]]) -> list[tuple[int | None, str]]:
    """(exit code, stdout) of each command line; an exception is exit None."""
    results = []
    for argv in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed operation; the pass still reports
            traceback.print_exc()
            rc = None
        results.append((rc, buf.getvalue()))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, metavar="SPANS_FILE")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    m0 = time.monotonic()
    mods = import_grouplab()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(mods)
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    with span("benchmark.setup"):
        groups = {}
        for name in workload.setup_groups(mods["catalog"]):
            groups[name] = mods["catalog"].build_named_group(name)
            groups[name].conjugacy_classes()
    out = {"setup_s": time.perf_counter() - t0, "setup_window": [m0, time.monotonic()]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    calls = workload.calls(groups, args.seed, args.workers)
    cpu0 = cpu_seconds()
    w0 = time.perf_counter()
    m0 = time.monotonic()
    with span("benchmark.workload"):
        results = run_calls(mods["cli"], calls)
    if args.write_reference:
        doc = workload.reference_doc(calls, results, args.seed)
        workload.reference_path().write_text(dump_reference(doc), encoding="utf-8")
        attempted, failed, problems = 1, 0, []
    else:
        attempted, failed, problems = workload.check(calls, results, args.seed)
    out.update(
        wall_s=time.perf_counter() - w0,
        window=[m0, time.monotonic()],
        cpu_s=cpu_seconds() - cpu0,
        peak_rss_mb=peak_rss_mb(),
        attempted=attempted,
        failed=failed,
        problems=problems,
    )
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["counters"] = tracer.counters()
        header = {
            "workload": workload.name,
            "seed": args.seed,
            "workers": args.workers,
            "python": platform.python_version(),
            "wall_s": out["wall_s"],
            "counters": out["counters"],
        }
        tracer.write(args.trace, header)
    print(json.dumps(out))
    return 0


def dump_reference(doc: dict) -> str:
    """JSON with one check record (or query) per line, so diffs stay readable."""
    lines = ["{"]
    items = list(doc.items())
    for i, (key, value) in enumerate(items):
        comma = "," if i < len(items) - 1 else ""
        if isinstance(value, dict) and key == "records":
            inner = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in value.items()]
            lines.append(f"{json.dumps(key)}: {{\n" + ",\n".join(inner) + f"\n}}{comma}")
        elif isinstance(value, list):
            inner = [f"  {json.dumps(v, sort_keys=True)}" for v in value]
            lines.append(f"{json.dumps(key)}: [\n" + ",\n".join(inner) + f"\n]{comma}")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}{comma}")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
