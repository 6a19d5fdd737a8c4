"""grouplab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run every
workload in turn. Run it from anywhere inside a checkout; it imports grouplab
from that checkout's ``src/``.

Load model: a closed loop with one caller. A pass runs the workload's command
lines back to back in one fresh process (plus that workload's own worker
pool, never more workers than cores), so every pass starts cold, as a user's
``grouplab`` process does.

``--trace 0`` repeats passes until the next one would end after S seconds
(at least one pass) and reports the medians of

* ``wall_s``: first call into the workload to a checked report;
* ``cpu_s``: user plus system time of the pass process and its workers;
* ``peak_rss_mb``: the larger of the process's and its workers' peak RSS;
* ``setup_s``: importing grouplab and building the workload's groups and
  class tables, measured in every pass and in five set-up-only processes.

The three times are in reference seconds: measured seconds scaled by the
speed of a fixed calibration kernel sampled while each pass runs
(calibrate.py), so that the drift of a shared machine cancels out. A
single-worker workload runs pinned to one core together with the sampler.
The medians as measured are printed beside them and kept in the run record.

``failed_share`` (failed or missing operations over attempted ones) is
printed beside them; operations are check records for the suite workloads
and queries for ``sol-queries``, and a wrong output counts as failed.

``--trace 1`` runs one untraced pass with the workload's own workers, for the
pool metrics, and one traced pass with one worker, so every span stays in one
process. It prints the per-layer metrics (in measured seconds) with their
count base and sample count, and the tracing overhead: the traced pass's wall
time over an untraced single-worker pass's, or, where that extra pass would
not fit the run limit, over the untraced pass's CPU time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A record of the run (machine,
Python, commit, seed, workers, every pass) and the span file of a traced run
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every pass of one workload must end within this

sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_KERNEL_S, Sampler, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class PassFailed(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def one_pass(workload: str, seed: int, workers: int, deadline: float, *extra: str) -> dict:
    """Run one pass in a fresh process and return its measurement line."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), *extra]
    # a session of its own, so a timeout also stops the pass's pool workers
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{workload} did not finish within {RUN_LIMIT_S} s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_record(workload: str, seed: int, workers: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "nproc": nproc(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: int, workers: int) -> dict:
    """Untraced passes for ``seconds``; medians of the end-to-end metrics.

    Times are in reference seconds (see calibrate.py): each pass and each
    set-up is scaled by the calibration kernel's speed sampled while it ran.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    cpus = os.sched_getaffinity(0)
    if workers == 1:
        # the pass and the sampler inherit one core, so the kernel is timed
        # on the core the pass runs on
        os.sched_setaffinity(0, {min(cpus)})
    sampler = Sampler()
    try:
        probes = [one_pass(name, seed, workers, deadline, "--setup-only")
                  for _ in range(SETUP_PROBES)]
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(one_pass(name, seed, workers, deadline))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        samples = sampler.stop()
    finally:
        sampler.kill()
        os.sched_setaffinity(0, cpus)
    for p in passes:
        p["scale"] = scale(samples, *p["window"])
    # a set-up lasts a few samples' time: scale it by the samples within a second of it
    setups = [(p["setup_s"], scale(samples, p["setup_window"][0] - 1, p["setup_window"][1] + 1))
              for p in probes + passes]
    measured = {key: statistics.median(p[key] for p in passes) for key, _ in END_TO_END}
    measured["setup_s"] = statistics.median(s for s, _ in setups)
    values = {key: statistics.median(p[key] * p["scale"] for p in passes)
              for key in ("wall_s", "cpu_s")}
    values["setup_s"] = statistics.median(s * k for s, k in setups)
    values["peak_rss_mb"] = measured["peak_rss_mb"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END},
        "measured": measured,
        "failed_share": failed / attempted,
        "passes": passes,
        "setup_samples": setups,
        "kernel_samples": samples,
    }


def trace(name: str, seed: int, workers: int) -> dict:
    """An untraced pass with the workload's workers (pool metrics), an
    untraced single-worker pass as the overhead base where it fits the run
    limit, and one traced single-worker pass."""
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = one_pass(name, seed, workers, deadline)
    runs = [plain]
    if workers > 1 and WORKLOADS[name].serial_reference:
        runs.append(one_pass(name, seed, 1, deadline))
    traced = one_pass(name, seed, 1, deadline, "--trace", str(spans))
    if workers == 1 or len(runs) > 1:
        base_s, base = runs[-1]["wall_s"], "untraced wall_s at 1 worker"
    else:  # a single-worker pass would not fit the run limit
        base_s, base = plain["cpu_s"], f"untraced cpu_s at {workers} workers"
    layers = dict(traced["layers"])
    for layer in ("suite", "sol"):
        ran = WORKLOADS[name].pool == layer
        capacity = plain["wall_s"] * workers
        how = f"untraced pass, {workers} worker(s)" if ran else "layer not run"
        layers[f"{layer}.pool.utilization"] = {
            "value": plain["cpu_s"] / capacity if ran else 0.0, "unit": "ratio",
            "base": f"cpu_s / (wall_s x workers), {how}", "samples": int(ran)}
        layers[f"{layer}.pool.idle_s"] = {
            "value": capacity - plain["cpu_s"] if ran else 0.0, "unit": "s",
            "base": f"wall_s x workers - cpu_s, {how}", "samples": int(ran)}
    runs.append({k: v for k, v in traced.items() if k != "layers"})
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()},
        "layers": layers,
        "overhead_share": traced["wall_s"] / base_s - 1,
        "overhead_base": f"traced wall_s {traced['wall_s']:.3f} s at 1 worker over {base}"
                         f" {base_s:.3f} s",
        "traced_wall_s": traced["wall_s"],
        "counters": traced["counters"],
        "passes": runs,
        "span_file": str(spans.relative_to(ROOT)),
    }


def print_table(name: str, result: dict, tracing: bool) -> None:
    if not tracing:
        n = len(result["passes"])
        for key, unit in END_TO_END:
            count = len(result["setup_samples"]) if key == "setup_s" else n
            print(f"{name:14s} {key:12s} {result['metrics'][key]['value']:12.4f} {unit:5s}"
                  f" median of {count}; as measured {result['measured'][key]:.4f} {unit}")
        kernel = statistics.median(k for _, k in result["kernel_samples"])
        print(f"{name:14s} {'kernel_s':12s} {kernel:12.6f} s     median of"
              f" {len(result['kernel_samples'])} calibration samples; times above are"
              f" scaled by {REFERENCE_KERNEL_S} s over the kernel time sampled in each pass")
        print(f"{name:14s} {'failed_share':12s} {result['failed_share']:12.4f} {'ratio':5s}"
              f" {result['failed']} of {result['attempted']} operations")
        return
    for key, m in result["layers"].items():
        print(f"{name:14s} {key:42s} {m['value']:14.6g} {m['unit']:6s}"
              f" samples={m['samples']:<7d} base: {m['base']}")
    traced = result["traced_wall_s"]
    print(f"{name:14s} {'trace.overhead_share':42s} {result['overhead_share']:14.6g} ratio "
          f" base: {result['overhead_base']}")
    for outcome in ("insoluble", "soluble"):
        share = result["layers"][f"analysis.pair_test.{outcome}.s"]["value"] / traced
        print(f"{name:14s} {f'analysis.pair_test.{outcome}.share':42s} {share:14.6g} ratio "
              f" base: traced wall_s {traced:.3f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "grouplab" / "cli.py").is_file():
        print(f"error: no grouplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workers = min(WORKLOADS[name].workers, nproc())
        try:
            if args.trace:
                result = trace(name, args.seed, workers)
            else:
                result = measure(name, args.seed, args.seconds, workers)
        except PassFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for problem in {p for run in result["passes"] for p in run.get("problems", ())}:
            print(f"{name}: {problem}", file=sys.stderr)
        print_table(name, result, bool(args.trace))
        record = run_record(name, args.seed, workers)
        print(f"{name:14s} record: " + " ".join(f"{k}={v}" for k, v in record.items()
                                                  if k != "workload"))
        record.update(trace=args.trace, seconds=args.seconds, **result)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        results[name] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
