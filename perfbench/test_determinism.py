"""The traced path's work counters must not depend on hash randomization.

    python3 -m pytest perfbench/test_determinism.py

Runs a small traced input (a suite on one insoluble and one soluble group,
and one ``sol`` query) in two fresh processes under different
PYTHONHASHSEED values and requires identical counters, so that set
iteration order cannot leak into the work the benchmark counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CALLS = (
    ["suite", "--groups", "A:5,S:4", "--workers", "1", "--format", "json"],
    ["sol", "--group", "PGL2:7", "--order", "8", "--workers", "1", "--format", "json"],
)


def traced_counters() -> dict:
    sys.path.insert(0, str(HERE))
    from one_pass import import_grouplab, run_calls
    from tracer import Tracer

    mods = import_grouplab()
    tracer = Tracer()
    tracer.install(mods)
    results = run_calls(mods["cli"], CALLS)
    tracer.uninstall()
    assert [rc for rc, _ in results] == [0, 0]
    return tracer.counters()


def _child(hash_seed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([sys.executable, __file__], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_counters_ignore_hash_seed():
    first, second = _child("1"), _child("2")
    assert first["sol.solubilizer.pair_tests"] > 0
    assert first["perm.chain_extend.calls"] > 0
    assert first["calls"].get("analysis.pair_test.insoluble", 0) > 0
    assert first["calls"].get("analysis.pair_test.soluble", 0) > 0
    assert first == second


if __name__ == "__main__":
    print(json.dumps(traced_counters(), sort_keys=True))
