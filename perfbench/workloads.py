"""The three benchmark workloads: their inputs, set-up and output checks.

Each workload is a list of ``grouplab`` command lines run in-process through
``grouplab.cli.main``. The seed only changes inputs whose checked results do
not depend on it and whose cost hardly does: the suite's spot-check sample
(``--seed``) and, for ``sol-queries``, which conjugate ``x^g`` of each element
is asked for. Since ``Sol(x^g) = Sol(x)^g``, every |Sol| and subgroup flag
holds on every seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SOLUBLE_GROUPS = ("S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4")
QUOTIENT_GROUPS = ("SL2:7",)  # the default suite's extra quotient section

# (group, element or None, class-representative order or None, |Sol|, is_subgroup)
SOL_QUERIES = (
    ("S:7", "(1,2)(3,4)", None, 1296, False),
    ("S:7", "(1,2,3,4,5,6,7)", None, 42, True),
    ("A:7", None, 3, 360, False),
    ("PSL2:11", None, 3, 48, False),
    ("PGL2:7", None, 8, 16, True),
    ("S:5", "(1,2,3)(4,5)", None, 12, True),
)


class Workload:
    """A named input set with its worker count, the layer whose process pool
    that count drives (``suite`` or ``sol``), and whether a traced run can
    afford an untraced single-worker pass as its overhead base.

    Subclasses provide ``setup_groups(catalog)`` (the groups set-up builds),
    ``calls(groups, seed, workers)`` (the command lines of one pass),
    ``reference_doc(calls, results, seed)`` (the normalized output stored as
    the reference) and ``check(calls, results, seed)``, which returns
    ``(attempted, failed, problems)`` for the ``(exit code, stdout)`` results.
    """

    pool = "suite"
    serial_reference = True

    def __init__(self, name: str, workers: int):
        self.name = name
        self.workers = workers

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"


# ----------------------------------------------------------------- suites


def _suite_records(doc: dict) -> dict:
    """Check records of a suite report keyed by what they check."""
    out = {}
    for g in doc["groups"]:
        for section in ("lemma_checks", "theorem_checks"):
            for r in g[section]:
                out[f"{g['group']}|{section}|{r['rep']}|{r['item']}"] = r
    for q in doc["quotient_checks"]:
        out[f"{q['group']}|quotient|{q['kernel']}|{q['rep']}"] = q
    for p in doc["product_checks"]:
        out[f"{p['product']}|product|{p['rep']}"] = p
    for e in doc["exploration"]:
        out[f"{e['group']}|exploration|{e['element']}"] = e
    return out


def _suite_header(doc: dict) -> dict:
    """Everything in a suite report outside ``meta`` and the check records,
    with the seed and worker count blanked so one reference serves every seed
    and both the untraced and the traced (single-worker) pass."""
    head = {k: v for k, v in doc.items() if k not in ("meta", "quotient_checks",
                                                      "product_checks", "exploration")}
    head["seed"] = None
    head["config"] = {**doc["config"], "seed": None, "workers": None}
    head["groups"] = [
        {k: v for k, v in g.items() if k not in ("lemma_checks", "theorem_checks")}
        for g in doc["groups"]
    ]
    return head


class SuiteWorkload(Workload):
    def __init__(self, name, workers, groups: tuple[str, ...] | None):
        super().__init__(name, workers)
        self.groups = groups  # None: the default catalog battery
        # the default battery takes about 70 s on one worker; with the untraced
        # and the traced pass it would not end within the run limit
        self.serial_reference = groups is not None

    def setup_groups(self, catalog):
        if self.groups is None:
            return tuple(catalog.TABLE1_NAMES) + QUOTIENT_GROUPS
        return self.groups

    def calls(self, groups, seed, workers):
        argv = ["suite"]
        if self.groups is not None:
            argv += ["--groups", ",".join(self.groups)]
        return [argv + ["--workers", str(workers), "--seed", str(seed), "--format", "json"]]

    def reference_doc(self, calls, results, seed):
        rc, text = results[0]
        doc = json.loads(text)
        return {"header": _suite_header(doc), "records": _suite_records(doc)}

    def check(self, calls, results, seed):
        ref = json.loads(self.reference_path().read_text(encoding="utf-8"))
        expected = ref["records"]
        rc, text = results[0]
        try:
            doc = json.loads(text)
            got = _suite_records(doc)
            header = _suite_header(doc)
        except (ValueError, KeyError, TypeError) as exc:
            return len(expected), len(expected), [f"unreadable report (exit {rc}): {exc!r}"]
        problems = []
        failed = sum(1 for key, rec in expected.items() if got.get(key) != rec)
        if failed:
            problems.append(f"{failed} check records differ from the reference")
        extra = len(set(got) - set(expected))
        if extra:
            problems.append(f"{extra} check records not in the reference")
        if rc != 0:
            problems.append(f"exit code {rc}")
        if doc.get("seed") != seed or doc["config"].get("seed") != seed:
            problems.append("report does not carry the requested seed")
        if header != ref["header"]:
            problems.append("report header differs from the reference")
        if problems and not failed:
            failed = 1  # a wrong report is a failed operation even if the records match
        return len(expected), failed, problems


# ------------------------------------------------------------- sol queries


def _sol_doc(doc: dict) -> dict:
    """A ``sol`` report without ``meta``, the seed and the queried element,
    which are the only fields that change with the seeded conjugate."""
    out = {k: v for k, v in doc.items() if k not in ("meta", "seed")}
    out["result"] = {k: v for k, v in doc["result"].items() if k != "element"}
    return out


class SolQueries(Workload):
    pool = "sol"

    def setup_groups(self, catalog):
        return tuple(dict.fromkeys(q[0] for q in SOL_QUERIES))

    def calls(self, groups, seed, workers):
        from grouplab.perm import parse_permutation

        out = []
        for i, (name, element, order, _, _) in enumerate(SOL_QUERIES):
            G = groups[name]
            if element is not None:
                x = parse_permutation(element, G.degree)
            else:
                x = next(c.representative for c in G.conjugacy_classes().classes
                         if c.element_order == order)
            elements = G.elements()
            g = elements[random.Random(f"{seed}:{i}").randrange(len(elements))]
            out.append(["sol", "--group", name, "--element", x.conjugate(g).cycle_string(),
                        "--workers", str(workers), "--seed", str(seed), "--format", "json"])
        return out

    def reference_doc(self, calls, results, seed):
        return {"queries": [_sol_doc(json.loads(text)) for _, text in results]}

    def check(self, calls, results, seed):
        ref = json.loads(self.reference_path().read_text(encoding="utf-8"))["queries"]
        problems = []
        for argv, (rc, text), query, expected in zip(calls, results, SOL_QUERIES, ref):
            name, _, _, sol_order, is_subgroup = query
            element = argv[argv.index("--element") + 1]
            try:
                doc = json.loads(text)
                result = doc["result"]
                ok = (
                    rc == 0
                    and doc["seed"] == seed
                    and result["element"] == element
                    and result["order"]["value"] == sol_order
                    and result["is_subgroup"] == is_subgroup
                    and _sol_doc(doc) == expected
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                problems.append(f"sol {name} {element}: exit {rc}, output differs")
        return len(SOL_QUERIES), len(problems), problems


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        SuiteWorkload("suite-catalog", 2, None),
        SolQueries("sol-queries", 2),
        SuiteWorkload("suite-soluble", 1, SOLUBLE_GROUPS),
    )
}
