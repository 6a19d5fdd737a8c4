"""Report bytes of seven commands in all three formats, against references,
and the JSON writer against json's own two-space dump.

The files under ``tests/golden/`` pin what each command prints:

* JSON byte for byte once the run-dependent ``meta`` key is dropped (the
  output must also be the canonical two-space dump of its own document);
* text byte for byte;
* CSV row for row, as parsed by ``csv.reader``.

Rewrite the references with ``PYTHONPATH=src python tests/test_reports_golden.py``
only when a report format is meant to change.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grouplab import sol as sol_mod
from grouplab.cli import main
from grouplab.suite import render

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code)
COMMANDS = {
    "sol_a5_order5": (["sol", "--group", "A:5", "--order", "5"], 0),
    "sol_s5_element": (["sol", "--group", "S:5", "--element", "(1,2,3)(4,5)"], 0),
    "sol_a5_identity": (["sol", "--group", "A:5", "--order", "1"], 0),
    "catalog": (["catalog"], 0),
    "table1": (["table1", "--workers", "1"], 0),
    "scan_a5_c6": (["scan", "--groups", "A:5,C:6", "--workers", "1"], 0),
    "suite_a5": (["suite", "--groups", "A:5", "--workers", "1"], 0),
}
FORMATS = {"text": "txt", "json": "json", "csv": "csv"}


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _run(name: str, fmt: str) -> tuple[int, str]:
    # stdout, not --out: the suite report echoes its config, the out path included
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(COMMANDS[name][0] + ["--format", fmt])
    return code, buf.getvalue()


def _without_meta(text: str) -> str:
    doc = json.loads(text)
    assert text == _dump(doc)
    return _dump({k: v for k, v in doc.items() if k != "meta"})


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_reference(name, fmt):
    code, text = _run(name, fmt)
    assert code == COMMANDS[name][1]
    expected = (GOLDEN / f"{name}.{FORMATS[fmt]}").read_text(encoding="utf-8")
    if fmt == "json":
        assert _without_meta(text) == expected
    elif fmt == "csv":
        assert list(csv.reader(io.StringIO(text))) == list(csv.reader(io.StringIO(expected)))
    else:
        assert text == expected


# strings that look like the writer's record boundaries, or that json escapes
_TRICKY = ['"', "\n", "},", "}, {", "},\n    {", "\\", "Grüße", "√2 ≤ π", "\u2028", ""]
_text = st.text(max_size=6) | st.sampled_from(_TRICKY)
_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | _text
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
)
_keys = _text | st.integers() | st.booleans() | st.none() | st.floats()
_records = st.dictionaries(_keys, _scalars, min_size=1, max_size=4)
_record_lists = st.lists(
    _records | st.dictionaries(_keys, _scalars | _records, min_size=1, max_size=3)
    | st.just({}) | st.just([]),
    min_size=1, max_size=5,
)
_values = st.recursive(
    _scalars | st.just({}) | st.just([]) | st.lists(_records, min_size=1, max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_keys, inner, max_size=4) | _record_lists
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_text, _values, max_size=5))
def test_json_render_is_the_two_space_dump(doc):
    # nested dicts, lists and tuples; empty ones, in record lists too; record
    # lists that mix flat records with records that hold a dict; strings that
    # hold quotes, newlines and record boundaries; NaN and infinities; and
    # keys that json turns into strings
    assert render(doc, "json") == _dump(doc)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_text, _values, max_size=5))
def test_json_render_without_the_c_encoder_is_the_same(doc):
    # a Python without _json runs json's pure-Python encoder under the same
    # separators, so it prints the same bytes
    with pytest.MonkeyPatch.context() as m:
        m.setattr(json.encoder, "c_make_encoder", None)
        assert render(doc, "json") == _dump(doc)


def _json_report(argv: list[str]) -> tuple[int, dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    text = buf.getvalue()
    return code, json.loads(text), text


def _nested_records(doc) -> list[dict]:
    """The records, in lists of dicts anywhere in doc, that hold a dict."""
    if isinstance(doc, dict):
        return [r for v in doc.values() for r in _nested_records(v)]
    if not isinstance(doc, list):
        return []
    here = [r for r in doc if isinstance(r, dict) and any(isinstance(v, dict) for v in r.values())]
    return here + [r for v in doc for r in _nested_records(v)]


def test_json_report_with_products_and_psl31_is_the_two_space_dump():
    # the exploration records hold a structure dict and factored orders
    code, doc, text = _json_report(
        ["suite", "--groups", "A:5", "--include-psl31", "--product-powers", "2", "--workers", "1"]
    )
    assert code == 0
    assert text == _dump(doc)
    assert any("structure" in r for r in _nested_records(doc))


def test_json_report_with_a_failed_witness_is_the_two_space_dump(monkeypatch):
    # one lemma record fails with a witness, as in the fault-injection tests
    real = sol_mod.lemma_checks_for_rep

    def failing(G, rep_idx, name="", *args, **kwargs):
        lemma, theorem = real(G, rep_idx, name, *args, **kwargs)
        if rep_idx == 1:
            lemma[0] = {**lemma[0], "passed": False, "witness": {"x_order": 2, "sol": 7}}
        return lemma, theorem

    monkeypatch.setattr(sol_mod, "lemma_checks_for_rep", failing)
    code, doc, text = _json_report(["suite", "--groups", "A:5", "--workers", "1"])
    assert code == 1
    assert text == _dump(doc)
    assert [r["witness"] for r in _nested_records(doc) if "witness" in r] == [
        {"x_order": 2, "sol": 7}
    ]


def _write_references() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(COMMANDS):
        for fmt, ext in FORMATS.items():
            _, text = _run(name, fmt)
            if fmt == "json":
                text = _without_meta(text)
            (GOLDEN / f"{name}.{ext}").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _write_references()
