"""Report bytes of seven commands in all three formats, against references.

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

from grouplab.cli import main

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
