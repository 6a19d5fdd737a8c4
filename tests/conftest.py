import multiprocessing.process

import pytest

_acceptance_lines: list[str] = []


@pytest.fixture
def announce():
    """Record one PASS/FAIL verdict line, shown in the terminal summary."""

    def _announce(n: int, ok: bool, extra: str = ""):
        tail = f" ({extra})" if extra else ""
        _acceptance_lines.append(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{tail}")

    return _announce


@pytest.fixture
def pool_pids(monkeypatch):
    """The pids of the worker processes that suite.pool_map starts, under
    any start method."""
    pids = []
    real = multiprocessing.process.BaseProcess.start

    def recorded(process):
        real(process)
        pids.append(process.pid)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded)
    return pids


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines,
                           key=lambda s: int(s.split(":")[0].split()[1])):
            terminalreporter.write_line(line)
