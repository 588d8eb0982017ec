"""Shared test wiring.

Acceptance tests append (number, name, passed) tuples to
ACCEPTANCE_RESULTS; the terminal summary prints one line per criterion so
the verdicts are visible even when pytest captures test output.
"""

import os

ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []

# Subprocess tests start the CLI with another working directory, so they
# find the package through the absolute ``src`` path; a relative PYTHONPATH
# entry (such as ``src``) is made absolute for the same reason.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_entries = [SRC]
if os.environ.get("PYTHONPATH"):
    _entries += (os.path.abspath(p) if p else p for p in os.environ["PYTHONPATH"].split(os.pathsep))
os.environ["PYTHONPATH"] = os.pathsep.join(_entries)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
