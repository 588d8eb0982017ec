"""Shared test wiring.

Acceptance tests append (number, name, passed) tuples to
ACCEPTANCE_RESULTS; the terminal summary prints one line per criterion so
the verdicts are visible even when pytest captures test output.
"""

import os

ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []

# Subprocess tests start the CLI with another working directory; a relative
# PYTHONPATH entry (such as ``src``) would no longer find the package there.
if os.environ.get("PYTHONPATH"):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) if p else p for p in os.environ["PYTHONPATH"].split(os.pathsep)
    )


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
