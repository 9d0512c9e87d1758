"""Shared pytest plumbing: collect the acceptance criteria's PASS/FAIL lines
and echo them in the terminal summary, so every run shows one line per
criterion regardless of capture settings.

It also imports ``hypothesis.extra._patching`` once, with deprecation
warnings ignored.  When a hypothesis test fails, hypothesis's pytest plugin
imports that module to write a patch; it loads libcst where libcst is
installed, and libcst's import raises a DeprecationWarning.  Under
``python -W error`` that warning would escape the plugin (which catches
only ImportError) as an INTERNALERROR, losing the falsifying example and
ending the session.  Imported here first, the module is cached."""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch itself
        pass

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
