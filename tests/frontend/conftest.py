"""Fixtures for the flat-frontend differential and golden tests."""

from __future__ import annotations

import pytest

from repro.program.generator import generate_program
from repro.program.profiles import profile_by_name
from repro.trace.executor import execute_program


@pytest.fixture(scope="session")
def traces(suite_traces):
    """The suite traces plus a 50k-uop ``server-micro`` trace, by name.

    The suite traces hold 0.1-0.7 indirect branches and 0.7-5.3 returns
    per 1k instructions; the server trace holds about 11 and 34, so it
    exercises the RSB and the indirect predictor on the delivery paths.
    It stays out of ``suite_traces``, so the tests that iterate the
    suites keep their three traces.
    """
    program = generate_program(
        profile_by_name("server-micro"),
        seed=103,
        name="server-micro-t",
        suite="server-micro",
    )
    server = execute_program(program, max_uops=50_000)
    return {**suite_traces, "server-micro": server}
