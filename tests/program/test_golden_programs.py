"""Golden pin of generated programs and the traces they execute.

Every ``default_registry()`` spec and every ``server_registry()`` spec
at its native footprint is generated and executed for 20k uops.  The
server specs are the large-footprint case: their traces reach only a
small share of the generated blocks.  Per spec the golden file stores

* the trace's content hash (computed before anything else touches the
  program, so the trace is the one ``make_trace`` would produce),
* the block count and the static footprint in uops, and
* the byte span of the program image.

A generator change that is meant to move these numbers regenerates
the file with ``PYTHONPATH=src python tests/program/test_golden_programs.py``;
the failure message also prints the new entry.
"""

import json
from pathlib import Path

import pytest

from repro.harness.registry import default_registry, server_registry
from repro.program.generator import generate_program
from repro.program.profiles import profile_by_name
from repro.trace.executor import execute_program

GOLDEN_PATH = Path(__file__).with_name("golden_programs.json")

LENGTH = 20_000

SPECS = default_registry(length_uops=LENGTH) + server_registry(
    length_uops=LENGTH
)


def program_digests(spec):
    """Golden-file record of one spec's program and trace."""
    profile = profile_by_name(spec.suite).scaled(spec.static_uops)
    program = generate_program(
        profile, seed=spec.seed, name=spec.name, suite=spec.suite
    )
    trace = execute_program(program, max_uops=spec.length_uops)
    record = {
        "trace": trace.content_hash(),
        "num_blocks": program.num_blocks,
        "static_uops": program.static_uops,
        "total_bytes": program.image.total_bytes,
    }
    # The footprint the program reports must be the one its image holds.
    assert program.image.total_uops == record["static_uops"]
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_program_matches_golden(spec, golden):
    got = program_digests(spec)
    new_entry = json.dumps({spec.name: got}, indent=2)
    assert got == golden[spec.name], (
        f"generated program {spec.name} drifted. If the generator change "
        f"is intended, update {GOLDEN_PATH.name} with:\n{new_entry}"
    )


def test_golden_covers_every_spec(golden):
    assert sorted(golden) == sorted(spec.name for spec in SPECS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({spec.name: program_digests(spec) for spec in SPECS},
                   indent=2) + "\n"
    )
