"""Golden CLI outputs: every case of ``tests/golden/cases.py`` rendered
through ``abgup.cli.main`` must equal its committed file byte for byte."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_cases", Path(__file__).resolve().parent / "golden" / "cases.py"
)
cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cases)


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_output_matches_golden_file(name):
    expected = (cases.HERE / name).read_bytes().decode("utf-8")
    got = cases.render(cases.CASES[name])
    assert got == expected, f"{name}: {cases.column_difference(expected, got, name)}"
