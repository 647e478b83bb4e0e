"""Every golden command still prints its committed bytes and exit code."""

import json
import platform

import pytest

from golden import CASES, GOLDEN, MANIFEST, REGENERATE, run

FIXTURES = json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_fixtures_cover_the_cases():
    assert FIXTURES["cases"].keys() == CASES.keys(), f"stale fixtures: {REGENERATE}"
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    fixture = FIXTURES["cases"][name]
    assert fixture["command"] == " ".join(CASES[name]), f"{name}: stale fixture: {REGENERATE}"
    code, got = run(name, tmp_path / f"{name}.csv")
    want = (GOLDEN / f"{name}.csv").read_bytes()
    first = next((i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()))
                  if a != b), None)
    assert (code, got) == (fixture["exit"], want), (
        f"{name}: exit {code} (golden {fixture['exit']}), first differing line "
        f"{first}; running Python {platform.python_version()}, golden files made "
        f"with Python {FIXTURES['python']}.  If the change is deliberate, regenerate with "
        f"`{REGENERATE}` and list the changed files in CHANGES.md.")
