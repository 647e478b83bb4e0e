"""Golden CLI outputs: a fixed command set whose CSV bytes and exit codes are
committed under tests/golden/, so any change to what the CLI prints shows up
file by file in a diff.

CASES is the one list of end-to-end commands.  tests/test_golden.py reruns
each case in process, and CI replays each one through the installed qstoch
entry point, from outside the checkout, comparing its stdout bytes and exit
code:

    python tests/golden.py replay

To add a command, append it to CASES and regenerate; the files already
committed must come back byte-identical (`git diff --stat tests/golden`
then lists manifest.json alone).  Regenerate after a
deliberate output change too, and name the files that changed in CHANGES.md:

    PYTHONPATH=src python tests/golden.py

Every stream is a standard-library random.Random, and the files are the
same bytes on every supported Python; manifest.json records the Python
version they were made with.  The test compares bytes whatever version
runs, and a mismatch names both versions.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

from qstoch.cli import main

GOLDEN = Path(__file__).with_name("golden")
MANIFEST = GOLDEN / "manifest.json"
REGENERATE = "PYTHONPATH=src python tests/golden.py"

NOISY = ["--p-right", "0.9", "--p-left", "0.3", "--lambda", "0.0375"]
EDGES = {"1-1": ["--p-right", "1", "--p-left", "1"],
         "1-0": ["--p-right", "1", "--p-left", "0"],
         "p0.5": ["--p", "0.5"]}

CASES = {
    # the README quickstart, without --out
    "readme-sweep": ["sweep", "--p-min", "0.0", "--p-max", "1.0", "--p-step", "0.1",
                     "--steps", "100000", "--shots", "10000"],
    "readme-asym": ["asym", "--p-right", "0.9", "--p-left", "0.3"],
    "readme-simulate": ["simulate", "--p", "0.8", "--mode", "quantum", "--steps", "100000",
                        "--seed", "42"],
    "readme-tomo": ["tomo", "--p", "0.8", "--steps", "100000", "--shots", "10000"],
    "asym-cu": ["asym", "--p-right", "0.9", "--p-left", "0.3", "--gate", "cu"],
    "asym-lambda": ["asym", "--p-right", "0.9", "--p-left", "0.3", "--lambda", "0.0375"],
    # sweep's quantum column runs with the gate noise it is given
    "sweep-lambda": ["sweep", "--p-min", "0.3", "--p-max", "0.5", "--p-step", "0.1",
                     "--lambda", "0.0375", "--steps", "20000", "--shots", "10000"],
    # step counts that end 3 steps into an 8 192-step draw block
    "simulate-noisy-65539": ["simulate", *NOISY, "--steps", "65539"],
    "simulate-noisy-131075": ["simulate", *NOISY, "--steps", "131075"],
    "simulate-classical-65539": ["simulate", "--p", "0.8", "--mode", "classical",
                                 "--steps", "65539"],
    "tomo-classical-131075": ["tomo", "--p", "0.8", "--mode", "classical",
                              "--steps", "131075"],
    # p_right + p_left = 1: both states emit one law, so the classical memory
    # costs 0 bits while its steady Bloch vector has radius 0.8
    "tomo-classical-merged-131075": ["tomo", "--p-right", "0.9", "--p-left", "0.1",
                                     "--mode", "classical", "--steps", "131075"],
    # p_right + p_left < 1: the band between the two emission laws keeps the state
    "simulate-persistent-65539": ["simulate", "--p", "0.2", "--mode", "classical",
                                  "--steps", "65539"],
    "tomo-persistent-131075": ["tomo", "--p", "0.2", "--mode", "classical",
                               "--steps", "131075"],
    # tomography of a noisy run of the cu gate
    "tomo-noisy-cu-131075": ["tomo", *NOISY, "--gate", "cu", "--steps", "131075"],
    # a trace shorter than the longest checked block: L = 1..3 only, one block
    "simulate-classical-3": ["simulate", "--p", "0.8", "--mode", "classical", "--steps", "3"],
    # the paper's headline point, where C_q = 0.05 against C = 1
    "paper-headline": ["sweep", "--p-min", "0.4253", "--p-max", "0.4253", "--p-step", "0.1"],
    # the shot cap: every count and bootstrap draw is a BTRD draw near n = 2^63
    "tomo-max-shots": ["tomo", "--p-right", "0.9", "--p-left", "0.3", "--steps", "3",
                       "--shots", "9223372036854775807"],
}
for _name, _point in EDGES.items():
    CASES[f"edge-{_name}-simulate"] = ["simulate", *_point, "--steps", "65539"]
    CASES[f"edge-{_name}-tomo"] = ["tomo", *_point, "--steps", "131075"]


def run(name: str, out: Path) -> tuple[int, bytes]:
    """Exit code and CSV bytes of one case, run in this process."""
    code = main(CASES[name] + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.csv"):
        stale.unlink()
    cases = {}
    for name, argv in CASES.items():
        code, _ = run(name, GOLDEN / f"{name}.csv")
        cases[name] = {"command": " ".join(argv), "exit": code}
    manifest = {"python": platform.python_version(), "regenerate": REGENERATE, "cases": cases}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


def replay() -> None:
    """Run every manifest case through the qstoch on PATH, its stdout a pipe,
    and exit naming each case whose stdout bytes or exit code differ from the
    committed ones; a manifest that lists no case fails too."""
    fixtures = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if not fixtures["cases"]:
        sys.exit(f"golden replay: {MANIFEST} lists no case")
    failed = []
    for name, case in fixtures["cases"].items():
        csv = GOLDEN / f"{name}.csv"
        if not csv.is_file():
            failed.append(f"{name}: no committed {csv}")
            continue
        want = csv.read_bytes()
        proc = subprocess.run(["qstoch", *case["command"].split()], stdout=subprocess.PIPE)
        if (proc.returncode, proc.stdout) != (case["exit"], want):
            failed.append(f"{name}: exit {proc.returncode} (golden {case['exit']}), "
                          f"stdout {'matches' if proc.stdout == want else 'differs'}")
    if failed:
        sys.exit(f"golden replay through qstoch failed (Python "
                 f"{platform.python_version()}, golden files made with Python "
                 f"{fixtures['python']}):\n  "
                 + "\n  ".join(failed))
    print(f"{len(fixtures['cases'])} golden cases replayed through qstoch")


if __name__ == "__main__":
    if sys.argv[1:] == ["replay"]:
        replay()
    elif sys.argv[1:]:
        sys.exit("usage: python tests/golden.py [replay]")
    else:
        regenerate()
