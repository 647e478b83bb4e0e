"""Mutation check: every listed mutant of src/qstoch must fail the tests.

A mutant is one textual change to one module of the package.  Each is
applied to a fresh temporary copy of src, and the test modules it names run
against that copy with pytest -x; a mutant is killed when they fail.
test_golden.py is never run: a change that moves CSV bytes regenerates the
golden files, so only the other tests measure their strength.  The
unmutated copy must pass the same modules first.

    python tests/mutants.py

Exit status 0 when every mutant is killed; 1 when one survives, no longer
applies (its text is not in the module exactly once), or the unmutated
copy fails.  No mutation-testing package is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str         # a module of src/qstoch, without .py
    old: str            # occurs exactly once in that module
    new: str
    tests: tuple        # test modules of which at least one must fail


MUTANTS = (
    Mutant("run counts exiting, not entering, states", "circuit",
           "entering + bits.bit_count() - (bits >> (m - 1))", "bits.bit_count()",
           ("test_circuit.py",)),
    Mutant("gate noise at lam, not 16 lam / 15", "circuit",
           "mix = 16.0 * lam / 15.0", "mix = lam",
           ("test_circuit.py",)),
    Mutant("calibrate_noise divides by 0.75", "circuit",
           "(1.0 - target_fidelity) / 0.8", "(1.0 - target_fidelity) / 0.75",
           ("test_circuit.py",)),
    Mutant("bootstrap sd with ddof=0", "stats",
           "/ (len(values) - 1))", "/ len(values))",
           ("test_tomo.py",)),
    Mutant("bootstrap sd 50% wider", "tomo",
           "entropy_std=sample_std(boot)", "entropy_std=1.5 * sample_std(boot)",
           ("test_tomo.py",)),
    Mutant("bootstrap draws round by round, not basis by basis", "tomo",
           "draws = [[binomial(rng, n, k / n) for _ in range(bootstrap_rounds)] for k in counts.plus]",
           "draws = zip(*([binomial(rng, n, k / n) for k in counts.plus]\n"
           "                   for _ in range(bootstrap_rounds)))",
           ("test_tomo.py",)),
    Mutant("binomial's Stirling test takes n - k for n - k + 1", "tomo",
           "nm, nk = n - m + 1, n - k + 1", "nm, nk = n - m + 1, n - k",
           ("test_tomo.py",)),
    Mutant("Stirling tail's series from k = 5, not 10", "tomo",
           "if k < 10:", "if k < 5:",
           ("test_tomo.py",)),
    Mutant("binomial's inversion starts its pmf walk at x = 1", "tomo",
           "        x = 0\n", "        x = 1\n",
           ("test_tomo.py",)),
    Mutant("counts drawn at a 2% shrunk Bloch vector", "tomo",
           "(1.0 + c) / 2.0", "(1.0 + 0.98 * c) / 2.0",
           ("test_tomo.py",)),
    Mutant("projection only past radius 1.05", "tomo",
           "if radius > 1.0 else r", "if radius > 1.05 else r",
           ("test_tomo.py",)),
    Mutant("lag covariance halved", "stats",
           "cov1 = p_twice - p * p", "cov1 = 0.5 * (p_twice - p * p)",
           ("test_stats.py",)),
    Mutant("lag covariance 20% smaller", "stats",
           "cov1 = p_twice - p * p", "cov1 = 0.8 * (p_twice - p * p)",
           ("test_stats.py",)),
    Mutant("cu angle with its sign flipped", "qmodel",
           "theta = (np.arcsin(np.sqrt(pr)) - np.arcsin(np.sqrt(pl)))",
           "theta = (np.arcsin(np.sqrt(pl)) - np.arcsin(np.sqrt(pr)))",
           ("test_qmodel.py",)),
    Mutant("probability checks let NaN through", "qmath",
           "if not all(0.0 <= x <= 1.0 + ATOL_DIST for x in p):\n"
           "        raise ValueError(f\"entries outside [0, 1] in {p!r}\")\n"
           "    total = 0.0\n"
           "    for x in p:             # left to right: built-in sum compensates from Python 3.12\n"
           "        total += x\n"
           "    if not abs(total - 1.0) <= ATOL_DIST:",
           "if any(x < 0.0 or x > 1.0 + ATOL_DIST for x in p):\n"
           "        raise ValueError(f\"entries outside [0, 1] in {p!r}\")\n"
           "    total = 0.0\n"
           "    for x in p:             # left to right: built-in sum compensates from Python 3.12\n"
           "        total += x\n"
           "    if abs(total - 1.0) > ATOL_DIST:",
           ("test_qmath.py",)),
    Mutant("_check_int takes a bool", "process",
           "if not isinstance(value, bool) and not (numpy and isinstance(value, numpy.bool_)):",
           "if True:",
           ("test_records.py",)),
    Mutant("_check_int ignores hi", "process",
           "if lo <= n and (hi is None or n <= hi):", "if lo <= n:",
           ("test_records.py",)),
    Mutant("bloch lets NaN and inf through", "qmath",
           "if not all(map(math.isfinite, r)):", "if False:",
           ("test_records.py",)),
    Mutant("simulate_counts draws at any radius", "tomo",
           "if not qmath.bloch_radius(vector) <= 1.0 + qmath.ATOL_UNIT:", "if False:",
           ("test_tomo.py",)),
    Mutant("_check_real takes a bool", "qmath",
           "isinstance(x, numbers.Real) and not isinstance(x, bool)",
           "isinstance(x, numbers.Real)",
           ("test_records.py",)),
    Mutant("bloch takes a string or a bool", "qmath",
           "r = _real_vector((x, y, z))", "r = tuple(map(float, (x, y, z)))",
           ("test_records.py",)),
    Mutant("_check_real ignores hi", "process",
           "if _is_real(value) and lo <= value <= hi:", "if _is_real(value) and lo <= value:",
           ("test_records.py",)),
    Mutant("_check_real keeps a numpy float", "process",
           "return float(value)", "return value",
           ("test_records.py",)),
    Mutant("CausalMachine without its _make override", "process",
           "    _make = classmethod(_checked_make)   # so _replace checks too\n", "",
           ("test_records.py",)),
    Mutant("block tally drops the bits carried across a chunk boundary", "circuit",
           "held | (bits << k)", "bits",
           ("test_circuit.py",)),
    Mutant("block tally splits on a window's last bit first", "circuit",
           "t >> j", "t >> (block_len - 1 - j)",
           ("test_circuit.py",)),
    Mutant("block tally's window starts span the cut window", "circuit",
           "((1 << used) - 1)", "((1 << (k + m)) - 1)",
           ("test_circuit.py",)),
    Mutant("block tally starts a window every L + 1 bits", "circuit",
           "// ((1 << block_len) - 1)", "// ((1 << (block_len + 1)) - 1)",
           ("test_circuit.py",)),
    Mutant("trace block carries the state in un-negated through a flipping band", "circuit",
           "(state ^ flips)", "state",
           ("test_circuit.py",)),
    Mutant("flipping band's mask on the even steps", "circuit",
           'b"\\xaa"', 'b"\\x55"',
           ("test_circuit.py",)),
    Mutant("next block enters in its block's first state", "circuit",
           "state = s >> (m - 1)", "state = s & 1",
           ("test_circuit.py",)),
    Mutant("a tie past p's last set bit counts as below", "circuit",
           "    return lt\n", "    return [below | tied for below, tied in zip(lt, eq)]\n",
           ("test_circuit.py",)),
    Mutant("a bound's planes stop one digit early", "circuit",
           "if eq[c] and j < len(digits)]", "if eq[c] and j < len(digits) - 1]",
           ("test_circuit.py",)),
    Mutant("the frozen sweep row takes one column fewer", "cli",
           "_complexity_columns(1.0, 1.0, _NAN, _NAN, _NAN)",
           "_complexity_columns(1.0, 1.0, _NAN, _NAN)",
           ("test_cli.py",)),
    Mutant("the sweep grid keeps a repeated point", "cli",
           "if any(a >= b for a, b in zip(grid, grid[1:])):",
           "if any(a > b for a, b in zip(grid, grid[1:])):",
           ("test_cli.py",)),
)


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for the named test modules against the package in
    src, stopping at the first failure."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    located = subprocess.run([sys.executable, "-c", "import qstoch; print(qstoch.__file__)"],
                             env=env, capture_output=True, text=True, check=True)
    if not Path(located.stdout.strip()).is_relative_to(src):
        sys.exit(f"mutants: qstoch imports from {located.stdout.strip()}, not from {src}")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *(str(ROOT / "tests" / name) for name in tests)],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def copy_src(workdir: str) -> Path:
    src = Path(workdir) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def verdict(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as workdir:
        src = copy_src(workdir)
        path = src / "qstoch" / f"{mutant.module}.py"
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        code = run_tests(src, mutant.tests)
    # pytest exits 1 when a test failed; 0 is a pass, anything else an error
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    every_module = sorted({name for mutant in MUTANTS for name in mutant.tests})
    with tempfile.TemporaryDirectory() as workdir:
        baseline = run_tests(copy_src(workdir), every_module)
    if baseline != 0:
        print(f"mutants: the unmutated tests fail (pytest exit {baseline})")
        return 1
    killed = 0
    for mutant in MUTANTS:
        result = verdict(mutant)
        killed += result == "killed"
        print(f"{result:>8}  {mutant.module}: {mutant.name}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
