"""Tests of the benchmark itself: output checks, smoke run, refusal without sources.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

STEPS, SHOTS = 100_000, 10_000


def sweep_csv(overrides=None, seed=42):
    """A sweep CSV holding the exact entropies of the simulated machines."""
    lines = [f"# qstoch sweep p_min=0 p_max=1 p_step=0.1 gate=cnot steps={STEPS} "
             f"shots={SHOTS} lambda=0 seed={seed}",
             ",".join(["p", "c_classical_theory", "c_quantum_theory", "c_classical_sim",
                       "c_quantum_sim", "c_quantum_sim_std"])]
    for p in checks.sweep_grid(0.0, 1.0, 0.1):
        if p == 0.0:
            lines.append("0,1,1,nan,nan,nan")
            continue
        c = checks.Ensemble("classical", p, p, p, p, STEPS, SHOTS).exact_entropy()
        q = checks.Ensemble("quantum", p, p, p, p, STEPS, SHOTS).exact_entropy()
        c_theory = 0.0 if p == 0.5 else c          # merged-state convention
        row = {"c_classical_sim": c, "c_quantum_sim": q, "c_quantum_sim_std": 0.01}
        row.update((overrides or {}).get(p, {}))
        lines.append(",".join(format(v, ".6g") for v in
                              (p, c_theory, q, row["c_classical_sim"], row["c_quantum_sim"],
                               row["c_quantum_sim_std"])))
    return "\n".join(lines) + "\n"


def check(text, seed=42):
    return checks.check_sweep(text, seed=seed, grid=checks.sweep_grid(0.0, 1.0, 0.1),
                              steps=STEPS, shots=SHOTS)


class TestChecks:
    def test_exact_values_pass_and_convention_is_counted(self):
        report = check(sweep_csv())
        assert report.ok, report.problems
        assert len(report.theory_mismatches) == 1
        assert report.theory_mismatches[0].startswith("p=0.5")

    @pytest.mark.parametrize("p, column, value", [
        (0.3, "c_quantum_sim", 0.5),          # quantum column off by ~0.27 bits
        (0.7, "c_classical_sim", 0.95),       # classical column off by 0.05 bits
        (0.5, "c_quantum_sim", float("nan")),
    ])
    def test_wrong_entropy_fails(self, p, column, value):
        report = check(sweep_csv({p: {column: value}}))
        assert not report.ok
        assert any(f"p={p}" in problem for problem in report.problems)

    def test_wrong_seed_or_row_count_fails(self):
        assert not check(sweep_csv(seed=7)).ok
        assert not check("\n".join(sweep_csv().splitlines()[:-1]) + "\n").ok

    def test_noisy_machine_is_the_channel_average(self):
        nr, nl = checks.noisy_machine(0.9, 0.3, checks.CALIBRATED_LAMBDA)
        assert nr == pytest.approx(0.884)
        assert nl == pytest.approx(0.308)

    def test_simulate_requires_every_ok(self):
        header = "# qstoch simulate p_right=0.8 seed=42\nL,block,count,freq,prob,tv,tv_bound,ok\n"
        rows = [f"{L},{code:0{L}b},1,0.1,0.1,0,0,1" for L in range(1, 5) for code in range(2 ** L)]
        good = header + "\n".join(rows) + "\n"
        assert checks.check_simulate(good, seed=42).ok
        assert not checks.check_simulate(good.replace(",1\n", ",0\n", 1), seed=42).ok


def test_smoke_runs_every_workload_checked_and_traced():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                         cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    expected = {f"{name}/{key}" for name in workloads.NAMES
                for key in [*run.END_TO_END, *run.PER_LAYER]}
    assert set(result["metrics"]) == expected
    assert result["metrics"]["sweep-fig4/cli.theory_convention_mismatch.rows"]["value"] == 1
    assert result["metrics"]["long-trace/stats.block_law_check.calls"]["value"] == 4
    assert result["metrics"]["asym-noise-cu/circuit.calibrate_noise.s"]["value"] > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "long-trace",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
