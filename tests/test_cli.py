"""CLI subcommands, CSV schema, determinism, exit codes."""

import argparse
import ast
import errno
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qstoch import circuit, cli
from qstoch.cli import ExperimentConfig, main
from qstoch.seeding import make_rng
from qstoch.tomo import TomographyCounts, reconstruct_rho

from oracle import density


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def parse_csv(payload):
    lines = payload.decode().strip().split("\n")
    assert lines[0].startswith("# qstoch ")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


FAST_SWEEP = ["sweep", "--p-min", "0.3", "--p-max", "0.7", "--p-step", "0.2",
              "--steps", "1500", "--shots", "800", "--seed", "42"]


class TestSweep:
    def test_schema_and_theory_columns(self, tmp_path):
        code, payload = run_cli(FAST_SWEEP, tmp_path, "sweep.csv")
        assert code == 0
        header, rows = parse_csv(payload)
        assert header == ["p", "c_classical_theory", "c_quantum_theory",
                          "c_classical_sim", "c_quantum_sim", "c_quantum_sim_std"]
        assert [row["p"] for row in rows] == ["0.3", "0.5", "0.7"]
        by_p = {row["p"]: row for row in rows}
        assert by_p["0.3"]["c_classical_theory"] == "1"
        assert by_p["0.5"]["c_classical_theory"] == "0"
        assert by_p["0.5"]["c_quantum_theory"] == "0"

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_cli(FAST_SWEEP, tmp_path, "a.csv")
        _, second = run_cli(FAST_SWEEP, tmp_path, "b.csv")
        assert first == second

    def test_boundary_point_uses_conventions(self, tmp_path):
        args = ["sweep", "--p-min", "0.0", "--p-max", "0.0", "--p-step", "0.1",
                "--steps", "100", "--shots", "100"]
        code, payload = run_cli(args, tmp_path, "zero.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        assert rows[0]["c_classical_theory"] == "1"
        assert rows[0]["c_quantum_theory"] == "1"
        assert rows[0]["c_quantum_sim"] == "nan"

    def test_full_grid_theory_columns(self, tmp_path):
        args = ["sweep", "--p-min", "0.0", "--p-max", "1.0", "--p-step", "0.1",
                "--steps", "200", "--shots", "100", "--seed", "1"]
        code, payload = run_cli(args, tmp_path, "full.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        assert len(rows) == 11
        for row in rows:
            expected = "0" if row["p"] == "0.5" else "1"
            assert row["c_classical_theory"] == expected
        by_p = {row["p"]: row for row in rows}
        assert float(by_p["0.8"]["c_quantum_theory"]) == pytest.approx(0.4690, abs=1e-4)

    @pytest.mark.parametrize("step", ["0.5000000000005", "0.2500000000004"])
    def test_last_point_is_clamped_to_p_max(self, tmp_path, step):
        # the grid count's 1e-12 slack admits a last point a hair past p_max;
        # it runs at p_max, the bound _sweep_grid checked, not past it
        args = ["sweep", "--p-min", "0.5", "--p-max", "1", "--p-step", step,
                "--steps", "200", "--shots", "100"]
        code, payload = run_cli(args, tmp_path, "clamped.csv")
        assert code == 0
        assert parse_csv(payload)[1][-1]["p"] == "1"

    @pytest.mark.parametrize("bad", [
        ["--p-min", "0", "--p-max", "0", "--seed", "-1"],
        ["--seed", "-1"],
        ["--steps", "0"],
        ["--shots", "0"],
        ["--shots", str(2 ** 63)],
    ], ids=["frozen-grid-seed", "seed", "steps", "shots", "shots-overflow"])
    def test_invalid_config_rejected_before_work(self, monkeypatch, tmp_path, bad):
        monkeypatch.setattr(cli, "make_rng", refusing("a stream"))
        out = tmp_path / "bad.csv"
        assert main(FAST_SWEEP + bad + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        (["--p-min", "0.5", "--p-max", "0.1"], "invalid grid: [0.5, 0.1] step 0.2"),
        (["--p-step", "0"], "invalid grid: [0.3, 0.7] step 0.0"),
        (["--p-step", "-0.2"], "invalid grid: [0.3, 0.7] step -0.2"),
        (["--p-step", "inf"], "invalid grid: [0.3, 0.7] step inf"),
        (["--p-step", "nan"], "invalid grid: [0.3, 0.7] step nan"),
        (["--p-max", "nan"], "invalid grid: [0.3, nan] step 0.2"),
        (["--p-step", "1e-9"], "grid step 1e-09 gives more than 10001 points"),
        (["--p-min", "0.2", "--p-max", "0.2", "--p-step", "1e-13"],
         "invalid grid: step 1e-13 repeats a point at 12 digits"),
    ], ids=["inverted", "zero-step", "negative-step", "inf-step", "nan-step", "nan",
            "oversized", "repeated"])
    def test_invalid_grid_rejected_before_work(self, monkeypatch, capsys, tmp_path,
                                               grid, message):
        monkeypatch.setattr(cli, "make_rng", refusing("a stream"))
        out = tmp_path / "bad.csv"
        assert main(FAST_SWEEP + grid + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"qstoch: error: {message}\n"
        assert not out.exists()

    def test_vanishing_step_counted_before_building(self):
        # the point count of a subnormal step is inf: counted as a float, it
        # is refused; built first, int(inf) would raise OverflowError
        grid = argparse.Namespace(p_min=0.0, p_max=1.0, p_step=5e-324)
        with pytest.raises(ValueError, match="gives more than 10001 points"):
            cli._sweep_grid(grid)

    @pytest.mark.parametrize("step, allowed", [(1e-4, True), (0.9999e-4, False)],
                             ids=["1e-4-True", "0.9999e-4-False"])
    def test_grid_cap_boundary(self, step, allowed):
        # [0, 1] at step 1e-4 is exactly the largest grid allowed
        grid = argparse.Namespace(p_min=0.0, p_max=1.0, p_step=step)
        if allowed:
            points = cli._sweep_grid(grid)
            assert len(points) == cli.MAX_SWEEP_POINTS and points[-1] == 1.0
        else:
            with pytest.raises(ValueError, match="gives more than 10001 points"):
                cli._sweep_grid(grid)

    @given(p_min=st.floats(0.0, 1.0), span=st.floats(0.0, 30.0),
           p_step=st.floats(1e-14, 1e-11) | st.floats(1e-11, 1.0, exclude_min=True))
    @example(p_min=0.0, span=1.0, p_step=1e-12)
    @example(p_min=0.2, span=0.0, p_step=1e-13)
    def test_grid_strictly_increases_inside_its_bounds(self, p_min, span, p_step):
        # a step at the 12-digit rounding's resolution would merge points:
        # every grid accepted is strictly increasing in [p_min, p_max]
        p_max = min(p_min + span * p_step, 1.0)
        try:
            grid = cli._sweep_grid(argparse.Namespace(p_min=p_min, p_max=p_max, p_step=p_step))
        except ValueError:
            return
        assert p_min <= grid[0] and grid[-1] <= p_max
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_step_at_the_rounding_resolution_rejected(self):
        # [0, 1e-12] at step 1e-12 counts three points, the last clamped onto the second
        grid = argparse.Namespace(p_min=0.0, p_max=1e-12, p_step=1e-12)
        with pytest.raises(ValueError, match="^invalid grid: step 1e-12 repeats a point"):
            cli._sweep_grid(grid)

    def test_frozen_point_has_every_column(self, tmp_path):
        # the frozen p = 0 row and a running point's row have the same keys,
        # in order, so a grid starting at 0 prints the same header as any other
        cfg = ExperimentConfig(0.0, 0.0, steps=200, shots_per_basis=100)
        frozen = cli._sweep_point(0, cfg)
        running = cli._sweep_point(1, cfg._replace(p_right=0.1, p_left=0.1))
        assert list(frozen) == list(running)
        headers = []
        for p_min in ("0", "0.1"):
            args = ["sweep", "--p-min", p_min, "--p-max", "0.2", "--steps", "200",
                    "--shots", "100"]
            code, payload = run_cli(args, tmp_path, f"from-{p_min}.csv")
            assert code == 0
            headers.append(parse_csv(payload)[0])
        assert headers[0] == headers[1] == list(running)


class TestAsym:
    def test_unknown_gate_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["asym", "--p-right", "0.9", "--p-left", "0.3", "--gate", "x"])
        assert err.value.code == 2

    def test_reference_annotations_present(self, tmp_path):
        args = ["asym", "--p-right", "0.9", "--p-left", "0.3",
                "--steps", "1500", "--shots", "800", "--seed", "7"]
        code, payload = run_cli(args, tmp_path, "asym.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        row = rows[0]
        assert row["ref_theory_classical"] == "0.81"
        assert row["ref_theory_quantum"] == "0.12"
        assert row["ref_exp_quantum"] == "0.19"
        assert float(row["c_classical_theory"]) == pytest.approx(0.811278, abs=1e-5)
        assert float(row["c_quantum_theory"]) == pytest.approx(0.095988, abs=1e-5)
        # calibrated default: noise-on column carries the 0.97-fidelity rate
        assert float(row["noise_lambda"]) == pytest.approx(0.0375, abs=1e-6)

    def test_merged_point_is_free(self, tmp_path):
        args = ["asym", "--p-right", "0.5", "--p-left", "0.5",
                "--steps", "800", "--shots", "400", "--seed", "3"]
        code, payload = run_cli(args, tmp_path, "merged.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        assert rows[0]["c_classical_theory"] == "0"
        assert rows[0]["c_quantum_theory"] == "0"

    def test_invalid_probability_rejected(self, tmp_path):
        code = main(["asym", "--p-right", "1.4", "--p-left", "0.3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestSimulate:
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_self_check_passes(self, tmp_path, mode):
        args = ["simulate", "--p", "0.8", "--mode", mode,
                "--steps", "30000", "--seed", "11"]
        code, payload = run_cli(args, tmp_path, f"sim_{mode}.csv")
        assert code == 0
        header, rows = parse_csv(payload)
        assert header == ["L", "block", "count", "freq", "prob", "tv", "tv_bound", "ok"]
        assert {row["L"] for row in rows} == {"1", "2", "3", "4"}
        assert all(row["ok"] == "1" for row in rows)
        for row in rows:
            if row["L"] == "2":
                assert row["block"] in {"00", "01", "10", "11"}

    def test_single_step_degenerate_run(self, tmp_path):
        args = ["simulate", "--p", "0.5", "--steps", "1", "--seed", "5"]
        code, payload = run_cli(args, tmp_path, "tiny.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        assert {row["L"] for row in rows} == {"1"}

    def test_seed_variation_still_passes(self, tmp_path):
        for seed in ("101", "202"):
            args = ["simulate", "--p-right", "0.9", "--p-left", "0.3",
                    "--steps", "30000", "--seed", seed]
            code, _ = run_cli(args, tmp_path, f"seed{seed}.csv")
            assert code == 0

    @pytest.mark.parametrize("gate", ["cnot", "cu"])
    def test_noisy_trace_checked_against_sampled_chain(self, tmp_path, gate):
        # gate noise moves the chain to the channel-averaged machine
        # (0.884, 0.308); the check uses that law, not the noiseless one
        args = ["simulate", "--p-right", "0.9", "--p-left", "0.3", "--mode", "quantum",
                "--gate", gate, "--lambda", "0.0375", "--steps", "100000", "--seed", "42"]
        code, payload = run_cli(args, tmp_path, f"noisy_{gate}.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        assert all(row["ok"] == "1" for row in rows)
        assert [float(row["prob"]) for row in rows if row["L"] == "1"] == pytest.approx(
            [0.308 / 1.192, 0.884 / 1.192], abs=1e-5)

    def test_conflicting_probability_flags(self, tmp_path):
        code = main(["simulate", "--p", "0.5", "--p-right", "0.4",
                     "--p-left", "0.4", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_probability_flags(self, tmp_path):
        code = main(["simulate", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_shots_is_usage_error(self):
        # simulate tomographs nothing, so it takes no shot count
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--p", "0.8", "--steps", "2000", "--shots", "10"])
        assert err.value.code == 2

    def test_lambda_with_classical_mode_rejected_before_work(self, monkeypatch, tmp_path):
        # a classical trace runs no gate, so a noise rate would be recorded
        # in the CSV comment and touch nothing else
        monkeypatch.setattr(cli, "make_rng", refusing("a stream"))
        out = tmp_path / "x.csv"
        assert main(SMALL["simulate"] + ["--mode", "classical", "--lambda", "0.5",
                                         "--out", str(out)]) == 2
        assert not out.exists()


class TestTomoCommand:
    def test_quantum_report(self, tmp_path):
        args = ["tomo", "--p", "0.8", "--steps", "4000", "--shots", "4000",
                "--seed", "19"]
        code, payload = run_cli(args, tmp_path, "tomo.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        row = rows[0]
        assert float(row["entropy_theory"]) == pytest.approx(0.468996, abs=1e-5)
        assert abs(float(row["entropy"]) - 0.468996) < 5 * float(row["entropy_std"])
        assert float(row["trace_dist_theory"]) < 0.05
        assert float(row["rho01_re"]) == pytest.approx(0.4, abs=0.03)

    def test_classical_report(self, tmp_path):
        args = ["tomo", "--p", "0.8", "--mode", "classical",
                "--steps", "4000", "--shots", "4000", "--seed", "20"]
        code, payload = run_cli(args, tmp_path, "tomo_c.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        assert float(rows[0]["entropy_theory"]) == 1.0
        assert float(rows[0]["entropy"]) > 0.99

    @pytest.mark.parametrize("bad", [
        ["--shots", "0"],
        ["--shots", str(2 ** 63)],
        ["--mode", "classical", "--lambda", "0.1"],
    ], ids=["shots", "shots-overflow", "classical-lambda"])
    def test_invalid_config_rejected_before_work(self, monkeypatch, tmp_path, bad):
        # 2**63 shots is one more than MAX_SHOTS, the cap the CLI states
        monkeypatch.setattr(cli, "make_rng", refusing("a stream"))
        out = tmp_path / "bad.csv"
        assert main(SMALL["tomo"] + bad + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_largest_shot_count_runs(self, tmp_path):
        args = ["tomo", "--p", "0.8", "--steps", "2000", "--shots", str(2 ** 63 - 1)]
        code, payload = run_cli(args, tmp_path, "max.csv")
        assert code == 0
        _, rows = parse_csv(payload)
        assert int(rows[0]["shots"]) == 2 ** 63 - 1

    def test_determinism(self, tmp_path):
        args = ["tomo", "--p-right", "0.9", "--p-left", "0.3",
                "--steps", "2000", "--seed", "21"]
        _, first = run_cli(args, tmp_path, "t1.csv")
        _, second = run_cli(args, tmp_path, "t2.csv")
        assert first == second

    @pytest.mark.parametrize("counts", [
        TomographyCounts(100, (90, 50, 30)),
        TomographyCounts(10, (10, 0, 10)),
        TomographyCounts(20000, (20000, 10000, 10100)),
    ], ids=["inside", "projected", "just-past-1"])
    def test_matrix_columns_are_the_oracle_matrix(self, monkeypatch, tmp_path, counts):
        # rho00, Re rho01, Im rho01 and rho11 of (I + r.sigma) / 2 for the
        # projected vector, to the byte, a zero y included ("0", not "-0");
        # the last counts measure |r| = 1.00005, a hair past the sphere
        monkeypatch.setattr(cli, "_tomographed", lambda cfg, point, column: counts)
        _, rows = parse_csv(run_cli(SMALL["tomo"], tmp_path, "tomo.csv")[1])
        rho = density(reconstruct_rho(counts)).entries
        want = [rho[0, 0].real, rho[0, 1].real, rho[0, 1].imag, rho[1, 1].real]
        got = [rows[0][c] for c in ("rho00_re", "rho01_re", "rho01_im", "rho11_re")]
        assert got == [cli._fmt(float(v)) for v in want]

    def test_failed_check_writes_csv_and_exits_1(self, monkeypatch, tmp_path):
        # main alone writes and sets the exit code: a command's failed
        # verdict still leaves its CSV, as simulate's failed check does; the
        # header is the first row's keys, in order
        rows = [{"entropy": 0.5, "ok": 0}, {"entropy": 0.25, "ok": 1}]
        monkeypatch.setattr(cli, "cmd_tomo", lambda args: ({"seed": args.seed}, rows, False))
        code, payload = run_cli(SMALL["tomo"], tmp_path, "failed.csv")
        assert code == 1
        assert payload.decode() == "# qstoch tomo seed=42\nentropy,ok\n0.5,0\n0.25,1\n"


class TestMachineWithoutStationaryLaw:
    """p_right = p_left = 0 has no stationary law, so no theory column."""

    @pytest.mark.parametrize("args", [
        ["tomo", "--p", "0", "--lambda", "0.1"],
        ["asym", "--p-right", "0", "--p-left", "0", "--lambda", "0.1"],
    ], ids=["tomo", "asym"])
    def test_theory_refuses_it_before_any_trace(self, monkeypatch, capsys, tmp_path, args):
        # gate noise makes the sampled chain ergodic, so the trace alone
        # would run: the theory, computed first, is what refuses the machine
        monkeypatch.setattr(circuit, "trace_blocks", refusing("a trace"))
        out = tmp_path / "frozen.csv"
        assert main(args + ["--steps", "2000", "--shots", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("qstoch: error: p_right = p_left = 0: "
                                           "stationary distribution is not unique\n")
        assert not out.exists()

    def test_simulate_checks_the_noisy_chain(self, tmp_path):
        # simulate has no theory column: it checks the chain it samples,
        # which gate noise makes ergodic, and passes
        args = ["simulate", "--p", "0", "--lambda", "0.1", "--steps", "2000"]
        assert run_cli(args, tmp_path, "frozen.csv")[0] == 0


def stream_key(rng):
    """The state of a stream that has drawn nothing yet: equal states, equal
    streams."""
    return rng.getstate()


def record(monkeypatch, name):
    """Replace cli.<name> by a wrapper that logs the key of the rng cli
    passes it, as its last positional argument."""
    keys = []
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        keys.append(stream_key(args[-1]))
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, name, wrapper)
    return keys


SMALL = {
    "sweep": ["sweep", "--p-min", "0.2", "--p-max", "0.4", "--p-step", "0.2",
              "--steps", "2000", "--shots", "500"],
    "asym": ["asym", "--p-right", "0.9", "--p-left", "0.3", "--steps", "2000",
             "--shots", "500"],
    "simulate": ["simulate", "--p", "0.8", "--steps", "2000"],
    "tomo": ["tomo", "--p", "0.8", "--steps", "2000", "--shots", "500"],
}


class TestStreams:
    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_every_stream_has_a_distinct_key_of_one_length(self, monkeypatch, tmp_path,
                                                           command):
        keys = []

        def recording(seed, *key):
            keys.append(key)
            return make_rng(seed, *key)
        monkeypatch.setattr(cli, "make_rng", recording)
        assert main(SMALL[command] + ["--out", str(tmp_path / "out.csv")]) == 0
        assert keys and {len(key) for key in keys} == {3}
        assert len(set(keys)) == len(keys)

    def test_sweeps_at_neighbouring_seeds_draw_apart(self, tmp_path):
        # point 1 of seed 42 and point 0 of seed 43 once keyed one stream
        common = ["--p-step", "0.1", "--steps", "20000", "--shots", "2000"]
        cells = []
        for seed, p_min, p_max in (("42", "0.1", "0.2"), ("43", "0", "0.1")):
            args = ["sweep", "--seed", seed, "--p-min", p_min, "--p-max", p_max] + common
            code, payload = run_cli(args, tmp_path, f"sweep{seed}.csv")
            assert code == 0
            row = next(row for row in parse_csv(payload)[1] if row["p"] == "0.1")
            cells.append([row[c] for c in ("c_classical_sim", "c_quantum_sim",
                                           "c_quantum_sim_std")])
        assert cells[0] != cells[1]

    def test_asym_ideal_and_noisy_runs_draw_different_traces(self, monkeypatch, tmp_path):
        keys = record(monkeypatch, "run_trace")
        code, _ = run_cli(SMALL["asym"], tmp_path, "asym.csv")
        assert code == 0
        assert len(keys) == 3 and len(set(keys)) == 3

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_tomo_tomographs_the_trace_simulate_checks(self, monkeypatch, tmp_path, mode):
        point = ["--p-right", "0.9", "--p-left", "0.3", "--mode", mode, "--steps", "3000"]
        checked = record(monkeypatch, "trace_blocks")
        tomographed = record(monkeypatch, "run_trace")
        # simulate's verdict is not what is compared: at 3000 steps the
        # quantum trace's L = 4 cell 0000 expects 0.19 counts, reads 2, and
        # fails the normal 4-sigma check (ROADMAP item 8)
        assert run_cli(["simulate"] + point, tmp_path, "sim.csv")[0] in (0, 1)
        assert run_cli(["tomo"] + point, tmp_path, "tomo.csv")[0] == 0
        assert len(checked) == len(tomographed) == 1
        assert checked == tomographed


def run_python(args, text=True, unset=(), stdout=subprocess.PIPE):
    """Run a fresh interpreter with this checkout's qstoch on its path, its
    stdout (unless given) and stderr pipes; `unset` names variables it does
    not inherit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in unset:
        env.pop(name, None)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=text, timeout=60)


# every command shape the benchmark runs, at small sizes
RUN_PATH = pytest.mark.parametrize(
    "args", [SMALL["sweep"], SMALL["asym"], SMALL["simulate"], SMALL["tomo"],
             SMALL["tomo"] + ["--mode", "classical"]],
    ids=["sweep", "asym", "simulate", "tomo", "tomo-classical"])


def refusing(what):
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{what} called on the run path")
    return refuse


def module_tree(layer):
    return ast.parse(Path(cli.__file__).with_name(f"{layer}.py").read_text())


def matmul_sites(layer):
    """(layer, function) of each @ in a qstoch module, once per function."""
    return {(layer, func.name) for func in ast.walk(module_tree(layer))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(getattr(node, "op", None), ast.MatMult)}


# numpy functions only a two-qubit object needs
TWO_QUBIT_KERNELS = {"kron", "eigh", "eigvalsh"}
# what builds a complex array: the dtypes, and imaginary literals ("1j")
COMPLEX_NAMES = {"complex", "complex64", "complex128", "complex_", "cdouble", "1j"}


def owners(tree):
    """The innermost enclosing function's name of each node inside one."""
    owner = {}
    for func in ast.walk(tree):     # breadth first: inner functions overwrite
        if isinstance(func, ast.FunctionDef):
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    return owner


def name_sites(layer, names):
    """(layer, innermost enclosing function or None, name) of each reference
    to one of `names` in a qstoch module, however imported; an imaginary
    literal is named "1j"."""
    tree = module_tree(layer)
    owner = owners(tree)
    sites = set()
    for node in ast.walk(tree):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):
            name = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            name = "1j"
        if name in names:
            sites.add((layer, owner.get(node), name))
    return sites


def numpy_sites(layer, names):
    """(layer, innermost enclosing function) of each numpy function in
    `names` a qstoch module reads, as np.name or numpy.name, directly or
    through a submodule (np.linalg.eigh)."""
    tree = module_tree(layer)
    owner = owners(tree)
    sites = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if getattr(root, "id", None) in ("np", "numpy"):
                sites.add((layer, owner.get(node)))
    return sites


def run_numpy_free(monkeypatch, tmp_path, args, kernels, off_path):
    """Check that qstoch reads the numpy `kernels` only in the functions
    `off_path`, then run a command with each of those refusing and numpy
    unimportable: a None entry in sys.modules makes `import numpy` raise."""
    layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
    assert set().union(*(numpy_sites(layer, kernels) for layer in layers)) == off_path
    monkeypatch.setitem(sys.modules, "numpy", None)
    for layer, func in off_path:
        monkeypatch.setattr(importlib.import_module(f"qstoch.{layer}"), func, refusing(func))
    assert run_cli(args, tmp_path, "out.csv")[0] == 0


class TestRunPath:
    @RUN_PATH
    def test_no_lapack_eigensolver(self, monkeypatch, tmp_path, args):
        # every state a command builds is a qubit, read in closed form; a
        # process's first LAPACK eigvalsh call alone cost about 0.8 MB of RSS
        run_numpy_free(monkeypatch, tmp_path, args, {"eigh", "eigvalsh"},
                       {("qmath", "eig_hermitian")})

    @RUN_PATH
    def test_no_blas_kernel_or_allclose(self, monkeypatch, tmp_path, args):
        # norms, Hermiticity and the first-bit law are plain arithmetic: the
        # first call of a BLAS kernel or of np.allclose mapped its code pages
        # in, 0.06-0.13 MB of RSS each
        run_numpy_free(monkeypatch, tmp_path, args,
                       {"dot", "vdot", "inner", "allclose", "norm"},
                       {("qmath", "eig_hermitian")})

    @RUN_PATH
    def test_no_unpack_or_integer_tally_kernel(self, monkeypatch, tmp_path, args):
        # a trace block stays the carry chain's Python int, counted by
        # popcounts: unpacking it to an array and tallying window codes with
        # np.bincount mapped kernels whose first calls added 228 KB of RSS
        run_numpy_free(monkeypatch, tmp_path, args, {"unpackbits", "bincount"}, set())

    @RUN_PATH
    def test_no_elementwise_math_after_the_trace(self, monkeypatch, tmp_path, args):
        # after its trace a run is one integer and three shot counts, and
        # every number made from them is a Python float, int or tuple: the
        # first call of each numpy ufunc loop mapped its code pages in
        run_numpy_free(monkeypatch, tmp_path, args,
                       {"log2", "sqrt", "where", "minimum", "maximum", "abs"},
                       {("qmodel", "construct_cu")})

    @pytest.mark.parametrize("args", [
        None, SMALL["sweep"], SMALL["sweep"] + ["--lambda", "0.0375"], SMALL["asym"],
        SMALL["asym"] + ["--lambda", "0.0375"], SMALL["simulate"],
        SMALL["simulate"] + ["--lambda", "0.0375"], SMALL["tomo"],
        SMALL["tomo"] + ["--mode", "classical"], SMALL["tomo"] + ["--lambda", "0.0375"]],
        ids=["import", "sweep", "sweep-lambda", "asym", "asym-lambda", "simulate",
             "simulate-lambda", "tomo", "tomo-classical", "tomo-lambda"])
    def test_no_numpy_loaded(self, tmp_path, args):
        # every stream and draw comes from the standard library: a fresh
        # interpreter that imports qstoch.cli, and runs a command, loads no
        # numpy at all (eig_hermitian and construct_cu, which no command
        # calls, import it when called)
        run = "" if args is None else (f"assert main({args!r} + ['--out', "
                                       f"{str(tmp_path / 'out.csv')!r}]) == 0\n")
        proc = run_python(["-c", "import sys\nfrom qstoch.cli import main\n" + run
                                 + "print('numpy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_no_matrix_product_operator(self):
        # a monkeypatch cannot catch @, so the modules are read: no qstoch
        # module holds one, qmodel's closed-form cu gate among them
        layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
        assert "qmodel" in layers
        assert set().union(*map(matmul_sites, layers)) == set()

    def test_module_run_with_warnings_as_errors(self):
        # `python -m qstoch.cli` imports the package first; were qstoch to
        # import .cli itself, runpy would warn that the module is already
        # loaded, and -W error turns that into exit 1 before parsing
        proc = run_python(["-W", "error", "-m", "qstoch.cli", "--help"])
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout

    def test_cli_import_loads_every_layer_and_no_dataclasses(self):
        # every CLI process pays qstoch's import: its records generate no
        # code (dataclasses compiles methods with exec).  The traced benchmark
        # replay reads each layer from sys.modules right after importing cli,
        # so none may be loaded lazily.
        layers = ("qmath", "process", "qmodel", "circuit", "tomo", "stats")
        proc = run_python(["-c", "import sys, argparse, random\n"
                                 "print('dataclasses' in sys.modules)\n"
                                 "import qstoch.cli\n"
                                 "print(' '.join(sorted(sys.modules)))"])
        assert proc.returncode == 0, proc.stderr
        preloaded, modules = proc.stdout.splitlines()
        assert preloaded == "False"
        modules = modules.split()
        assert "dataclasses" not in modules
        assert all(f"qstoch.{layer}" in modules for layer in layers)


class TestLayout:
    def test_package_root_imports_and_binds_nothing(self):
        # every public name has one home, its module: `import qstoch` loads
        # no layer and no numpy, and the root binds no name but __version__
        proc = run_python(["-c", "import sys, qstoch\n"
                                 "print(' '.join(sorted(sys.modules)))\n"
                                 "print(' '.join(sorted(vars(qstoch))))"])
        assert proc.returncode == 0, proc.stderr
        modules, names = (line.split() for line in proc.stdout.splitlines())
        assert "numpy" not in modules
        assert not [m for m in modules if m.startswith("qstoch.")]
        assert [name for name in names if not name.startswith("_")] == []
        assert "__version__" in names

    def test_benchmark_layers_resolve(self):
        # the traced benchmark replay wraps each LAYERS name where its qstoch
        # module binds it; read the table without importing the benchmark
        replay = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"
        layers, = (ast.literal_eval(node.value) for node in ast.parse(replay.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
        missing = [f"{module}.{name}" for module, names in layers.items()
                   for name in names
                   if not hasattr(importlib.import_module(f"qstoch.{module}"), name)]
        assert layers and not missing

    def test_library_is_qubit_only(self):
        # two-qubit states and gates live in the test oracle; the library's
        # one eigensolver is the one eig_hermitian defers to
        layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
        assert "qmath" in layers
        sites = set().union(*(name_sites(layer, TWO_QUBIT_KERNELS) for layer in layers))
        assert sites == {("qmath", "eig_hermitian", "eigh")}

    def test_memory_facts_have_one_owner(self):
        # circuit alone picks the vectors a mode prepares, and tomo takes
        # every Bloch radius from qmath.bloch_radius: its one square root is
        # the binomial sampler's sqrt(n p q)
        layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
        logical = set().union(*(name_sites(layer, {"LOGICAL"}) for layer in layers))
        assert {layer for layer, _, _ in logical} == {"circuit"}
        assert name_sites("tomo", {"sqrt", "hypot", "norm"}) == {("tomo", "binomial", "sqrt")}

    def test_trace_block_format_has_one_owner(self):
        # circuit alone packs a trace's steps into Python ints and reads them
        layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
        names = {"from_bytes", "packbits", "bit_count"}
        sites = set().union(*(name_sites(layer, names) for layer in layers))
        assert {layer for layer, _, _ in sites} == {"circuit"}

    def test_input_rules_have_one_owner(self):
        # the CLI delegates the library's input rules to the library's own
        # checks, and owns only its own: the gate and the seed
        source = Path(cli.__file__).read_text()
        compared = {node.id for compare in ast.walk(ast.parse(source))
                    if isinstance(compare, ast.Compare)
                    for side in [compare.left, *compare.comparators]
                    for node in ast.walk(side) if isinstance(node, ast.Name)}
        assert not compared & {"MAX_SHOTS", "MODES"}
        assert "must be in [0, 1]" not in source
        assert "GATES" in vars(cli) and "GATES" not in vars(circuit)

    def test_commands_own_their_output(self):
        # each subcommand checks its own inputs and names its own columns, its
        # first row's keys: no header list restates them, and neither main nor
        # the CSV writer names a subcommand, its function or a sweep input
        assert not [name for name in vars(cli) if name.endswith("_HEADER")]
        assert not hasattr(cli, "_grid_points")
        for func in (cli.main, cli._write_csv):
            words = set()
            for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    words.update(re.findall(r"\w+", node.value))
                elif isinstance(node, ast.Name):
                    words.add(node.id)
                elif isinstance(node, ast.Attribute):
                    words.add(node.attr)
            assert not words & {"sweep", "asym", "simulate", "tomo"}, func
            assert not [w for w in words if w.startswith(("cmd_", "p_", "MAX_SWEEP"))], func

    def test_records_have_one_idiom(self):
        # every record subclasses a collections.namedtuple and declares
        # __slots__ = (); no module imports typing
        layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
        records = {}
        for layer in layers:
            imported = set()
            for node in ast.walk(module_tree(layer)):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.partition(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.add(node.module.partition(".")[0])
            assert "typing" not in imported, layer
            module = importlib.import_module(f"qstoch.{layer}".removesuffix(".__init__"))
            records.update({name: value for name, value in vars(module).items()
                            if isinstance(value, type) and issubclass(value, tuple)
                            and value.__module__ == module.__name__})
        assert sorted(records) == ["BlockLawCheck", "CausalMachine", "ExperimentConfig",
                                   "RunResult", "TomographyCounts", "TomographyResult"]
        for name, record in records.items():
            base, = record.__bases__
            assert base.__bases__ == (tuple,) and base._fields == record._fields, name
            assert vars(record).get("__slots__") == (), name

    def test_tomography_rules_have_one_owner(self):
        # the count map (2k - n) / n is written once in the package; the
        # estimate takes its entropy off the measured vector, not the
        # projected one; tomo checks a vector by qmath's public rule alone;
        # and cli keys a column's bootstrap stream in one function
        layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
        maps = [(layer, ast.unparse(node)) for layer in layers
                for node in ast.walk(module_tree(layer))
                if isinstance(node, ast.BinOp)
                and re.fullmatch(r"\(2 \* \w+ - (\w+)\) / \1", ast.unparse(node))]
        assert [layer for layer, _ in maps] == ["tomo"], maps
        assert not [site for site in name_sites("tomo", {"reconstruct_rho"})
                    if site[1] == "entropy_with_error"]
        assert {func for _, func, _ in name_sites("cli", {"reconstruct_rho"})} == {None,
                                                                                  "cmd_tomo"}
        private = [node.attr for node in ast.walk(module_tree("tomo"))
                   if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and getattr(node.value, "id", None) == "qmath"]
        assert private == []
        sites = set().union(*(name_sites(layer, {"_real_vector"}) for layer in layers))
        assert {layer for layer, _, _ in sites} == {"qmath"}
        assert {func for _, func, _ in name_sites("cli", {"BOOTSTRAP"})} == {None, "_with_error"}

    def test_states_are_real_vectors(self):
        # every qubit state is a Bloch vector and the cu gate real: the
        # eigenvector routine off the run path alone builds a complex array
        layers = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
        sites = set().union(*(name_sites(layer, COMPLEX_NAMES) for layer in layers))
        assert {(layer, func) for layer, func, _ in sites} == {("qmath", "eig_hermitian")}
        # and the matrix objects the vectors stand for live in the test oracle
        matrix_objects = {"Ket", "DensityMatrix", "KET0", "KET1", "PAULI_X", "PAULI_Y",
                          "PAULI_Z", "bloch_vector", "_hermitian_eigvals"}
        for layer in layers:        # __init__ among them, read as the package
            module = importlib.import_module(f"qstoch.{layer}".removesuffix(".__init__"))
            assert not matrix_objects & set(vars(module)), layer


# prints the freeze count from an atexit handler registered before qstoch's
REPORT_FREEZE = ("import atexit, gc\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n")
BAD_ASYM = ["asym", "--p-right", "1.5", "--p-left", "0.3"]
# main's return value, or the code of the SystemExit a usage error raises
CALL_MAIN = ("from qstoch.cli import main\n"
             "try:\n    code = main(ARGV)\nexcept SystemExit as exc:\n    code = exc.code\n"
             "print('code', code)\n")


class TestExit:
    """main freezes the heap at exit, so the interpreter's shutdown collections
    skip it, while every atexit handler and stdio flush still runs."""

    @pytest.mark.parametrize("argv, code", [(SMALL["asym"], 0), (BAD_ASYM, 2),
                                            (SMALL["simulate"] + ["--shots", "10"], 2)],
                             ids=["ok", "bad-input", "usage-error"])
    def test_main_freezes_heap_before_earlier_handlers(self, tmp_path, argv, code):
        # a usage error exits from parse_args, inside main's try, and freezes too
        argv = argv + ["--out", str(tmp_path / "out.csv")]
        proc = run_python(["-c", REPORT_FREEZE + f"ARGV = {argv!r}\n" + CALL_MAIN])
        assert proc.returncode == 0, proc.stderr
        returned, frozen = proc.stdout.splitlines()
        assert returned == f"code {code}"
        assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0

    def test_import_alone_freezes_nothing(self):
        proc = run_python(["-c", REPORT_FREEZE + "import qstoch.cli\n"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "frozen 0\n"

    def test_repeated_main_freezes_once(self, tmp_path):
        # counts calls, not atexit._ncallbacks(): CPython counts every
        # registration there, an unregistered one too
        argv = SMALL["simulate"] + ["--out", str(tmp_path / "out.csv")]
        proc = run_python(["-c", "import gc\nfreeze = gc.freeze\n"
                                 "def counted():\n    print('freeze')\n    freeze()\n"
                                 "gc.freeze = counted\nfrom qstoch.cli import main\n"
                                 f"main({argv!r})\nmain({argv!r})\n"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "freeze\n"

    @pytest.mark.parametrize("command", ["asym", "tomo"])
    def test_piped_stdout_is_flushed_at_exit(self, tmp_path, command):
        # block-buffered stdout (no PYTHONUNBUFFERED, a pipe) reaches the
        # parent whole: an os._exit shortcut would drop it
        proc = run_python(["-m", "qstoch.cli", *SMALL[command]], text=False,
                          unset=("PYTHONUNBUFFERED",))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(SMALL[command], tmp_path, "out.csv")[1]

    @pytest.mark.parametrize("argv", [BAD_ASYM, ["tomo", "--p", "1.5"]],
                             ids=["asym", "tomo"])
    def test_exit_code_2_reaches_parent(self, argv):
        proc = run_python(["-m", "qstoch.cli", *argv], text=False,
                          unset=("PYTHONUNBUFFERED",))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"qstoch: error: ")


class TestOutput:
    """Exit 1 means a failed check and nothing else: an --out that cannot be
    opened is bad input, a write that fails exits 74, and a closed stdout
    ends as SIGPIPE would."""

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exits_2_before_any_stream(self, monkeypatch, capsys, tmp_path,
                                                      where):
        monkeypatch.setattr(cli, "make_rng", refusing("a stream"))
        out = tmp_path / "no" / "x.csv" if where == "missing-dir" else tmp_path
        assert main(SMALL["simulate"] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qstoch: error: cannot write --out ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []

    def test_existing_out_untouched_by_bad_input(self, tmp_path):
        # the write probe neither truncates nor removes a file it did not make
        out = tmp_path / "kept.csv"
        out.write_bytes(b"earlier\n")
        assert main(BAD_ASYM + ["--out", str(out)]) == 2
        assert out.read_bytes() == b"earlier\n"
        assert main(SMALL["simulate"] + ["--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"# qstoch simulate ")

    @pytest.mark.parametrize("where", ["out", "stdout"])
    def test_full_device_exits_74_with_one_line(self, where):
        # a write that fails is neither a failed check (1) nor bad input
        # (2): one line names the destination, and on stdout nothing fails
        # again at exit, where CPython would turn a failed flush into 120
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv = ["-m", "qstoch.cli", *SMALL["tomo"]]
        if where == "out":
            proc = run_python(argv + ["--out", "/dev/full"])
        else:
            with open("/dev/full", "wb") as full:
                proc = run_python(argv, stdout=full)
        dest = "/dev/full" if where == "out" else "stdout"
        assert proc.returncode == 74
        assert proc.stderr == f"qstoch: error: cannot write {dest}: No space left on device\n"

    def test_stream_error_exits_74(self, monkeypatch, capsys):
        class Failing(io.StringIO):
            def write(self, text):
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(sys, "stdout", Failing())
        assert main(SMALL["simulate"]) == 74
        assert capsys.readouterr().err == (f"qstoch: error: cannot write stdout: "
                                           f"{os.strerror(errno.EIO)}\n")

    @pytest.mark.parametrize("command", ["simulate", "tomo"])
    def test_closed_stdout_exits_141_quietly(self, command):
        # the pipe's read end is closed before the process starts, so its
        # first write fails whatever the timing; no traceback, and a code
        # that is neither success, a failed check nor bad input
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(["-m", "qstoch.cli", *SMALL[command]], text=False,
                              stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(p_right=0.8, p_left=0.8)
        assert cfg.steps == 100_000
        assert cfg.shots_per_basis == 10_000
        assert cfg.noise_lambda == 0.0
        assert cfg.seed == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(p_right=0.8, p_left=0.8, steps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(p_right=0.8, p_left=0.8, mode="both")
        with pytest.raises(ValueError):
            ExperimentConfig(p_right=0.8, p_left=0.8, noise_lambda=2.0)
        # the library takes no gate: the configuration is where it is checked
        with pytest.raises(ValueError):
            ExperimentConfig(p_right=0.8, p_left=0.8, gate="x")
