"""Command-line harness emitting reproducible CSV.

Subcommands: sweep (symmetric parameter scan), asym (one asymmetric point
with noise-on columns), simulate (trace vs exact block laws, self-testing),
tomo (tomography of one run's memory ensemble).  Each returns its
settings, rows and verdict, and main alone writes the CSV and sets the exit
code.  Every CSV starts with a '#' comment recording the full configuration
and seed; identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from collections import namedtuple
from contextlib import nullcontext

from .circuit import (MODES, _check_steps, calibrate_noise, prepared_states, run_trace,
                      sampled_machine, stream_block_counts, trace_blocks)
from .process import (CausalMachine, _check_int, _checked_make, classical_complexity,
                      stationary_distribution)
from .qmath import mixture, trace_distance, von_neumann_entropy
from .qmodel import quantum_complexity
from .seeding import BOOTSTRAP, COLUMNS, SHOTS, TRACE, make_rng
from .stats import block_law_check
from .tomo import (TomographyCounts, _check_shots, ensemble_density, entropy_with_error,
                   reconstruct_rho, simulate_counts)

GATES = ("cnot", "cu")      # the entangling gates a run records; both give one law
MAX_CHECK_BLOCK_LEN = 4
MAX_SWEEP_POINTS = 10_001
_NAN = float("nan")

# reported reference values for the p_right=0.9, p_left=0.3 demonstration,
# emitted as annotation columns next to our own numbers
ASYM_REFERENCE = (
    ("ref_theory_classical", 0.81),
    ("ref_theory_quantum", 0.12),
    ("ref_exp_classical", 0.818),
    ("ref_exp_classical_std", 0.001),
    ("ref_exp_quantum", 0.19),
    ("ref_exp_quantum_std", 0.01),
)


class ExperimentConfig(namedtuple("ExperimentConfig", "p_right p_left mode gate steps "
                                  "shots_per_basis noise_lambda seed",
                                  defaults=("quantum", "cnot", 100_000, 10_000, 0.0, 42))):
    """One fully specified simulation/tomography experiment; its defaults
    are the CLI's too."""

    __slots__ = ()
    _make = classmethod(_checked_make)   # so _replace checks too

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        # the library's own checks: the two probabilities, mode, lam, steps, shots
        sampled_machine(CausalMachine(cfg.p_right, cfg.p_left), cfg.mode, cfg.noise_lambda)
        _check_steps(cfg.steps)
        _check_shots(cfg.shots_per_basis)
        if cfg.gate not in GATES:
            raise ValueError(f"gate must be one of {GATES}, got {cfg.gate!r}")
        _check_int("seed", cfg.seed, 0)     # make_rng checks it too, but only once work starts
        return cfg

    def machine(self) -> CausalMachine:
        return CausalMachine(self.p_right, self.p_left)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


# the comment line records these ExperimentConfig fields under their flag names
_RECORDED_AS = {"shots_per_basis": "shots", "noise_lambda": "lambda"}


def _settings(cfg: ExperimentConfig, drop: tuple = (), **first) -> dict:
    """The comment line's settings: `first`, then cfg's fields but `drop`."""
    settings = dict(first)
    for key, value in cfg._asdict().items():
        if key not in drop:
            settings[_RECORDED_AS.get(key, key)] = value
    return settings


def _check_writable(path) -> None:
    """Refuse an --out file that cannot be opened for writing, before any
    work; the probe leaves no file behind that was not there already."""
    if path in (None, "-"):
        return
    existed = os.path.lexists(path)
    if existed and not (os.path.isfile(path) or os.path.isdir(path)):
        return      # a FIFO or device: opening it once more would signal its reader
    try:
        open(path, "ab").close()
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _write_csv(path, command: str, settings: dict, rows: list[dict]) -> None:
    header = list(rows[0])
    out = (nullcontext(sys.stdout) if path in (None, "-")
           else open(path, "w", encoding="utf-8", newline=""))
    with out as stream:
        line = " ".join(f"{key}={_fmt(val)}" for key, val in settings.items())
        stream.write(f"# qstoch {command} {line}\n")
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(row[col]) for col in header) + "\n")
        stream.flush()      # a closed pipe raises here, inside main, not at exit


# ---------------------------------------------------------------------------
# shared simulation pieces
# ---------------------------------------------------------------------------

def _tomographed(cfg: ExperimentConfig, point: int, column: int) -> TomographyCounts:
    """Tomography counts of cfg's run, its trace and shots drawn from the
    streams keyed (point, column)."""
    run = run_trace(cfg.machine(), cfg.mode, cfg.steps,
                    make_rng(cfg.seed, point, column, TRACE), lam=cfg.noise_lambda)
    return simulate_counts(ensemble_density(run), cfg.shots_per_basis,
                           make_rng(cfg.seed, point, column, SHOTS))


def _with_error(cfg: ExperimentConfig, point: int, column: int) -> tuple:
    """_tomographed(cfg, point, column) and its TomographyResult, the
    bootstrap drawn from the stream keyed (point, column) too."""
    counts = _tomographed(cfg, point, column)
    return counts, entropy_with_error(counts, make_rng(cfg.seed, point, column, BOOTSTRAP))


def _complexity_columns(*values: float) -> dict:
    """Sweep's and asym's five complexity columns, named here alone, of
    their values in order: the theory, then the simulated entropies."""
    return dict(zip(("c_classical_theory", "c_quantum_theory", "c_classical_sim",
                     "c_quantum_sim", "c_quantum_sim_std"), values, strict=True))


def _complexity(cfg: ExperimentConfig, point: int) -> dict:
    """The complexity columns of cfg's machine, the quantum run at cfg's
    gate noise, its streams keyed by point.  The theory comes first, so a
    machine without a stationary law fails before any trace is drawn."""
    machine = cfg.machine()
    theory = (classical_complexity(machine), quantum_complexity(machine))
    classical = _tomographed(cfg._replace(mode="classical"), point, COLUMNS["classical"])
    _, quantum = _with_error(cfg, point, COLUMNS["quantum"])
    return _complexity_columns(*theory, von_neumann_entropy(classical.bloch_vector()), *quantum)


def _sweep_grid(args) -> list[float]:
    """The sweep's points p_min + i p_step, i = 0, 1, ..., up to p_max (1e-12
    slack), rounded to 12 digits inside [p_min, p_max], or ValueError for a
    bad range or step, more than MAX_SWEEP_POINTS points or a repeated one."""
    if not (0.0 <= args.p_min <= args.p_max <= 1.0 and 0.0 < args.p_step < float("inf")):
        raise ValueError(f"invalid grid: [{args.p_min}, {args.p_max}] step {args.p_step}")
    # counted as a float before any list exists: a vanishing step counts to
    # inf, not to an overflow or a list too large to build
    points = (args.p_max - args.p_min + 1e-12) // args.p_step + 1.0
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"grid step {args.p_step} gives more than {MAX_SWEEP_POINTS} points")
    # clamped: neither the rounding nor the slack may carry a point past a checked bound
    grid = [min(max(round(args.p_min + i * args.p_step, 12), args.p_min), args.p_max)
            for i in range(int(points))]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"invalid grid: step {args.p_step} repeats a point at 12 digits")
    return grid


def _sweep_point(index: int, cfg: ExperimentConfig) -> dict:
    p = cfg.p_right
    # the frozen chain at p = 0: theory columns use the uniform-start
    # convention for the orthogonal encoding; one trajectory never leaves its
    # initial state, so simulated columns are undefined
    columns = (_complexity_columns(1.0, 1.0, _NAN, _NAN, _NAN) if p == 0.0
               else _complexity(cfg, index))
    return {"p": p, **columns}


# ---------------------------------------------------------------------------
# subcommands: each returns (settings, rows, ok), its rows one or more dicts
# whose keys, in order, are the CSV's columns, and writes nothing
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> tuple:
    grid = _sweep_grid(args)
    # every grid point shares these settings: check them once, before any work
    base = _config(args, p_right=args.p_min, p_left=args.p_min)
    rows = [_sweep_point(index, base._replace(p_right=p, p_left=p))
            for index, p in enumerate(grid)]
    settings = _settings(base, ("p_right", "p_left", "mode"), p_min=args.p_min,
                         p_max=args.p_max, p_step=args.p_step)
    return settings, rows, True


def cmd_asym(args) -> tuple:
    cfg = _config(args)
    # noise-on columns: --lambda 0, given or not, picks the fidelity-0.97 calibration
    lam = cfg.noise_lambda if cfg.noise_lambda > 0.0 else calibrate_noise(0.97)

    row = {"p_right": cfg.p_right, "p_left": cfg.p_left,
           **_complexity(cfg._replace(noise_lambda=0.0), 0)}
    _, noisy = _with_error(cfg._replace(noise_lambda=lam), 0, COLUMNS["noisy"])
    row.update(c_quantum_noisy_sim=noisy.entropy, c_quantum_noisy_sim_std=noisy.entropy_std,
               noise_lambda=lam, **dict(ASYM_REFERENCE))
    return _settings(cfg, ("mode",)), [row], True


def cmd_simulate(args) -> tuple:
    cfg = _config(args)
    # the trace is checked against the chain it samples: with gate noise,
    # the channel-averaged machine; its stream is the one tomo's run draws
    law = sampled_machine(cfg.machine(), cfg.mode, cfg.noise_lambda)
    blocks = trace_blocks(law, cfg.steps, make_rng(cfg.seed, 0, COLUMNS[cfg.mode], TRACE))
    block_lens = range(1, min(MAX_CHECK_BLOCK_LEN, cfg.steps) + 1)
    tallies = stream_block_counts(blocks, block_lens)
    rows = []
    for block_len, counts in zip(block_lens, tallies):
        check = block_law_check(law, counts)
        for code in range(2 ** block_len):
            rows.append({"L": block_len, "block": format(code, f"0{block_len}b"),
                         "count": counts[code], "freq": check.freqs[code],
                         "prob": check.probs[code],
                         "tv": check.tv, "tv_bound": check.tv_bound,
                         "ok": int(check.passed)})
    return _settings(cfg, ("shots_per_basis",)), rows, all(row["ok"] for row in rows)


def cmd_tomo(args) -> tuple:
    cfg = _config(args)
    machine = cfg.machine()
    # the theory first: a machine without a stationary law fails before any trace
    complexity = quantum_complexity if cfg.mode == "quantum" else classical_complexity
    ent_theory = complexity(machine)
    r_theory = mixture(stationary_distribution(machine), prepared_states(machine, cfg.mode))
    counts, result = _with_error(cfg, 0, COLUMNS[cfg.mode])

    measured = counts.bloch_vector()
    r_hat = reconstruct_rho(counts)
    x, y, z = r_hat
    # rho = (I + r.sigma) / 2 of the projected vector; its imaginary
    # off-diagonal reads +0, not -0, where y is 0
    row = {"p_right": cfg.p_right, "p_left": cfg.p_left, "mode": cfg.mode,
           "gate": cfg.gate, "steps": cfg.steps, "shots": cfg.shots_per_basis,
           "entropy": result.entropy, "entropy_std": result.entropy_std,
           "bloch_x": measured[0], "bloch_y": measured[1], "bloch_z": measured[2],
           "rho00_re": (1.0 + z) / 2.0, "rho01_re": x / 2.0,
           "rho01_im": 0.0 - y / 2.0, "rho11_re": (1.0 - z) / 2.0,
           "entropy_theory": ent_theory,
           "trace_dist_theory": trace_distance(r_hat, r_theory)}
    return _settings(cfg), [row], True


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _config(args, **fields) -> ExperimentConfig:
    """The ExperimentConfig of a command's parsed flags: each field a flag
    sets, `fields`, and the defaults for the rest.  The point flags give
    the two probabilities as --p, or as --p-right and --p-left."""
    given = {key: value for key, value in vars(args).items() if key in ExperimentConfig._fields}
    if "p" in vars(args):
        pair = (args.p_right, args.p_left)
        if args.p is not None and pair == (None, None):
            pair = (args.p, args.p)
        elif args.p is not None or None in pair:
            raise ValueError("give either --p or both --p-right and --p-left")
        if args.mode == "classical" and args.noise_lambda > 0.0:
            raise ValueError("--lambda is gate noise, and --mode classical runs no gate")
        given.update(p_right=pair[0], p_left=pair[1])
    return ExperimentConfig(**given, **fields)


def build_parser() -> argparse.ArgumentParser:
    # each flag is declared once, in a parent parser; a command lists its
    # parents' flags in order, in --help and in usage errors
    default = ExperimentConfig._field_defaults
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--p-min", type=float, default=0.0)
    grid.add_argument("--p-max", type=float, default=1.0)
    grid.add_argument("--p-step", type=float, default=0.1)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--p-right", type=float, required=True)
    pair.add_argument("--p-left", type=float, required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--gate", choices=GATES, default=default["gate"],
                     help="entangling gate, recorded in the CSV (both give one law)")
    run.add_argument("--steps", type=int, default=default["steps"], help="trace length")
    run.add_argument("--lambda", dest="noise_lambda", type=float,
                     default=default["noise_lambda"],
                     help="two-qubit depolarizing trajectory probability")
    run.add_argument("--seed", type=int, default=default["seed"], help="master RNG seed")
    run.add_argument("--out", help="output CSV path (default stdout)")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--p", type=float, help="symmetric flip probability")
    point.add_argument("--p-right", type=float, help="0 -> 1 transition probability")
    point.add_argument("--p-left", type=float, help="1 -> 0 transition probability")
    point.add_argument("--mode", choices=MODES, default=default["mode"],
                       help="which step circuit to run")
    shots = argparse.ArgumentParser(add_help=False)
    shots.add_argument("--shots", dest="shots_per_basis", metavar="SHOTS", type=int,
                       default=default["shots_per_basis"],
                       help="tomography shots per Pauli basis")

    parser = argparse.ArgumentParser(
        prog="qstoch",
        description="Simulate memory-efficient quantum models of a two-switch "
                    "stochastic process and emit reproducible CSV.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, parents, text in (
            ("sweep", cmd_sweep, (grid, run, shots), "scan symmetric flip probabilities"),
            ("asym", cmd_asym, (pair, run, shots), "one asymmetric parameter point with noise"),
            # simulate tomographs nothing, so it takes no --shots
            ("simulate", cmd_simulate, (run, point), "check trace block laws against exact ones"),
            ("tomo", cmd_tomo, (run, point, shots), "tomograph one run's memory ensemble")):
        subs.add_parser(name, parents=parents, help=text).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Parse argv, probe --out, run the subcommand it names, write the CSV
    the subcommand returns, and return 0, or 1 if its check failed.  Bad
    input, an --out that cannot be opened among it, returns 2 before any
    work, and a usage error exits 2; a write that fails returns 74
    (EX_IOERR), or 141 if the reader of the pipe written to has gone.  Each
    subcommand checks its own inputs and names its own columns."""
    try:
        args = build_parser().parse_args(argv)
        _check_writable(args.out)
        settings, rows, ok = args.func(args)
        try:
            _write_csv(args.out, args.command, settings, rows)
        except OSError as exc:
            dest = "stdout" if args.out in (None, "-") else args.out
            if args.out in (None, "-") and sys.stdout is sys.__stdout__:
                # what stdout still buffers goes to devnull, so the flush
                # at exit cannot fail a second time
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                # the code of a process SIGPIPE ends (128 + 13), which no
                # shell reads as a failed check
                return 141
            print(f"qstoch: error: cannot write {dest}: {exc.strerror or exc}", file=sys.stderr)
            return 74
        return 0 if ok else 1
    except ValueError as exc:
        print(f"qstoch: error: {exc}", file=sys.stderr)
        return 2
    finally:
        # freeze the heap at every exit, a usage error's too, so the
        # interpreter's shutdown collections skip it (not os._exit: atexit
        # handlers and stdio flushes still run)
        atexit.unregister(gc.freeze)
        atexit.register(gc.freeze)


if __name__ == "__main__":
    sys.exit(main())
