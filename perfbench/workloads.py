"""The benchmark's three workloads, as CLI command lines plus output checks.

* sweep-fig4: the Fig-4 scan at README defaults (p = 0..1 step 0.1, 100k
  steps, 10k shots), pooled over the default worker count.  20 traces and 10
  bootstraps load the circuit loop, the bootstrap and the cli process pool.
* asym-noise-cu: the asymmetric point with the cu gate.  The only path
  through calibrate_noise, the Pauli-trajectory branch and the rotated meter
  frame; single process, so a pool change should show no effect here.
* long-trace: simulate then tomo of a classical trace in the millions of
  steps.  Per-step storage sets its memory, and it is the only workload
  that runs the block-law check.

Smoke sizes shrink every trace and shot count so the whole set runs in
seconds; the commands and checks are otherwise the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

NAMES = ("sweep-fig4", "asym-noise-cu", "long-trace")

SWEEP_GRID = (0.0, 1.0, 0.1)
ASYM_POINT = (0.9, 0.3)
LONG_P = 0.8

FULL = {"sweep_steps": 100_000, "asym_steps": 100_000, "long_steps": 2_000_000,
        "shots": 10_000}
SMOKE = {"sweep_steps": 2_000, "asym_steps": 2_000, "long_steps": 20_000,
         "shots": 2_000}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: arguments without --out, its trace steps, its check."""

    name: str
    argv: tuple[str, ...]
    steps: int
    check: Callable[[str], checks.CheckReport]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    tasks: int          # independent sweep points the cli may spread over workers

    @property
    def steps(self) -> int:
        return sum(cmd.steps for cmd in self.commands)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    size = SMOKE if smoke else FULL
    shots = size["shots"]
    common = ("--shots", str(shots), "--seed", str(seed))

    if name == "sweep-fig4":
        steps = size["sweep_steps"]
        grid = checks.sweep_grid(*SWEEP_GRID)
        p_min, p_max, p_step = SWEEP_GRID
        argv = ("sweep", "--p-min", str(p_min), "--p-max", str(p_max),
                "--p-step", str(p_step), "--steps", str(steps)) + common
        simulated = sum(1 for p in grid if p > 0.0)      # p = 0 runs no trace
        check = partial(checks.check_sweep, seed=seed, grid=grid, steps=steps, shots=shots)
        return Workload(name, (Command("sweep", argv, 2 * simulated * steps, check),),
                        tasks=len(grid))

    if name == "asym-noise-cu":
        steps = size["asym_steps"]
        p_right, p_left = ASYM_POINT
        argv = ("asym", "--p-right", str(p_right), "--p-left", str(p_left),
                "--gate", "cu", "--steps", str(steps)) + common
        check = partial(checks.check_asym, seed=seed, p_right=p_right, p_left=p_left,
                        steps=steps, shots=shots)
        # classical, ideal quantum and noisy quantum traces
        return Workload(name, (Command("asym", argv, 3 * steps, check),), tasks=1)

    if name == "long-trace":
        steps = size["long_steps"]
        point = ("--p", str(LONG_P), "--mode", "classical", "--steps", str(steps))
        simulate = Command("simulate", ("simulate",) + point + ("--seed", str(seed)), steps,
                           partial(checks.check_simulate, seed=seed))
        tomo = Command("tomo", ("tomo",) + point + common, steps,
                       partial(checks.check_tomo, seed=seed, mode="classical",
                               p_right=LONG_P, p_left=LONG_P, steps=steps, shots=shots))
        return Workload(name, (simulate, tomo), tasks=1)

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
