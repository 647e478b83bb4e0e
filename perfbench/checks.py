"""Output checks for the benchmark's CLI runs.

Every simulated entropy column is compared with the exact entropy of the
machine the simulator actually ran, computed here from closed forms that do
not import qstoch:

* the memory ensemble is w0 |k0><k0| + w1 |k1><k1| with (w0, w1) the
  stationary law of the unmerged two-state chain; the kets are the logical
  basis states in classical mode and the encodings of the README in quantum
  mode;
* Pauli-trajectory gate noise at rate lam averages to a depolarizing channel
  of mixing rate r = 16 lam / 15, so each step's outcome probability moves to
  p + r (1/2 - p) whatever the gate.  The noisy machine is therefore
  (p_right + r (1/2 - p_right), p_left + r (1/2 - p_left)) and its memory is
  still prepared from the ideal kets.

Tolerances are stated in sigmas (N_SIGMA).  A column that carries a
bootstrap std in the CSV is checked at N_SIGMA times the quadrature sum of
that std and the finite-trace sigma of the chain's occupancy.  A classical
column has no std, so its sigma is derived: shot noise (1 - r_i^2) / N per
Pauli component plus the occupancy noise along the direction r0 - r1, taken
as a Bloch-radius deviation and mapped through the monotone entropy curve.
That keeps the check exact near radius 0, where entropy is quadratic in the
deviation and a linear error bar would understate it.

A theory column that differs from the exact entropy of the simulated machine
(the merged-state convention at p_right + p_left = 1) is a convention, not a
failure: it is counted, not gated.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

N_SIGMA = 5.0
PRINT_SLACK = 1e-6          # CSV floats carry 6 significant digits
THEORY_TOL = 1e-5


@dataclass
class CheckReport:
    """Problems found in one CSV, plus the non-gating convention count."""

    problems: list[str] = field(default_factory=list)
    theory_mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# exact memory entropies
# ---------------------------------------------------------------------------

def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def entropy_of_radius(radius: float) -> float:
    """Von Neumann entropy (bits) of a qubit with Bloch radius `radius`."""
    return binary_entropy((1.0 + min(max(radius, 0.0), 1.0)) / 2.0)


def stationary(p_right: float, p_left: float) -> float:
    """w0 of the two-state chain (p_right: 0 -> 1, p_left: 1 -> 0)."""
    return p_left / (p_right + p_left)


def noisy_machine(p_right: float, p_left: float, lam: float) -> tuple[float, float]:
    rate = 16.0 * lam / 15.0
    return p_right + rate * (0.5 - p_right), p_left + rate * (0.5 - p_left)


def _ket_bloch(a: float, b: float) -> tuple[float, float, float]:
    return (2.0 * a * b, 0.0, a * a - b * b)


def memory_blochs(mode: str, p_right: float, p_left: float):
    """Bloch vectors of the memory states of causal states 0 and 1."""
    if mode == "classical":
        return (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    return (_ket_bloch(math.sqrt(1.0 - p_right), math.sqrt(p_right)),
            _ket_bloch(math.sqrt(p_left), math.sqrt(1.0 - p_left)))


def _mix(r0, r1, w0: float):
    return tuple(w0 * a + (1.0 - w0) * b for a, b in zip(r0, r1))


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def occupancy_sd(p_right: float, p_left: float, steps: int) -> float:
    """Asymptotic std of the state-0 occupancy fraction over `steps` steps.

    Var = w0 w1 (1 + l2) / ((1 - l2) n) with l2 = 1 - p_right - p_left.
    """
    w0 = stationary(p_right, p_left)
    l2 = 1.0 - p_right - p_left
    return math.sqrt(w0 * (1.0 - w0) * (1.0 + l2) / ((1.0 - l2) * steps))


@dataclass(frozen=True)
class Ensemble:
    """The memory ensemble one simulated column tomographs."""

    mode: str
    p_right: float          # probabilities of the chain that was run
    p_left: float
    kets_right: float       # probabilities that define the prepared kets
    kets_left: float
    steps: int
    shots: int

    def _parts(self):
        r0, r1 = memory_blochs(self.mode, self.kets_right, self.kets_left)
        return r0, r1, stationary(self.p_right, self.p_left)

    def exact_entropy(self) -> float:
        r0, r1, w0 = self._parts()
        return entropy_of_radius(_norm(_mix(r0, r1, w0)))

    def trace_sigma(self) -> float:
        """Entropy std from the finite trace's occupancy noise alone."""
        r0, r1, w0 = self._parts()
        sd = occupancy_sd(self.p_right, self.p_left, self.steps)
        hi = entropy_of_radius(_norm(_mix(r0, r1, min(1.0, w0 + sd))))
        lo = entropy_of_radius(_norm(_mix(r0, r1, max(0.0, w0 - sd))))
        return abs(hi - lo) / 2.0

    def derived_interval(self) -> tuple[float, float]:
        """Entropy range reached by an N_SIGMA Bloch-radius deviation."""
        r0, r1, w0 = self._parts()
        r = _mix(r0, r1, w0)
        shot_var = sum((1.0 - x * x) / self.shots for x in r)
        diff = [a - b for a, b in zip(r0, r1)]
        trace_var = sum(d * d for d in diff) * occupancy_sd(
            self.p_right, self.p_left, self.steps) ** 2
        delta = N_SIGMA * math.sqrt(shot_var + trace_var)
        radius = _norm(r)
        return entropy_of_radius(radius + delta), entropy_of_radius(radius - delta)


def check_column(report: CheckReport, label: str, value: float,
                 ensemble: Ensemble, std: float | None = None) -> None:
    exact = ensemble.exact_entropy()
    if not math.isfinite(value):
        report.problems.append(f"{label}: simulated entropy is {value!r}")
        return
    if std is None:
        lo, hi = ensemble.derived_interval()
        if not (lo - PRINT_SLACK <= value <= hi + PRINT_SLACK):
            report.problems.append(
                f"{label}: {value:.6g} outside [{lo:.6g}, {hi:.6g}] "
                f"({N_SIGMA:g}-sigma derived, exact {exact:.6g})")
        return
    if not (math.isfinite(std) and std >= 0.0):
        report.problems.append(f"{label}: bad std {std!r}")
        return
    sigma = math.hypot(std, ensemble.trace_sigma())
    if abs(value - exact) > N_SIGMA * sigma + PRINT_SLACK:
        report.problems.append(
            f"{label}: {value:.6g} vs exact {exact:.6g}, "
            f"|diff| > {N_SIGMA:g} x {sigma:.3g}")


def _theory(report: CheckReport, label: str, *columns: tuple[str, float, float]) -> None:
    """Count the row once if any (name, printed, exact) theory column differs."""
    differ = [f"{name} {value:.6g} vs {exact:.6g}" for name, value, exact in columns
              if abs(value - exact) > THEORY_TOL]
    if differ:
        report.theory_mismatches.append(f"{label}: {'; '.join(differ)}")


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[str, list[dict[str, str]]]:
    """(comment line, rows as dicts); raises ValueError on a malformed file."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# qstoch "):
        raise ValueError("missing '# qstoch' comment line or header")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows


def _parsed(report: CheckReport, text: str, seed: int, n_rows: int,
            columns: str) -> list[dict[str, float]] | None:
    """The named columns as floats, if the CSV has the seed, row count and columns."""
    try:
        comment, rows = parse_csv(text)
    except (ValueError, csv.Error) as exc:
        report.problems.append(f"unreadable CSV: {exc}")
        return None
    if f" seed={seed}" not in comment:
        report.problems.append(f"comment line does not record seed={seed}: {comment!r}")
    if len(rows) != n_rows:
        report.problems.append(f"expected {n_rows} rows, got {len(rows)}")
        return None
    try:
        return [{key: float(row[key]) for key in columns.split()} for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        report.problems.append(f"missing or unparsable column: {exc!r}")
        return None


# ---------------------------------------------------------------------------
# per-subcommand checks
# ---------------------------------------------------------------------------

def sweep_grid(p_min: float, p_max: float, p_step: float) -> list[float]:
    n = int(math.floor((p_max - p_min) / p_step + 1e-9)) + 1
    return [round(p_min + i * p_step, 12) for i in range(n)]


def check_sweep(text: str, *, seed: int, grid: list[float], steps: int,
                shots: int) -> CheckReport:
    report = CheckReport()
    rows = _parsed(report, text, seed, len(grid),
                   "p c_classical_theory c_quantum_theory c_classical_sim c_quantum_sim "
                   "c_quantum_sim_std")
    if rows is None:
        return report
    for p, values in zip(grid, rows):
        if abs(values["p"] - p) > PRINT_SLACK:
            report.problems.append(f"row for p={p} reads p={values['p']}")
            continue
        if p == 0.0:
            # frozen chain: simulated columns are nan by convention
            if not all(math.isnan(values[k]) for k in
                       ("c_classical_sim", "c_quantum_sim", "c_quantum_sim_std")):
                report.problems.append(f"p=0 row should carry nan simulated columns: {values!r}")
            continue
        classical = Ensemble("classical", p, p, p, p, steps, shots)
        quantum = Ensemble("quantum", p, p, p, p, steps, shots)
        check_column(report, f"p={p} c_classical_sim", values["c_classical_sim"], classical)
        check_column(report, f"p={p} c_quantum_sim", values["c_quantum_sim"], quantum,
                     values["c_quantum_sim_std"])
        _theory(report, f"p={p}",
                ("c_classical_theory", values["c_classical_theory"], classical.exact_entropy()),
                ("c_quantum_theory", values["c_quantum_theory"], quantum.exact_entropy()))
    return report


# Bell fidelity of the exact noise average is 1 - 0.8 lam; asym calibrates
# the noisy columns to fidelity 0.97.
CALIBRATED_LAMBDA = 0.03 / 0.8


def check_asym(text: str, *, seed: int, p_right: float, p_left: float, steps: int,
               shots: int) -> CheckReport:
    report = CheckReport()
    rows = _parsed(report, text, seed, 1,
                   "c_classical_theory c_quantum_theory c_classical_sim c_quantum_sim "
                   "c_quantum_sim_std c_quantum_noisy_sim c_quantum_noisy_sim_std noise_lambda")
    if rows is None:
        return report
    v = rows[0]
    lam = v["noise_lambda"]
    if abs(lam - CALIBRATED_LAMBDA) > PRINT_SLACK:
        report.problems.append(f"noise_lambda {lam!r} is not the calibrated {CALIBRATED_LAMBDA}")
    classical = Ensemble("classical", p_right, p_left, p_right, p_left, steps, shots)
    quantum = Ensemble("quantum", p_right, p_left, p_right, p_left, steps, shots)
    nr, nl = noisy_machine(p_right, p_left, lam)
    noisy = Ensemble("quantum", nr, nl, p_right, p_left, steps, shots)
    check_column(report, "c_classical_sim", v["c_classical_sim"], classical)
    check_column(report, "c_quantum_sim", v["c_quantum_sim"], quantum, v["c_quantum_sim_std"])
    check_column(report, "c_quantum_noisy_sim", v["c_quantum_noisy_sim"], noisy,
                 v["c_quantum_noisy_sim_std"])
    _theory(report, "asym",
            ("c_classical_theory", v["c_classical_theory"], classical.exact_entropy()),
            ("c_quantum_theory", v["c_quantum_theory"], quantum.exact_entropy()))
    return report


def check_simulate(text: str, *, seed: int, max_block_len: int = 4) -> CheckReport:
    report = CheckReport()
    rows = _parsed(report, text, seed, sum(2 ** L for L in range(1, max_block_len + 1)),
                   "L ok")
    if rows is None:
        return report
    failed = [f"L={row['L']:g} row {i}" for i, row in enumerate(rows) if row["ok"] != 1.0]
    if failed:
        report.problems.append(f"block-law check failed for {', '.join(failed)}")
    return report


def check_tomo(text: str, *, seed: int, mode: str, p_right: float, p_left: float,
               steps: int, shots: int) -> CheckReport:
    report = CheckReport()
    rows = _parsed(report, text, seed, 1, "entropy entropy_std entropy_theory")
    if rows is None:
        return report
    value, std, theory = (rows[0][k] for k in ("entropy", "entropy_std", "entropy_theory"))
    ensemble = Ensemble(mode, p_right, p_left, p_right, p_left, steps, shots)
    check_column(report, f"{mode} entropy", value, ensemble, std)
    _theory(report, "tomo", ("entropy_theory", theory, ensemble.exact_entropy()))
    return report
