"""Every simulated entropy cell of the golden sweep, asym and tomo CSVs lies
within 5 sigma of the exact entropy of the machine that was run.

The rule is the benchmark's own output check, perfbench/checks.py, loaded
read-only from its file: a cell that carries a bootstrap std is judged at
5 times that std in quadrature with the sigma of the chain's finite-trace
occupancy; a classical cell, which carries none, against the entropy range
a 5-sigma Bloch-radius deviation reaches.  A gate-noise column ran the
channel-averaged machine (circuit.sampled_machine's weights) with the ideal
kets.  The byte test (test_golden.py) pins the files; this one checks that
what they hold is right, so a regeneration cannot pin a wrong law.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from golden import CASES, GOLDEN

_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = checks      # its dataclasses look their module up
_spec.loader.exec_module(checks)

ENTROPY_CASES = sorted(name for name, argv in CASES.items() if argv[0] in ("sweep", "asym", "tomo"))


def settings(comment):
    """The key=value settings of a CSV's '# qstoch <command> ...' line."""
    return dict(word.split("=", 1) for word in comment.split()[3:])


def ensemble(mode, p_right, p_left, lam, steps, shots):
    """The Ensemble a column of this mode ran: gate noise moves the chain,
    never the kets."""
    chain = checks.noisy_machine(p_right, p_left, lam) if lam else (p_right, p_left)
    return checks.Ensemble(mode, *chain, p_right, p_left, steps, shots)


def cells(name):
    """(label, value, ensemble, std or None) of every simulated entropy cell."""
    comment, rows = checks.parse_csv((GOLDEN / f"{name}.csv").read_text(encoding="utf-8"))
    command, given = comment.split()[2], settings(comment)
    steps, shots, lam = int(given["steps"]), int(given["shots"]), float(given["lambda"])
    for row in rows:
        value = {key: float(text) for key, text in row.items() if key not in ("mode", "gate")}
        if command == "sweep":
            p = value["p"]
            if p == 0.0:        # the frozen chain: no simulated column
                continue
            yield (f"p={p} classical", value["c_classical_sim"],
                   ensemble("classical", p, p, 0.0, steps, shots), None)
            yield (f"p={p} quantum", value["c_quantum_sim"],
                   ensemble("quantum", p, p, lam, steps, shots), value["c_quantum_sim_std"])
        elif command == "asym":
            pr, pl = value["p_right"], value["p_left"]
            yield ("classical", value["c_classical_sim"],
                   ensemble("classical", pr, pl, 0.0, steps, shots), None)
            yield ("quantum", value["c_quantum_sim"],
                   ensemble("quantum", pr, pl, 0.0, steps, shots), value["c_quantum_sim_std"])
            yield ("noisy", value["c_quantum_noisy_sim"],
                   ensemble("quantum", pr, pl, value["noise_lambda"], steps, shots),
                   value["c_quantum_noisy_sim_std"])
        else:
            yield (row["mode"], value["entropy"],
                   ensemble(row["mode"], value["p_right"], value["p_left"], lam, steps, shots),
                   value["entropy_std"])


def test_every_entropy_command_is_checked():
    assert {CASES[name][0] for name in ENTROPY_CASES} == {"sweep", "asym", "tomo"}


@pytest.mark.parametrize("name", ENTROPY_CASES)
def test_simulated_cells_within_5_sigma(name):
    report = checks.CheckReport()
    checked = 0
    for label, value, ensemble, std in cells(name):
        assert math.isfinite(value), f"{name} {label}: {value!r}"
        checks.check_column(report, f"{name} {label}", value, ensemble, std)
        checked += 1
    assert checked and checks.N_SIGMA == 5.0
    assert report.ok, report.problems
