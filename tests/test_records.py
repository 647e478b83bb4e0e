"""Record semantics: every record is an immutable named tuple, and a record
with checks runs them in its constructor."""

import math
import re

import numpy as np
import pytest

from qstoch.circuit import (calibrate_noise, prepared_states, run_trace, sampled_machine,
                            stream_block_counts, trace_blocks)
from qstoch.cli import ExperimentConfig
from qstoch.process import CausalMachine, block_distribution
from qstoch.qmath import bloch, mixture, shannon_entropy
from qstoch.qmodel import depolarized_complexity, quantum_causal_states, steady_state_rho
from qstoch.seeding import make_rng
from qstoch.stats import block_count_sigma, block_law_check
from qstoch.tomo import (MAX_SHOTS, TomographyCounts, TomographyResult, ensemble_density,
                         entropy_with_error, reconstruct_rho, simulate_counts)

MACHINE = CausalMachine(0.9, 0.3)
COUNTS = TomographyCounts(10, (5, 4, 10))
CONFIG = ExperimentConfig(p_right=0.8, p_left=0.8)

BAD_RECORDS = {
    "CausalMachine": lambda: CausalMachine(1.5, 0.3),
    "TomographyCounts": lambda: TomographyCounts(10, (5, 11, 10)),
    "ExperimentConfig": lambda: ExperimentConfig(p_right=1.5, p_left=0.8),
}


def all_records():
    """One valid instance of every record type."""
    counts = [round(1000 * p) for p in block_distribution(MACHINE, 2)]
    return [MACHINE, run_trace(MACHINE, "quantum", 10, make_rng(0)),
            COUNTS, TomographyResult(1.0, 0.0),
            block_law_check(MACHINE, counts), CONFIG]


@pytest.mark.parametrize("build", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_constructor_checks_value(build):
    with pytest.raises(ValueError):
        build()


# a valid record, and a field change its constructor refuses
BAD_REPLACEMENTS = {
    "CausalMachine": (MACHINE, {"p_right": 1.5}),
    "TomographyCounts": (COUNTS, {"shots_per_basis": 3}),   # +1 counts above the shots
    "ExperimentConfig": (CONFIG, {"p_right": 1.5}),
}


@pytest.mark.parametrize("record, change", BAD_REPLACEMENTS.values(),
                         ids=BAD_REPLACEMENTS.keys())
def test_replace_checks_value(record, change):
    # namedtuple's _replace builds through _make, which would skip __new__
    with pytest.raises(ValueError):
        record._replace(**change)
    assert type(record._replace()) is type(record) and record._replace() == record


def tally_unread(block_len):
    """One length's tally of a 100-step trace; a refused length must be
    refused before the first block is read."""
    read = []

    def blocks():
        for block in trace_blocks(MACHINE, 100, make_rng(0)):
            read.append(block)
            yield block
    try:
        return stream_block_counts(blocks(), [block_len])
    except ValueError:
        assert read == []
        raise


# every integer rule, through each call that checks it: the call, a value in
# range, and the least value above the range where the rule bounds it
INTEGER_RULES = {
    "steps-trace_blocks": (lambda n: next(trace_blocks(MACHINE, n, make_rng(0))), 100, None),
    "steps-run_trace": (lambda n: run_trace(MACHINE, "quantum", n, make_rng(0)), 100, None),
    "steps-ExperimentConfig": (lambda n: ExperimentConfig(0.8, 0.8, steps=n), 100, None),
    "seed": (lambda seed: ExperimentConfig(0.8, 0.8, seed=seed), 10, None),
    "shots-TomographyCounts": (lambda shots: TomographyCounts(shots, (5, 4, 10)), 10,
                               MAX_SHOTS + 1),
    "shots-simulate_counts": (lambda shots: simulate_counts(bloch(0.0, 0.0, 1.0), shots,
                                                            make_rng(0)), 10, MAX_SHOTS + 1),
    "shots-ExperimentConfig": (lambda shots: ExperimentConfig(0.8, 0.8, shots_per_basis=shots),
                               10, MAX_SHOTS + 1),
    "block_distribution": (lambda block_len: block_distribution(MACHINE, block_len), 2, 13),
    "block_count_sigma": (lambda block_len: block_count_sigma(MACHINE, block_len, 10), 2, 7),
    "block_count_sigma-n_blocks": (lambda n: block_count_sigma(MACHINE, 2, n), 10, None),
    "stream_block_counts": (tally_unread, 2, 13),
    "bootstrap_rounds": (lambda rounds: entropy_with_error(COUNTS, make_rng(0),
                                                           bootstrap_rounds=rounds), 150, None),
    "plus-count": (lambda k: TomographyCounts(200, (k, 4, 10)), 10, 201),
    "block-count": (lambda c: block_law_check(MACHINE, [c, 80, 90, 100]), 30, None),
    "make_rng-seed": (lambda seed: make_rng(seed, 0, 1, 2), 10, None),
    "make_rng-key": (lambda key: make_rng(0, 1, key), 2, None),
}
BOUNDED_RULES = {name: rule for name, rule in INTEGER_RULES.items() if rule[2] is not None}


@pytest.mark.parametrize("value", [True, np.True_, 2.5, np.float64(100.0), "3"], ids=repr)
@pytest.mark.parametrize("build, ok, above", INTEGER_RULES.values(), ids=INTEGER_RULES.keys())
def test_non_integer_rejected(build, ok, above, value):
    # a bool or a float would reach range, which refuses it mid-run (a
    # TypeError), or a seed, which would take True for 1
    with pytest.raises(ValueError, match=re.escape(f"got {value!r}") + "$"):
        build(value)


@pytest.mark.parametrize("build, ok, above", BOUNDED_RULES.values(), ids=BOUNDED_RULES.keys())
def test_integer_above_range_rejected(build, ok, above):
    with pytest.raises(ValueError, match=re.escape(f"got {above!r}") + "$"):
        build(above)


@pytest.mark.parametrize("build, ok, above", INTEGER_RULES.values(), ids=INTEGER_RULES.keys())
def test_integer_like_accepted(build, ok, above):
    # any integer type operator.index takes, numpy's among them; 100 steps of
    # np.int64 would overflow a trace block's big-integer shift
    build(np.int64(ok))


# the one interval rule, through each call that checks it: the call, the
# value's name, its range and what the call stores or returns of it
REAL_RULES = {
    "p_right": (lambda p: CausalMachine(p, 0.3), "p_right", 0, 1,
                lambda machine: machine.p_right),
    "p_left": (lambda p: CausalMachine(0.9, p), "p_left", 0, 1,
               lambda machine: machine.p_left),
    "lam": (lambda lam: sampled_machine(MACHINE, "quantum", lam), "lam", 0, 1,
            lambda machine: machine.p_right),
    "target-fidelity": (calibrate_noise, "target fidelity", 0.25, 1, lambda lam: lam),
    "eps": (lambda eps: depolarized_complexity(MACHINE, eps), "eps", 0, 1,
            lambda entropy: entropy),
}


@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, math.nan, np.array([0.5])],
                         ids=repr)
@pytest.mark.parametrize("build, name, lo, hi, read", REAL_RULES.values(), ids=REAL_RULES.keys())
def test_non_real_rejected(build, name, lo, hi, read, value):
    # True would read as 1 and an array would carry numpy onto the plain-Python
    # run path; a string or None would reach a comparison, a TypeError
    with pytest.raises(ValueError, match=re.escape(f"{name} must be in [{lo}, {hi}], "
                                                   f"got {value!r}") + "$"):
        build(value)


@pytest.mark.parametrize("build, name, lo, hi, read", REAL_RULES.values(), ids=REAL_RULES.keys())
def test_real_above_range_rejected(build, name, lo, hi, read):
    above = math.nextafter(hi, math.inf)
    with pytest.raises(ValueError, match=re.escape(f"got {above!r}") + "$"):
        build(above)


@pytest.mark.parametrize("build, name, lo, hi, read", REAL_RULES.values(), ids=REAL_RULES.keys())
def test_numpy_real_kept_as_float(build, name, lo, hi, read):
    # the value the call stores, or returns, is a plain float
    assert type(read(build(np.float64(0.5 * (lo + hi))))) is float


VECTOR_RULES = {
    "shannon_entropy": shannon_entropy,
    "mixture": lambda entries: mixture(entries, (bloch(0.0, 0.0, 1.0), bloch(0.0, 0.0, -1.0))),
    "simulate_counts": lambda entries: simulate_counts((*entries, 0.0), 10, make_rng(0)),
    "bloch": lambda entries: bloch(*entries, 0.0),
}


@pytest.mark.parametrize("build", VECTOR_RULES.values(), ids=VECTOR_RULES.keys())
def test_bool_vector_entry_rejected(build):
    # the vector rule's entries are qmath._is_real, as every probability is
    build((0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape("got (False, True")):
        build((False, True))


@pytest.mark.parametrize("entry", ["0.5", np.True_, None, np.array([0.5])], ids=repr)
def test_bloch_entry_rejected(entry):
    # float() alone would read '0.5' as 0.5 and np.True_ as 1.0
    with pytest.raises(ValueError, match=re.escape(f"a Bloch vector has three real entries, "
                                                   f"got {(0.0, entry, 0.0)!r}") + "$"):
        bloch(0.0, entry, 0.0)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=repr)
def test_bloch_non_finite_entry_rejected(entry):
    # as the oracle's DensityMatrix refuses them: a NaN entry would read
    # entropy nan, and an infinite one entropy 0.0
    with pytest.raises(ValueError, match=re.escape(f"a Bloch vector has finite entries, "
                                                   f"got {(0.0, entry, 0.0)!r}") + "$"):
        bloch(0.0, entry, 0.0)


@pytest.mark.parametrize("change", [{"p_right": 1.5}, {"steps": 0}, {"mode": "x"},
                                    {"gate": "x"}, {"noise_lambda": -0.1},
                                    {"shots_per_basis": 0}, {"seed": -1},
                                    # make_rng refuses it too, but once work starts
                                    pytest.param({"seed": 1.5}, id="seed-non-integer"),
                                    pytest.param({"steps": 10.5}, id="steps-non-integer")],
                         ids=lambda change: next(iter(change)))
def test_derived_config_is_checked(change):
    # the CLI derives every per-column and per-point config with _replace
    with pytest.raises(ValueError):
        CONFIG._replace(**change)
    with pytest.raises(ValueError):
        ExperimentConfig._make({**CONFIG._asdict(), **change}.values())


# each library rule a config checks, and a call of the check that owns it
OWNED_RULES = {
    "p_right": ({"p_right": 1.5}, lambda: CausalMachine(1.5, 0.8)),
    "p_left": ({"p_left": -0.1}, lambda: CausalMachine(0.8, -0.1)),
    "mode": ({"mode": "x"}, lambda: prepared_states(MACHINE, "x")),
    "noise_lambda": ({"noise_lambda": 1.5}, lambda: sampled_machine(MACHINE, "quantum", 1.5)),
    "steps": ({"steps": 0}, lambda: next(trace_blocks(MACHINE, 0, make_rng(0)))),
    # range would refuse 10.5 steps only mid-trace, with a TypeError
    "steps-non-integer": ({"steps": 10.5},
                          lambda: run_trace(MACHINE, "quantum", 10.5, make_rng(0))),
    "shots_per_basis": ({"shots_per_basis": 0},
                        lambda: simulate_counts(bloch(0.0, 0.0, 1.0), 0, make_rng(0))),
    "seed": ({"seed": -1}, lambda: make_rng(-1, 0, 1, 0)),
}


@pytest.mark.parametrize("change, owner", OWNED_RULES.values(), ids=OWNED_RULES.keys())
def test_config_raises_the_owners_message(change, owner):
    # a config checks the library's rules with the library's own checks
    with pytest.raises(ValueError) as owned:
        owner()
    with pytest.raises(ValueError) as got:
        CONFIG._replace(**change)
    assert str(got.value) == str(owned.value)


def test_derived_config_keeps_other_fields():
    derived = CONFIG._replace(mode="classical", noise_lambda=0.5)
    assert type(derived) is ExperimentConfig
    assert derived == ExperimentConfig(p_right=0.8, p_left=0.8, mode="classical",
                                       noise_lambda=0.5)
    with pytest.raises(ValueError, match="unexpected field"):
        CONFIG._replace(lam=0.5)


@pytest.mark.parametrize("record", all_records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    name = record._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.note = "extra"


def state_vectors():
    """Every kind of Bloch vector the library hands out, by where it comes from."""
    quantum, classical = (run_trace(MACHINE, mode, 10, make_rng(0))
                          for mode in ("quantum", "classical"))
    return {"encoded": quantum_causal_states(MACHINE)[1], "steady": steady_state_rho(MACHINE),
            "run": quantum.vectors[0], "logical": classical.vectors[1],
            "ensemble": ensemble_density(quantum), "reconstructed": reconstruct_rho(COUNTS)}


STATE_VECTORS = state_vectors()


@pytest.mark.parametrize("vector", STATE_VECTORS.values(), ids=STATE_VECTORS.keys())
def test_state_vectors_are_read_only(vector):
    # a state is a tuple of three floats, and no caller can change one another holds
    assert type(vector) is tuple and len(vector) == 3
    assert all(type(c) is float for c in vector)
    with pytest.raises(TypeError):
        vector[0] = 0.5


def test_machine_repr_names_its_fields():
    # the cu grid tests name a failing machine through its repr
    assert repr(CausalMachine(0.9, 0.3)) == "CausalMachine(p_right=0.9, p_left=0.3)"
