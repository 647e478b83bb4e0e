"""Helpers shared by the test modules."""

import numpy as np

from qstoch.circuit import sampled_machine, trace_blocks


def trace_outputs(machine, mode, n, rng, gate="cnot", noise=None):
    """The whole output trace of run_trace with the same arguments,
    concatenated from trace_blocks of the chain that run samples."""
    chain = sampled_machine(machine, mode, gate, noise)
    return np.concatenate([bits for _, bits in trace_blocks(chain, n, rng)])
