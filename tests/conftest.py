"""Helpers shared by the test modules."""

import numpy as np

from qstoch.circuit import sampled_machine, trace_blocks


def chain_outputs(chain, n, rng):
    """The whole n-step output trace of a chain, concatenated from its
    trace_blocks."""
    return np.concatenate([bits for _, bits in trace_blocks(chain, n, rng)])


def trace_outputs(machine, mode, n, rng):
    """The whole output trace of run_trace with the same arguments: that of
    the chain the run samples."""
    return chain_outputs(sampled_machine(machine, mode), n, rng)
