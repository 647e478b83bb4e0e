"""Helpers shared by the test modules."""

import numpy as np

from qstoch.circuit import trace_blocks


def trace_outputs(*args, **kwargs):
    """The whole output trace of a run, concatenated from trace_blocks."""
    return np.concatenate([bits for _, bits in trace_blocks(*args, **kwargs)])
