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


class ScriptedUniforms:
    """A stand-in Generator that hands out a fixed list of uniforms in order,
    one at a time, as an array of a given size, or into an out= buffer."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.used = 0

    def random(self, size=None, out=None):
        count = out.shape[0] if out is not None else size or 1
        got = self.uniforms[self.used: self.used + count]
        assert got.shape[0] == count, "script ran out of uniforms"
        self.used += count
        if out is not None:
            out[...] = got
            return out
        return float(got[0]) if size is None else got.copy()
