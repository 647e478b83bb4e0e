"""Helpers shared by the test modules."""

import numpy as np

from qstoch.circuit import sampled_machine, trace_blocks


def packed(chunk):
    """A bit array as a block (entering, bits, m) of trace_blocks: its m
    bits in one Python int, element i at bit i, entering state 0."""
    chunk = np.asarray(chunk).reshape(-1)
    return 0, int.from_bytes(np.packbits(chunk, bitorder="little"), "little"), chunk.shape[0]


def unpacked(bits, m):
    """The int8 array of a packed block's m bits, element i from bit i."""
    raw = np.frombuffer(bits.to_bytes((m + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=m, bitorder="little").view(np.int8)


def chain_outputs(chain, n, rng):
    """The whole n-step output trace of a chain, its trace_blocks unpacked
    and concatenated."""
    return np.concatenate([unpacked(bits, m) for _, bits, m in trace_blocks(chain, n, rng)])


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
