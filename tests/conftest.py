"""Helpers shared by the test modules."""

import numpy as np

from qstoch.circuit import _DRAW_BLOCK, sampled_machine, trace_blocks


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


class ScriptedBits:
    """A stand-in random.Random: random() hands out the scripted uniforms in
    order, and getrandbits(k) the scripted bit planes, each below 2**k, then
    those of `rest`, a random.Random, if one is given."""

    def __init__(self, uniforms=(), planes=(), rest=None):
        self.uniforms = list(uniforms)
        self.planes = list(planes)
        self.rest = rest

    def random(self):
        assert self.uniforms, "script ran out of uniforms"
        return self.uniforms.pop(0)

    def getrandbits(self, k):
        if not self.planes and self.rest is not None:
            return self.rest.getrandbits(k)
        assert self.planes, "script ran out of bit planes"
        plane = self.planes.pop(0)
        assert 0 <= plane < 1 << k, f"scripted plane {plane:#x} is wider than {k} bits"
        return plane


def _digit_count(p):
    """How many binary digits after the point p in [0, 1] has, up to its
    last set one; none for 0, and none for 1, which every uniform is below."""
    return 0 if p == 1.0 else p.as_integer_ratio()[1].bit_length() - 1


class BlockUniforms:
    """The uniforms trace_blocks(chain, n, rng) compares, one per random()
    call, the step-by-step reference of its stream: first rng.random(), the
    start, then each step's uniform in order.

    Each block of m steps draws m-bit planes from rng.getrandbits until
    every step's prefix (its bit i of each plane, first plane first)
    differs from the same number of digits of each of lo = min(p1) and hi =
    max(p1), or that bound has no digits left.  A step's uniform is the
    midpoint of the interval its prefix leaves, so it lies below a bound
    exactly when every uniform with that prefix does: a prefix equal to all
    of a bound's digits leaves u >= the bound.  The midpoint also stays
    2**-(planes + 1) or more away from both bounds, so a step oracle's
    probability off by float dust compares alike.
    """

    def __init__(self, chain, n, rng):
        p1 = (chain[0], 1.0 - chain[1])
        self.bounds = (min(p1), max(p1))
        self.rng = rng
        self.left = n
        self.queue = None

    def random(self):
        if self.queue is None:
            self.queue = []
            return self.rng.random()
        if not self.queue:
            m = min(_DRAW_BLOCK, self.left)
            self.left -= m
            self.queue = self._block(m)
        return self.queue.pop(0)

    def _block(self, m):
        prefixes, planes = [0] * m, 0

        def tied(p):
            return planes < _digit_count(p) and int(p * 2 ** planes) in prefixes

        while any(map(tied, self.bounds)):
            plane = self.rng.getrandbits(m)
            prefixes = [2 * prefix + (plane >> i & 1) for i, prefix in enumerate(prefixes)]
            planes += 1
        return [(prefix + 0.5) / 2 ** planes for prefix in prefixes]
