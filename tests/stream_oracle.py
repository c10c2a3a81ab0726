"""The SplitMix64 stream drawn one value at a time: the reference the
package's array draws are tested against.

``ScalarSplitMix64`` adds the scalar form of each draw to
``segreid.exactlin.SplitMix64``, on the same state: ``next_u64`` is one
output, ``residue`` one rejection-sampled element of F_p and
``nonzero_residue`` one of F_p minus zero, each written with Python
integers masked to 64 bits.  A test that needs single draws, or checks
the arrays against them, constructs this generator instead.
"""

from segreid.exactlin import _GAMMA, _MIX1, _MIX2, _U64, SplitMix64


class ScalarSplitMix64(SplitMix64):
    """``SplitMix64`` with its draws one value at a time."""

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _U64
        z = ((z ^ (z >> 27)) * _MIX2) & _U64
        return z ^ (z >> 31)

    def residue(self, p: int) -> int:
        """Uniform element of F_p, by rejection from the top of the u64 range."""
        lim = (1 << 64) - ((1 << 64) % p)
        while True:
            u = self.next_u64()
            if u < lim:
                return u % p

    def nonzero_residue(self, p: int) -> int:
        """Uniform element of F_p minus zero."""
        return self.residue(p - 1) + 1
