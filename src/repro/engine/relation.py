"""``[[R]]_G`` as the sweep leaves it: one origin bitmask per target node.

The multi-source sweep (:func:`repro.engine.kernel.evaluate_sweep`) and the
partitioned gather (:mod:`repro.distributed.coordinator`) both finish with
the same compact shape — for every target that has an answer, a bitmask of
the sources that reach it.  :class:`PairRelation` hands that shape to the
caller as an immutable set of ``(source, target)`` pairs: ``len`` and ``in``
never decode, iteration decodes target by target, and only a caller that
asks for pairs pays for pairs (Sec. 7.1: return the compact representation,
enumerate on demand).

A relation is a snapshot of one graph version, like the CSR it came from:
it keeps references to the node lists it was built over, and a later write
builds new lists (``Interner.extended``) instead of touching them.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence, Set
from itertools import compress, repeat

#: ``bin(mask)`` digits -> ``compress`` selectors (the byte ``b"0"`` is
#: truthy; the byte 0 is not).
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")

# Two decoders, chosen per mask from the mask alone.  The selector pass
# turns all ``bit_length`` positions into 0/1 bytes at C speed and then
# yields rows without touching the interpreter; the high-bit loop pays two
# big-int operations per *set* bit and nothing for the clear ones.  Measured
# per mask on the 2-vCPU container this repo grows in (python3.11, best of 7
# over 200 random masks whose top bit is set):
#
#   bit_length  set bits   selectors   loop
#            1         1     0.43 us    0.07 us   (single-source sweep)
#           64         9     1.15 us    0.73 us
#           64        17     1.38 us    1.36 us   <- meet
#           64        64     2.30 us    5.62 us
#          500         5     4.60 us    0.59 us
#          500        49     4.99 us    6.52 us   <- meet near 45
#          500       450     13.5 us    43.2 us
#         2000         2     13.7 us    0.27 us   (one label, all sources)
#         2000       129     19.4 us    25.9 us   <- meet near 110
#         2000      1800     60.4 us     226 us
#         8000       513     66.2 us    76.0 us   <- meet near 400
#
# i.e. selectors cost about 0.45 us + 6.6 ns/position + 20 ns/row and the
# loop 80-200 ns/row (its big ints shrink as it goes, but start longer on
# a longer mask).  The two meet where one position in about twelve is set,
# once the selector pass's fixed cost (some 64 positions' worth) is paid.
_POSITIONS_PER_SET_BIT = 12
_SELECTOR_SETUP_POSITIONS = 64


class PairRelation(Set):
    """An immutable set of ``(source, target)`` pairs held as origin masks.

    ``masks[j]`` is the nonzero origin mask of target ``targets[j]``; bit
    ``i`` of a mask stands for ``sources[i]``; ``count`` is the number of
    set bits over all masks.  Comparisons and ``| & - ^`` work against
    plain sets in either operand order and return plain sets; there are no
    mutators, so one relation can be shared by every reader.
    """

    __slots__ = ("_sources", "_targets", "_masks", "_count", "_positions")

    def __init__(
        self, sources: Sequence, targets: Sequence, masks: "dict[int, int]",
        count: int,
    ):
        self._sources = sources
        self._targets = targets
        self._masks = masks
        self._count = count
        self._positions = None

    @classmethod
    def _from_iterable(cls, iterable) -> set:
        return set(iterable)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple]:
        sources = self._sources
        targets = self._targets
        for position, mask in self._masks.items():
            target = targets[position]
            if (
                mask.bit_count() * _POSITIONS_PER_SET_BIT
                > mask.bit_length() + _SELECTOR_SETUP_POSITIONS
            ):
                selectors = bin(mask)[:1:-1].encode().translate(_SELECTORS)
                yield from zip(compress(sources, selectors), repeat(target))
            else:
                while mask:
                    high = mask.bit_length() - 1
                    yield (sources[high], target)
                    mask ^= 1 << high

    def __contains__(self, pair) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        positions = self._positions
        if positions is None:
            # Built on the first probe, not per relation: most relations
            # are only measured or iterated.
            positions = self._positions = (
                {source: bit for bit, source in enumerate(self._sources)},
                {
                    self._targets[position]: position
                    for position in self._masks
                },
            )
        source_bits, target_positions = positions
        bit = source_bits.get(pair[0])
        position = target_positions.get(pair[1])
        if bit is None or position is None:
            return False
        return bool((self._masks[position] >> bit) & 1)

    def __reduce__(self):
        return (set, (list(self),))

    def __repr__(self) -> str:
        return f"<PairRelation {self._count} pairs over {len(self._masks)} targets>"
