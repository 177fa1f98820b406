"""Counter-based random streams for reproducible, order-independent sampling.

Every stochastic routine in this package draws from a Philox generator
addressed by ``(master_seed, stream_index)``. Philox is a counter-mode
generator, so a stream is nothing more than a region of its counter space:
distinct indices select disjoint counter blocks and therefore produce
statistically independent draws whose values do not depend on the order in
which streams are consumed. Campaigns derive one substream per trial, which
makes batch results invariant under any execution schedule.

numpy is imported by the two methods that build a generator, not by the
module, so the closed forms and oracles run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

_MAX_SEED = 2**64
_MAX_INDEX = 2**128
_SUBSTREAM_STRIDE = 2**32
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """A named position in Philox counter space.

    ``master_seed`` keys the generator (64 bits). ``stream_index`` selects a
    counter block; each block is 2**128 draws long, far more than any single
    consumer can use, so blocks never overlap.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < _MAX_SEED:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if not 0 <= int(self.stream_index) < _MAX_INDEX:
            raise ValueError(f"stream_index must fit in 128 bits, got {self.stream_index}")

    def substream(self, index: int) -> "RngStream":
        """Child stream ``index``. Children of distinct parents never collide."""
        if not 0 <= index < _SUBSTREAM_STRIDE:
            raise ValueError(f"substream index must fit in 32 bits, got {index}")
        return RngStream(self.master_seed, self.stream_index * _SUBSTREAM_STRIDE + index)

    def generator(self) -> np.random.Generator:
        """A fresh Generator positioned at the start of this stream's counter block."""
        import numpy as np

        bitgen = np.random.Philox(key=self.master_seed, counter=self.stream_index << 128)
        return np.random.Generator(bitgen)

    def generators(self, count: int) -> Iterator[np.random.Generator]:
        """Yield the generators of substreams ``0 .. count-1``, in order.

        Bit-identical to ``self.substream(i).generator()``. One Philox instance
        is reused: each step writes the substream index into the counter words
        of a list-valued state dict, which also discards any buffered output,
        and assigns it, far cheaper than building a Philox per trial. The
        yielded generator is repositioned on the next iteration, so each one
        must be fully consumed before the loop advances. The arguments are
        checked at the call, before any generator is yielded; ``count`` may not
        exceed 2**32, or the range would run into the next stream's substreams.
        """
        if not 0 <= count <= _SUBSTREAM_STRIDE:
            raise ValueError(f"count must lie in [0, 2**32], got {count}")
        base = self.stream_index * _SUBSTREAM_STRIDE
        if base + count > _MAX_INDEX:
            raise ValueError("substream range exceeds the 128-bit index space")
        return self._positioned(base, count)

    def _positioned(self, base: int, count: int) -> Iterator[np.random.Generator]:
        import numpy as np

        bitgen = np.random.Philox(key=self.master_seed)
        gen = np.random.Generator(bitgen)
        # the setter reads these field by field; Python ints read faster than numpy scalars
        counter = [0, 0, 0, 0]
        state = bitgen.state
        state.update(buffer=[0, 0, 0, 0], buffer_pos=4, has_uint32=0, uinteger=0)
        state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
        for index in range(base, base + count):
            counter[2] = index & _WORD_MASK
            counter[3] = index >> 64
            bitgen.state = state
            yield gen
