"""Counter-based random streams for reproducible, order-independent sampling.

Every stochastic routine in this package draws from a Philox generator
addressed by ``(master_seed, stream_index)``. Philox is a counter-mode
generator, so a stream is nothing more than a region of its counter space:
distinct indices select disjoint counter blocks and therefore produce
statistically independent draws whose values do not depend on the order in
which streams are consumed. Campaigns derive one substream per trial, which
makes batch results invariant under any execution schedule.

:meth:`RngStream.binomials` draws one binomial count per substream as array
code and gives exactly what numpy's ``Generator.binomial`` gives on each
substream (see :mod:`thermoscale._binomial`); a trial that the first Philox
block of its substream does not finish, and every trial of a batch where
numpy inverts the CDF (``min(p, 1 - p) * n <= 30``), is drawn by numpy.

numpy is imported by the methods that build a generator or draw, not by the
module, so the closed forms and oracles run without it.

The package checks its arguments with the private helpers here, each raising a
ValueError that names the argument: ``_index`` (an integer, no bool), ``_at_least``
(such an integer, at least a bound) and ``_real`` (a finite positive or nonnegative float).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

_MAX_SEED = 2**64
_MAX_INDEX = 2**128
_MAX_COUNT = 2**63  # numpy's binomial takes n as an int64
_SUBSTREAM_STRIDE = 2**32
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


def _index(what: str, value) -> int:
    """``value`` as an int if ``operator.index`` takes it and it is no bool; ValueError otherwise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _at_least(what: str, value, low: int = 1) -> int:
    """``value`` through :func:`_index`, refused below ``low``."""
    value = _index(what, value)
    if value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


def _real(what: str, value, positive: bool = True) -> float:
    """``value`` as a float if it is a finite real, positive (or only nonnegative); ValueError otherwise."""
    try:
        if math.isfinite(value) and (value > 0 if positive else value >= 0):
            return float(value)
    except (TypeError, OverflowError):
        pass
    sign = "positive" if positive else "nonnegative"
    raise ValueError(f"{what} must be a {sign} finite real, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """A named position in Philox counter space.

    ``master_seed`` keys the generator (64 bits). ``stream_index`` selects a
    counter block; each block is 2**128 draws long, far more than any single
    consumer can use, so blocks never overlap. Both must be integers; they are
    stored as Python ints.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        seed = _index("master_seed", self.master_seed)
        index = _index("stream_index", self.stream_index)
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= index < _MAX_INDEX:
            raise ValueError(f"stream_index must fit in 128 bits, got {index}")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "stream_index", index)

    def substream(self, index: int) -> "RngStream":
        """Child stream ``index``. Children of distinct parents never collide."""
        index = _index("substream index", index)
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
        base = self._first_substream(count)
        return self._positioned(range(base, base + count))

    def binomials(self, count: int, n: int, p: float) -> np.ndarray:
        """``[g.binomial(n, p) for g in self.generators(count)]`` as an int64 array.

        The counts are bit for bit numpy's, drawn as array code from the first
        Philox block of each substream (see :mod:`thermoscale._binomial`); the
        few trials that need more than one block, and all of a batch with
        ``min(p, 1 - p) * n <= 30``, are drawn by numpy. Refuses
        what ``Generator.binomial`` refuses, ``n < 0`` and ``p`` outside
        ``[0, 1]`` or NaN, and what :meth:`generators` refuses, all at the call.
        """
        base = self._first_substream(count)
        n = _index("n", n)
        if not 0 <= n < _MAX_COUNT:
            raise ValueError(f"n must lie in [0, 2**63), got {n}")
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        from ._binomial import first_block_binomials

        counts, redraw = first_block_binomials(self.master_seed, base, count, n, p)
        redo = redraw.nonzero()[0].tolist()
        for t, gen in zip(redo, self._positioned([base + t for t in redo])):
            counts[t] = gen.binomial(n, p)
        return counts

    def _first_substream(self, count: int) -> int:
        """Absolute index of substream 0, once ``count`` substreams are known to fit."""
        if not 0 <= _index("count", count) <= _SUBSTREAM_STRIDE:
            raise ValueError(f"count must lie in [0, 2**32], got {count}")
        base = self.stream_index * _SUBSTREAM_STRIDE
        if base + count > _MAX_INDEX:
            raise ValueError("substream range exceeds the 128-bit index space")
        return base

    def _positioned(self, indices: Iterable[int]) -> Iterator[np.random.Generator]:
        """One generator, positioned in turn at the start of each absolute substream index."""
        import numpy as np

        bitgen = np.random.Philox(key=self.master_seed)
        gen = np.random.Generator(bitgen)
        # the setter reads these field by field; Python ints read faster than numpy scalars
        counter = [0, 0, 0, 0]
        state = bitgen.state
        state.update(buffer=[0, 0, 0, 0], buffer_pos=4, has_uint32=0, uinteger=0)
        state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
        for index in indices:
            counter[2] = index & _WORD_MASK
            counter[3] = index >> 64
            bitgen.state = state
            yield gen
