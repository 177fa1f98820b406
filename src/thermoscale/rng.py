"""Counter-based random streams for reproducible, order-independent sampling.

Every stochastic routine in this package draws from a Philox generator
addressed by ``(master_seed, stream_index)``. Philox is a counter-mode
generator, so a stream is nothing more than a region of its counter space:
distinct indices select disjoint counter blocks and therefore produce
statistically independent draws whose values do not depend on the order in
which streams are consumed. Campaigns derive one substream per trial, which
makes batch results invariant under any execution schedule. ``RngStream._positioned``
is the one place that builds a numpy ``Philox`` or moves it to a substream;
``generator``, ``generators`` and the redraws of ``_binomials`` all go through it.

``RngStream._binomials`` draws one binomial count per substream of one or more
streams and gives exactly what numpy's ``Generator.binomial`` gives on each
substream: as array code where numpy samples by BTPE (see :mod:`thermoscale._binomial`),
redrawing through ``_positioned`` a trial that the first Philox block of its substream
does not finish, and through ``generators``, one step per trial, where numpy inverts
the CDF (``min(p, 1 - p) * n <= 30``).

numpy is imported by the methods that build a generator or draw, not by the
module, so the closed forms and oracles run without it.

The package checks its arguments with the private helpers here, each raising a ValueError that names
the argument: ``_index`` (an integer, no bool), ``_at_least`` (such an integer, at least a bound, that
``float()`` takes), ``_binomial_n`` (such an integer below 2**63, as numpy's binomial takes it), ``_real``
(a finite positive or nonnegative float) and ``_one_of`` (one of a tuple of strings, spelled exactly).
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
_FLOAT_END = 2**1024 - 2**970  # the least integer that float() refuses: it rounds up to infinity
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
    """``value`` through :func:`_index`, refused below ``low`` or where ``float()`` would overflow."""
    value = _index(what, value)
    if value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    if value >= _FLOAT_END:
        raise ValueError(f"{what} must convert to a float, got an integer of {value.bit_length()} bits")
    return value


def _binomial_n(what: str, value, low: int = 1) -> int:
    """``value`` through :func:`_at_least` and below 2**63, as numpy's binomial takes it (an int64)."""
    value = _at_least(what, value, low)
    if value >= _MAX_COUNT:
        raise ValueError(f"{what} must be below 2**63, got {value}")
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


def _one_of(what: str, value: str, allowed: tuple[str, ...]) -> None:
    """Refuse a ``value`` that is not one of the strings ``allowed``, spelled exactly."""
    if value not in allowed:
        raise ValueError(f"{what} must be one of {allowed}, got {value!r}")


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
        """A fresh Generator positioned at the start of this stream's counter block, by :meth:`_positioned`."""
        return next(self._positioned([self.stream_index]))

    def generators(self, count: int) -> Iterator[np.random.Generator]:
        """Yield the generators of substreams ``0 .. count-1``, in order.

        Bit-identical to ``self.substream(i).generator()``: both come from
        :meth:`_positioned`, which reuses one Philox instance and moves it by
        assigning its state, far cheaper than building a Philox per trial. The
        yielded generator is repositioned on the next iteration, so each one
        must be fully consumed before the loop advances. The arguments are
        checked at the call, before any generator is yielded; ``count`` may not
        exceed 2**32, or the range would run into the next stream's substreams.
        """
        base = self._first_substream(count)
        return self._positioned(range(base, base + count))

    @staticmethod
    def _binomials(count: int, draws: list[tuple["RngStream", int, float]]) -> np.ndarray:
        """Row g: ``[gen.binomial(n, p) for gen in stream.generators(count)]`` of ``draws[g]``, bit for bit,
        for streams of one master seed; refuses at the call what ``Generator.binomial`` (``n < 0``, ``p``
        outside ``[0, 1]`` or NaN) and :meth:`generators` refuse. A group the kernel does not draw is that loop."""
        groups = []
        for stream, n, p in draws:
            base = stream._first_substream(count)
            n, p = _binomial_n("n", n, low=0), float(p)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p must lie in [0, 1], got {p}")
            groups.append((base, n, p))
        from ._binomial import first_block_binomials, kernel_draws

        counts, redraw = first_block_binomials(draws[0][0].master_seed, count, groups)
        for (stream, _, _), (_, n, p), row, again in zip(draws, groups, counts, redraw):
            if not kernel_draws(n, p):
                row[:] = [gen.binomial(n, p) for gen in stream.generators(count)]
                again[:] = False
        redo = list(zip(*(axis.tolist() for axis in redraw.nonzero())))
        for (g, t), gen in zip(redo, draws[0][0]._positioned([groups[g][0] + t for g, t in redo])):
            counts[g, t] = gen.binomial(*groups[g][1:])
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
        """One generator, positioned in turn at the start of each absolute substream index: the one place
        that builds or moves a Philox. Each step writes the index into the counter words of a list-valued
        state dict, which also discards any buffered output, and assigns it."""
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
