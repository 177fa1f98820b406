"""numpy's binomial sampler as array code over the first Philox block of each substream.

``thermoscale.rng.RngStream._binomials`` calls :func:`first_block_binomials` for the
thermalizing engine's counts of a size and for all fixed-bath points of a sweep at once.
It computes the first Philox4x64-10 block of every substream of every group in equal
array passes of at most 2**13 substreams, as they share one key (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), so its temporaries stay under 2 MiB however
many trials a group has, and runs numpy's BTPE sampler (Kachitvichyanukul & Schmeiser,
CACM 31(2), 1988) on its four doubles with each group's ``n`` and ``p``, two iterations
with numpy's operations in numpy's order. It returns which trials those do not finish;
the caller redraws them, and draws through numpy every group where numpy inverts the CDF
instead (``min(p, 1 - p) * n <= 30``: thermal-sweep's sizes 16 to 64) and every group
unless numpy is 2.4, whose sampler this module mirrors and the golden digests pin (numpy
does not promise to keep a Generator's stream between versions). ``tests/test_rng.py``
compares the counts with numpy's. The module imports numpy; :mod:`thermoscale.rng`
imports it only when a batch is drawn, so ``import thermoscale`` does not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import _WORD_MASK

_HALF_MASK = 0xFFFFFFFF

# Philox4x64-10: round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# most substreams, summed over the groups the kernel draws, that one pass holds with its block and BTPE temporaries
_PASS = 2**13

# whether the installed numpy is the one whose sampler this module mirrors
MIRRORS_NUMPY = np.__version__.split(".")[:2] == ["2", "4"]


def kernel_draws(n: int, p: float) -> bool:
    """Whether :func:`first_block_binomials` draws ``(n, p)``: numpy 2.4 samples it by BTPE."""
    return MIRRORS_NUMPY and min(p, 1.0 - p) * n > 30.0


def first_block_binomials(key: int, count: int, groups: list) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``Generator.binomial(n, p)`` on substreams ``base .. base+count-1`` of Philox
    key ``key``, row g for the g-th ``(base, n, p)`` of ``groups``.

    Returns the int64 counts and a mask of the trials that need more than the
    first block, every trial of a group in the inversion regime or unless
    :data:`MIRRORS_NUMPY`; their counts are not numpy's, and the caller
    redraws them. ``n`` must lie in ``[0, 2**63)`` and ``p`` in ``[0, 1]``.
    """
    counts, redraw = np.zeros((len(groups), count), dtype=np.int64), np.ones((len(groups), count), dtype=bool)
    # numpy samples the smaller of p and 1 - p and reflects the count
    btpe = [(g, base, n, min(p, 1.0 - p)) for g, (base, n, p) in enumerate(groups) if kernel_draws(n, p)]
    if count and btpe:
        rows, bases, ns, rs = zip(*btpe)
        passes = -(-count // max(1, _PASS // len(btpe)))
        edges = [count * i // passes for i in range(passes + 1)]  # widths differ by at most one
        for span in map(slice, edges, edges[1:]):
            doubles = _philox_first_doubles(key, [base + span.start for base in bases], span.stop - span.start)
            drawn, redraw[list(rows), span] = _btpe_twice(doubles, ns, rs)
            for row, n, first in zip(rows, ns, drawn):
                counts[row, span] = n - first if groups[row][2] > 0.5 else first
    return counts, redraw


def _philox_first_doubles(key: int, bases: tuple[int, ...], count: int) -> np.ndarray:
    """The first four doubles of numpy's Philox on substreams ``base .. base+count-1`` of each
    base, shape (2, 2, len(bases), count): doubles 0 and 2 of each block, then 1 and 3.

    A substream starts at counter ``(0, 0, index)``, with the index in words 2
    and 3, and numpy increments the counter before its first block. Each
    round multiplies words 0 and 2, so they travel as one array and words 1
    and 3 as another; the high words of the 128-bit products are assembled
    from 32-bit halves. Every round works in place, in four scratch arrays
    beside the two of the words, so a pass holds at most six arrays of its
    size. A double is the top 53 bits of an output word times 2**-53.
    """
    half, shift = np.uint64(_HALF_MASK), np.uint64(32)
    multipliers = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    m_lo, m_hi = multipliers & half, multipliers >> shift
    # round i uses the key bumped i times by the Weyl increments
    words = (key & _WORD_MASK, key >> 64)
    round_keys = [[(k + i * w) & _WORD_MASK for k, w in zip(words, _PHILOX_W)] for i in range(_PHILOX_ROUNDS)]
    first, high = np.array([(base & _WORD_MASK, base >> 64) for base in bases], dtype=np.uint64).T[:, :, None]
    low = first + np.arange(count, dtype=np.uint64)  # wraps where an index carries into word 3
    even = np.stack([np.ones(low.size, dtype=np.uint64), low.ravel()])
    odd = np.stack([np.zeros(low.size, dtype=np.uint64), (high + (low < first)).ravel()])
    x_lo, x_hi, cross, spare = np.empty((4, *even.shape), dtype=np.uint64)
    for round_key in np.array(round_keys, dtype=np.uint64)[:, :, None]:
        np.bitwise_and(even, half, out=x_lo)
        np.right_shift(even, shift, out=x_hi)
        np.right_shift(np.multiply(x_lo, m_lo, out=cross), shift, out=cross)
        x_lo *= m_hi
        x_lo += cross  # the low cross term
        np.multiply(x_hi, m_lo, out=cross)
        cross += np.bitwise_and(x_lo, half, out=spare)  # the high cross term
        x_hi *= m_hi
        x_hi += np.right_shift(x_lo, shift, out=x_lo)
        x_hi += np.right_shift(cross, shift, out=cross)  # the high words of the products
        even *= multipliers  # their low words
        odd ^= x_hi[::-1]
        odd ^= round_key
        even, odd = odd, even[::-1]
    del x_lo, x_hi, cross, spare  # the doubles take the scratch's place
    return (np.stack([even, odd]) >> np.uint64(11)).reshape(2, 2, len(bases), count) * (1.0 / 9007199254740992.0)


def _log(x: np.ndarray) -> np.ndarray:
    """libm's log of each element, ``-inf`` at 0 as in C; numpy's own log
    differs from libm in the last bit on some inputs."""
    logs = (math.log(v) if v > 0.0 else -math.inf for v in x.tolist())
    return np.fromiter(logs, dtype=np.float64, count=x.size)


def _btpe_twice(doubles: np.ndarray, ns: tuple, rs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """numpy's BTPE sampler for ``r <= 1/2`` and ``r * n > 30``, two iterations per trial, on
    group g of :func:`_philox_first_doubles` with ``(ns[g], rs[g])``.

    Iteration 1 reads doubles 0 and 1 of each block and iteration 2 doubles 2
    and 3. Neither depends on the other, so both run for every trial in one
    pass, and a trial takes the first that accepts. Returns the counts and a
    mask of the trials neither iteration accepted; scales the u doubles in place. Each group's set-up is in Python
    floats, used as (G, 1) columns; it and every step follow numpy's
    ``random_binomial_btpe`` operation for operation; the step numbers are the paper's.

    Each step is evaluated on every proposal and selected by mask, so the
    only arrays whose size varies from call to call hold 8-byte items: numpy
    keeps up to seven freed buffers of each size below 1 KiB for reuse, and
    boolean subsets of every size would fill that cache.
    """
    setups, consts = [], []
    for n, r in zip(ns, rs):
        q = 1.0 - r
        fm = n * r + r
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr = xm - p1, xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        setups.append((p1, xm, xl, xr, c, laml, lamr, p2, p3, p4, n * r * q))
        consts.append((n, m, r, q, xm))
    p1, xm, xl, xr, c, laml, lamr, p2, p3, p4, nrq = np.array(setups).T[:, :, None]
    n, m = np.array([group[:2] for group in consts], dtype=np.int64).T[:, :, None]

    u, v = np.multiply(doubles[0], p4, out=doubles[0]), doubles[1]
    # Step 10: u picks the triangle (accepted outright), the parallelogram or a tail
    region = (u > p1).astype(np.int8) + (u > p2) + (u > p3)
    # Step 20: the parallelogram rescales v and rejects v > 1
    x = xl + (u - p1) / c
    w = v * c + 1.0 - np.abs(m - x + 0.5) / p1
    parallelogram = region == 1
    y = np.where(parallelogram, np.floor(x), np.floor(xm - p1 * v + u))
    rejected = parallelogram & (w > 1.0)
    del x, parallelogram
    # Steps 30 and 40: the exponential tails reject v == 0 and a count outside [0, n]
    left, right = region == 2, region == 3
    logs = np.flatnonzero((region >= 2) & (v != 0.0))
    log_v = np.zeros(u.shape)  # contiguous, like u and v, so ravel() gives views
    log_v.ravel()[logs] = _log(v.ravel()[logs])
    y = np.where(left | right, np.floor(np.where(left, xl + log_v / laml, xr - log_v / lamr)), y).astype(np.int64)
    w = np.where(left, v * (u - p2) * laml, np.where(right, v * (u - p3) * lamr, w))
    rejected |= (left | right) & (v == 0.0) | left & (y < 0) | right & (y > n)
    # Step 50 compares v with the pmf ratio f(y) / f(m) when y is near m or far
    # in a tail; Step 52 squeezes log(v) in between, with Stirling bounds last
    candidate = (region > 0) & ~rejected
    k = np.abs(y - m)
    squeeze = (k > 20) & (k < nrq / 2.0 - 1)
    t = -k * k / (2 * nrq)
    rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
    logs = np.flatnonzero(candidate & squeeze)
    log_v[:] = 0.0
    log_v.ravel()[logs] = _log(w.ravel()[logs])
    sure = log_v < t - rho
    unsure = np.flatnonzero(candidate & squeeze & ~sure & ~(log_v > t + rho))
    del k, rho, t
    ys, ratio = np.where(candidate & ~squeeze, y, m), np.empty(u.shape)
    for g, (n_g, m_g, r_g, q_g, _) in enumerate(consts):
        ratio[:, g] = _pmf_ratios(ys[:, g], m_g, r_g / q_g * (n_g + 1), r_g / q_g)
    rows = (unsure // u.shape[2] % u.shape[1]).tolist()  # the group of each
    sure.ravel()[unsure] = [
        not _stirling_rejects(big_a, y_i, *consts[g])
        for g, big_a, y_i in zip(rows, log_v.ravel()[unsure].tolist(), y.ravel()[unsure].tolist())
    ]
    accepted = (region == 0) | candidate & np.where(squeeze, sure, ~(w > ratio))
    return np.where(accepted[0], y[0], y[1]), ~(accepted[0] | accepted[1])


def _pmf_ratios(ys: np.ndarray, m: int, a: float, s: float) -> np.ndarray:
    """BTPE's Step-50 factor ``F`` for each count ``ys``, in numpy's loop order
    and Python floats, once per distinct count: ``F`` starts at 1 and is
    multiplied by ``a / i - s`` for ``i = m+1 .. y`` (one running product over
    the sorted counts above ``m``), or divided by it for ``i = y+1 .. m`` (a
    fresh chain for each count below ``m``)."""
    lo = int(ys.min())
    table, above, i = np.empty(int(ys.max()) - lo + 1), 1.0, m
    for y in (np.flatnonzero(np.bincount((ys - lo).ravel())) + lo).tolist():
        if y < m:
            below = 1.0
            for j in range(y + 1, m + 1):
                below /= a / j - s
            table[y - lo] = below
        else:
            for i in range(i + 1, y + 1):  # on from the last count above m
                above *= a / i - s
            table[y - lo] = above
    return table[ys - lo]


def _stirling_rejects(big_a: float, y: int, n: int, m: int, r: float, q: float, xm: float) -> bool:
    """BTPE's final test (Step 52): whether ``log(v)`` exceeds the Stirling bound for ``y``."""
    x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)

    def correction(x: float) -> float:
        x2 = x * x
        return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0

    bound = (
        xm * math.log(f1 / x1)
        + (n - m + 0.5) * math.log(z / w)
        + (y - m) * math.log(w * r / (x1 * q))
        + correction(f1)
        + correction(z)
        + correction(x1)
        + correction(w)
    )
    return big_a > bound
