import numpy as np
import pytest

from thermoscale import _binomial
from thermoscale.interferometry import BathSpec, max_theta
from thermoscale.rng import RngStream
from thermoscale.sweep import SweepPlan, collect_sweep_records
from test_refusals import refusal_cases, refusal_test


def test_same_stream_reproduces_bits():
    a = RngStream(123456789, 42).generator().random(100)
    b = RngStream(123456789, 42).generator().random(100)
    assert np.array_equal(a, b)


def test_distinct_indices_differ():
    a = RngStream(7, 0).generator().random(10)
    b = RngStream(7, 1).generator().random(10)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RngStream(1, 0).generator().random(10)
    b = RngStream(2, 0).generator().random(10)
    assert not np.array_equal(a, b)


def test_substream_indexing_is_nested():
    parent = RngStream(99, 3)
    child = parent.substream(17)
    assert child.master_seed == 99
    assert child.stream_index == 3 * 2**32 + 17
    # children of different parents cannot alias
    other = RngStream(99, 4).substream(0)
    assert other.stream_index != child.stream_index


def fresh_generator(stream, i):
    """Substream ``i`` of ``stream`` from a Philox built here, independently of ``RngStream``'s positioning."""
    index = stream.stream_index * 2**32 + i
    return np.random.Generator(np.random.Philox(key=stream.master_seed, counter=index << 128))


def test_generators_match_fresh_construction():
    stream = RngStream(2024, 5)
    fast = [gen.binomial(50, 0.3) for gen in stream.generators(500)]
    slow = [fresh_generator(stream, i).binomial(50, 0.3) for i in range(500)]
    assert fast == slow
    assert stream.substream(7).generator().random(9).tolist() == fresh_generator(stream, 7).random(9).tolist()


# consumers that leave the shared Philox mid-block or with a buffered 32-bit half
# word, so a stale buffer carried into the next trial changes its draws
POSITIONING_CONSUMERS = {
    "binomial": lambda gen: [int(gen.binomial(50, 0.3))],
    "partial block": lambda gen: gen.random(5).tolist(),
    "buffered half word": lambda gen: [int(gen.integers(0, 2**32, dtype=np.uint32)), gen.random()],
}


# top-bit keys, and a base index whose substreams set counter words 2 and 3
EDGE_STREAMS = [RngStream(2**64 - 1, 3), RngStream(2**63 + 5), RngStream(7, 2**96 - 1)]
EDGE_STREAM_IDS = ["seed-2^64-1", "seed-2^63+5", "index-2^96-1"]


@pytest.mark.parametrize("consumer", POSITIONING_CONSUMERS.values(), ids=list(POSITIONING_CONSUMERS))
@pytest.mark.parametrize("stream", EDGE_STREAMS, ids=EDGE_STREAM_IDS)
def test_generators_reposition_exactly(stream, consumer):
    fast = [consumer(gen) for gen in stream.generators(40)]
    slow = [consumer(fresh_generator(stream, i)) for i in range(40)]
    assert fast == slow
    assert consumer(stream.substream(39).generator()) == slow[-1]


def test_draws_do_not_depend_on_consumption_order():
    stream = RngStream(31337)
    ordered = [stream.substream(i).generator().random() for i in range(50)]
    order = list(range(50))
    rng = np.random.default_rng(0)
    rng.shuffle(order)
    shuffled = {i: stream.substream(i).generator().random() for i in order}
    assert ordered == [shuffled[i] for i in range(50)]


def test_streams_pass_basic_independence_smoke():
    # means of many parallel streams should look like iid uniforms
    values = np.array([RngStream(5, i).generator().random(64).mean() for i in range(200)])
    assert abs(values.mean() - 0.5) < 0.01
    assert 0.3 / np.sqrt(12 * 64) < values.std() < 1.3 / np.sqrt(12 * 64) * np.sqrt(3)


# integers only: a float, a bool or a string is not a seed, an index or a substream
test_validation = refusal_test(
    "stream-negative-seed", "stream-seed-beyond-64-bits", "stream-index-beyond-128-bits", "substream-beyond-32-bits",
    "substream-negative", "stream-fractional-seed", "stream-bool-seed", "stream-string-seed", "stream-fractional-index",
    "stream-bool-index", "stream-string-index", "substream-fractional", "substream-bool", "substream-string")


def test_integer_like_seeds_are_stored_as_ints():
    stream = RngStream(np.uint64(2**64 - 1), np.int64(3))
    assert stream == RngStream(2**64 - 1, 3)
    assert type(stream.master_seed) is int and type(stream.stream_index) is int
    assert stream.substream(np.uint32(7)) == RngStream(2**64 - 1, 3 * 2**32 + 7)


# a negative count, ranges running past the last 128-bit index, a count whose position 2^32 would be
# substream 0 of the next stream, and a float, refused by the call itself and not at the first next()
test_generators_validate_at_the_call = refusal_cases({
    "negative count": "generators-negative-count", "beyond 2^128": "generators-beyond-128-bits",
    "one past 2^128": "generators-one-past-128-bits", "into the next stream": "generators-into-the-next-stream",
    "non-integer count": "generators-fractional-count"})


BINOMIAL_CASES = {
    # numpy inverts when min(p, 1 - p) * n <= 30 and runs BTPE otherwise
    "inversion": (50, 0.3),
    "inversion at n*p = 30": (60, 0.5),
    "inversion, p > 1/2": (40, 0.9),
    "btpe at n*p = 31": (100, 0.31),
    "btpe": (200, 0.47),
    "btpe, p > 1/2": (200, 0.83),
    "btpe, Stirling bounds": (5000, 0.5),
    "p = 0": (50, 0.0),
    "p = 1": (50, 1.0),
    "n = 0": (0, 0.4),
    "n = 1": (1, 0.4),
    "n = 10^12, inversion": (10**12, 1.7e-11),
    "n = 10^12, btpe": (10**12, 0.3),
}


def draw(stream, count, n, p):
    """The counts of ``count`` substreams of one stream, through the array draw a sweep takes."""
    return RngStream._binomials(count, [(stream, n, p)])[0]


def spy_redraws(monkeypatch):
    """Record the substreams that the array draw hands back to numpy."""
    redrawn = []
    positioned = RngStream._positioned

    def spy(self, indices):
        indices = list(indices)
        redrawn.extend(indices)
        return positioned(self, indices)

    monkeypatch.setattr(RngStream, "_positioned", spy)
    return redrawn


@pytest.mark.parametrize("n, p", BINOMIAL_CASES.values(), ids=list(BINOMIAL_CASES))
@pytest.mark.parametrize("stream", EDGE_STREAMS, ids=EDGE_STREAM_IDS)
def test_binomials_match_the_generators_loop(stream, n, p, monkeypatch):
    loop = [gen.binomial(n, p) for gen in stream.generators(3000)]
    redrawn = spy_redraws(monkeypatch)
    drawn = draw(stream, 3000, n, p)
    assert drawn.dtype == np.int64 and drawn.shape == (3000,)
    assert drawn.tolist() == loop
    if min(p, 1.0 - p) * n > 30:
        # a trial is redrawn only after both BTPE iterations of its first
        # block reject, so 3000 trials exercise the second iteration and the redraw
        assert redrawn


@pytest.mark.parametrize("count", [0, 1])
def test_binomials_of_zero_and_one_trials(count):
    stream = RngStream(2**63 + 5)
    for n, p in [(200, 0.47), (50, 0.3)]:
        drawn = draw(stream, count, n, p)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [gen.binomial(n, p) for gen in stream.generators(count)]


def test_binomials_of_few_trials_over_many_seeds():
    # a batch of one to three trials holds two to six BTPE proposals, so on
    # some seeds every count tested against the pmf ratio lies on one side of
    # the mode
    for seed in range(300):
        stream = RngStream(seed, 3)
        for count in (1, 2, 3):
            for n, p in [(200, 0.47), (5000, 0.5)]:
                loop = [gen.binomial(n, p) for gen in stream.generators(count)]
                assert draw(stream, count, n, p).tolist() == loop, (seed, count, n, p)


def test_binomials_draw_through_numpy_under_another_numpy(monkeypatch):
    stream = EDGE_STREAMS[0]
    loop = [gen.binomial(200, 0.47) for gen in stream.generators(50)]
    monkeypatch.setattr("thermoscale._binomial.MIRRORS_NUMPY", False)
    redrawn = spy_redraws(monkeypatch)
    assert draw(stream, 50, 200, 0.47).tolist() == loop
    assert len(redrawn) == 50


@pytest.mark.parametrize(
    "n, p",
    [(-1, 0.5), (10, -0.1), (10, 1.1), (10, float("nan")), (2.5, 0.5)],
    ids=["negative n", "negative p", "p above 1", "p NaN", "non-integer n"],
)
def test_binomials_refuse_what_numpy_refuses(n, p):
    with pytest.raises(ValueError):
        draw(RngStream(3), 10, n, p)
    if isinstance(n, int):
        with pytest.raises(ValueError):
            RngStream(3).generator().binomial(n, p)


# numpy's binomial takes its n as an int64, and would raise OverflowError at the first draw
test_engines_refuse_what_numpy_cannot_draw = refusal_cases({
    "thermalizing-size": "thermalizing-engine-size-beyond-int64", "fringe-bath-size": "fringe-bath-beyond-int64",
    "sampled-bath-size": "engine-sampled-bath-beyond-int64", "sampled-bath-shots": "engine-shots-beyond-int64"})
test_binomials_validate_the_count = refusal_cases({
    "-1": "binomials-negative-count", "4294967297": "binomials-count-beyond-stream",
    "2.5": "binomials-fractional-count", "True": "binomials-bool-count"})


# the groups of one multi-stream draw: p on both sides of 1/2, an inversion-regime
# group, n = 0, p = 0 and 1, and n from 10^2 to 10^5 as a shot-noise sweep has
MULTI_DRAW_GROUPS = [
    (200, 0.47), (5000, 0.83), (50, 0.3), (0, 0.4), (100, 0.0), (100, 1.0),
    (10**2, 0.45), (10**3, 0.45), (10**4, 0.45), (10**5, 0.45),
]


@pytest.mark.parametrize("mirrors", [True, False], ids=["kernel", "numpy-only"])
@pytest.mark.parametrize("count", [0, 1, 3, 400])
@pytest.mark.parametrize("stream", EDGE_STREAMS, ids=EDGE_STREAM_IDS)
def test_multi_stream_draw_matches_each_stream(stream, count, mirrors, monkeypatch):
    monkeypatch.setattr(_binomial, "MIRRORS_NUMPY", mirrors)
    # neighbouring stream indices of one master seed, wrapping below 2^96 so that
    # every substream index fits in 128 bits
    seed, index = stream.master_seed, stream.stream_index
    streams = [RngStream(seed, (index + g) % 2**96) for g in range(len(MULTI_DRAW_GROUPS))]
    draws = [(s, n, p) for s, (n, p) in zip(streams, MULTI_DRAW_GROUPS)]
    drawn = RngStream._binomials(count, draws)
    assert drawn.dtype == np.int64 and drawn.shape == (len(draws), count)
    for row, (s, n, p) in zip(drawn.tolist(), draws):
        assert row == draw(s, count, n, p).tolist() == [gen.binomial(n, p) for gen in s.generators(count)]


def test_kernel_draws_in_bounded_passes(monkeypatch):
    # passes of at most 9 substreams over the 3 BTPE groups take 2 or 3 substreams of each, so 25 trials
    # run in 9 passes; the first group's low counter word carries into word 3 inside the range
    key, count = 2**64 - 1, 25
    groups = [(2**64 - 5, 200, 0.47), (3 * 2**64 - 1, 5000, 0.83), (7 * 2**32, 10**4, 0.45), (2**40, 50, 0.3)]
    one_pass = _binomial.first_block_binomials(key, count, groups)
    passes, doubles = [], _binomial._philox_first_doubles

    def spy(key, bases, width):
        passes.append((len(bases), width))
        return doubles(key, bases, width)

    monkeypatch.setattr(_binomial, "_PASS", 9)
    monkeypatch.setattr(_binomial, "_philox_first_doubles", spy)
    counts, redraw = _binomial.first_block_binomials(key, count, groups)
    assert np.array_equal(counts, one_pass[0]) and np.array_equal(redraw, one_pass[1])
    widths = [width for _, width in passes]
    assert all(g * width <= 9 for g, width in passes) and max(widths) - min(widths) <= 1 and sum(widths) == count
    assert len(passes) == 9
    for (base, n, p), row, again in zip(groups, counts, redraw):
        loop = [gen.binomial(n, p) for gen in RngStream(key)._positioned(range(base, base + count))]
        assert np.where(again, loop, row).tolist() == loop
        assert again.all() == (n * p <= 30)  # numpy draws the whole inversion-regime group, the kernel the rest


@pytest.mark.parametrize("protocol", ["noon", "sn"])
def test_fixed_bath_sweep_draws_every_point_in_one_kernel_call(protocol, monkeypatch):
    calls = []
    kernel = _binomial.first_block_binomials

    def spy(key, count, groups):
        calls.append(len(groups))
        return kernel(key, count, groups)

    monkeypatch.setattr(_binomial, "first_block_binomials", spy)
    bath = BathSpec(100, 1.0, 1.0, max_theta(100, 32), 1.0)
    n_values = (2, 4, 8, 16, 32) if protocol == "noon" else (10**2, 10**3, 10**4, 10**5, 10**6)
    collect_sweep_records(SweepPlan(protocol, n_values, 200, 17, bath=bath, repetitions=200))
    assert calls == [5]


def test_first_block_carries_the_substream_index_into_word_3():
    # a stream's substream indices start at a multiple of 2**32, so no stream
    # wraps the low counter word; the kernel is still exact for a range that does
    key, count = 2**64 - 1, 1000
    groups = [(2**64 - 500, 200, 0.47), (3 * 2**64 - 1, 5000, 0.83)]
    counts, redraw = _binomial.first_block_binomials(key, count, groups)
    for (base, n, p), row, again in zip(groups, counts.tolist(), redraw.tolist()):
        loop = [gen.binomial(n, p) for gen in RngStream(key)._positioned(range(base, base + count))]
        kept = [t for t in range(count) if not again[t]]
        assert len(kept) > count * 0.8
        assert [row[t] for t in kept] == [loop[t] for t in kept]
