import numpy as np
import pytest

from thermoscale.rng import RngStream


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


def test_generators_match_fresh_construction():
    stream = RngStream(2024, 5)
    fast = [gen.binomial(50, 0.3) for gen in stream.generators(500)]
    slow = [stream.substream(i).generator().binomial(50, 0.3) for i in range(500)]
    assert fast == slow


# consumers that leave the shared Philox mid-block or with a buffered 32-bit half
# word, so a stale buffer carried into the next trial changes its draws
POSITIONING_CONSUMERS = {
    "binomial": lambda gen: [int(gen.binomial(50, 0.3))],
    "partial block": lambda gen: gen.random(5).tolist(),
    "buffered half word": lambda gen: [int(gen.integers(0, 2**32, dtype=np.uint32)), gen.random()],
}


@pytest.mark.parametrize("consumer", POSITIONING_CONSUMERS.values(), ids=list(POSITIONING_CONSUMERS))
@pytest.mark.parametrize(
    "stream",
    # top-bit keys, and a base index whose substreams set counter words 2 and 3
    [RngStream(2**64 - 1, 3), RngStream(2**63 + 5), RngStream(7, 2**96 - 1)],
    ids=["seed-2^64-1", "seed-2^63+5", "index-2^96-1"],
)
def test_generators_reposition_exactly(stream, consumer):
    fast = [consumer(gen) for gen in stream.generators(40)]
    slow = [consumer(stream.substream(i).generator()) for i in range(40)]
    assert fast == slow


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


def test_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(0, 2**128)
    with pytest.raises(ValueError):
        RngStream(0).substream(2**32)
    with pytest.raises(ValueError):
        RngStream(0).substream(-1)


@pytest.mark.parametrize(
    "stream, count",
    # a negative count, ranges running past the last 128-bit index, and a count
    # whose position 2^32 would be substream 0 of the next stream
    [
        (RngStream(0), -1),
        (RngStream(0, 2**96 - 1), 2**32 + 1),
        (RngStream(0, 2**96), 1),
        (RngStream(9, 0), 2**32 + 1),
    ],
    ids=["negative count", "beyond 2^128", "one past 2^128", "into the next stream"],
)
def test_generators_validate_at_the_call(stream, count):
    # the error comes from the call itself, before any next()
    with pytest.raises(ValueError):
        stream.generators(count)
