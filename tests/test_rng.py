import gc
import hashlib
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab.errors import ParameterError
from qelab.rng import Stream, is_bitstring


def test_same_seed_same_output():
    assert Stream(7).bits(64) == Stream(7).bits(64)
    assert Stream(7).child("a").bits(32) == Stream(7).child("a").bits(32)


def test_children_are_independent_of_call_order():
    s = Stream(3)
    early = s.child("x")  # made before the parent's first draw, drawn after it
    first = s.child("x").bits(16)
    s.bits(100)  # drawing from the parent must not disturb the child
    assert s.child("x").bits(16) == first
    assert early.bits(16) == first


def test_distinct_labels_distinct_streams():
    s = Stream(9)
    assert s.child("a").bits(64) != s.child("b").bits(64)
    assert Stream(1).bits(64) != Stream(2).bits(64)


@pytest.mark.parametrize("label", ["", "a/b", "/", "b/"])
def test_a_label_that_would_alias_another_path_is_refused(label):
    # The key hashes the "/"-joined path: child("a/b") would be child("a").child("b"),
    # and child("") the parent itself.
    with pytest.raises(ParameterError, match="non-empty and free of '/'"):
        Stream(7).child("a").child(label)
    with pytest.raises(ParameterError, match="non-empty and free of '/'"):
        Stream(7, ("a", label, "c"))
    assert Stream(7, ("a", "b")).bits(64) == Stream(7).child("a").child("b").bits(64)


def test_integer_bounds():
    s = Stream(11)
    draws = [s.integer(5) for _ in range(200)]
    assert set(draws) <= {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        s.integer(0)


def test_seed_range_checked():
    with pytest.raises(ValueError):
        Stream(-1)
    with pytest.raises(ValueError):
        Stream(2**64)


def test_bernoulli_fraction_edges():
    s = Stream(5)
    assert not any(s.bernoulli(Fraction(0)) for _ in range(50))
    assert all(s.bernoulli(Fraction(1)) for _ in range(50))
    hits = sum(s.child(f"c{i}").bernoulli(Fraction(1, 4)) for i in range(4000))
    assert 800 < hits < 1200  # ~1000 expected


def test_bits_are_roughly_balanced():
    draws = Stream(13).bits(10_000)
    ones = draws.count("1")
    assert 4800 < ones < 5200  # 4 sigma is +-200


# Known answers, pinned so stream derivation is fixed across commits and not
# only within one process.  A change here changes every sampled report.


def test_known_answer_bits():
    assert Stream(7).bits(64) == (
        "1111100110001011110011100101100100000001000011010100110010100101"
    )


def test_known_answer_child_integer():
    assert Stream(7).child("real").child("t0").integer(1000) == 962


def test_known_answer_child_uniform():
    assert Stream(7).child("real").uniform() == 0.630382031374285


def test_known_answer_numpy_normal():
    draws = Stream(7).child("a").numpy().normal(size=3)
    assert draws.tolist() == [-1.2803307831431803, 1.005234310461683, 0.0509108946040761]


def test_philox_is_built_on_first_draw_only(monkeypatch):
    Stream(1).bits(1)  # make sure this thread's scratch generator exists
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    stream = Stream(7).child("a").child("b")
    assert built == []  # a parent-only stream builds none
    stream.bits(8)
    stream.integer(5)
    stream.uniform()
    Stream(7).child("c").integer(3)
    assert built == []  # draws load their state into the thread's scratch
    stream.numpy()
    assert len(built) == 1  # numpy() hands out a private generator, once
    stream.bits(8)
    stream.integer(5)
    stream.numpy().normal()
    assert len(built) == 1  # later draws reuse it


@pytest.mark.parametrize("p", [0.0, 1.0, Fraction(0), Fraction(1)])
def test_certain_bernoulli_builds_no_philox(monkeypatch, p):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    assert Stream(7).child("flip").bernoulli(p) == (p >= 1)
    assert built == []


# Every stream draws through one scratch Philox per thread.  These check it
# against a reference that builds one generator per stream, as `Philox(key)`
# over the stream's SHA-256 key.


def _reference(seed: int, path: tuple[str, ...]) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}|{'/'.join(path)}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], np.uint64)))


def _draw(op: str, arg: int, gen_or_stream):
    """One draw by `op`, from a Stream or from a reference Generator."""
    if isinstance(gen_or_stream, Stream):
        stream = gen_or_stream
        if op == "bits":
            return stream.bits(arg)
        if op == "integer":
            return stream.integer(arg)
        if op == "uniform":
            return stream.uniform()
        return float(stream.numpy().normal())
    gen = gen_or_stream
    if op == "bits":
        return "".join("1" if b else "0" for b in gen.integers(0, 2, size=arg)) if arg else ""
    if op == "integer":
        return int(gen.integers(0, arg))
    if op == "uniform":
        return float(gen.random())
    return float(gen.normal())


_OPS = st.one_of(
    st.tuples(st.just("bits"), st.integers(0, 70)),
    st.tuples(st.just("integer"), st.integers(1, 2**40)),
    st.tuples(st.just("uniform"), st.just(0)),
    st.tuples(st.just("normal"), st.just(0)),
    st.tuples(st.just("child"), st.integers(0, 3)),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    live=st.integers(2, 4),
    steps=st.lists(st.tuples(st.integers(0, 15), _OPS), min_size=1, max_size=40),
)
def test_interleaved_draws_match_one_generator_per_stream(seed, live, steps):
    streams = [Stream(seed, (f"s{i}",)) for i in range(live)]
    refs = [_reference(seed, s.path) for s in streams]
    for pick, (op, arg) in steps:
        i = pick % len(streams)
        if op == "child":
            child = streams[i].child(f"c{arg}")
            # Replacing a stream drops it, so its owner may die mid-sequence.
            slot = (i + 1) % len(streams)
            streams[slot], refs[slot] = child, _reference(seed, child.path)
            continue
        assert _draw(op, arg, streams[i]) == _draw(op, arg, refs[i])


def test_threads_draw_interleaved_as_one_thread_would():
    ops = [("bits", 5), ("integer", 1000), ("uniform", 0), ("bits", 67), ("integer", 3)] * 20
    labels = ("a", "b", "c", "d")  # more threads than cores

    def run(label, barrier=None):
        streams = [Stream(11, (label, str(k))) for k in range(3)]
        out = []
        for n, (op, arg) in enumerate(ops):
            out.append(_draw(op, arg, streams[n % 3]))
            if barrier is not None:
                barrier.wait(timeout=30)  # every thread draws before any draws again
        return out

    expected = {label: run(label) for label in labels}
    barrier = threading.Barrier(len(labels))
    got = {}
    threads = [
        threading.Thread(target=lambda label=label: got.setdefault(label, run(label, barrier)))
        for label in labels
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_dropped_owner_leaves_the_next_stream_intact():
    owner = Stream(5).child("owner")
    owner.bits(10)
    del owner
    gc.collect()
    # A stream with the dead owner's path starts fresh, not where it stopped.
    assert Stream(5).child("owner").bits(10) == _draw("bits", 10, _reference(5, ("owner",)))
    other = Stream(5).child("other")
    ref = _reference(5, ("other",))
    assert [other.integer(99) for _ in range(5)] == [_draw("integer", 99, ref) for _ in range(5)]


def test_numpy_continues_where_the_draws_left_off():
    stream, ref = Stream(3).child("n"), _reference(3, ("n",))
    assert stream.bits(9) == _draw("bits", 9, ref)
    Stream(3).child("other").uniform()  # takes the scratch, saving the state
    assert stream.integer(7) == _draw("integer", 7, ref)
    gen = stream.numpy()
    assert gen.normal() == ref.normal()
    assert stream.uniform() == ref.random()  # later draws use the same generator
    assert gen.normal() == ref.normal()


def test_a_stream_loaded_in_another_thread_refuses_to_draw():
    stream = Stream(4).child("shared")
    worker = threading.Thread(target=stream.bits, args=(3,))
    worker.start()
    worker.join()
    with pytest.raises(RuntimeError, match="another thread"):
        stream.bits(3)


# `bits` reads raw Philox outputs on a fresh stream with an even count and
# calls numpy's `integers(0, 2)` otherwise.  Both must give numpy's bits.


def _numpy_bits(gen: np.random.Generator, k: int) -> str:
    return "".join(map(str, gen.integers(0, 2, size=k).tolist()))


_PRELUDE = st.lists(
    st.one_of(
        # A bound below 2^32 and an odd bit count each leave a buffered half word.
        st.tuples(st.just("integer"), st.integers(1, 2**32)),
        st.tuples(st.just("integer"), st.integers(2**32 + 1, 2**63)),
        st.tuples(st.just("uniform"), st.just(0)),
        st.tuples(st.just("bits"), st.integers(1, 9)),
    ),
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    prelude=_PRELUDE,
    displaced=st.booleans(),
    counts=st.lists(st.integers(1, 70), min_size=1, max_size=4),
    cross_thread=st.booleans(),
)
def test_bits_match_numpy_integers(seed, prelude, displaced, counts, cross_thread):
    stream = Stream(seed, ("bits",))
    ref = _reference(seed, stream.path)
    for op, arg in prelude:  # an empty prelude leaves the stream fresh
        assert _draw(op, arg, stream) == _draw(op, arg, ref)
    if displaced:
        Stream(seed, ("other",)).bits(2)  # takes the scratch, saving the stream's state
    for k in counts:
        assert stream.bits(k) == _numpy_bits(ref, k)
    # Both end in the same state, buffered half word included.
    assert stream.integer(2**20) == int(ref.integers(0, 2**20))
    assert stream.uniform() == float(ref.random())
    if cross_thread:
        fresh = Stream(seed, ("thread",))
        worker = threading.Thread(target=fresh.bits, args=(2 * counts[0],))
        worker.start()
        worker.join()
        with pytest.raises(RuntimeError, match="another thread"):
            fresh.bits(2 * counts[0])


def test_even_count_on_a_fresh_stream_reads_raw_outputs(monkeypatch):
    from qelab import rng

    scratch = rng._scratch()
    monkeypatch.setattr(scratch, "gen", None)  # numpy's path would fail now
    assert Stream(7).bits(64) == _numpy_bits(_reference(7, ()), 64)
    with pytest.raises(AttributeError):
        Stream(7).bits(63)


def test_negative_bit_count_is_refused_by_name():
    with pytest.raises(ValueError, match="bit count must be non-negative, got -2"):
        Stream(1).bits(-2)


def _rejection_reference(gen: np.random.Generator, bound: int) -> int:
    width = (bound - 1).bit_length()
    words = -(-width // 64)
    while True:
        value = 0
        for word in gen.bit_generator.random_raw(words).tolist():
            value = value << 64 | word
        value >>= 64 * words - width
        if value < bound:
            return value


@pytest.mark.parametrize("bound", [2**63 + 1, 3 * 2**62, 2**64, 2**64 + 1, 2**130 - 3])
def test_integer_above_two_to_the_63_draws_by_rejection(bound):
    stream, ref = Stream(21).child("big"), _reference(21, ("big",))
    draws = [stream.integer(bound) for _ in range(20)]
    assert draws == [_rejection_reference(ref, bound) for _ in range(20)]
    assert all(0 <= d < bound for d in draws)
    assert stream.uniform() == float(ref.random())


@pytest.mark.parametrize("bound", [1, 2, 2**32, 2**32 + 1, 2**62 + 7, 2**63])
def test_integer_up_to_two_to_the_63_keeps_numpys_draw(bound):
    stream, ref = Stream(22).child("small"), _reference(22, ("small",))
    assert [stream.integer(bound) for _ in range(20)] == [
        int(ref.integers(0, bound)) for _ in range(20)
    ]


def test_exact_bernoulli_with_a_wide_denominator():
    p = Fraction(1, 3 * 2**62)
    flips = [Stream(23).child(f"c{i}").bernoulli(p) for i in range(200)]
    assert flips == [Stream(23).child(f"c{i}").bernoulli(p) for i in range(200)]
    assert not any(flips)  # each is 1 with probability 2^-63.6
    assert Stream(23).bernoulli(Fraction(3 * 2**62 - 1, 3 * 2**62))


@pytest.mark.parametrize("bits", ["", "0", "0110", "012", "a", " 01", "01 ", "1\n",
                                  ["0", "1"], ["01"], ("1", "2"), []])
def test_is_bitstring_agrees_with_the_elementwise_check(bits):
    assert is_bitstring(bits) == (not any(b not in "01" for b in bits))


@pytest.mark.parametrize("bits", [None, 5, b"01"])
def test_is_bitstring_raises_like_the_elementwise_check(bits):
    with pytest.raises(TypeError) as elementwise:
        any(b not in "01" for b in bits)
    with pytest.raises(TypeError) as helper:
        is_bitstring(bits)
    assert str(helper.value) == str(elementwise.value)
