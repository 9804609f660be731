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
    # Draws hash the "/"-joined path: child("a/b") would be child("a").child("b"),
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


@pytest.mark.parametrize("bad", [7.9, 7.0, "7", True, False, np.True_, None])
@pytest.mark.parametrize("where", ["seed", "bits", "integer"])
def test_non_integer_arguments_are_refused_before_any_draw(where, bad):
    stream = Stream(7).child("strict")
    twin = Stream(7).child("strict")
    with pytest.raises(ParameterError, match="must be an integer"):
        if where == "seed":
            Stream(bad)
        elif where == "bits":
            stream.bits(bad)
        else:
            stream.integer(bad)
    assert stream.bits(64) == twin.bits(64)  # the refusal drew nothing


@pytest.mark.parametrize("value", [np.int64(5), np.uint8(5), np.uint64(5)])
def test_numpy_integers_are_accepted(value):
    assert Stream(value).bits(64) == Stream(5).bits(64)
    assert len(Stream(1).bits(value)) == 5
    assert 0 <= Stream(1).integer(value) < 5


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
        "0100100100111010100110101101101111001110000110101110110100100010"
    )
    # the root stream's first 256 bits are its first SHA-256 block
    digest = hashlib.sha256(b"7||" + bytes(8)).digest()
    assert Stream(7).bits(256) == "".join(f"{byte:08b}" for byte in digest)


def test_known_answer_child_integer():
    assert Stream(7).child("real").child("t0").integer(1000) == 622


def test_known_answer_child_uniform():
    assert Stream(7).child("real").uniform() == 0.8041484514794854


def test_known_answer_numpy_normal():
    draws = Stream(7).child("a").numpy().normal(size=3)
    assert draws.tolist() == [-0.6561569050084816, 0.6126139079774412, 0.09085328881797101]


def test_known_answer_rejected_first_draw():
    # The first two 3-bit draws on this path read 5 and 7, both at or above
    # the bound, so `integer(5)` rejects twice and returns the third, 3.
    assert Stream(7).child("reject").child("r1").bits(9) == "101111011"
    assert Stream(7).child("reject").child("r1").integer(5) == 3


def test_philox_is_built_on_first_draw_only(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    stream = Stream(7).child("a").child("b")
    stream.bits(8)
    stream.integer(5)
    stream.uniform()
    Stream(7).child("c").integer(3)
    assert built == []  # draws hash; only numpy() builds a Philox
    stream.numpy()
    assert len(built) == 1
    stream.bits(8)
    stream.integer(5)
    stream.numpy().normal()
    assert len(built) == 1  # later draws and calls reuse it


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


class _Reference:
    """Derivation v2 from its definition, one str of bits at a time.

    The stream is the concatenation of SHA-256(prefix + 8-byte counter) for
    counter 0, 1, 2, ..., each digest written out bit by bit.
    """

    def __init__(self, seed: int, path: tuple[str, ...]):
        self.prefix = f"{seed}|{'/'.join(path)}|".encode()
        self.stream = ""
        self.read = 0
        self.gen = None

    def next_bits(self, count: int) -> str:
        while len(self.stream) < self.read + count:
            counter = (len(self.stream) // 256).to_bytes(8, "big")
            digest = hashlib.sha256(self.prefix + counter).digest()
            self.stream += "".join(f"{byte:08b}" for byte in digest)
        self.read += count
        return self.stream[self.read - count : self.read]

    def integer(self, bound: int) -> int:
        while True:
            value = int(self.next_bits((bound - 1).bit_length()) or "0", 2)
            if value < bound:
                return value

    def numpy(self) -> np.random.Generator:
        if self.gen is None:
            key = int(self.next_bits(128), 2)
            self.gen = np.random.Generator(np.random.Philox(key=key))
        return self.gen


def _draw(op: str, arg: int, stream):
    """One draw by `op`, from a Stream or from its `_Reference`."""
    if op == "bits":
        return stream.bits(arg) if isinstance(stream, Stream) else stream.next_bits(arg)
    if op == "integer":
        return stream.integer(arg)
    if op == "uniform":
        if isinstance(stream, Stream):
            return stream.uniform()
        return int(stream.next_bits(53), 2) / 2**53
    return float(stream.numpy().normal())


_OPS = st.one_of(
    st.tuples(st.just("bits"), st.integers(0, 300)),
    st.tuples(st.just("integer"), st.integers(1, 2**70)),
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
    refs = [_Reference(seed, s.path) for s in streams]
    for pick, (op, arg) in steps:
        i = pick % len(streams)
        if op == "child":
            child = streams[i].child(f"c{arg}")
            slot = (i + 1) % len(streams)
            streams[slot], refs[slot] = child, _Reference(seed, child.path)
            continue
        assert _draw(op, arg, streams[i]) == _draw(op, arg, refs[i])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    label=st.text(st.characters(codec="utf-8", exclude_characters="/"), min_size=1, max_size=8),
    a=st.integers(0, 600),
    b=st.integers(0, 600),
)
def test_split_draws_concatenate(seed, label, a, b):
    # Draws read one bit string: how it is split, across 256-bit blocks
    # included, does not change the bits.
    s, t = Stream(seed).child(label), Stream(seed).child(label)
    assert s.bits(a) + s.bits(b) == t.bits(a + b)


# Chi-square quantiles at 1 - 1e-6 for (bins - 1) degrees of freedom, fixed
# before any draw was counted: a uniform `integer` fails one bound with
# probability 1e-6.
_CHI2_LIMIT = {3: 27.63, 10: 44.81, 1000: 1226.05, 2**64 + 1: 56.49}


@pytest.mark.parametrize("bound", sorted(_CHI2_LIMIT))
def test_integer_is_uniform_at_bounds_that_are_not_powers_of_two(bound):
    bins = bound if bound <= 1000 else 16
    counts = [0] * bins
    draws = 40_000
    for seed in (1, 2, 3, 4):
        stream = Stream(seed).child("chi2")
        for _ in range(draws // 4):
            counts[stream.integer(bound) * bins // bound] += 1
    expected = draws / bins  # 2^64 + 1 splits into 16 bins equal to within 1 in 2^60
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < _CHI2_LIMIT[bound]


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


def test_numpy_continues_where_the_draws_left_off():
    stream, ref = Stream(3).child("n"), _Reference(3, ("n",))
    assert stream.bits(9) == ref.next_bits(9)
    assert stream.integer(7) == ref.integer(7)
    gen = stream.numpy()  # keyed by the stream's next 128 bits
    assert gen.normal() == ref.numpy().normal()
    assert stream.uniform() == _draw("uniform", 0, ref)  # draws go on after the key
    assert stream.numpy() is gen
    assert gen.normal() == ref.numpy().normal()


def test_negative_bit_count_is_refused_by_name():
    with pytest.raises(ValueError, match="bit count must be non-negative, got -2"):
        Stream(1).bits(-2)


@pytest.mark.parametrize("bound", [2**63 + 1, 3 * 2**62, 2**64, 2**64 + 1, 2**130 - 3])
def test_integer_above_two_to_the_63_draws_by_rejection(bound):
    stream, ref = Stream(21).child("big"), _Reference(21, ("big",))
    draws = [stream.integer(bound) for _ in range(20)]
    assert draws == [ref.integer(bound) for _ in range(20)]
    assert all(0 <= d < bound for d in draws)
    assert stream.uniform() == _draw("uniform", 0, ref)


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
