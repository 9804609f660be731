from fractions import Fraction

import numpy as np
import pytest

from qelab.rng import Stream


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
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    stream = Stream(7).child("a").child("b")
    assert built == []
    stream.bits(8)
    assert len(built) == 1
    stream.integer(5)
    stream.uniform()
    stream.numpy()
    assert len(built) == 1  # later draws reuse the generator


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
