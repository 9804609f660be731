import base64
import json

import numpy as np
import pytest

from qelab.errors import LayoutError, MalformedKeyError
from qelab.quantum import basis_state, random_mixed_state, trace_distance
from qelab.rng import Stream
from qelab.schemes import PrfSymmetricScheme, SkeCiphertext
from qelab.serialize import (
    base64_to_bits,
    bits_to_base64,
    canonical_json,
    ciphertext_from_json,
    ciphertext_to_json,
    matrix_from_json,
    matrix_to_json,
    result_document,
    results_to_csv,
    state_from_json,
    state_to_json,
)


def test_matrix_round_trip_row_major_pairs():
    mat = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
    blob = matrix_to_json(mat)
    assert blob[0][1] == [0.0, 0.5]  # row-major [re, im] pairs
    assert np.max(np.abs(matrix_from_json(blob) - mat)) == 0.0


def test_matrix_zero_serializes_without_sign():
    mat = np.array([[complex(-0.0, -0.0), complex(0.5, -0.0)], [0.5, 0.5]])
    text = json.dumps(matrix_to_json(mat))
    assert "-0.0" not in text
    assert matrix_to_json(mat)[0] == [[0.0, 0.0], [0.5, 0.0]]


def test_state_round_trip():
    state = random_mixed_state(2, Stream(1))
    blob = state_to_json(state)
    back = state_from_json(blob)
    assert back.names == state.names
    assert trace_distance(back, state) < 1e-12


def test_bit_packing():
    bits = "101100111000"
    assert base64_to_bits(bits_to_base64(bits), len(bits)) == bits
    assert bits_to_base64("") == ""
    with pytest.raises(MalformedKeyError):
        bits_to_base64("10a")
    with pytest.raises(MalformedKeyError):
        base64_to_bits(bits_to_base64("10"), 99)


def test_bit_packing_round_trips_every_length_up_to_17():
    for length in range(18):
        for bits in {"0" * length, "1" * length, ("10" * 9)[:length]}:
            blob = bits_to_base64(bits)
            assert len(base64.b64decode(blob)) == -(-length // 8)
            assert base64_to_bits(blob, length) == bits


@pytest.mark.parametrize("length", [-3, -1, 2.0, "8", None, True])
def test_a_tag_length_that_is_not_a_non_negative_int_is_refused(length):
    with pytest.raises(MalformedKeyError, match="non-negative integer"):
        base64_to_bits(bits_to_base64("10110011"), length)


def test_tag_bytes_must_be_exactly_what_the_length_needs():
    blob = bits_to_base64("10110011" + "1")  # two bytes
    assert base64_to_bits(blob, 9) == "101100111"
    for length in (8, 0, 17):
        with pytest.raises(MalformedKeyError, match="holds 2 bytes, not"):
            base64_to_bits(blob, length)


def test_nonzero_padding_bits_are_refused():
    blob = bits_to_base64("10110011")
    assert base64_to_bits(blob, 8) == "10110011"
    with pytest.raises(MalformedKeyError, match="padding"):
        base64_to_bits(blob, 5)  # "011" would be dropped


@pytest.mark.parametrize("data", ["not base64!", "QQ", "é", 42])
def test_a_tag_that_is_not_base64_is_refused(data):
    with pytest.raises(MalformedKeyError, match="not base64"):
        base64_to_bits(data, 8)


def test_a_ciphertext_with_a_negative_tag_length_is_refused():
    blob = ciphertext_to_json(SkeCiphertext("10", basis_state("1")))
    ciphertext_from_json(blob, SkeCiphertext)
    blob["tag_len"] = -2
    with pytest.raises(MalformedKeyError):
        ciphertext_from_json(blob, SkeCiphertext)


_BLOB = {"tag_b64": "gA==", "tag_len": 2,
         "payload": {"layout": [["M", 1]], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}}
_PAYLOAD = _BLOB["payload"]


@pytest.mark.parametrize(
    "read, blob, error, message",
    [
        (ciphertext_from_json, {}, MalformedKeyError, "'tag_b64' must be a str"),
        (ciphertext_from_json, [], MalformedKeyError, "'tag_b64' must be a str"),
        (ciphertext_from_json, {**_BLOB, "tag_b64": 7}, MalformedKeyError, "'tag_b64' must be"),
        (ciphertext_from_json, {**_BLOB, "tag_len": None}, MalformedKeyError, "'tag_len' must"),
        (ciphertext_from_json, {"tag_b64": "gA==", "tag_len": 2}, MalformedKeyError,
         "'payload' must be a dict"),
        (ciphertext_from_json, {**_BLOB, "payload": "x"}, MalformedKeyError, "'payload' must"),
        (ciphertext_from_json, {**_BLOB, "payload": {}}, LayoutError, "'matrix' must be a list"),
        (state_from_json, {}, LayoutError, "'matrix' must be a list"),
        (state_from_json, {**_PAYLOAD, "matrix": "x"}, LayoutError, "'matrix' must be a list"),
        (state_from_json, {**_PAYLOAD, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}, LayoutError,
         "square list of rows"),
        (state_from_json, {**_PAYLOAD, "matrix": [[[1, 0], [0, 0]], [[0, 0], "x"]]},
         LayoutError, "not a finite [re, im] pair"),
        (state_from_json, {**_PAYLOAD, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, True]]]},
         LayoutError, "not a finite [re, im] pair"),
        (state_from_json, {**_PAYLOAD, "matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]},
         LayoutError, "not a finite [re, im] pair"),
        (state_from_json, {"matrix": _PAYLOAD["matrix"]}, LayoutError, "'layout' must be a list"),
        (state_from_json, {**_PAYLOAD, "layout": 5}, LayoutError, "'layout' must be a list"),
        (state_from_json, {**_PAYLOAD, "layout": [["M", "x"]]}, LayoutError,
         "not a [name, qubits] pair"),
        (state_from_json, {**_PAYLOAD, "layout": [["M", 2]]}, LayoutError,
         "does not match layout"),
    ],
    ids=["ct-empty", "ct-not-a-dict", "ct-tag-not-str", "ct-no-tag-len", "ct-no-payload",
         "ct-payload-not-dict", "ct-payload-empty", "state-empty", "state-matrix-str",
         "state-matrix-ragged", "state-entry-str", "state-entry-bool", "state-entry-nan",
         "state-no-layout", "state-layout-int", "state-layout-qubits-str",
         "state-layout-too-big"],
)
def test_a_missing_or_malformed_wire_field_is_refused(read, blob, error, message):
    with pytest.raises(error) as err:
        read(blob)
    assert message in str(err.value)


def test_ciphertext_round_trip():
    scheme = PrfSymmetricScheme(2, 1, setup_rng=Stream(2).child("s"))
    kp = scheme.keygen(Stream(3).child("kg"))
    ct = scheme.encrypt(kp.ek, basis_state("1"), Stream(4).child("enc"))
    blob = ciphertext_to_json(ct)
    restored = ciphertext_from_json(blob, SkeCiphertext)
    assert isinstance(restored, SkeCiphertext)
    assert restored.tag == ct.tag
    assert trace_distance(scheme.decrypt(kp.dk, restored), basis_state("1")) < 1e-9


def test_result_document_and_canonical_json():
    doc = result_document("game", {"seed": 1}, [{"b": 2, "a": 1}], True)
    text = canonical_json(doc)
    assert text.endswith("\n")
    assert text == canonical_json(json.loads(text))  # stable fixed point
    assert text.index('"a"') < text.index('"b"')  # sorted keys


def test_csv_mirror_flattens_scalars():
    doc = result_document(
        "demo",
        {},
        [{"x": 1, "y": 0.5, "nested": {"skip": True}}, {"x": 2, "label": "ok"}],
        True,
    )
    csv_text = results_to_csv(doc)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "command,label,x,y"
    assert len(lines) == 3
    assert results_to_csv(result_document("demo", {}, [], True)) == ""
