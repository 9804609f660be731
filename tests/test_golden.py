"""Golden reports: every README command and every benchmark command at seed 7.

Each `tests/data/golden/<name>.json` holds the canonical JSON report that
`qelab <argv>` printed when the file was committed.  The files pin report
bytes across commits, so a change that moves a single draw, float or key
order fails here.  Regenerate them only in a change that means to alter
reports (for example a new stream derivation), and say so in that change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from qelab import __version__
from qelab.cli import main
from qelab.rng import STREAM_VERSION

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
PINNED_DIR = Path(__file__).parent / "data" / "pinned"
REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.py"

GOLDEN = {
    # README.md, "CLI" section.
    "list": ["list"],
    "correctness-ske-prf-q2": [
        "correctness", "--scheme", "ske-prf", "--n", "2", "--qubits", "2",
        "--keys", "20", "--seed", "7",
    ],
    "qotp-mix-q3": ["qotp-mix", "--qubits", "3", "--seed", "7"],
    "game-ind-identity-exact": [
        "game", "--game", "ind", "--scheme", "identity", "--n", "1", "--qubits", "1",
        "--exact", "--seed", "7",
    ],
    "game-ind-cpa-ske-constprf": [
        "game", "--game", "ind-cpa", "--scheme", "ske-constprf", "--n", "2",
        "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "game-sem-ske-prf-copy-vs-sim": [
        "game", "--game", "sem", "--scheme", "ske-prf", "--adversary", "copy-vs-sim",
        "--n", "2", "--qubits", "1", "--seed", "7",
    ],
    "reduce-sem-to-ind-identity-exact": [
        "reduce", "--reduction", "sem-to-ind", "--scheme", "identity", "--n", "1",
        "--qubits", "1", "--exact", "--seed", "7",
    ],
    "reduce-cca1-to-prf-ske-constprf": [
        "reduce", "--reduction", "cca1-to-prf", "--scheme", "ske-constprf", "--n", "2",
        "--qubits", "1", "--seed", "7",
    ],
    # perfbench workloads exact-ske-q3 and sample-mix.  The sample-mix
    # `correctness --scheme ske-prf --qubits 2`, `qotp-mix --qubits 3` and
    # `game --game sem` commands are the README ones above.
    "game-ind-ske-prf-q3-exact": [
        "game", "--game", "ind", "--scheme", "ske-prf", "--n", "2", "--qubits", "3",
        "--exact", "--seed", "7",
    ],
    "game-ind-cpa-ske-prf-q2": [
        "game", "--game", "ind-cpa", "--scheme", "ske-prf", "--adversary", "readout",
        "--n", "2", "--qubits", "2", "--trials", "2000", "--seed", "7",
    ],
    "game-ind-pke-towp-n6": [
        "game", "--game", "ind", "--scheme", "pke-towp", "--adversary", "readout",
        "--n", "6", "--qubits", "1", "--trials", "2000", "--seed", "7",
    ],
    "game-sem2-ske-prf": [
        "game", "--game", "sem2", "--scheme", "ske-prf", "--adversary", "copy-vs-sim",
        "--n", "2", "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "game-sem3-ske-prf": [
        "game", "--game", "sem3", "--scheme", "ske-prf", "--adversary", "transcript-sim",
        "--n", "2", "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "reduce-cca1-to-prf-ske-prf": [
        "reduce", "--reduction", "cca1-to-prf", "--scheme", "ske-prf", "--n", "2",
        "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "correctness-pke-towp-n4": [
        "correctness", "--scheme", "pke-towp", "--n", "4", "--qubits", "1",
        "--keys", "20", "--seed", "7",
    ],
    # Each game arm and reduction arm in each mode it runs in, so a
    # change to how an arm is written or played shows in report bytes.
    "game-ind-prime-ske-prf": [
        "game", "--game", "ind-prime", "--scheme", "ske-prf", "--n", "2",
        "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "game-ind-prime-ske-prf-q2-exact": [
        "game", "--game", "ind-prime", "--scheme", "ske-prf", "--n", "2",
        "--qubits", "2", "--exact", "--seed", "7",
    ],
    "game-ind-cca1-ske-constprf": [
        "game", "--game", "ind-cca1", "--scheme", "ske-constprf", "--n", "2",
        "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "game-ind-pke-towp-n4-exact": [
        "game", "--game", "ind", "--scheme", "pke-towp", "--n", "4", "--qubits", "1",
        "--exact", "--seed", "7",
    ],
    "game-sem-ske-prf-copy-vs-sim-exact": [
        "game", "--game", "sem", "--scheme", "ske-prf", "--adversary", "copy-vs-sim",
        "--n", "2", "--qubits", "1", "--exact", "--seed", "7",
    ],
    "game-sem2-ske-prf-copy-vs-sim-exact": [
        "game", "--game", "sem2", "--scheme", "ske-prf", "--adversary", "copy-vs-sim",
        "--n", "2", "--qubits", "1", "--exact", "--seed", "7",
    ],
    "game-sem3-ske-prf-transcript-sim-exact": [
        "game", "--game", "sem3", "--scheme", "ske-prf", "--adversary", "transcript-sim",
        "--n", "2", "--qubits", "1", "--exact", "--seed", "7",
    ],
    "reduce-ind-to-sem-ske-prf": [
        "reduce", "--reduction", "ind-to-sem", "--scheme", "ske-prf", "--n", "2",
        "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "reduce-qotp-to-prg": [
        "reduce", "--reduction", "qotp-to-prg", "--n", "2", "--qubits", "1",
        "--trials", "1000", "--seed", "7",
    ],
    "reduce-qotp-to-prg-exact": [
        "reduce", "--reduction", "qotp-to-prg", "--n", "2", "--qubits", "1",
        "--exact", "--seed", "7",
    ],
    "reduce-cca1-to-prf-ske-prf-exact": [
        "reduce", "--reduction", "cca1-to-prf", "--scheme", "ske-prf", "--n", "2",
        "--qubits", "1", "--trials", "1000", "--exact", "--seed", "7",
    ],
    # Generated after the exact bound check stopped adding a float slack.
    "reduce-ind-to-sem-ske-prf-exact": [
        "reduce", "--reduction", "ind-to-sem", "--scheme", "ske-prf", "--n", "2",
        "--qubits", "1", "--exact", "--seed", "7",
    ],
    # The zero-encryption simulator's public-key route, in each mode.
    "game-sem-pke-towp-n4-copy-vs-sim-exact": [
        "game", "--game", "sem", "--scheme", "pke-towp", "--adversary", "copy-vs-sim",
        "--n", "4", "--qubits", "1", "--exact", "--seed", "7",
    ],
    "game-sem-pke-towp-n4-copy-vs-sim": [
        "game", "--game", "sem", "--scheme", "pke-towp", "--adversary", "copy-vs-sim",
        "--n", "4", "--qubits", "1", "--seed", "7",
    ],
    # Exact ind with each tag-blind distinguisher, whose per-pad values
    # exact enumeration may share between tags, and the exact-pke-n6
    # benchmark command, whose thousands of tags share at most four pads.
    "game-ind-pke-towp-n6-exact": [
        "game", "--game", "ind", "--scheme", "pke-towp", "--n", "6", "--qubits", "1",
        "--exact", "--seed", "7",
    ],
    "game-ind-ske-prf-bell-readout-exact": [
        "game", "--game", "ind", "--scheme", "ske-prf", "--adversary", "bell-readout",
        "--n", "2", "--qubits", "1", "--exact", "--seed", "7",
    ],
    "game-ind-ske-prf-coin-exact": [
        "game", "--game", "ind", "--scheme", "ske-prf", "--adversary", "coin",
        "--n", "2", "--qubits", "1", "--exact", "--seed", "7",
    ],
    "game-ind-ske-prf-constant-one-exact": [
        "game", "--game", "ind", "--scheme", "ske-prf", "--adversary", "constant-one",
        "--n", "2", "--qubits", "1", "--exact", "--seed", "7",
    ],
    # Sampled paths no command above covers: an odd-length key draw, the
    # entangled message and the lazily sampled random function.
    "game-ind-ske-prf-n3": [
        "game", "--game", "ind", "--scheme", "ske-prf", "--n", "3", "--qubits", "1",
        "--trials", "1000", "--seed", "7",
    ],
    "game-ind-ske-prf-bell-readout": [
        "game", "--game", "ind", "--scheme", "ske-prf", "--adversary", "bell-readout",
        "--n", "2", "--qubits", "1", "--trials", "1000", "--seed", "7",
    ],
    "game-ind-ske-randomfn": [
        "game", "--game", "ind", "--scheme", "ske-randomfn", "--n", "2", "--qubits", "1",
        "--trials", "1000", "--seed", "7",
    ],
    # A two-qubit pke-towp round trip over thousands of tags, whose
    # decryption pads `roundtrip_map` computes.
    "correctness-pke-towp-n7-q2": [
        "correctness", "--scheme", "pke-towp", "--n", "7", "--qubits", "2",
        "--keys", "1", "--seed", "7",
    ],
    # The semantic bundles whose simulator is a fixed channel, in each mode.
    **{
        f"game-{game}-ske-prf-{bundle}{suffix}": [
            "game", "--game", game, "--scheme", "ske-prf", "--adversary", bundle,
            "--n", "2", "--qubits", "1", "--trials", "1000", *flags, "--seed", "7",
        ]
        for game, bundle in (
            ("sem", "copy-vs-zero"),
            ("sem2", "copy-vs-uniform"),
            ("sem3", "transcript-copy"),
        )
        for suffix, flags in (("", ()), ("-exact", ("--exact",)))
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name, capsysbinary):
    assert main(GOLDEN[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(GOLDEN)


def test_every_golden_names_its_versions():
    paths = [*GOLDEN_DIR.glob("*.json"), *PINNED_DIR.glob("*.json")]
    assert len(paths) == len(GOLDEN) + 3
    for path in paths:
        doc = json.loads(path.read_bytes())
        assert (doc["qelab_version"], doc["stream_version"]) == (__version__, STREAM_VERSION)


def test_bell_readout_still_draws_its_bernoulli_coin(built_streams, capsysbinary):
    # A real-arm branch succeeds with probability 1/2, so each real trial draws
    # the coin; the ideal arm reads a zeroed M, certain to fail, and draws none.
    name = "game-ind-ske-prf-bell-readout"
    assert main(GOLDEN[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN_DIR / f"{name}.json").read_bytes()
    coins = [path for path in built_streams if path[-1:] == ("bernoulli",)]
    assert len(coins) == 1000 and all("real" in path for path in coins)


def _classical_reference():
    """`perfbench/reference.py`, which counts pads without `qelab.quantum` or the games."""
    spec = importlib.util.spec_from_file_location("classical_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, pads", [
    ("game-ind-ske-prf-q3-exact", lambda ref: ref.ske_prf_pads(7, 2, 3)),
    ("game-ind-pke-towp-n6-exact", lambda ref: ref.pke_fixed_key_pads(7, 6, 1)),
], ids=["ske-prf-q3", "pke-towp-n6"])
def test_exact_readout_golden_matches_classical_pad_counts(name, pads):
    # The readout message is all ones and the test reads all ones, so the
    # real arm wins on pads whose X mask is all 0 and the zeroed arm on pads
    # whose X mask is all 1.  This anchors the file to counts made apart from
    # the code that wrote it, so a regenerated golden is checked, not trusted.
    ref = _classical_reference()
    real, ideal = ref.readout_shares(pads(ref))
    (row,) = json.loads((GOLDEN_DIR / f"{name}.json").read_bytes())["results"]
    assert (row["exact"], row["roles"]) == (True, "readout")
    assert row["p_real"] == float(real)
    assert row["p_ideal"] == float(ideal)
