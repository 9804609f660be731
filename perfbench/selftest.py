"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Shows that the gate accepts qelab's real reports and rejects wrong ones,
and that the classical references model the games the benchmark plays:
they must equal qelab's own exact mode wherever exact mode plays the same
game, and the closed form for sampled `pke-towp` must equal brute force
over every key.  Prints one line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import reference as ref
import run

SEED = 7


def report(cli, *argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv] + ["--seed", str(SEED)])
    if code != 0:
        raise AssertionError(f"qelab {' '.join(map(str, argv))} exited {code}")
    return json.loads(out.getvalue())


def accepts(check, doc) -> bool:
    try:
        check(doc)
    except ref.GateError:
        return False
    return True


def edited(doc: dict, **changes) -> dict:
    doc = json.loads(json.dumps(doc))
    doc["results"][0].update(changes)
    return doc


def gate_cases(cli):
    real, ideal = ref.readout_shares(ref.ske_prf_pads(SEED, 2, 1))
    exact = report(cli, "game", "--game", "ind", "--scheme", "ske-prf", "--n", 2, "--qubits", 1,
                   "--exact")
    check = lambda doc: ref.check_exact_game(doc, SEED, real, ideal)  # noqa: E731
    row = exact["results"][0]
    yield "exact report equals the reference", accepts(check, exact)
    yield "exact p_real one ulp off is rejected", not accepts(
        check, edited(exact, p_real=math.nextafter(row["p_real"], 1.0)))
    yield "exact arms swapped are rejected", not accepts(
        check, edited(exact, p_real=row["p_ideal"], p_ideal=row["p_real"]))
    yield "pass: false is rejected", not accepts(check, {**exact, "pass": False})
    broken = report(cli, "game", "--game", "ind", "--scheme", "ske-constprf", "--n", 2,
                    "--qubits", 1, "--exact")
    yield "a constant-PRF scheme's answer is rejected", not accepts(check, broken)

    pads = ref.pke_fixed_key_pads(SEED, 4, 1)
    pke = report(cli, "game", "--game", "ind", "--scheme", "pke-towp", "--n", 4, "--qubits", 1,
                 "--exact")
    yield "exact pke-towp equals the reference", accepts(
        lambda doc: ref.check_exact_game(doc, SEED, *ref.readout_shares(pads)), pke)

    trials = 400
    sampled = report(cli, "game", "--game", "ind", "--scheme", "ske-prf", "--n", 2,
                     "--qubits", 1, "--trials", trials)
    check = lambda doc: ref.check_sampled_game(doc, SEED, trials, real, ideal)  # noqa: E731
    p = sampled["results"][0]["p_real"]
    shifted = round((p + 0.15 if p < 0.5 else p - 0.15) * trials) / trials
    yield "sampled estimate contains the exact value", accepts(check, sampled)
    yield "sampled estimate 0.15 off is rejected", not accepts(check, edited(sampled, p_real=shifted))


def model_cases(cli):
    q1 = ref.readout_shares(ref.ske_prf_pads(SEED, 2, 1))
    q2 = ref.readout_shares(ref.ske_prf_pads(SEED, 2, 2))
    games = (
        ("ind-cpa", "readout", 2, q2),
        ("sem", "copy-vs-sim", 1, q1),
        ("sem2", "copy-vs-sim", 1, q1),
        ("sem3", "transcript-sim", 1, q1),
    )
    for game, bundle, qubits, (real, ideal) in games:
        row = report(cli, "game", "--game", game, "--scheme", "ske-prf", "--adversary", bundle,
                     "--n", 2, "--qubits", qubits, "--exact")["results"][0]
        yield (f"{game} {bundle}: readout shares equal exact mode",
               (row["p_real"], row["p_ideal"]) == (float(real), float(ideal)))
    stages = report(cli, "reduce", "--reduction", "cca1-to-prf", "--scheme", "ske-prf", "--n", 2,
                    "--qubits", 1, "--trials", 50, "--exact")["results"]
    identity = next(s for s in stages if s["stage"] == "exact-identity")
    yield ("cca1-to-prf: hidden-bit success equals exact mode",
           identity["hidden_bit_success"] == float(ref.hidden_bit_success(*q1)))
    yield ("sampled pke-towp closed form equals brute force at n=4",
           ref.pke_sampled_readout(4)[0] == pke_sampled_brute_force(4))


def pke_sampled_brute_force(n: int) -> Fraction:
    """Average over (p, q, mask) of the domain's share of even masked parity."""
    import numpy as np

    pairs = ref.key_prime_pairs(n)
    total = Fraction(0)
    for p, q in pairs:
        modulus = p * q
        domain = np.array([x for x in range(1, modulus) if math.gcd(x, modulus) == 1])
        masks = np.arange(1, 1 << modulus.bit_length())
        odd = np.bitwise_count(np.bitwise_and.outer(masks, domain)) & 1
        total += Fraction(int(odd.size - odd.sum()), odd.size)
    return total / len(pairs)


def main() -> int:
    cli = run.import_qelab()
    failed = 0
    for label, ok in (*gate_cases(cli), *model_cases(cli)):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
