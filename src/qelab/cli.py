"""Command-line front end.

Subcommands: ``correctness`` (round-trip and channel-distance suites),
``qotp-mix`` (pad-averaging checks), ``game`` (one security game with a
named role bundle), ``reduce`` (a reduction pipeline), ``list``
(registered schemes, bundles, games, reductions).  Results are written as
canonical JSON (optionally mirrored to CSV); identical command+seed pairs
produce byte-identical files.  Exit codes: 0 all assertions pass, 1 an
assertion failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .errors import ParameterError, QelabError
from .estimate import AdvantageEstimate
from .games import (
    GAME_NAMES,
    POLICIES,
    GameConfig,
    GeneratorFunctionPair,
    OraclePolicy,
    run_ind,
    run_ind_prime,
    run_sem,
    run_sem2,
    run_sem3,
)
from .primitives import MAX_SECURITY, ConstantPrg, prf_distinguisher_advantage
from .quantum import (
    MAX_CHOI_QUBITS,
    MAX_EXHAUSTIVE_QUBITS,
    TOL_ALGEBRA,
    apply_pauli,
    basis_state,
    bell_state,
    channel_choi_distance,
    maximally_mixed,
    minus_state,
    plus_state,
    qotp_average,
    random_mixed_state,
    random_pure_state,
    trace_distance,
)
from .reductions import (
    PaddedStatePair,
    cca1_to_prf_exact_check,
    ind_to_sem_pipeline,
    reduction_cca1_to_prf,
    reduction_ind_to_sem,
    run_prg_pad_reduction,
    sem_to_ind_identity_check,
)
from .rng import Stream
from .roles import (
    BasisMessage,
    BasisMessageWithTarget,
    CoinDistinguisher,
    CompareRegistersDistinguisher,
    ConstantDistinguisher,
    ConstantOutputChannel,
    CopyPayloadAdversary,
    EntangledMessage,
    MeasureEqualsDistinguisher,
    UniformOutputChannel,
    UnpadThenMeasureDistinguisher,
    identity_function,
)
from .schemes import (
    SCHEME_BUILDERS,
    PrfSymmetricScheme,
    build_scheme,
)
from .serialize import (
    canonical_json,
    ciphertext_from_json,
    ciphertext_to_json,
    result_document,
    results_to_csv,
)

IND_BUNDLES = ("readout", "bell-readout", "coin", "constant-one")
SEM_BUNDLES = ("copy-vs-zero", "copy-vs-sim")
SEM2_BUNDLES = ("copy-vs-uniform", "copy-vs-sim")
SEM3_BUNDLES = ("transcript-copy", "transcript-sim")

REDUCTIONS = ("cca1-to-prf", "ind-to-sem", "sem-to-ind", "qotp-to-prg")

_GAME_POLICIES = {
    "ind": "plain",
    "ind-prime": "plain",
    "ind-cpa": "cpa",
    "ind-cca1": "cca1",
    "sem": "plain",
    "sem2": "plain",
    "sem3": "plain",
}


def _bundles_for(game: str) -> tuple[str, ...]:
    if game in ("ind", "ind-prime", "ind-cpa", "ind-cca1"):
        return IND_BUNDLES
    return {"sem": SEM_BUNDLES, "sem2": SEM2_BUNDLES, "sem3": SEM3_BUNDLES}[game]


def _ind_roles(bundle: str, qubits: int):
    ones = "1" * qubits
    if bundle == "readout":
        return BasisMessage(ones), MeasureEqualsDistinguisher(ones, "M")
    if bundle == "bell-readout":
        if qubits != 1:
            raise QelabError("bell-readout needs a one-qubit plaintext")
        return EntangledMessage(), MeasureEqualsDistinguisher("1", "M")
    if bundle == "coin":
        return BasisMessage(ones), CoinDistinguisher()
    if bundle == "constant-one":
        return BasisMessage(ones), ConstantDistinguisher(1)
    raise QelabError(f"unknown bundle {bundle!r}")


def _run_game(game: str, scheme, bundle: str, config: GameConfig) -> AdvantageEstimate:
    qubits = scheme.qubits
    policy = POLICIES[_GAME_POLICIES[game]]()
    if game in ("ind", "ind-cpa", "ind-cca1"):
        mgen, dist = _ind_roles(bundle, qubits)
        return run_ind(scheme, mgen, dist, policy, config)
    if game == "ind-prime":
        mgen, dist = _ind_roles(bundle, qubits)
        return run_ind_prime(scheme, mgen, dist, policy, config)

    ones = "1" * qubits
    mgen = BasisMessageWithTarget(ones)
    adversary = CopyPayloadAdversary("M", "OUT")
    if game == "sem":
        if bundle == "copy-vs-zero":
            simulator = ConstantOutputChannel("0" * qubits)
        elif bundle == "copy-vs-sim":
            simulator = reduction_ind_to_sem(adversary)
        else:
            raise QelabError(f"unknown bundle {bundle!r}")
        dist = CompareRegistersDistinguisher("OUT", "F")
        return run_sem(scheme, mgen, adversary, simulator, dist, policy, config)
    if game == "sem2":
        if bundle == "copy-vs-uniform":
            simulator = UniformOutputChannel(qubits)
        elif bundle == "copy-vs-sim":
            simulator = reduction_ind_to_sem(adversary)
        else:
            raise QelabError(f"unknown bundle {bundle!r}")
        return run_sem2(scheme, mgen, adversary, simulator, policy, config)
    if game == "sem3":
        pair = GeneratorFunctionPair(mgen, identity_function(qubits))
        if bundle == "transcript-copy":
            simulator = ConstantOutputChannel("0" * qubits)
        elif bundle == "transcript-sim":
            simulator = reduction_ind_to_sem(adversary)
        else:
            raise QelabError(f"unknown bundle {bundle!r}")
        return run_sem3(scheme, pair, adversary, simulator, policy, config)
    raise QelabError(f"unknown game {game!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _state_battery(qubits: int, rng: Stream, battery: str):
    if battery == "none":
        return []
    states = [
        ("zeros", basis_state("0" * qubits)),
        ("ones", basis_state("1" * qubits)),
    ]
    if qubits == 1:
        states.append(("plus", plus_state()))
        states.append(("minus", minus_state()))
    if qubits == 2:
        states.append(("bell", bell_state("M", "E")))
    for i in range(3):
        states.append((f"pure{i}", random_pure_state(qubits, rng.child(f"pure{i}"))))
    for i in range(3):
        states.append((f"mixed{i}", random_mixed_state(qubits, rng.child(f"mixed{i}"))))
    return states


def cmd_correctness(args) -> tuple[dict, bool]:
    if args.keys < 1:
        raise ParameterError("keys must be at least 1")
    if args.qubits > MAX_CHOI_QUBITS:
        raise ParameterError(
            f"correctness supports at most {MAX_CHOI_QUBITS} qubits, got {args.qubits}"
        )
    rng = Stream(args.seed)
    scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
    identity_map = lambda mat: mat
    results = []
    ok = True
    for k in range(args.keys):
        keypair = scheme.keygen(rng.child(f"key{k}"))
        worst = 0.0
        for label, state in _state_battery(args.qubits, rng.child(f"battery{k}"), "default"):
            if state.qubits != args.qubits:
                continue
            ct = scheme.encrypt(keypair.ek, state, rng.child(f"enc{k}-{label}"))
            distance = trace_distance(scheme.decrypt(keypair.dk, ct), state)
            worst = max(worst, distance)
        choi = channel_choi_distance(
            scheme.roundtrip_map(keypair, rng.child(f"coins{k}")), identity_map, args.qubits
        )
        passed = worst <= TOL_ALGEBRA and choi <= TOL_ALGEBRA
        ok = ok and passed
        results.append(
            {
                "key_index": k,
                "max_roundtrip_distance": worst,
                "choi_distance": choi,
                "pass": passed,
            }
        )

    # Serialization fixture: one ciphertext through the wire format and back.
    keypair = scheme.keygen(rng.child("fixture-key"))
    plaintext = basis_state("1" * args.qubits)
    ct = scheme.encrypt(keypair.ek, plaintext, rng.child("fixture-enc"))
    blob = ciphertext_to_json(ct)
    kind = "pke" if scheme.flavor == "public" else ("ske" if ct.tag else "plain")
    restored = ciphertext_from_json(blob, kind)
    fixture_distance = trace_distance(scheme.decrypt(keypair.dk, restored), plaintext)
    ok = ok and fixture_distance <= TOL_ALGEBRA
    results.append(
        {
            "fixture": "ciphertext-serialization",
            "roundtrip_distance": fixture_distance,
            "ciphertext": blob,
            "pass": fixture_distance <= TOL_ALGEBRA,
        }
    )
    config = {
        "scheme": args.scheme,
        "n": args.n,
        "qubits": args.qubits,
        "keys": args.keys,
        "seed": args.seed,
    }
    return result_document("correctness", config, results, ok), ok


def cmd_qotp_mix(args) -> tuple[dict, bool]:
    if args.qubits < 1:
        raise ParameterError(f"qotp-mix needs at least 1 qubit, got {args.qubits}")
    if args.qubits > MAX_EXHAUSTIVE_QUBITS:
        raise ParameterError(
            f"exhaustive pad average covers at most {MAX_EXHAUSTIVE_QUBITS} qubits, "
            f"got {args.qubits}"
        )
    rng = Stream(args.seed)
    mixed = maximally_mixed(args.qubits)
    results = []
    ok = True
    for label, state in _state_battery(args.qubits, rng.child("battery"), args.battery):
        if state.qubits != args.qubits:
            continue
        distance = trace_distance(qotp_average(state), mixed)
        ok = ok and distance <= TOL_ALGEBRA
        results.append({"state": label, "distance_from_mixed": distance})
    if args.qubits == 1:
        # Single fixed pads do not mix: record the comparison table.
        zero = basis_state("0")
        for pad in ("00", "01", "10", "11"):
            padded = apply_pauli(pad, zero)
            results.append(
                {
                    "single_pad": pad,
                    "distance_from_mixed": trace_distance(padded, mixed),
                }
            )
    config = {"qubits": args.qubits, "seed": args.seed, "battery": args.battery}
    return result_document("qotp-mix", config, results, ok), ok


def cmd_game(args) -> tuple[dict, bool]:
    rng = Stream(args.seed)
    scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
    config = GameConfig(
        qubits=args.qubits, trials=args.trials, seed=args.seed, exact=args.exact
    )
    est = _run_game(args.game, scheme, args.adversary, config)
    row = {
        "game": args.game,
        "scheme": args.scheme,
        "roles": args.adversary,
        "mode": "exact" if args.exact else "sample",
        "policy": _GAME_POLICIES[args.game],
        "seed": args.seed,
        **est.to_dict(),
    }
    config_doc = {
        "game": args.game,
        "scheme": args.scheme,
        "adversary": args.adversary,
        "n": args.n,
        "qubits": args.qubits,
        "trials": args.trials,
        "seed": args.seed,
        "exact": args.exact,
    }
    return result_document("game", config_doc, [row], True), True


def cmd_reduce(args) -> tuple[dict, bool]:
    if args.qubits < 1:
        raise ParameterError(f"--qubits must be at least 1, got {args.qubits}")
    rng = Stream(args.seed)
    config = GameConfig(
        qubits=args.qubits, trials=args.trials, seed=args.seed, exact=args.exact
    )
    results = []
    ok = True
    qubits = args.qubits
    ones = "1" * qubits

    if args.reduction == "cca1-to-prf":
        scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
        if not isinstance(scheme, PrfSymmetricScheme):
            raise QelabError("cca1-to-prf needs a PRF-padded symmetric scheme")
        mgen, dist = _ind_roles("readout", qubits)
        attack = run_ind_prime(
            scheme, mgen, dist, OraclePolicy.cca1(), replace(config, exact=False)
        )
        results.append({"stage": "scheme-attack", **attack.to_dict()})
        distinguisher = reduction_cca1_to_prf(mgen, dist, qubits)
        est = prf_distinguisher_advantage(
            distinguisher, scheme.prf, args.trials, rng.child("prf-adv")
        )
        results.append({"stage": "prf-distinguisher", **est.to_dict()})
        if args.exact:
            check = cca1_to_prf_exact_check(mgen, dist, scheme, config)
            ok = ok and check["identity_holds"]
            results.append({"stage": "exact-identity", **check})

    elif args.reduction == "ind-to-sem":
        scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
        mgen = BasisMessageWithTarget(ones)
        adversary = CopyPayloadAdversary("M", "OUT")
        dist = CompareRegistersDistinguisher("OUT", "F")
        out = ind_to_sem_pipeline(scheme, mgen, adversary, dist, OraclePolicy.plain(), config)
        results.append({"stage": "sem-with-built-simulator", **out["sem"].to_dict()})
        results.append({"stage": "ind-combined-distinguisher", **out["ind"].to_dict()})
        sem, ind = out["sem"], out["ind"]
        if args.exact:
            bound = float(ind.advantage_exact)
            ok = sem.advantage_exact <= ind.advantage_exact
        else:
            bound = ind.advantage + sem.ci_halfwidth + ind.ci_halfwidth + 1e-12
            ok = sem.advantage <= bound
        results.append({"stage": "bound-check", "bound": bound, "holds": ok})

    elif args.reduction == "sem-to-ind":
        scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
        mgen, dist = _ind_roles("readout", qubits)
        report = sem_to_ind_identity_check(scheme, mgen, dist, config)
        ok = report["identity_holds"] and report["baselines_are_half"]
        results.append({"stage": "epsilon-identity", **report})

    elif args.reduction == "qotp-to-prg":
        if not 1 <= args.n <= MAX_SECURITY:
            raise ParameterError(f"security parameter {args.n} outside 1..{MAX_SECURITY}")
        pad_len = 2 * qubits
        pair = PaddedStatePair(
            joint=basis_state(ones, "A"), product_a=basis_state("0" * qubits, "A")
        )
        fixed = "1" * pad_len
        dist = UnpadThenMeasureDistinguisher(fixed, ones, "A")
        prg = ConstantPrg(args.n, fixed)
        est = run_prg_pad_reduction(prg, dist, pair, config)
        results.append({"stage": "constant-generator", **est.to_dict()})
        if args.exact:
            from fractions import Fraction

            ok = est.p_ideal_exact == Fraction(1, 2)
            results.append({"stage": "uniform-arm-half", "holds": ok})
    else:  # pragma: no cover - argparse restricts choices
        raise QelabError(f"unknown reduction {args.reduction!r}")

    config_doc = {
        "reduction": args.reduction,
        "scheme": args.scheme,
        "n": args.n,
        "qubits": args.qubits,
        "trials": args.trials,
        "seed": args.seed,
        "exact": args.exact,
    }
    return result_document("reduce", config_doc, results, ok), ok


def cmd_list(args) -> tuple[dict, bool]:
    results = [
        {"schemes": sorted(SCHEME_BUILDERS)},
        {"games": list(GAME_NAMES)},
        {
            "bundles": {
                game: list(_bundles_for(game)) for game in GAME_NAMES
            }
        },
        {"reductions": list(REDUCTIONS)},
    ]
    return result_document("list", {}, results, True), True


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, scheme: bool = True):
    if scheme:
        p.add_argument("--scheme", required=True, choices=sorted(SCHEME_BUILDERS))
    p.add_argument("--n", type=int, default=2, help="security parameter")
    p.add_argument("--qubits", type=int, default=1, help="plaintext size in qubits")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--exact", action="store_true", help="exact enumeration mode")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="also write a CSV mirror here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused by every later one.

    Parsing does not change the parser, so one instance serves every `main`
    call in a process; building it (over 1 ms: argparse makes a help
    formatter per argument) would otherwise be paid on every call.
    """
    parser = argparse.ArgumentParser(
        prog="qelab",
        description="desk-scale quantum encryption laboratory",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("correctness", help="round-trip and channel-distance suites")
    _add_common(p)
    p.add_argument("--keys", type=int, default=20)

    p = sub.add_parser("qotp-mix", help="pad-averaging mixing checks")
    p.add_argument("--qubits", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--battery", choices=("default", "none"), default="default")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("game", help="run one security game")
    p.add_argument("--game", required=True, choices=GAME_NAMES)
    p.add_argument(
        "--adversary",
        default="readout",
        help="role bundle (see `qelab list` for options per game)",
    )
    _add_common(p)

    p = sub.add_parser("reduce", help="run a reduction pipeline")
    p.add_argument("--reduction", required=True, choices=REDUCTIONS)
    p.add_argument("--scheme", default="ske-prf", choices=sorted(SCHEME_BUILDERS))
    _add_common(p, scheme=False)

    sub.add_parser("list", help="list registered schemes, games, bundles")
    return parser


_COMMANDS = {
    "correctness": cmd_correctness,
    "qotp-mix": cmd_qotp_mix,
    "game": cmd_game,
    "reduce": cmd_reduce,
    "list": cmd_list,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "game" and args.adversary not in _bundles_for(args.game):
        parser.error(
            f"bundle {args.adversary!r} is not registered for game {args.game!r}"
        )
    try:
        document, ok = _COMMANDS[args.command](args)
    except QelabError as exc:
        parser.error(str(exc))
        return 2  # pragma: no cover - parser.error raises SystemExit
    text = canonical_json(document)
    out_path = getattr(args, "out", None)
    if out_path:
        _write_file(parser, out_path, text)
    else:
        sys.stdout.write(text)
    csv_path = getattr(args, "csv", None)
    if csv_path:
        _write_file(parser, csv_path, results_to_csv(document))
    return 0 if ok else 1


def _write_file(parser, path: str, text: str) -> None:
    """Write a report file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror or exc}")


if __name__ == "__main__":
    raise SystemExit(main())
