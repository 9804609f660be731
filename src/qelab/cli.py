"""Command-line front end.

Subcommands: ``correctness`` (round-trip and channel-distance suites),
``qotp-mix`` (pad-averaging checks), ``game`` (one security game with a
named role bundle), ``reduce`` (a reduction pipeline), ``list``
(registered schemes, bundles, games, reductions).  Only ``game`` and
``reduce`` take ``--trials`` and ``--exact``.  Each command returns its
result rows and whether they pass; `main` writes them as one canonical JSON
report (optionally mirrored to CSV) whose ``config`` echoes every option of
the command except ``--out`` and ``--csv``.  Identical command+seed pairs
produce byte-identical files.  Exit codes: 0 all assertions pass, 1 an
assertion failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from fractions import Fraction

from .errors import ParameterError, QelabError
from .games import (
    GAME_NAMES,
    GAMES,
    GameConfig,
    OraclePolicy,
    run_ind,
    run_ind_prime,
    run_sem,
    run_sem2,
    run_sem3,
    _check_exact_qubits,
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

def _readout(qubits: int):
    ones = "1" * qubits
    return BasisMessage(ones), MeasureEqualsDistinguisher(ones, "M")


def _bell_readout(qubits: int):
    if qubits != 1:
        raise QelabError("bell-readout needs a one-qubit plaintext")
    return EntangledMessage(), MeasureEqualsDistinguisher("1", "M")


def _copy_vs(simulator):
    """Semantic roles: the all-ones message with target F, an adversary that
    copies the padded payload to OUT, and `simulator(qubits, adversary)`."""

    def roles(qubits: int):
        adversary = CopyPayloadAdversary("M", "OUT")
        return BasisMessageWithTarget("1" * qubits), adversary, simulator(qubits, adversary)

    return roles


def _judged_by(judge, roles):
    """`roles` followed by the game's judging role `judge(qubits)`: `run_sem`'s
    distinguisher or `run_sem3`'s classical function."""
    return lambda qubits: (*roles(qubits), judge(qubits))


def _comparison(qubits):
    return CompareRegistersDistinguisher("OUT", "F")


def _zero_output(qubits, adversary):
    return ConstantOutputChannel("0" * qubits)


def _built_simulator(qubits, adversary):
    return reduction_ind_to_sem(adversary)


_IND_ROLES = {
    "readout": _readout,
    "bell-readout": _bell_readout,
    "coin": lambda qubits: (BasisMessage("1" * qubits), CoinDistinguisher()),
    "constant-one": lambda qubits: (BasisMessage("1" * qubits), ConstantDistinguisher(1)),
}

# The role bundles of each game runner (`games.GAMES`), in `list` order: each
# maps the plaintext size to the runner's role arguments.
BUNDLES = {
    run_ind: _IND_ROLES,
    run_ind_prime: _IND_ROLES,
    run_sem: {
        "copy-vs-zero": _judged_by(_comparison, _copy_vs(_zero_output)),
        "copy-vs-sim": _judged_by(_comparison, _copy_vs(_built_simulator)),
    },
    run_sem2: {
        "copy-vs-uniform": _copy_vs(lambda qubits, adversary: UniformOutputChannel(qubits)),
        "copy-vs-sim": _copy_vs(_built_simulator),
    },
    run_sem3: {
        "transcript-copy": _judged_by(identity_function, _copy_vs(_zero_output)),
        "transcript-sim": _judged_by(identity_function, _copy_vs(_built_simulator)),
    },
}


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


def cmd_correctness(args) -> tuple[list, bool]:
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
            ct = scheme.encrypt(keypair.ek, state, rng.child(f"enc{k}-{label}"))
            distance = trace_distance(scheme.decrypt(keypair.dk, ct), state)
            worst = max(worst, distance)
        choi = channel_choi_distance(scheme.roundtrip_map(keypair), identity_map, args.qubits)
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
    restored = ciphertext_from_json(blob, type(ct))
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
    return results, ok


def cmd_qotp_mix(args) -> tuple[list, bool]:
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
    return results, ok


def cmd_game(args) -> tuple[list, bool]:
    rng = Stream(args.seed)
    scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
    config = GameConfig(trials=args.trials, seed=args.seed, exact=args.exact)
    run, policy = GAMES[args.game]
    est = run(scheme, *BUNDLES[run][args.adversary](scheme.qubits), policy, config)
    row = {
        "game": args.game,
        "scheme": args.scheme,
        "roles": args.adversary,
        "mode": "exact" if args.exact else "sample",
        "policy": policy.name,
        "seed": args.seed,
        **est.to_dict(),
    }
    return [row], True


def _reduce_cca1_to_prf(args, rng: Stream, config: GameConfig):
    scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
    if not isinstance(scheme, PrfSymmetricScheme):
        raise QelabError("cca1-to-prf needs a PRF-padded symmetric scheme")
    mgen, dist = _readout(args.qubits)
    attack = run_ind_prime(scheme, mgen, dist, OraclePolicy.cca1(), replace(config, exact=False))
    results = [{"stage": "scheme-attack", **attack.to_dict()}]
    distinguisher = reduction_cca1_to_prf(mgen, dist, args.qubits)
    est = prf_distinguisher_advantage(distinguisher, scheme.prf, args.trials, rng.child("prf-adv"))
    results.append({"stage": "prf-distinguisher", **est.to_dict()})
    if not args.exact:
        return results, True
    check = cca1_to_prf_exact_check(mgen, dist, scheme, config)
    results.append({"stage": "exact-identity", **check})
    return results, check["identity_holds"]


def _reduce_ind_to_sem(args, rng: Stream, config: GameConfig):
    scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
    mgen = BasisMessageWithTarget("1" * args.qubits)
    adversary = CopyPayloadAdversary("M", "OUT")
    dist = CompareRegistersDistinguisher("OUT", "F")
    out = ind_to_sem_pipeline(scheme, mgen, adversary, dist, OraclePolicy.plain(), config)
    sem, ind = out["sem"], out["ind"]
    if args.exact:
        bound = float(ind.advantage_exact)
        ok = sem.advantage_exact <= ind.advantage_exact
    else:
        bound = ind.advantage + sem.ci_halfwidth + ind.ci_halfwidth + 1e-12
        ok = sem.advantage <= bound
    return [
        {"stage": "sem-with-built-simulator", **sem.to_dict()},
        {"stage": "ind-combined-distinguisher", **ind.to_dict()},
        {"stage": "bound-check", "bound": bound, "holds": ok},
    ], ok


def _reduce_sem_to_ind(args, rng: Stream, config: GameConfig):
    scheme = build_scheme(args.scheme, args.n, args.qubits, rng)
    mgen, dist = _readout(args.qubits)
    report = sem_to_ind_identity_check(scheme, mgen, dist, config)
    ok = report["identity_holds"] and report["baselines_are_half"]
    return [{"stage": "epsilon-identity", **report}], ok


def _reduce_qotp_to_prg(args, rng: Stream, config: GameConfig):
    if not 1 <= args.n <= MAX_SECURITY:
        raise ParameterError(f"security parameter {args.n} outside 1..{MAX_SECURITY}")
    ones = "1" * args.qubits
    pair = PaddedStatePair(
        joint=basis_state(ones, "A"), product_a=basis_state("0" * args.qubits, "A")
    )
    fixed = "1" * (2 * args.qubits)
    dist = UnpadThenMeasureDistinguisher(fixed, ones, "A")
    est = run_prg_pad_reduction(ConstantPrg(args.n, fixed), dist, pair, config)
    results = [{"stage": "constant-generator", **est.to_dict()}]
    if not args.exact:
        return results, True
    ok = est.p_ideal_exact == Fraction(1, 2)
    results.append({"stage": "uniform-arm-half", "holds": ok})
    return results, ok


# Each reduction's pipeline: (args, stream, config) -> (result rows, pass).
REDUCTIONS = {
    "cca1-to-prf": _reduce_cca1_to_prf,
    "ind-to-sem": _reduce_ind_to_sem,
    "sem-to-ind": _reduce_sem_to_ind,
    "qotp-to-prg": _reduce_qotp_to_prg,
}


def cmd_reduce(args) -> tuple[list, bool]:
    if args.qubits < 1:
        raise ParameterError(f"--qubits must be at least 1, got {args.qubits}")
    if args.exact:
        _check_exact_qubits(args.qubits)
    config = GameConfig(trials=args.trials, seed=args.seed, exact=args.exact)
    return REDUCTIONS[args.reduction](args, Stream(args.seed), config)


def cmd_list(args) -> tuple[list, bool]:
    results = [
        {"schemes": sorted(SCHEME_BUILDERS)},
        {"games": list(GAME_NAMES)},
        {"bundles": {game: list(BUNDLES[run]) for game, (run, _) in GAMES.items()}},
        {"reductions": list(REDUCTIONS)},
    ]
    return results, True


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_report(p, n: bool = True):
    """The options every report command reads, and `--n` where it is read (not `qotp-mix`)."""
    if n:
        p.add_argument("--n", type=int, default=2, help="security parameter")
    p.add_argument("--qubits", type=int, default=1, help="plaintext size in qubits")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="also write a CSV mirror here")


def _add_modes(p):
    """The options of the commands that play games: `game` and `reduce`."""
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--exact", action="store_true", help="exact enumeration mode")


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
    p.add_argument("--scheme", required=True, choices=sorted(SCHEME_BUILDERS))
    _add_report(p)
    p.add_argument("--keys", type=int, default=20)

    p = sub.add_parser("qotp-mix", help="pad-averaging mixing checks")
    _add_report(p, n=False)
    p.add_argument("--battery", choices=("default", "none"), default="default")

    p = sub.add_parser("game", help="run one security game")
    p.add_argument("--game", required=True, choices=GAME_NAMES)
    p.add_argument(
        "--adversary",
        default="readout",
        help="role bundle (see `qelab list` for options per game)",
    )
    p.add_argument("--scheme", required=True, choices=sorted(SCHEME_BUILDERS))
    _add_report(p)
    _add_modes(p)

    p = sub.add_parser("reduce", help="run a reduction pipeline")
    p.add_argument("--reduction", required=True, choices=REDUCTIONS)
    p.add_argument("--scheme", default="ske-prf", choices=sorted(SCHEME_BUILDERS))
    _add_report(p)
    _add_modes(p)

    sub.add_parser("list", help="list registered schemes, games, bundles")
    return parser


# Each command: parsed arguments -> (result rows, pass).
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
    if args.command == "game" and args.adversary not in BUNDLES[GAMES[args.game][0]]:
        parser.error(
            f"bundle {args.adversary!r} is not registered for game {args.game!r}"
        )
    try:
        results, ok = _COMMANDS[args.command](args)
    except QelabError as exc:
        parser.error(str(exc))
    config = {k: v for k, v in vars(args).items() if k not in ("command", "out", "csv")}
    document = result_document(args.command, config, results, ok)
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
