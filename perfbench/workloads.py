"""The benchmark's workloads: fixed lists of `qelab` commands plus their checks.

Each command carries its work base, computed from the coin-space sizes
before anything is timed: the branches an exact game enumerates over both
arms, or the arm-trials a sampled command draws.  All commands use the
readout role bundles, so `reference.py` knows every exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference as ref


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[dict], None]
    branches: int = 0  # exact branches over both arms
    trials: int = 0  # arm-trials through `GameArm.sample`
    other_trials: int = 0  # arm-trials of the PRF experiment, outside `GameArm`


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    schemes: tuple[tuple[str, int, int], ...]  # (name, n, qubits) built at set-up
    exact: bool = False

    @property
    def branches(self) -> int:
        return sum(c.branches for c in self.commands)

    @property
    def trials(self) -> int:
        return sum(c.trials for c in self.commands)

    @property
    def arm_trials(self) -> int:
        return sum(c.trials + c.other_trials for c in self.commands)

    @property
    def work(self) -> int:
        """Units of `work_per_s`: branches when exact, arm-trials when sampled."""
        return self.branches if self.exact else self.arm_trials


def _argv(*words: object) -> tuple[str, ...]:
    return tuple(str(w) for w in words)


def _exact_ind(seed: int, scheme: str, n: int, qubits: int, pads: list[str]) -> Command:
    real, ideal = ref.readout_shares(pads)
    return Command(
        _argv("game", "--game", "ind", "--scheme", scheme, "--n", n, "--qubits", qubits,
              "--exact", "--seed", seed),
        partial(ref.check_exact_game, seed=seed, real=real, ideal=ideal),
        branches=2 * len(pads),
    )


def exact_ske_q3(seed: int) -> Workload:
    pads = ref.ske_prf_pads(seed, 2, 3)
    return Workload(
        "exact-ske-q3",
        (_exact_ind(seed, "ske-prf", 2, 3, pads),),
        schemes=(("ske-prf", 2, 3),),
        exact=True,
    )


def exact_pke_n6(seed: int) -> Workload:
    pads = ref.pke_fixed_key_pads(seed, 6, 1)
    return Workload(
        "exact-pke-n6",
        (_exact_ind(seed, "pke-towp", 6, 1, pads),),
        schemes=(("pke-towp", 6, 1),),
        exact=True,
    )


def _sampled(seed: int, game: str, scheme: str, bundle: str, n: int, qubits: int,
             trials: int, real, ideal) -> Command:
    return Command(
        _argv("game", "--game", game, "--scheme", scheme, "--adversary", bundle,
              "--n", n, "--qubits", qubits, "--trials", trials, "--seed", seed),
        partial(ref.check_sampled_game, seed=seed, trials=trials, real=real, ideal=ideal),
        trials=2 * trials,
    )


def sample_mix(seed: int) -> Workload:
    ske_q2 = ref.readout_shares(ref.ske_prf_pads(seed, 2, 2))
    ske_q1 = ref.readout_shares(ref.ske_prf_pads(seed, 2, 1))
    pke = ref.pke_sampled_readout(6)
    commands = [
        _sampled(seed, "ind-cpa", "ske-prf", "readout", 2, 2, 2000, *ske_q2),
        _sampled(seed, "ind", "pke-towp", "readout", 6, 1, 2000, *pke),
        # The copy adversary forwards the padded payload and the simulator
        # pads a zero message under its own key, so each semantic game has
        # the readout shares of the two arms.
        _sampled(seed, "sem", "ske-prf", "copy-vs-sim", 2, 1, 1000, *ske_q1),
        _sampled(seed, "sem2", "ske-prf", "copy-vs-sim", 2, 1, 1000, *ske_q1),
        _sampled(seed, "sem3", "ske-prf", "transcript-sim", 2, 1, 1000, *ske_q1),
        Command(
            _argv("reduce", "--reduction", "cca1-to-prf", "--scheme", "ske-prf",
                  "--n", 2, "--qubits", 1, "--trials", 1000, "--seed", seed),
            partial(ref.check_cca1_to_prf, seed=seed, trials=1000,
                    real=ske_q1[0], ideal=ske_q1[1]),
            trials=1000,  # the hidden-bit game has one arm
            other_trials=2 * 1000,
        ),
        Command(
            _argv("correctness", "--scheme", "pke-towp", "--n", 4, "--qubits", 1,
                  "--keys", 20, "--seed", seed),
            partial(ref.check_correctness, seed=seed, keys=20),
        ),
        Command(
            _argv("correctness", "--scheme", "ske-prf", "--n", 2, "--qubits", 2,
                  "--keys", 20, "--seed", seed),
            partial(ref.check_correctness, seed=seed, keys=20),
        ),
        Command(
            _argv("qotp-mix", "--qubits", 3, "--seed", seed),
            partial(ref.check_qotp_mix, seed=seed, states=8),
        ),
    ]
    return Workload(
        "sample-mix",
        tuple(commands),
        schemes=(("ske-prf", 2, 2), ("ske-prf", 2, 1), ("pke-towp", 6, 1), ("pke-towp", 4, 1)),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "exact-ske-q3": exact_ske_q3,
    "exact-pke-n6": exact_pke_n6,
    "sample-mix": sample_mix,
}
