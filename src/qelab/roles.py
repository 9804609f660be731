"""Pluggable game roles: message generators, distinguishers, channels.

Roles expose their randomness as coins of the arm's coin tree, which is
what lets the enumeration-mode games compute probabilities as exact
Fractions.  A role that wants private coins draws them with
`ctx.coin(label, cases, draw)`: the exact interpreter yields every
declared case, the sampling interpreter one case drawn from the role's
own stream, so the role is written once for both modes.  Only oracle
interaction through `ctx.oracles` is limited to sampling mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import EnumerationCapError, OraclePolicyError, RoleError
from .quantum import (
    DensityMatrix,
    basis_state,
    measure_registers_into,
    measurement_distribution,
    partial_trace,
    rename_register,
    replace_with_zero_state,
    tensor,
)
from .rng import Stream


class _DeniedOracles:
    """Oracle stand-in for enumeration mode, where coin spaces must be declared."""

    def encrypt(self, rho):
        raise OraclePolicyError("oracle access is not available in exact mode")

    def decrypt(self, ct):
        raise OraclePolicyError("oracle access is not available in exact mode")


DENIED_ORACLES = _DeniedOracles()


# ---------------------------------------------------------------------------
# One coin tree, two interpreters
# ---------------------------------------------------------------------------


class ExactPlay:
    """Exact interpreter: every coin yields all of its declared cases."""

    exact = True

    def coin(self, label: str, cases, draw):
        return cases()

    def child(self, label: str) -> "ExactPlay":
        return self

    def context(self, coins: str, oracles=None, **fields) -> "RoleContext":
        """Exact roles get no oracles; their private coins are enumerated."""
        return RoleContext(play=self, **fields)

    def prob(self, value):
        if not isinstance(value, Fraction):
            raise EnumerationCapError(
                f"role returned a non-exact probability {value!r} in exact mode"
            )
        return value


class SamplingPlay:
    """Sampling interpreter: every coin yields one case, drawn from its own stream.

    A coin labelled `label` draws from `rng.child(label)` with weight 1,
    so an arm's branches collapse to the single branch of one trial.
    """

    exact = False

    def __init__(self, rng: Stream):
        self.rng = rng

    def coin(self, label: str, cases, draw):
        return ((1, draw(self.rng.child(label))),)

    def child(self, label: str) -> "SamplingPlay":
        return SamplingPlay(self.rng.child(label))

    def context(self, coins: str, oracles=None, **fields) -> "RoleContext":
        """Private coins under `rng.child(coins)`; handles from `oracles(rng)`."""
        return RoleContext(
            oracles=oracles(self.rng) if oracles is not None else DENIED_ORACLES,
            play=self.child(coins),
            **fields,
        )

    def prob(self, value) -> float:
        return float(value)


EXACT = ExactPlay()


@dataclass
class RoleContext:
    """Everything a role may legitimately touch during one game run.

    `play` is the interpreter of the arm being played, rooted at the
    role's own coins, so `coin` branches the arm's tree.
    """

    pk: object = None
    oracles: object = DENIED_ORACLES
    play: object = EXACT
    scheme: object = None

    @property
    def exact(self) -> bool:
        return self.play.exact

    def coin(self, label: str, cases, draw):
        """A private coin: (weight, value) pairs from `cases()` or one `draw(rng)`."""
        return self.play.coin(label, cases, draw)


@dataclass(frozen=True)
class MessageCase:
    """One deterministic branch of a message generator."""

    weight: Fraction
    state: DensityMatrix
    transcript: Optional[str] = None


def sample_case(cases: list[MessageCase], rng: Stream) -> MessageCase:
    if len(cases) == 1:
        return cases[0]
    r = rng.uniform()
    acc = 0.0
    for case in cases:
        acc += float(case.weight)
        if r < acc:
            return case
    return cases[-1]


# ---------------------------------------------------------------------------
# Message generators
# ---------------------------------------------------------------------------


class MessageGenerator:
    """Produces the challenge state over named registers (M, optional E/F)."""

    def cases(self, pk, ctx: RoleContext) -> list[MessageCase]:
        raise NotImplementedError


class _FixedMessage(MessageGenerator):
    """A generator with one fixed case per scalar mode.

    The case is built on first use in each mode, and every later call
    returns that same immutable `MessageCase`, so a game's memos keyed by
    the state's identity serve all its trials.
    """

    def __init__(self):
        self._by_mode = {}

    def _case(self, exact: bool) -> MessageCase:
        raise NotImplementedError

    def cases(self, pk, ctx):
        exact = ctx.exact
        case = self._by_mode.get(exact)
        if case is None:
            case = self._by_mode[exact] = self._case(exact)
        return [case]


class BasisMessage(_FixedMessage):
    """Deterministic computational-basis plaintext, no side information."""

    def __init__(self, bits: str):
        super().__init__()
        self.bits = bits

    def _case(self, exact):
        return MessageCase(Fraction(1), basis_state(self.bits, "M", exact))


class BasisMessageWithTarget(_FixedMessage):
    """Basis plaintext plus a classical copy of it in the target register F."""

    def __init__(self, bits: str):
        super().__init__()
        self.bits = bits

    def _case(self, exact):
        state = tensor(basis_state(self.bits, "M", exact), basis_state(self.bits, "F", exact))
        return MessageCase(Fraction(1), state, transcript=self.bits)


class EntangledMessage(_FixedMessage):
    """One plaintext qubit maximally entangled with the side-information register."""

    def _case(self, exact):
        from .quantum import bell_state

        return MessageCase(Fraction(1), bell_state("M", "E", exact))


class StateMessage(MessageGenerator):
    """Wrap a fixed prepared state (register M required)."""

    def __init__(self, state: DensityMatrix, transcript: Optional[str] = None):
        if not state.has_register("M"):
            raise RoleError("message state must contain a register named M")
        self.state = state
        self.transcript = transcript

    def cases(self, pk, ctx):
        state = self.state.to_exact() if ctx.exact and not self.state.exact else self.state
        if not ctx.exact and state.exact:
            state = state.to_float()
        return [MessageCase(Fraction(1), state, transcript=self.transcript)]


class CoinMessageGenerator(MessageGenerator):
    """Emit the base generator's state or its zeroed-M variant, a fair coin each.

    With `include_f` the coin value is written into a fresh one-qubit F
    register (0 marks the genuine message, 1 the zeroed one); with
    `include_transcript` the coin is appended to the base transcript as a
    bit b, where b=1 marks the genuine message.
    """

    def __init__(self, base: MessageGenerator, include_f: bool = True,
                 include_transcript: bool = False):
        self.base = base
        self.include_f = include_f
        self.include_transcript = include_transcript

    def cases(self, pk, ctx):
        out = []
        for case in self.base.cases(pk, ctx):
            half = case.weight / 2
            genuine = case.state
            zeroed = replace_with_zero_state(case.state, "M")
            base_x = case.transcript or ""
            for state, f_bit, coin in ((genuine, "0", "1"), (zeroed, "1", "0")):
                if self.include_f:
                    state = tensor(state, basis_state(f_bit, "F", ctx.exact))
                transcript = base_x + coin if self.include_transcript else case.transcript
                out.append(MessageCase(half, state, transcript=transcript))
        return out


# ---------------------------------------------------------------------------
# Distinguishers
# ---------------------------------------------------------------------------


class Distinguisher:
    """Binary-output role: measure declared registers, decide classically.

    `prob_one` is the single entry point the games use; for the shipped
    measurement-based roles it is computed exactly from the state's
    diagonal blocks (Fractions in exact mode).

    `reads_tag` is a contract the role class declares, not an option:
    `False` promises that `prob_one(tag, state, ctx)` depends only on
    `state` and `ctx`.  Exact IND enumeration then measures each distinct
    pad once per key and challenge state, and reuses that value for every
    tag with the same pad.  The default `True` is always safe: such a role is
    evaluated on every branch.
    """

    measured: tuple[str, ...] = ("M",)
    reads_tag: bool = True

    def pre_map(self, tag, state: DensityMatrix, ctx: RoleContext) -> DensityMatrix:
        return state

    def decide(self, tag, outcome: str, ctx: RoleContext) -> int:
        raise NotImplementedError

    def prob_one(self, tag, state: DensityMatrix, ctx: RoleContext):
        mapped = self.pre_map(tag, state, ctx)
        dist = measurement_distribution(mapped, self.measured)
        zero = Fraction(0) if mapped.exact else 0.0
        return sum(
            (p for outcome, p in dist.items() if self.decide(tag, outcome, ctx) == 1),
            zero,
        )


class ConstantDistinguisher(Distinguisher):
    reads_tag = False

    def __init__(self, bit: int):
        self.bit = 1 if bit else 0

    def prob_one(self, tag, state, ctx):
        return Fraction(self.bit) if state.exact else float(self.bit)

    def decide(self, tag, outcome, ctx):
        return self.bit


class CoinDistinguisher(Distinguisher):
    """State-independent fair coin; advantage zero in every game."""

    reads_tag = False

    def prob_one(self, tag, state, ctx):
        return Fraction(1, 2) if state.exact else 0.5

    def decide(self, tag, outcome, ctx):  # pragma: no cover - sampling helper
        raise RoleError("a coin flip has no deterministic decision")


class MeasureEqualsDistinguisher(Distinguisher):
    """Measure one register; output 1 iff the outcome equals a fixed value."""

    reads_tag = False

    def __init__(self, value: str, register: str = "M"):
        self.value = value
        self.register = register
        self.measured = (register,)

    def decide(self, tag, outcome, ctx):
        return 1 if outcome == self.value else 0


class UnpadThenMeasureDistinguisher(MeasureEqualsDistinguisher):
    """Undo a known pad on the register, then compare the measurement."""

    def __init__(self, pad: str, value: str, register: str = "M"):
        super().__init__(value, register)
        self.pad = pad

    def pre_map(self, tag, state, ctx):
        from .quantum import apply_pauli

        return apply_pauli(self.pad, state, self.register)


class CompareRegistersDistinguisher(Distinguisher):
    """Measure two registers jointly; output 1 iff their outcomes agree."""

    reads_tag = False

    def __init__(self, first: str = "OUT", second: str = "F"):
        self.first = first
        self.second = second
        self.measured = (first, second)

    def prob_one(self, tag, state, ctx):
        mapped = self.pre_map(tag, state, ctx)
        width = mapped.register(self.first).qubits
        if mapped.register(self.second).qubits != width:
            return Fraction(0) if mapped.exact else 0.0
        dist = measurement_distribution(mapped, self.measured)
        zero = Fraction(0) if mapped.exact else 0.0
        return sum(
            (p for outcome, p in dist.items() if outcome[:width] == outcome[width:]),
            zero,
        )

    def decide(self, tag, outcome, ctx):
        half = len(outcome) // 2
        return 1 if outcome[:half] == outcome[half:] else 0


class NegatedDistinguisher(Distinguisher):
    """The same strategy with the output bit flipped."""

    def __init__(self, base: Distinguisher):
        self.base = base
        self.measured = base.measured
        self.reads_tag = base.reads_tag

    def pre_map(self, tag, state, ctx):
        return self.base.pre_map(tag, state, ctx)

    def decide(self, tag, outcome, ctx):
        return 1 - self.base.decide(tag, outcome, ctx)

    def prob_one(self, tag, state, ctx):
        p = self.base.prob_one(tag, state, ctx)
        return (Fraction(1) - p) if isinstance(p, Fraction) else 1.0 - p


# ---------------------------------------------------------------------------
# Channels: adversaries and simulators
# ---------------------------------------------------------------------------


class Channel:
    """A state-to-state role (semantic-security adversary or simulator).

    `outputs` yields (weight, output state) pairs, one per branch of the
    role's private coins, which it draws with `ctx.coin`.  A deterministic
    role defines only `transform` and is a single branch of weight 1.
    Every output must act as the identity on any register the role does
    not own (in particular the target register F).
    """

    def outputs(self, tag, state: DensityMatrix, ctx: RoleContext):
        return ((1, self.transform(tag, state, ctx)),)

    def transform(self, tag, state: DensityMatrix, ctx: RoleContext) -> DensityMatrix:
        raise NotImplementedError


class CopyPayloadAdversary(Channel):
    """Forward the ciphertext payload register as the output, drop the rest."""

    def __init__(self, source: str = "M", out: str = "OUT"):
        self.source = source
        self.out = out

    def transform(self, tag, state, ctx):
        result = rename_register(state, self.source, self.out)
        extras = [r for r in result.names if r not in (self.out, "F")]
        if extras:
            result = partial_trace(result, extras)
        return result


class ConstantOutputChannel(Channel):
    """Ignore the input; emit a fixed basis string (a trivial simulator)."""

    def __init__(self, bits: str, out: str = "OUT"):
        self.bits = bits
        self.out = out

    def transform(self, tag, state, ctx):
        keep = [r for r in state.names if r == "F"]
        drop = [r for r in state.names if r != "F"]
        rest = partial_trace(state, drop) if drop else state
        return tensor(basis_state(self.bits, self.out, state.exact), rest)


class UniformOutputChannel(Channel):
    """Ignore the input; emit a uniformly random string (maximally mixed)."""

    def __init__(self, qubits: int, out: str = "OUT"):
        self.qubits = qubits
        self.out = out

    def transform(self, tag, state, ctx):
        from .quantum import maximally_mixed

        drop = [r for r in state.names if r != "F"]
        rest = partial_trace(state, drop) if drop else state
        return tensor(maximally_mixed(self.qubits, self.out, state.exact), rest)


class BitChannelAdversary(Channel):
    """Run a binary distinguisher as a channel: its bit lands in OUT.

    The distinguisher's declared registers are measured; its decision is
    recorded in a one-qubit output register while correlations with the
    untouched F register survive.  Everything else is discarded.
    """

    def __init__(self, dist: Distinguisher, out: str = "OUT"):
        self.dist = dist
        self.out = out

    def transform(self, tag, state, ctx):
        mapped = self.dist.pre_map(tag, state, ctx)
        targets = [r for r in self.dist.measured if mapped.has_register(r)]
        if not targets:
            raise RoleError(
                f"distinguisher measures {self.dist.measured} but the state has {mapped.names}"
            )
        fn = lambda outcome: str(self.dist.decide(tag, outcome, ctx))
        result = measure_registers_into(mapped, targets, fn, self.out, 1)
        extras = [r for r in result.names if r not in (self.out, "F")]
        if extras:
            result = partial_trace(result, extras)
        return result


class ChannelThenDistinguisher(Distinguisher):
    """Compose a channel with a distinguisher into one distinguisher."""

    def __init__(self, channel: Channel, dist: Distinguisher):
        self.channel = channel
        self.dist = dist
        self.measured = dist.measured

    def prob_one(self, tag, state, ctx):
        return sum(
            w * self.dist.prob_one(None, out, ctx)
            for w, out in self.channel.outputs(tag, state, ctx)
        )

    def decide(self, tag, outcome, ctx):  # pragma: no cover - composite role
        raise RoleError("composite distinguishers decide via prob_one")


# ---------------------------------------------------------------------------
# Classical functions for transcript-based semantic security
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalFunction:
    """A public classical circuit applied to the generator's transcript."""

    fn: Callable[[object, str], str]
    in_len: Optional[int] = None
    out_len: int = 1

    def evaluate(self, pk, x: str) -> str:
        if self.in_len is not None and len(x) != self.in_len:
            raise RoleError(
                f"transcript has {len(x)} bits but the function consumes {self.in_len}"
            )
        y = self.fn(pk, x)
        if len(y) != self.out_len or any(b not in "01" for b in y):
            raise RoleError(f"classical function returned {y!r}, expected {self.out_len} bits")
        return y


def constant_function(value: str, in_len: Optional[int] = None) -> ClassicalFunction:
    return ClassicalFunction(lambda pk, x: value, in_len=in_len, out_len=len(value))


def identity_function(length: int) -> ClassicalFunction:
    return ClassicalFunction(lambda pk, x: x, in_len=length, out_len=length)


def last_bit_function(in_len: Optional[int] = None) -> ClassicalFunction:
    return ClassicalFunction(lambda pk, x: x[-1], in_len=in_len, out_len=1)
