"""Pluggable game roles: message generators, distinguishers, channels.

Roles expose their randomness as coins of the arm's coin tree, which is
what lets the enumeration-mode games compute probabilities as exact
Fractions.  A role's context `ctx` is the interpreter of its arm
(`ExactPlay` or `SamplingPlay`), rooted at the role's own coins and
carrying the game's `pk`, `scheme` and `oracles`; an exact context shares
its game's memo (`ExactPlay.keep`).  A role that wants private coins
draws them with `ctx.coin(label, cases, draw)`: the exact
interpreter yields every declared case, the sampling interpreter one case
drawn from the role's own stream, so the role is written once for both
modes.  A coin passed without a `draw` is certain: it declares one case,
and neither interpreter draws for it.  Only oracle interaction through
`ctx.oracles` is limited to sampling mode.

A role returns a probability in its state's own numbers, or as an int or a
Fraction (`self.bit`, `Fraction(1, 2)`, `1 - p`); only the interpreter's
`prob` picks the scalar: `ExactPlay` keeps ints and Fractions and refuses
floats, `SamplingPlay` returns a float.

`pure` is a contract a role class declares, not an option, as
`reads_tag` and a distinguisher's `measured` are.  `True` promises that the
role's outputs depend only on its arguments, its `ctx` fields and the
values of its `ctx.coin` draws, and that it draws only through
`ctx.coin`.  A subclass inherits its base's declarations; a wrapper reads
each contract through from what it wraps, by a property, and a subclass's
own class-level declaration wins.  A `ClassicalFunction` or a generator is
a deterministic function of its input and declares nothing.  A sampled
arm whose roles are all pure replays each distinct branch from a memo
(`games.game_arm`).  The default `False` is always safe: such an
arm's trials are played in full.  Even under pure roles a trial is played
in full, and not recorded, when it calls an encryption oracle (whose coins
are drawn outside `ctx.coin`), when it draws from a `CoinSpace` without a
`size` (a value that does not repeat, such as a `pke-towp` key) or when it
draws a value that cannot be hashed.
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
from .rng import Stream, is_bitstring

ORACLE_BUDGET = 64  # oracle calls one role may make in one phase


class Oracles:
    """Budgeted encryption and decryption handles for one role in one phase.

    `encrypt(rho, rng)` and `decrypt(ct)` are the scheme's algorithms under
    the game's key, or a simulation of them.  Each granted call counts
    against `ORACLE_BUDGET`.  Encryption call k draws its coins from
    `play.rng.child(label).child(f"{prefix}{k}")`, where `play` is the
    interpreter that built the role's context; the `label` stream is
    derived on the first encryption, so a role that never encrypts derives
    none.  That first encryption also tells `play` that the trial is not
    recorded (`unrecorded`): its coins are not coins of the arm's tree.  A
    kind outside `grants` is refused as not granted `where`.
    """

    def __init__(self, encrypt=None, decrypt=None, grants=frozenset(), play=None, label=None,
                 prefix="enc", where="under this policy"):
        self._encrypt, self._decrypt = encrypt, decrypt
        self.grants = frozenset(grants)
        self._play, self._label, self._prefix = play, label, prefix
        self._rng = None
        self._where = where
        self._calls = 0

    def _tick(self, kind: str):
        if kind not in self.grants:
            raise OraclePolicyError(f"{kind!r} oracle not granted {self._where}")
        self._calls += 1
        if self._calls > ORACLE_BUDGET:
            raise OraclePolicyError(f"oracle budget of {ORACLE_BUDGET} calls exhausted")

    def encrypt(self, rho: DensityMatrix):
        self._tick("enc")
        if self._rng is None:
            self._play.unrecorded()
            self._rng = self._play.rng.child(self._label)
        return self._encrypt(rho, self._rng.child(f"{self._prefix}{self._calls}"))

    def decrypt(self, ct) -> DensityMatrix:
        self._tick("dec")
        return self._decrypt(ct)


# Handles that grant nothing keep no state, so each is shared.
_UNGRANTED = Oracles()


# ---------------------------------------------------------------------------
# One coin tree, two interpreters
# ---------------------------------------------------------------------------


class ExactPlay:
    """Exact interpreter: every coin yields all of its declared cases.

    A game builds one for both its arms, and every role context it hands
    out shares its memo (`keep`), so what the game enumerates once, such
    as a key's encryption cases, serves every arm and role of that game
    and lives no longer than it.  As a role's context it carries `pk` and
    `scheme`, and oracles that refuse every call: exact mode plays only
    declared coins.
    """

    exact = True
    oracles = Oracles(where="in exact mode")

    def __init__(self, pk=None, scheme=None, memo=None):
        self.pk, self.scheme = pk, scheme
        self._memo = {} if memo is None else memo

    def keep(self, key, build):
        """`build()`, run once per `key` in this game."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def coin(self, label: str, cases, draw=None):
        """A coin: (weight, value) pairs from `cases()`, or one `draw(rng)` when sampled.

        Without `draw` the coin is certain: `cases()` holds its one case.
        """
        return cases()

    def context(self, coins: str, oracles=None, pk=None, scheme=None) -> "ExactPlay":
        """A role's context: its private coins are enumerated, it shares the
        game's memo, and it gets no oracles."""
        return ExactPlay(pk, scheme, self._memo)

    def unrecorded(self) -> None:
        """Nothing to do: exact mode keeps no trials."""

    def prob(self, value):
        if not isinstance(value, (int, Fraction)):
            raise EnumerationCapError(
                f"role returned a non-exact probability {value!r} in exact mode"
            )
        return value


class Trial:
    """One sampled trial's streams and drawn coins, shared by all its interpreters.

    A coin's path is the labels from the trial's stream to the coin's
    stream: `("key",)`, or `("sim-coins", "sim-key")` for a coin of the
    `sim-coins` context.  `stream(prefix)` builds each context stream once
    and keeps it, and each coin's stream is built when the coin draws.

    A trial replayed from a branch memo (`games.game_arm`) first `draw`s
    the coins the memo recorded, in order.  If the memo does not hold the
    rest of its branch, the arm is played in full, and each coin `take`s
    back the value drawn for it before any new coin draws.  So no stream is
    built or drawn twice, and the trial builds the streams a plain play
    builds.  While `recording`, each coin drawn is kept in `coins` as
    (path, draw, value); `unrecorded()` stops that and marks in `stop` how
    many coins came before.
    """

    __slots__ = ("_streams", "coins", "_taken", "recording", "stop")

    def __init__(self, rng: Stream):
        self._streams = {(): rng}
        self.coins = []
        self._taken = 0
        self.recording = False
        self.stop = None

    def stream(self, prefix: tuple) -> Stream:
        """The stream at `prefix` under the trial's, built on first use."""
        rng = self._streams.get(prefix)
        if rng is None:
            rng = self._streams[prefix] = self.stream(prefix[:-1]).child(prefix[-1])
        return rng

    def draw(self, path: tuple, draw):
        """A recorded coin, drawn ahead of the play from the stream at `path`."""
        value = draw(self.stream(path[:-1]).child(path[-1]))
        self.coins.append((path, draw, value))
        return value

    def take(self, prefix: tuple, label: str, draw):
        """The play's next coin: a value drawn ahead of it, or a fresh draw."""
        taken = self._taken
        if taken < len(self.coins):
            path, _, value = self.coins[taken]
            if path != prefix + (label,):
                raise RoleError(
                    f"a trial replayed coin {'/'.join(path)} where its play draws "
                    f"{'/'.join(prefix + (label,))}: a role declares pure = True but is not"
                )
            self._taken = taken + 1
            return value
        value = draw(self.stream(prefix).child(label))
        if self.recording:
            self.coins.append((prefix + (label,), draw, value))
            self._taken = taken + 1
        return value

    def unrecorded(self) -> None:
        if self.recording:
            self.recording = False
            self.stop = self._taken


class SamplingPlay:
    """Sampling interpreter: every coin yields one case, drawn from its own stream.

    A coin labelled `label` draws from `rng.child(label)` with weight 1,
    so an arm's branches collapse to the single branch of one trial.  A
    certain coin (no `draw`) yields its one case and builds no stream.
    `SamplingPlay(rng)` plays one trial under `rng`; its contexts share
    its `Trial` and play under `rng.child(coins)`, built on their first
    draw, so a role that never draws builds no stream.
    """

    __slots__ = ("_trial", "_prefix", "oracles", "pk", "scheme")
    exact = False

    def __init__(self, rng, prefix: tuple = (), oracles: Oracles = _UNGRANTED, pk=None,
                 scheme=None):
        """`rng` is the trial's stream, or the `Trial` of a trial already under way."""
        self._trial = rng if type(rng) is Trial else Trial(rng)
        self._prefix = prefix
        self.oracles, self.pk, self.scheme = oracles, pk, scheme

    @property
    def rng(self) -> Stream:
        return self._trial.stream(self._prefix)

    def coin(self, label: str, cases, draw=None):
        if draw is None:
            ((_, value),) = cases()
            return ((1, value),)
        return ((1, self._trial.take(self._prefix, label, draw)),)

    def context(self, coins: str, oracles=None, pk=None, scheme=None) -> "SamplingPlay":
        """A role's context: private coins under `rng.child(coins)`, handles from
        `oracles(self)`, or none granted without a factory."""
        self._trial.stream(self._prefix)  # a context's parent stream is built with it
        return SamplingPlay(self._trial, self._prefix + (coins,),
                            _UNGRANTED if oracles is None else oracles(self), pk, scheme)

    def unrecorded(self) -> None:
        """This trial's branch is not to be recorded from here on."""
        self._trial.unrecorded()

    def prob(self, value) -> float:
        return float(value)


@dataclass(frozen=True)
class MessageCase:
    """One deterministic branch of a message generator."""

    weight: Fraction
    state: DensityMatrix
    transcript: Optional[str] = None


def sample_case(cases: list[MessageCase], rng: Stream) -> MessageCase:
    """One case drawn by weight; a one-case list is a certain coin and never drawn."""
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
    """Produces the challenge state over named registers (M, optional E/F).

    `pure` is declared as the module docstring says.
    """

    pure: bool = False

    def cases(self, pk, ctx) -> list[MessageCase]:
        raise NotImplementedError


class _FixedMessage(MessageGenerator):
    """A generator with one fixed case per scalar mode.

    The case is built on first use in each mode, and every later call
    returns that same immutable `MessageCase`, so a game's memos keyed by
    the state's identity serve all its trials.
    """

    pure = True

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

    @property
    def pure(self):
        return self.base.pure

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
    measurement-based roles it is summed from the state's diagonal blocks,
    in the state's own numbers.

    `reads_tag` and `measured` are contracts the role class declares, not
    options.  `measured` names the registers `decide` reads; a readout reads
    it from its register arguments, by a property.  `reads_tag =
    False` promises that `prob_one(tag, state, ctx)` depends only on
    `state` and `ctx`.  Exact IND enumeration then measures each distinct
    pad once per game, challenge state and `ctx.pk`, with the first tag that
    has the pad, and reuses that value for every tag with the same pad.  The
    default `True` is always safe: such a role is evaluated on every branch.

    `pure` is declared as the module docstring says.
    """

    measured: tuple[str, ...] = ("M",)
    reads_tag: bool = True
    pure: bool = False

    def pre_map(self, tag, state: DensityMatrix, ctx) -> DensityMatrix:
        return state

    def decide(self, tag, outcome: str, ctx) -> int:
        raise NotImplementedError

    def prob_one(self, tag, state: DensityMatrix, ctx):
        mapped = self.pre_map(tag, state, ctx)
        dist = measurement_distribution(mapped, self.measured)
        return sum(p for outcome, p in dist.items() if self.decide(tag, outcome, ctx) == 1)


class ConstantDistinguisher(Distinguisher):
    reads_tag = False
    pure = True

    def __init__(self, bit: int):
        self.bit = 1 if bit else 0

    def prob_one(self, tag, state, ctx):
        return self.bit

    def decide(self, tag, outcome, ctx):
        return self.bit


class CoinDistinguisher(Distinguisher):
    """State-independent fair coin; advantage zero in every game."""

    reads_tag = False
    pure = True

    def prob_one(self, tag, state, ctx):
        return Fraction(1, 2)

    def decide(self, tag, outcome, ctx):  # pragma: no cover - sampling helper
        raise RoleError("a coin flip has no deterministic decision")


class MeasureEqualsDistinguisher(Distinguisher):
    """Measure one register; output 1 iff the outcome equals a fixed value."""

    reads_tag = False
    pure = True

    def __init__(self, value: str, register: str = "M"):
        self.value = value
        self.register = register

    @property
    def measured(self):
        return (self.register,)

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
    pure = True

    def __init__(self, first: str = "OUT", second: str = "F"):
        self.first = first
        self.second = second

    @property
    def measured(self):
        return (self.first, self.second)

    def prob_one(self, tag, state, ctx):
        mapped = self.pre_map(tag, state, ctx)
        width = mapped.register(self.first).qubits
        if mapped.register(self.second).qubits != width:
            return 0
        dist = measurement_distribution(mapped, self.measured)
        return sum(p for outcome, p in dist.items() if outcome[:width] == outcome[width:])

    def decide(self, tag, outcome, ctx):
        half = len(outcome) // 2
        return 1 if outcome[:half] == outcome[half:] else 0


class NegatedDistinguisher(Distinguisher):
    """The same strategy with the output bit flipped; contracts read through."""

    def __init__(self, base: Distinguisher):
        self.base = base

    @property
    def measured(self):
        return self.base.measured

    @property
    def reads_tag(self):
        return self.base.reads_tag

    @property
    def pure(self):
        return self.base.pure

    def pre_map(self, tag, state, ctx):
        return self.base.pre_map(tag, state, ctx)

    def decide(self, tag, outcome, ctx):
        return 1 - self.base.decide(tag, outcome, ctx)

    def prob_one(self, tag, state, ctx):
        return 1 - self.base.prob_one(tag, state, ctx)


# ---------------------------------------------------------------------------
# Channels: adversaries and simulators
# ---------------------------------------------------------------------------


class Channel:
    """A state-to-state role (semantic-security adversary or simulator).

    `outputs` yields (weight, output state) pairs, one per branch of the
    role's private coins, which it draws with `ctx.coin`.  A deterministic
    role defines only `transform` and is a single branch of weight 1.
    Every output must act as the identity on any register the role does
    not own (in particular the target register F).  `reads_tag = False`
    promises, as a distinguisher's does, that `outputs(tag, state, ctx)`
    depends only on `state` and `ctx`; the default `True` is always safe.
    `pure` is declared as the module docstring says.
    """

    reads_tag: bool = True
    pure: bool = False

    def outputs(self, tag, state: DensityMatrix, ctx):
        return ((1, self.transform(tag, state, ctx)),)

    def transform(self, tag, state: DensityMatrix, ctx) -> DensityMatrix:
        raise NotImplementedError


class CopyPayloadAdversary(Channel):
    """Forward the ciphertext payload register as the output, drop the rest."""

    reads_tag = False
    pure = True

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

    reads_tag = False
    pure = True

    def __init__(self, bits: str, out: str = "OUT"):
        self.bits = bits
        self.out = out

    def transform(self, tag, state, ctx):
        drop = [r for r in state.names if r != "F"]
        rest = partial_trace(state, drop) if drop else state
        return tensor(basis_state(self.bits, self.out, state.exact), rest)


class UniformOutputChannel(Channel):
    """Ignore the input; emit a uniformly random string (maximally mixed)."""

    reads_tag = False
    pure = True

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

    @property
    def reads_tag(self):
        return self.dist.reads_tag

    @property
    def pure(self):
        return self.dist.pure

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
    """Compose a channel with a distinguisher into one distinguisher.

    `measured` reads through from the distinguisher, `reads_tag` from the
    channel, which alone sees the tag, and `pure` from both.
    """

    def __init__(self, channel: Channel, dist: Distinguisher):
        self.channel = channel
        self.dist = dist

    @property
    def measured(self):
        return self.dist.measured

    @property
    def reads_tag(self):
        return self.channel.reads_tag

    @property
    def pure(self):
        return self.channel.pure and self.dist.pure

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
    """A public classical circuit applied to the generator's transcript.

    `fn` is deterministic: it depends only on its arguments.
    """

    fn: Callable[[object, str], str]
    in_len: Optional[int] = None
    out_len: int = 1

    def evaluate(self, pk, x: str) -> str:
        if self.in_len is not None and len(x) != self.in_len:
            raise RoleError(
                f"transcript has {len(x)} bits but the function consumes {self.in_len}"
            )
        y = self.fn(pk, x)
        if len(y) != self.out_len or not is_bitstring(y):
            raise RoleError(f"classical function returned {y!r}, expected {self.out_len} bits")
        return y


def constant_function(value: str, in_len: Optional[int] = None) -> ClassicalFunction:
    return ClassicalFunction(lambda pk, x: value, in_len=in_len, out_len=len(value))


def identity_function(length: int) -> ClassicalFunction:
    return ClassicalFunction(lambda pk, x: x, in_len=length, out_len=length)


def last_bit_function(in_len: Optional[int] = None) -> ClassicalFunction:
    return ClassicalFunction(lambda pk, x: x[-1], in_len=in_len, out_len=1)
