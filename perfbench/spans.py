"""Per-layer spans and counts, recorded from outside `qelab`.

`install` wraps the layers' public functions and methods in place, for the
rest of the process.  A module that did `from .quantum import apply_pauli`
holds its own reference, so every module attribute bound to the original
is rebound; methods are wrapped on the class that defines them.

A span is (name, start, end, parent, command).  A layer's self time is its
spans' duration minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Module-level functions, by the module that defines them.
FUNCTIONS = {
    "quantum": (
        "apply_pauli", "measurement_distribution", "partial_trace", "tensor",
        "replace_with_zero_state", "trace_distance", "channel_choi_distance",
        "qotp_average",
    ),
    "primitives": ("prg_iterated",),
    "serialize": ("canonical_json",),
    "cli": ("main",),
    # Scope for rng.streams_per_trial only; its self time is not reported.
    "estimate": ("estimate_probability",),
}

# (module, class, method, span name).
METHODS = (
    ("primitives", "GgmPrf", "evaluate", "primitives.GgmPrf.evaluate"),
    ("primitives", "ToyRsaPermutationFamily", "generate",
     "primitives.ToyRsaPermutationFamily.generate"),
    ("primitives", "ToyRsaPermutationFamily", "domain",
     "primitives.ToyRsaPermutationFamily.domain"),
    ("estimate", "GameArm", "exact_probability", "estimate.exact_probability"),
    ("estimate", "GameArm", "sample", "estimate.sample"),
    ("rng", "Stream", "__init__", "rng.Stream.init"),
)

SCHEME_METHODS = ("keygen", "encrypt_cases", "sample_encryption", "encrypt", "decrypt")
ROLE_METHODS = ("prob_one", "transform")
DRAWS = ("bits", "integer", "uniform", "numpy")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.command = -1
        self.counts: Counter = Counter()
        self.pauli_inputs: list = []
        self._qrat = itertools.count()
        self._drawing: set[int] = set()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import qelab  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n.startswith("qelab.")]
        for short, names in FUNCTIONS.items():
            home = _module(short)
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{short}.{name}", original)
                if name == "apply_pauli":
                    wrapped = self._recording_inputs(wrapped)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)
        for short, cls_name, method, span in METHODS:
            cls = getattr(_module(short), cls_name)
            setattr(cls, method, self.wrap(span, cls.__dict__[method]))
        for cls in _classes(modules, _module("schemes").PauliTagScheme):
            for method in SCHEME_METHODS:
                if method in cls.__dict__:
                    setattr(cls, method, self._scheme_method(method, cls.__dict__[method]))
        roles = _module("roles")
        for cls in _classes(modules, (roles.Distinguisher, roles.Channel)):
            for method in ROLE_METHODS:
                if method in cls.__dict__:
                    setattr(cls, method, self.wrap(f"roles.{method}", cls.__dict__[method]))

        self._count_branches(_module("estimate").GameArm)
        self._count_qrats(_module("rationals").QRat)
        self._track_draws(_module("rng").Stream)

    def _scheme_method(self, method: str, fn):
        traced = self.wrap(f"schemes.{method}", fn)
        if method != "encrypt_cases":
            return traced
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cases = traced(*args, **kwargs)
            if cases is not None:
                counts["schemes.encrypt_cases.cases"] += len(cases)
            return cases

        return counted

    def _count_branches(self, game_arm) -> None:
        original = game_arm.__init__
        counts = self.counts

        def __init__(arm, branches=None, sample_probability=None):
            if branches is not None:
                inner = branches

                def branches():
                    for item in inner():
                        counts["estimate.branches"] += 1
                        yield item

            original(arm, branches, sample_probability)

        game_arm.__init__ = __init__

    def _count_qrats(self, qrat) -> None:
        original = qrat.__init__
        built = self._qrat

        def __init__(value, re=0, im=0):
            next(built)
            original(value, re, im)

        qrat.__init__ = __init__

    def _track_draws(self, stream) -> None:
        # Stream has __slots__ and no weak references, so a stream is known
        # by id(); a new stream may reuse a dead one's id, hence the discard.
        drawing, counts = self._drawing, self.counts
        init = stream.__init__

        def __init__(s, seed, path=()):
            drawing.discard(id(s))
            init(s, seed, path)

        stream.__init__ = __init__
        for name in DRAWS:
            original = getattr(stream, name)

            def draw(s, *args, _original=original, **kwargs):
                if id(s) not in drawing:
                    drawing.add(id(s))
                    counts["rng.Stream.drew"] += 1
                return _original(s, *args, **kwargs)

            setattr(stream, name, draw)

    def _recording_inputs(self, traced):
        # Keep references only; inputs are compared after the run, so
        # hashing them costs no traced time.
        inputs = self.pauli_inputs

        @functools.wraps(traced)
        def apply_pauli(key, state, target=None):
            inputs.append((key, target, state))
            return traced(key, state, target)

        return apply_pauli

    # -- results -------------------------------------------------------------
    def self_times(self) -> tuple[Counter, defaultdict]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, own = Counter(), defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child[i]
        return calls, own

    def streams_in_trials(self) -> int:
        """Streams built inside sampled estimates, trial streams included."""
        inside = [False] * len(self.spans)
        count = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            inside[i] = name == "estimate.estimate_probability" or (
                parent >= 0 and inside[parent]
            )
            if inside[i] and name == "rng.Stream.init":
                count += 1
        return count

    def distinct_pauli_inputs(self) -> int:
        seen = set()
        for key, target, state in self.pauli_inputs:
            if state.exact:
                content = tuple((v.re, v.im) for v in state.mat.flat)
            else:
                content = state.mat.tobytes()
            seen.add((key, target, state.layout, content))
        return len(seen)

    def qrats_built(self) -> int:
        return next(self._qrat)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tcommand\n")
            for i, (name, start, end, parent, command) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}"
                         f"\t{parent}\t{command}\n")


def _module(short: str):
    return sys.modules[f"qelab.{short}"]


def _classes(modules, base):
    seen = set()
    for module in modules:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, base) and cls not in seen:
                seen.add(cls)
                yield cls
