"""qelab's benchmark: one workload, one seed, end to end or traced per layer.

    python3 perfbench/run.py --workload exact-ske-q3 --seed 7 --seconds 55 --trace 0

Run from the root of a qelab source checkout; the program is imported from
its `src/` and from nowhere else.  Each workload is a closed loop with one
client: `qelab.cli.main(argv)` is called in-process, one command at a time,
and every report is checked against `reference.py` before it counts.

`--trace 0` times whole passes over the workload's command list for about
`--seconds` seconds and prints the end-to-end metrics.  `--trace 1` runs
one untimed pass, then one pass with every layer wrapped in spans, and
prints the per-layer metrics.  The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The exit code
is 1 when any command fails or disagrees with its reference, and 2 when
the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import GateError
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    """The workload cannot run in this checkout."""


def import_qelab():
    """Import qelab from this checkout's src/, never from site-packages."""
    if not (SRC / "qelab" / "__init__.py").is_file():
        raise SetupError(f"no qelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qelab
    import qelab.cli

    if Path(qelab.__file__).resolve().parent != SRC / "qelab":
        raise SetupError(f"imported qelab from {qelab.__file__}, not from {SRC}")
    return qelab.cli


# ---------------------------------------------------------------------------
# One command, one pass
# ---------------------------------------------------------------------------


def run_command(cli, command) -> tuple[float, str | None]:
    """(wall seconds of the `main` call, failure or None)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(command.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # any crash counts as a failed command
        return perf_counter() - start, f"raised {exc!r}"
    elapsed = perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}"
    try:
        command.check(json.loads(out.getvalue()))
    except GateError as exc:
        return elapsed, f"wrong answer: {exc}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return elapsed, f"malformed report: {exc!r}"
    return elapsed, None


class Pass:
    """Wall time of each command in one pass over a workload."""

    def __init__(self, cli, workload, tracer=None):
        self.times = []
        self.failures = []
        for i, command in enumerate(workload.commands):
            if tracer is not None:
                tracer.command = i
            elapsed, failure = run_command(cli, command)
            self.times.append(elapsed)
            if failure is not None:
                self.failures.append(f"{' '.join(command.argv)}: {failure}")

    @property
    def wall(self) -> float:
        return sum(self.times)


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def setup_probe(workload, seed: int) -> list[str]:
    """A fresh interpreter that times `import qelab` plus the workload's `build_scheme`s."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        "import qelab\n"
        f"for name, n, qubits in {list(workload.schemes)!r}:\n"
        f"    qelab.build_scheme(name, n, qubits, qelab.Stream({seed}))\n"
        "print(repr(time.perf_counter() - start))\n"
    )
    return [sys.executable, "-I", "-c", code]


def measure_setup(argv: list[str]) -> float:
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SetupError(f"set-up interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(cli, workload, seed: int, seconds: float):
    probe = setup_probe(workload, seed)
    setup = [measure_setup(probe)]
    passes = []
    start = perf_counter()
    while True:
        passes.append(Pass(cli, workload))
        elapsed = perf_counter() - start
        # The machine's speed drifts over seconds, so set-up samples are
        # spread over the run rather than taken in one burst.
        while len(setup) < 1 + (SETUP_REPEATS - 1) * min(elapsed / seconds, 1.0):
            setup.append(measure_setup(probe))
        # Closed loop: start another pass only if it should end in time.
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(probe))
    rss = peak_rss_mb()

    walls = [p.wall for p in passes]
    run_s = statistics.median(walls)
    failures = [f for p in passes for f in p.failures]
    attempted = len(passes) * len(workload.commands)
    lines = [
        ("run_s", run_s, "s",
         f"median of {len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls)),
    ]
    if workload.exact:
        lines.append(("branches_per_s", workload.branches / run_s, "1/s",
                      f"{workload.branches} branches over both arms"))
    else:
        sampled = [
            sum(t for t, c in zip(p.times, workload.commands) if c.trials + c.other_trials)
            for p in passes
        ]
        lines.append(("trials_per_s", workload.arm_trials / statistics.median(sampled), "1/s",
                      f"{workload.arm_trials} arm-trials over game and reduce wall time"))
    work_per_s = statistics.median(workload.work / w for w in walls)
    base = "branches" if workload.exact else "arm-trials"
    lines += [
        ("work_per_s", work_per_s, "1/s", f"{workload.work} {base} per pass, median of passes"),
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
        ("peak_rss_mb", rss, "MB", "maximum RSS of this process"),
        ("failed_frac", len(failures) / attempted, "ratio", f"{len(failures)}/{attempted}"),
    ]
    metrics = {
        name: {"value": value, "unit": unit}
        for name, value, unit, _ in lines
        if name in ("work_per_s", "setup_s", "peak_rss_mb")
    }
    return lines, metrics, attempted, failures


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

QUANTUM = (
    "measurement_distribution", "partial_trace", "tensor", "replace_with_zero_state",
    "trace_distance", "channel_choi_distance", "qotp_average",
)
# Spans reported with their call count and self time.
TIMED_LAYERS = (
    "quantum.apply_pauli",
    *(f"quantum.{name}" for name in QUANTUM),
    *(f"schemes.{name}" for name in
      ("keygen", "encrypt_cases", "sample_encryption", "encrypt", "decrypt")),
    *(f"primitives.{name}" for name in
      ("GgmPrf.evaluate", "prg_iterated", "ToyRsaPermutationFamily.generate",
       "ToyRsaPermutationFamily.domain")),
    "roles.prob_one",
    "roles.transform",
)


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def traced_run(cli, workload):
    from spans import Tracer

    plain = Pass(cli, workload)
    tracer = Tracer()
    tracer.install()
    traced = Pass(cli, workload, tracer)

    calls, own = tracer.self_times()
    trials = calls["estimate.sample"]
    built = calls["rng.Stream.init"]
    layer = {}

    def put(name, value, unit):
        layer[name] = {"value": value, "unit": unit}

    for span in TIMED_LAYERS:
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.self_s", own[span], "s")
    put("quantum.apply_pauli.distinct_ratio",
        share(tracer.distinct_pauli_inputs(), calls["quantum.apply_pauli"]), "ratio")
    put("rationals.QRat.built", tracer.qrats_built(), "count")
    put("estimate.branches", tracer.counts["estimate.branches"], "count")
    put("estimate.trials", trials, "count")
    put("estimate.exact_probability.self_s", own["estimate.exact_probability"], "s")
    put("estimate.sample.self_s", own["estimate.sample"], "s")
    put("schemes.encrypt_cases.cases", tracer.counts["schemes.encrypt_cases.cases"], "count")
    put("rng.Stream.built", built, "count")
    put("rng.Stream.init_s", own["rng.Stream.init"], "s")
    put("rng.Stream.drawn_ratio", share(tracer.counts["rng.Stream.drew"], built), "ratio")
    put("rng.streams_per_trial", share(tracer.streams_in_trials(), trials), "ratio")
    put("cli.main.self_s", own["cli.main"], "s")
    put("serialize.canonical_json.self_s", own["serialize.canonical_json"], "s")
    put("trace_overhead", traced.wall / plain.wall, "ratio")

    failures = plain.failures + traced.failures
    mismatches = []
    if tracer.counts["estimate.branches"] != workload.branches:
        mismatches.append(f"traced {tracer.counts['estimate.branches']} branches, "
                          f"expected {workload.branches}")
    if trials != workload.trials:
        mismatches.append(f"traced {trials} arm-trials, expected {workload.trials}")
    lines = [(name, m["value"], m["unit"], "") for name, m in layer.items()]
    return tracer, lines, layer, 2 * len(workload.commands), failures, mismatches


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    try:
        cli = import_qelab()
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            tracer, lines, metrics, attempted, failures, mismatches = traced_run(cli, workload)
            tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.tsv.gz")
        else:
            lines, metrics, attempted, failures = timed_run(cli, workload, args.seed,
                                                            args.seconds)
            mismatches = []
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    for name, value, unit, note in lines:
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for failure in failures + mismatches:
        print(f"FAILED {failure}")
    correct = not failures and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
