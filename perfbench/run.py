"""conmoe benchmark: run one workload's CLI command sequence and print its
metrics. Run from the root of a repository checkout:

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1   # every workload, both modes;
                                              # writes perfbench/results/

--trace 0 sets up (`conmoe gen`) three times, then repeats passes of the
workload's commands as `python -m conmoe.cli` children until --seconds
have passed (at least two passes), and reports the end-to-end metrics as
medians, each command's time scaled to a reference CPU speed (see
REFERENCE_PROBE_S). --trace 1 runs one untraced and one traced pass
in-process through `conmoe.cli.main` and reports the per-layer metrics
from spans, in plain wall time.

Every command and every output check is an attempted operation. A
non-zero exit, a missing output or a failed check is a failed operation,
printed by name with its error text, and its time enters no metric. An
operation repeated in every pass counts once, and as failed if it failed
in any pass, so attempted and failed depend on the seed only, not on how
many passes fit in --seconds. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import PER_LAYER_UNITS, Tracer, install_hooks, per_layer_metrics, rollup
from workloads import WORKLOADS, fields

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2          # so every run checks pass-to-pass byte identity
# The CPUs of a shared machine switch between speeds (on the 2-CPU Intel
# Xeon VM the baseline was recorded on, up to 2x apart) for tens of
# seconds at a time, longer than a run. End-to-end times are therefore
# reported at a reference speed: wall time times REFERENCE_PROBE_S over
# the speed probe's CPU time around and during the command.
# REFERENCE_PROBE_S is about the probe's time on that VM's fast state.
PROBE_LOOPS = 50_000
REFERENCE_PROBE_S = 0.0035
SAMPLE_INTERVAL_S = 0.5
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
FORWARD_CHECK_TOKENS = 16
OP_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "calibrate_s": "s",
    "consolidate_s": "s",
    "eval_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = {"calibrate_s": "calibrate", "consolidate_s": "consolidate", "eval_s": "eval"}


class CheckFailed(Exception):
    pass


class Ledger:
    """Attempted operations and the failed ones, by name. A name recorded
    again is the same operation repeated: it counts once, and as failed
    with its first error if any attempt failed."""

    def __init__(self):
        self.errors: dict[str, str | None] = {}
        self.checks: set[str] = set()  # output checks, as opposed to commands

    @property
    def attempted(self) -> int:
        return len(self.errors)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(name, error) for name, error in self.errors.items() if error is not None]

    @property
    def failed_checks(self) -> int:
        return sum(self.errors[name] is not None for name in self.checks)

    def record(self, name: str, error: str | None) -> bool:
        if self.errors.get(name) is None:
            self.errors[name] = error
        return error is None

    def check(self, name: str, fn, *args) -> None:
        self.checks.add(name)
        try:
            fn(*args)
        except Exception as exc:  # any failing check is counted, never fatal
            self.record(name, f"{type(exc).__name__}: {exc}")
        else:
            self.record(name, None)


def run_child(name: str, argv: list[str]) -> tuple[float, str | None]:
    """`python -m conmoe.cli ARGV` as a child process; (wall s, error)."""
    return _run_python(["-m", "conmoe.cli", *argv])


def _run_python(argv: list[str]) -> tuple[float, str | None]:
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, f"timed out after {OP_TIMEOUT_S} s"
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return seconds, f"exit {proc.returncode}: {_last_line(proc.stderr)}"
    return seconds, None


def speed_probe() -> float:
    """Best of three runs of a fixed pure-Python loop: how fast this CPU
    runs right now."""
    best = float("inf")
    for _ in range(3):
        start = time.thread_time()  # CPU time, so a child sharing the CPU does not count
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.thread_time() - start)
    return best


def at_reference_speed(runner):
    """Runner whose times are scaled by REFERENCE_PROBE_S over the mean
    speed probe taken just before, every SAMPLE_INTERVAL_S during, and
    just after each command. A probe during a command preempts it briefly
    on the same CPU."""

    def run(name: str, argv: list[str]) -> tuple[float, str | None]:
        samples = [speed_probe()]
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_INTERVAL_S):
                samples.append(speed_probe())

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            seconds, error = runner(name, argv)
        finally:
            stop.set()
            sampler.join()
        samples.append(speed_probe())
        return seconds * REFERENCE_PROBE_S / statistics.fmean(samples), error

    return run


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def in_process(cli_main, tracer: Tracer | None = None):
    """Runner calling conmoe.cli.main(argv) in this process, each command
    inside a `cli.<op>` span when a tracer is given."""

    def run(name: str, argv: list[str]) -> tuple[float, str | None]:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{name}") if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
        except Exception as exc:  # a crashing command is a counted failure
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, f"exit {code}: {_last_line(err.getvalue())}"
        return seconds, None

    return run


def run_ops(ops, f: dict, runner, ledger: Ledger, label: str) -> dict[str, float]:
    """Run ops in order; returns the wall time of each timed op that
    succeeded and wrote its outputs."""
    times = {}
    for op in ops:
        seconds, error = runner(op.name, op.argv(f))
        if error is None:
            absent = [p for p in op.output_paths(f) if not os.path.isfile(p)]
            if absent:
                error = f"missing output {Path(absent[0]).name}"
        if ledger.record(f"{label}.{op.name}", error) and op.timed:
            times[op.name] = seconds
    return times


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def same_artifacts(first: dict, current: dict) -> None:
    differing = sorted(k for k in first.keys() | current.keys() if first.get(k) != current.get(k))
    if differing:
        raise CheckFailed("not byte-identical to the first pass: " + ", ".join(differing))


def import_conmoe():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import conmoe
    import conmoe.cli

    return conmoe


def output_checks(workload, f: dict, conmoe, ledger: Ledger, label: str) -> None:
    """Checks on one pass's artifacts, each an attempted operation."""
    out, setup = Path(f["out"]), Path(f["setup"])
    for path in sorted(out.glob("*.json")):
        if path.name.endswith("plan.json"):
            ledger.check(f"{label}.readback.{path.name}", conmoe.read_plan, path)
        elif path.name.endswith("stats.json"):
            ledger.check(f"{label}.readback.{path.name}", conmoe.read_stats, path)
        else:
            ledger.check(f"{label}.readback.{path.name}", read_json, path)

    ledger.check(f"{label}.plan_forward", check_plan_forward, conmoe, workload, setup, out,
                 f["eval_seed"] + 1)
    if workload.dup_check:
        ledger.check(f"{label}.dup_check", check_duplicates, conmoe, workload, setup, out)


def read_json(path: Path):
    return json.loads(path.read_text("utf-8"))


def check_plan_forward(conmoe, workload, setup: Path, out: Path, token_seed: int) -> None:
    """The plan forward equals the materialized checkpoint's plain forward
    bit for bit on a token subset."""
    model_name, plan_name, materialized_name = workload.forward_check
    model = conmoe.read_checkpoint(setup / model_name)
    plan = conmoe.read_plan(out / plan_name)
    if materialized_name:
        materialized = conmoe.read_checkpoint(out / materialized_name)
    else:
        materialized = conmoe.materialize(model, plan)
    tokens = conmoe.gen_tokens(FORWARD_CHECK_TOKENS, model.spec.hidden_dim, token_seed)
    differing = [
        t for t, h in enumerate(tokens)
        if conmoe.model_forward(model, h, plan).tobytes()
        != conmoe.model_forward(materialized, h).tobytes()
    ]
    if differing:
        raise CheckFailed(f"plan forward differs from the materialized forward on tokens {differing}")


def check_duplicates(conmoe, workload, setup: Path, out: Path) -> None:
    """Every planted exact duplicate shares its source's prototype, and the
    plan's fidelity error is exactly 0.0."""
    model_name, plan_name, report_name = workload.dup_check
    planted = conmoe.read_checkpoint(setup / model_name).metadata["planted_duplicates"]
    assignment = conmoe.read_plan(out / plan_name).assignment
    recalled = sum(assignment[tuple(copy)] == assignment[tuple(src)] for copy, src in planted)
    report = read_json(out / report_name)
    errors = [report["end_to_end_error"], *report["per_layer_error"]]
    if recalled != len(planted) or any(e != 0.0 for e in errors):
        raise CheckFailed(f"duplicate recall {recalled}/{len(planted)}, max error {max(errors)!r}")


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def measure(workload, seed: int, seconds: int, work: Path, ledger: Ledger) -> dict:
    """End-to-end metrics from child-process passes, in seconds at the
    reference CPU speed."""
    # The speed probe must run on the CPU the children run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = at_reference_speed(run_child)
    setup = work / "setup"
    setup.mkdir(parents=True)
    setup_times = []
    for rep in range(1, SETUP_REPEATS + 1):
        times = run_ops(workload.gens, fields(seed, str(setup)), runner, ledger, "setup")
        if len(times) == len(workload.gens):
            setup_times.append(sum(times.values()))
        if rep == 1:
            first_setup = digest(setup)
        else:
            ledger.check("setup.identical", same_artifacts, first_setup, digest(setup))

    passes: list[dict[str, float]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        out = work / f"pass{len(passes) + 1}"
        out.mkdir()
        passes.append(run_ops(workload.ops, fields(seed, str(setup), str(out)), runner, ledger,
                              "pass"))

    # Checks run after the timed loop, and conmoe is imported only now: a
    # child's ru_maxrss counts the pages of the parent it was spawned from.
    digests = [digest(work / f"pass{k}") for k in range(1, len(passes) + 1)]
    output_checks(workload, fields(seed, str(setup), str(work / "pass1")), import_conmoe(),
                  ledger, "pass")
    for current in digests[1:]:
        ledger.check("pass.identical", same_artifacts, digests[0], current)

    metrics = {
        "pipeline_s": _median([sum(p.values()) for p in passes if p]),
        **{metric: _median([p[op] for p in passes if op in p]) for metric, op in STAGES.items()},
        "setup_s": _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return {"metrics": metrics, "passes": passes, "setup_times": setup_times}


def measure_traced(workload, seed: int, work: Path, ledger: Ledger) -> dict:
    """Per-layer metrics from an untraced and a traced in-process pass."""
    setup = work / "setup"
    setup.mkdir(parents=True)
    run_ops(workload.gens, fields(seed, str(setup)), run_child, ledger, "setup")
    startup = []
    for rep in range(1, STARTUP_REPEATS + 1):
        elapsed, error = _run_python(["-c", "import conmoe.cli"])
        if ledger.record(f"startup{rep}", error):
            startup.append(elapsed)

    conmoe = import_conmoe()
    untraced = work / "untraced"
    untraced.mkdir()
    f = fields(seed, str(setup), str(untraced))
    start = time.perf_counter()
    run_ops(workload.ops, f, in_process(conmoe.cli.main), ledger, "untraced")
    untraced_s = time.perf_counter() - start
    output_checks(workload, f, conmoe, ledger, "untraced")

    traced = work / "traced"
    traced.mkdir()
    tracer = Tracer()
    restore, missing = install_hooks(tracer, conmoe)
    try:
        with tracer.span("pass") as root:
            run_ops(workload.ops, fields(seed, str(setup), str(traced)),
                    in_process(conmoe.cli.main, tracer), ledger, "traced")
    finally:
        restore()
    ledger.check("traced.identical", same_artifacts, digest(untraced), digest(traced))

    metrics = per_layer_metrics(tracer, workload.num_layers, root.duration, untraced_s,
                                _median(startup) or 0.0)
    return {"metrics": metrics, "missing_hooks": missing, "spans": rollup(tracer.spans)}


def environment(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))  # before measure() pins this process to one CPU
    ledger = Ledger()
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            outcome = measure_traced(workload, args.seed, work, ledger)
        else:
            outcome = measure(workload, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = outcome.pop("metrics")
    spans = outcome.pop("spans", None)
    if args.spans and spans is not None:
        header = {"workload": workload.name, "seed": args.seed,
                  "missing_hooks": outcome["missing_hooks"]}
        Path(args.spans).write_text("".join(json.dumps(r) + "\n" for r in [header, *spans]))

    for name, error in ledger.failures:
        print(f"FAILED {name}: {error}")
    for name in outcome.get("missing_hooks", ()):
        print(f"MISSING hook target conmoe.{name}: not spanned")
    print(f"fail_ratio {len(ledger.failures)}/{ledger.attempted} = "
          f"{len(ledger.failures) / ledger.attempted:.4f}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": environment(nproc), "failures": ledger.failures, **outcome}
    print("detail " + json.dumps(detail))
    # Failed commands count in attempted/failed; `correct` says whether the
    # outputs that were produced passed their checks.
    print(json.dumps({
        "correct": ledger.failed_checks == 0,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes and write perfbench/results/")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced pass's spans to this JSON Lines file")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conmoe" / "cli.py").is_file():
        print(f"perfbench: no conmoe sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    if args.all:
        from report import run_all

        return run_all(args.seed, args.seconds)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
