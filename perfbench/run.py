"""Seeded benchmark of kcausal: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 1 --out results.json

One run sets up the workload's inputs (in a fresh interpreter, timed from
before ``import kcausal`` to the last file written), then repeats the
workload's fixed operation list in passes until ``--seconds`` have elapsed and
at least five passes are done, with one more set-up round after each pass.
It checks every output and prints the full record as one JSON line followed
by a summary JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the summary holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the per-layer
metrics. ``--all`` runs every
workload, each in its own process, and prints a table of every metric.

The benchmark imports kcausal only from ``src/`` next to this directory and
exits with status 2 when it is missing. Inputs are written under
``.perfbench/<workload>-<seed>/``; artifacts there are deleted after the gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 5
# No pass starts when the previous one suggests it would end past this.
PASS_BUDGET_S = 120.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Reported on every workload with --trace 0.
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

SUITES = (
    "prop2-closedness",
    "prop2-transitivity",
    "thm3-chain",
    "thm4-oracle",
    "lemma6",
    "minguzzi",
    "remark8",
)

# Per-layer metric -> span name whose self time it sums (seconds per pass).
SPAN_METRICS = {
    "cli.self_s": "cli.main",
    "structure.generate_s": "structure.generate",
    "structure.closure_s": "structure.closure",
    "structure.upsets_s": "structure.upsets",
    "measures.parse_s": "measures.parse",
    "transport.decide_feasible_s": "transport.decide_feasible",
    "transport.decide_infeasible_s": "transport.decide_infeasible",
    "transport.certificate_s": "transport.certificate",
    "transport.strassen_s": "transport.strassen",
    "transport.condition2_s": "transport.condition2",
    "transport.condition3_s": "transport.condition3",
    "timefunctions.sample_s": "timefunctions.sample",
    "timefunctions.rank_s": "timefunctions.rank",
    "timefunctions.enumerate_s": "timefunctions.enumerate",
    "timefunctions.condition4_s": "timefunctions.condition4",
    "timefunctions.condition5_s": "timefunctions.condition5",
    **{f"harness.trial_s.{suite}": f"harness.trial.{suite}" for suite in SUITES},
}
COUNT_METRICS = {
    "cli.bytes_out": "bytes",
    "structure.events": "count",
    "structure.closure_pairs": "count",
    "structure.links": "count",
    "measures.support": "count",
    "measures.den_bits": "bits",
    "transport.related_support_pairs": "count",
    "transport.witness_entries": "count",
    "transport.violator_size": "count",
    "timefunctions.extensions": "count",
    "harness.trials": "count",
}
PER_LAYER = {**{name: "s" for name in SPAN_METRICS}, **COUNT_METRICS, "trace.overhead_s": "s"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Set-up


def setup_round(workload: str, seed: int, directory: Path) -> dict:
    """One set-up round, run in a fresh interpreter: import kcausal, write the inputs."""
    started = time.perf_counter()
    import kcausal  # noqa: F401  (the import is part of what set-up measures)

    from perfbench.workloads import make_inputs, render

    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, obj in make_inputs(workload, seed).items():
        data = render(obj)
        (directory / name).write_bytes(data)
        digests[name] = sha256(data)
    return {"seconds": time.perf_counter() - started, "inputs": digests}


def fresh_setup_round(workload: str, seed: int, directory: Path) -> dict:
    """One set-up round in a fresh interpreter, into an emptied ``directory``."""
    shutil.rmtree(directory, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed),
         "--dir", str(directory)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Passes


class Ledger:
    """Per-operation outcomes across passes: failures, known defects, artifact digests."""

    def __init__(self, immediate, ref: Path):
        self.immediate = immediate
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known: dict[str, str] = {}
        self.known_count = 0
        self.first: dict[int, tuple] = {}  # op index -> (value, digest)
        self.saved: dict[Path, Path] = {}
        self.artifacts: dict[str, dict[str, str]] = {}
        self.pass_no = 0

    def fail(self, op, reason: str, pass_no: int | None = None):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"pass {pass_no or self.pass_no}: {op.name}: {reason}")

    def record(self, k: int, op, code, value, error: str | None) -> int:
        """Check one outcome; returns the bytes the operation emitted."""
        self.attempted += 1
        if error is not None:
            if error == op.known_defect:
                self.known[op.name] = error
                self.known_count += 1
            else:
                self.fail(op, f"raised {error}")
            return 0
        emitted = len(value.encode()) if op.kind == "cli" else 0
        files = {}
        for path in op.outputs:
            if path.exists():
                data = path.read_bytes()
                emitted += len(data)
                files[path.name] = sha256(data)
                if self.pass_no == 1:
                    self.saved[path] = self.ref / path.name
                    os.replace(path, self.saved[path])
                else:
                    path.unlink()
        if op.kind == "trial":
            from kcausal.harness import report_to_jsonable

            shown = report_to_jsonable(value)
        else:
            shown = value
        digest = sha256(json.dumps([shown, files], sort_keys=True).encode())
        reason = self.immediate(op, code, value)
        if k not in self.first:
            self.first[k] = (value, digest)
            if files:
                self.artifacts[op.name] = files
        elif self.first[k][1] != digest:
            reason = reason or "output differs from the first pass"
        if reason:
            self.fail(op, reason)
        return emitted


def run_pass(ops, ledger: Ledger, tracer=None) -> tuple[list[float], int]:
    ledger.pass_no += 1
    gc.collect()
    durations = []
    emitted = 0
    for k, op in enumerate(ops):
        started = time.perf_counter()
        try:
            if tracer is None:
                code, value = op.call()
            else:
                with tracer.span(root_span(op)):
                    code, value = op.call()
            error = None
        except Exception as exc:  # recorded per operation; the run goes on
            code, value, error = None, None, type(exc).__name__
        durations.append(time.perf_counter() - started)
        emitted += ledger.record(k, op, code, value, error)
    return durations, emitted


def op_totals(ops, durations) -> dict[str, float]:
    """Seconds per operation in one pass; harness trials are summed per suite."""
    totals: dict[str, float] = {}
    for op, spent in zip(ops, durations):
        key = op.meta.get("suite", op.name)
        totals[key] = totals.get(key, 0.0) + spent
    return totals


def root_span(op) -> str:
    if op.kind == "cli":
        return "cli.main"
    if op.kind == "trial":
        return f"harness.trial.{op.meta['suite']}"
    return "op"


def layer_metrics(tracer, links_cache, emitted: int, trials: int) -> dict:
    from perfbench.trace import count_calls, layer_self_times

    selfs = layer_self_times(tracer.spans)
    values = {metric: selfs.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    values.update(count_calls(tracer.calls, links_cache))
    values["cli.bytes_out"] = emitted
    values["harness.trials"] = trials
    return values


# ---------------------------------------------------------------------------
# One workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inp, out, ref = work / "inputs", work / "out", work / "ref"
    first_setup = fresh_setup_round(workload, seed, inp)
    setup_times, input_digests = [first_setup["seconds"]], first_setup["inputs"]
    out.mkdir(parents=True)
    ref.mkdir()

    import kcausal
    import kcausal.cli  # noqa: F401  (not imported by the package itself)

    if Path(kcausal.__file__).resolve().parent != (SRC / "kcausal").resolve():
        raise RuntimeError(f"kcausal imported from {kcausal.__file__}, not from {SRC}")
    from perfbench import gate as gate_module
    from perfbench import stats, trace as tracing, workloads

    ops = workloads.operations(workload, inp, out)
    trials = sum(op.kind == "trial" for op in ops)
    ledger = Ledger(gate_module.immediate, ref)
    gate = gate_module.Gate(kcausal, inp)
    untraced: list[float] = []
    traced: list[float] = []
    latencies: list[float] = []
    by_op: dict[str, list[float]] = {}
    layers: list[dict] = []
    links_cache: dict = {}
    started = time.perf_counter()

    def room_for(last: float) -> bool:
        return time.perf_counter() - started + last < PASS_BUDGET_S

    while True:
        durations, _ = run_pass(ops, ledger)
        untraced.append(sum(durations))
        latencies.extend(durations)
        for key, seconds_spent in op_totals(ops, durations).items():
            by_op.setdefault(key, []).append(seconds_spent)
        if trace:
            tracer = tracing.Tracer()
            with tracing.patched(tracer, kcausal):
                durations, emitted = run_pass(ops, ledger, tracer)
            traced.append(sum(durations))
            layers.append(layer_metrics(tracer, links_cache, emitted, trials))
        # A set-up round after every pass, so set-up samples the same stretch
        # of machine time as the passes; each must write the same inputs.
        again = fresh_setup_round(workload, seed, work / "setup")
        if again["inputs"] != input_digests:
            raise RuntimeError("set-up rounds wrote different inputs for the same seed")
        setup_times.append(again["seconds"])
        done = time.perf_counter() - started >= seconds and (trace or len(untraced) >= MIN_PASSES)
        if done or not room_for(untraced[-1] + (traced[-1] if trace else 0.0)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for k, op in enumerate(ops):
        if k in ledger.first:
            try:
                reason = gate.semantic(op, ledger.first[k][0], ledger.saved)
            except Exception as exc:  # a malformed artifact fails its operation
                reason = f"gate raised {type(exc).__name__}: {exc}"
            if reason:
                ledger.fail(op, reason, pass_no=1)
    # Artifacts can be tens of megabytes; their digests are in the record.
    for directory in (out, ref, work / "setup"):
        shutil.rmtree(directory)

    metrics = {
        "wall_s": {"value": stats.median(untraced), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": stats.median(setup_times), "unit": "s"},
        "failed_frac": {
            "value": (ledger.failed + ledger.known_count) / ledger.attempted,
            "unit": "1",
        },
    }
    if workload == "verify-small":
        metrics["op_p50_ms"] = {"value": stats.median(latencies) * 1e3, "unit": "ms", "samples": len(latencies)}
        tail = stats.p99(latencies)
        if tail is not None:
            metrics["op_p99_ms"] = {"value": tail["value"] * 1e3, "unit": "ms", "samples": tail["samples"]}
    if trace:
        for name in list(SPAN_METRICS) + list(COUNT_METRICS):
            metrics[name] = {"value": stats.median([layer[name] for layer in layers]), "unit": PER_LAYER[name]}
        metrics["trace.overhead_s"] = {"value": stats.median(traced) - stats.median(untraced), "unit": "s"}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "inputs": input_digests,
        "artifacts": ledger.artifacts,
        # One digest over every first-pass output: stdout, return values,
        # harness reports and artifact files, in operation order.
        "outputs_sha256": sha256("".join(ledger.first[k][1] for k in sorted(ledger.first)).encode()),
        "setup_rounds_s": setup_times,
        "passes_s": {"untraced": untraced, "traced": traced},
        "operation_s": {key: stats.median(values) for key, values in by_op.items()},
        "operations": {
            "per_pass": len(ops),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failures": ledger.failures,
            "known_defects": ledger.known,
        },
        "metrics": metrics,
    }


def summary(record: dict) -> dict:
    names = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["operations"]["failed"] == 0,
        "attempted": record["operations"]["attempted"],
        "failed": record["operations"]["failed"],
        "metrics": {
            name: {"value": record["metrics"][name]["value"], "unit": unit} for name, unit in names.items()
        },
    }


# ---------------------------------------------------------------------------
# Environment


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Command line


def run_all(seed: int, seconds: float, trace: bool, out: str | None) -> int:
    from perfbench.workloads import WORKLOADS

    records = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        records.append(json.loads(proc.stdout.splitlines()[-2]))
    for record in records:
        ops = record["operations"]
        print(f"{record['workload']}: {ops['attempted']} operations, {ops['failed']} failed, "
              f"known defects {ops['known_defects'] or 'none'}")
        for name, metric in record["metrics"].items():
            samples = f"  (n={metric['samples']})" if "samples" in metric else ""
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}{samples}")
    if out:
        Path(out).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sparse-large", "dense-flow", "exhaustive", "verify-small"))
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the record(s) to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not (SRC / "kcausal" / "__init__.py").is_file():
        print(f"error: kcausal sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_only:
        print(json.dumps(setup_round(args.workload, args.seed, Path(args.dir))))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
