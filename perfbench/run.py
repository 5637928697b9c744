"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file).  With ``--trace 0`` it runs one op at a time until the ops have
kept the program busy for S seconds and the current cycle of inputs is
complete, checking every output against an independent reference; the
workload is set up several times over the run, each time as the first
set-up of a process, and the host's speed is sampled between ops so
that times can be given for a reference host (``calibrate.py``).  It
prints the end-to-end metrics, one per line with their units, then one
JSON object as the last line.  With ``--trace 1`` it runs a fixed list
of ops untraced, then traced, then under tracemalloc, and prints the
per-layer metrics.  The process re-executes itself once with a fixed
``PYTHONHASHSEED``.
See README.md in this directory for every metric and what it should
move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from array import array
from pathlib import Path

from calibrate import REFERENCE_UNITS_PER_S, HostSpeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "out"

# A timed or traced pass stops here even inside a cycle, so a run ends
# well within three minutes on a much slower program.
PASS_WALL_LIMIT_S = 60.0
SETUP_CHILD_TIMEOUT_S = 60
HASH_SEED = "0"
TAIL_SAMPLES_BEYOND = 10
# The tail is taken per window of at least this many ops (whole cycles)
# and the median over windows reported, so one burst of interference
# from other processes on the host does not set it.
MIN_WINDOW_OPS = 500


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mulingua" / "__init__.py").is_file():
        print(f"perfbench: no mulingua sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MULINGUA_BUDGET", None)
    WORKDIR.mkdir(exist_ok=True)

    from workloads import WORKLOADS  # needs the sources on sys.path
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    environment = _environment()
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    environment.update(workload.environment())
    if args.trace:
        result, notes = traced_run(workload, args.seed)
    else:
        result, notes = timed_run(workload, args.seconds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for line in notes:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    (WORKDIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"environment": environment, "notes": notes,
                              **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
            "loadavg_1m_at_start": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class Pass:
    """Latencies and failures of a sequence of ops."""

    def __init__(self) -> None:
        self.latencies = array("d")  # a few bytes per op, not an object
        self.busy_s = 0.0
        self.failed = 0
        self.truncated = False
        self.peak_rss_mb = None
        self.segment_ends: list[int] = []  # ops done at each second

    def add(self, seconds: float, ok: bool) -> None:
        self.latencies.append(seconds)
        self.busy_s += seconds
        self.failed += not ok


def one_op(workload, i: int, result: Pass, tracer=None) -> None:
    x = workload.make_input(i)
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(x)
        else:
            with tracer.span("bench.op"):
                out = workload.run(x)
    except Exception:  # an op that raises counts as failed; keep going
        result.add(time.perf_counter() - start, False)
        if result.failed == 1:
            traceback.print_exc()
        return
    elapsed = time.perf_counter() - start
    try:
        ok = workload.check(x, out)
    except Exception:  # a malformed output the checker could not read
        traceback.print_exc()
        ok = False
    result.add(elapsed, ok)
    if not ok and result.failed == 1:
        print(f"perfbench: wrong output for input {x!r}", file=sys.stderr)


def run_for(workload, seconds: float, every_second) -> Pass:
    """Ops until they have been busy for ``seconds``, at least
    ``workload.rss_ops`` have run and the current cycle is complete,
    calling ``every_second`` after each second of op time.  Peak RSS is
    read after op ``rss_ops``, a fixed count, so a program that runs
    more ops in the time does not report more memory for it."""
    result = Pass()
    wall_start = time.perf_counter()
    i = 0
    cycle = workload.cycle
    rss_ops = workload.rss_ops
    next_sample = 1.0
    while True:
        one_op(workload, i, result)
        i += 1
        if i == rss_ops:
            result.peak_rss_mb = workload.peak_rss_mb()
        if result.busy_s >= next_sample:
            result.segment_ends.append(i)
            every_second()
            next_sample += 1.0
        if time.perf_counter() - wall_start > PASS_WALL_LIMIT_S:
            result.truncated = True
            break
        if (result.busy_s >= seconds and i >= rss_ops
                and (cycle is None or i % cycle == 0)):
            break
    if result.peak_rss_mb is None:  # stopped by the wall limit
        result.peak_rss_mb = workload.peak_rss_mb()
    return result


def run_list(workload, count: int, tracer=None) -> Pass:
    """Ops 0 .. count-1, or fewer if the wall limit comes first."""
    result = Pass()
    wall_start = time.perf_counter()
    for i in range(count):
        one_op(workload, i, result, tracer)
        if time.perf_counter() - wall_start > PASS_WALL_LIMIT_S:
            result.truncated = True
            break
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def windows(latencies: list[float], cycle) -> list[list[float]]:
    """Consecutive windows of whole cycles, each of at least
    MIN_WINDOW_OPS ops, the remainder joining the last; the whole run
    as one window when it holds fewer than three."""
    size = cycle or 1
    size *= -(-MIN_WINDOW_OPS // size)
    count = len(latencies) // size
    if count < 3:
        return [latencies]
    parts = [latencies[k * size:(k + 1) * size] for k in range(count)]
    parts[-1] = parts[-1] + latencies[count * size:]
    return parts


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten samples beyond it (the
    maximum when there are too few), and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_SAMPLES_BEYOND if n > TAIL_SAMPLES_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


# ---------------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def set_up_here(workload) -> tuple[float, bool]:
    """Seconds and verdict of one set-up in this process."""
    gc.collect()  # the set-up starts with no collection pending
    start = time.perf_counter()
    workload.set_up()
    seconds = time.perf_counter() - start
    gc.collect()  # and leaves none for the next op to pay
    return seconds, workload.setup_ok()


def cold_set_up(workload) -> tuple[float, bool]:
    """Seconds and verdict of one set-up that is the first of its
    process: in a fresh child (``setupchild.py``) for an in-process
    workload; a ``cli`` set-up starts a fresh child of its own."""
    if not workload.in_process:
        return set_up_here(workload)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setupchild.py"), workload.name,
         str(workload.seed)],
        capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        proc.check_returncode()
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["seconds"], out["ok"]


def scaled_latencies(latencies, segment_ends: list[int],
                     rates: list[float]) -> array:
    """Each op's latency in seconds of the reference host.  Op time is
    cut into segments at ``segment_ends``; ``rates`` holds a calibration
    rate before the first segment and one after each segment, and an op
    is scaled by the mean of the two rates around its segment."""
    scaled = array("d")
    start = 0
    for k, end in enumerate([*segment_ends, len(latencies)]):
        factor = (rates[k] + rates[k + 1]) / 2 / REFERENCE_UNITS_PER_S
        scaled.extend(x * factor for x in latencies[start:end])
        start = end
    return scaled


def timed_run(workload, seconds: float):
    speed = HostSpeed()
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    setups_ok: list[bool] = []

    def record(seconds_taken: float, ok: bool) -> None:
        # scaled by the calibration sample taken just before it
        raw_setup_times.append(seconds_taken)
        setup_times.append(seconds_taken * speed.samples[-1]
                           / REFERENCE_UNITS_PER_S)
        setups_ok.append(ok)

    # The workload is set up once in this process, before the first op;
    # the other set-ups run in fresh processes spread over the timed
    # phase, so that they meet the same host speeds as the ops and the
    # calibration samples.
    extra = workload.setup_repeats - 1
    seconds_done = 0

    def every_second() -> None:
        nonlocal seconds_done
        seconds_done += 1
        speed.sample()
        due = 1 + min(extra, math.ceil(seconds_done * extra / seconds))
        while len(setup_times) < due:
            record(*cold_set_up(workload))

    speed.sample()
    record(*set_up_here(workload))
    result = run_for(workload, seconds, every_second)
    while len(setup_times) < workload.setup_repeats:
        record(*cold_set_up(workload))
    speed.sample()
    setup_ok = all(setups_ok)
    n = len(result.latencies)
    # times in seconds of the reference host: a host running the
    # calibration kernel twice as fast would take twice as long there
    scaled = scaled_latencies(result.latencies, result.segment_ends,
                              speed.samples)
    parts = windows(scaled, workload.cycle)
    tails = [tail(part) for part in parts]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(n / sum(scaled), "1/s"),
        "op_p50_ms": metric(statistics.median(scaled) * 1000, "ms"),
        "op_tail_ms": metric(
            statistics.median(value for value, _ in tails) * 1000, "ms"),
        "peak_rss_mb": metric(result.peak_rss_mb, "MB"),
    }
    raw_parts = windows(result.latencies, workload.cycle)
    measured = {
        "setup_s": statistics.median(raw_setup_times),
        "ops_per_s": n / result.busy_s,
        "op_p50_ms": statistics.median(result.latencies) * 1000,
        "op_tail_ms": statistics.median(
            tail(part)[0] for part in raw_parts) * 1000,
    }
    notes = [
        f"host speed factor {speed.factor():.4f}: median of "
        f"{len(speed.samples)} calibration samples over "
        f"{REFERENCE_UNITS_PER_S:g} passes/s; each time below is scaled by "
        "the samples next to it",
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
        f"setup_s: median of {len(setup_times)} set-ups, each the first "
        "of its process, spread over the run",
        f"peak_rss_mb: read after op {workload.rss_ops}",
        f"op_tail_ms: median over {len(parts)} window(s) of "
        f"{len(parts[0])}+ ops of each window's "
        f"p{min(p for _, p in tails):.2f}, with {TAIL_SAMPLES_BEYOND} "
        f"samples beyond it; {n} ops in all",
        f"failed_ratio {result.failed / n:.6g} ratio "
        f"({result.failed} of {n} ops failed)",
        f"closed loop, one client, one op in flight; {result.busy_s:.3f} s busy",
    ]
    if result.truncated:
        notes.append(f"pass stopped by the {PASS_WALL_LIMIT_S:.0f} s wall limit")
    if not setup_ok:
        notes.append("set-up produced a wrong verdict")
    return {"correct": setup_ok and result.failed == 0, "attempted": n,
            "failed": result.failed, "metrics": metrics}, notes


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------------

RETAINED_FILES = ("semantics.py", "syntax.py", "proofs.py")


def retained_kb_per_op(workload) -> tuple[float, Pass]:
    """KB allocated in semantics/syntax/proofs during ``retained_ops``
    ops and still allocated after them, per op."""
    files = {str(SRC / "mulingua" / name) for name in RETAINED_FILES}
    gc.collect()
    tracemalloc.start()
    try:
        result = run_list(workload, workload.retained_ops)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = sum(stat.size for stat in snapshot.statistics("filename")
               if stat.traceback[0].filename in files)
    return kept / 1024 / max(len(result.latencies), 1), result


def traced_run(workload, seed: int):
    workload.set_up()
    setup_ok = workload.setup_ok()
    gc.collect()
    count = workload.trace_ops
    untraced = run_list(workload, count)

    tracer = Tracer()
    workload.start_trace(tracer)
    try:
        with tracer.span("bench.setup"):
            workload.set_up()
        setup_ok = setup_ok and workload.setup_ok()
        gc.collect()
        traced = run_list(workload, count, tracer)
    finally:
        workload.stop_trace(tracer)
    tracer.write_spans(WORKDIR / f"trace-{workload.name}-{seed}.jsonl")

    passes = [untraced, traced]
    retained = 0.0
    if workload.in_process:
        retained, measured = retained_kb_per_op(workload)
        passes.append(measured)
    interpreter_ms = import_ms = 0.0
    if hasattr(workload, "start_up_ms"):
        interpreter_ms, import_ms = workload.start_up_ms()

    common = min(len(untraced.latencies), len(traced.latencies))
    overhead = 100.0 * (sum(traced.latencies[:common])
                        / sum(untraced.latencies[:common]) - 1.0)
    t = tracer
    parse_s = t.function_seconds("sexpr.parse_sexprs")
    parsed_kb = t.function_items("sexpr.parse_sexprs") / 1024
    metrics = {
        "semantics.eval_formula_s": metric(
            t.function_seconds("semantics.eval_formula"), "s"),
        "semantics.eval_term_s": metric(
            t.function_seconds("semantics.eval_term"), "s"),
        "semantics.environments": metric(
            t.function_items("semantics.all_environments"), "count"),
        "semantics.type_size_s": metric(
            t.function_seconds("semantics.type_size"), "s"),
        "semantics.iter_type_s": metric(
            t.function_seconds("semantics.iter_type"), "s"),
        "semantics.type_size.calls": metric(
            t.function_calls("semantics.type_size"), "count"),
        "semantics.retained_kb_per_op": metric(retained, "KB/op"),
        "proofs.inhabit_s": metric(
            t.function_self_seconds("proofs.inhabit"), "s"),
        "proofs.goal_build_s": metric(
            t.function_seconds("proofs.all_interval_type"), "s"),
        "sexpr.parse_s": metric(parse_s, "s"),
        "sexpr.kb_per_s": metric(parsed_kb / parse_s if parse_s else 0.0,
                                 "KB/s"),
        "dsl.load_s": metric(t.function_seconds("dsl.load_source"), "s"),
        "dsl.declarations": metric(
            t.function_calls("dsl.load_declaration"), "count"),
        "kernel.check_s": metric(t.layer_inclusive.get("kernel", 0.0), "s"),
        "dsl.builtin_workspace_s": metric(
            t.function_seconds("dsl.builtin_workspace"), "s"),
        "cli.interpreter_ms": metric(interpreter_ms, "ms"),
        "cli.import_ms": metric(import_ms, "ms"),
        "voiceleading.vls_s": metric(
            t.function_seconds("voiceleading.vls"), "s"),
        "voiceleading.conjugation_s": metric(
            t.function_seconds("voiceleading.conjugation_automorphism"), "s"),
        "voiceleading.check_hom_s": metric(
            t.function_seconds("voiceleading.check_quiver_hom"), "s"),
        "voiceleading.enumerate_automorphisms_s": metric(
            t.function_seconds("voiceleading.enumerate_automorphisms"), "s"),
        "voiceleading.automorphisms_found": metric(
            t.function_items("voiceleading.enumerate_automorphisms"), "count"),
    }
    for layer, totals in t.layer_totals().items():
        metrics[f"{layer}.calls"] = metric(totals["calls"], "count")
        metrics[f"{layer}.self_s"] = metric(totals["self_s"], "s")
    metrics["trace.ops"] = metric(len(traced.latencies), "count")
    metrics["trace.overhead_pct"] = metric(overhead, "%")

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    notes = [
        f"traced: one set-up and ops 0..{len(traced.latencies) - 1}; "
        f"times are totals over them, in seconds",
        f"trace overhead over {common} ops: untraced "
        f"{sum(untraced.latencies[:common]):.4f} s, traced "
        f"{sum(traced.latencies[:common]):.4f} s",
        f"spans kept {len(t.spans)}, dropped {t.dropped_spans}",
    ]
    if any(p.truncated for p in passes):
        notes.append(f"a pass stopped by the {PASS_WALL_LIMIT_S:.0f} s wall limit")
    if not setup_ok:
        notes.append("set-up produced a wrong verdict")
    return {"correct": setup_ok and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, notes


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Every run hashes strings alike, so the layout of dicts and sets,
        # and with it the speed of the same code, does not change from
        # one process to the next; the children inherit the setting.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
