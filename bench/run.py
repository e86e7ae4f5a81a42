"""Benchmark of qlucas: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads: sweep, apery, decide, query (see bench/workloads.py for what each
stresses and why). The run imports qlucas from ``src/`` of the checkout in
one process (jobs = 1), builds the seeded task list of its workload and runs
it pass after pass, at least four passes, and no further pass once another
one (checks included) would likely end after ``--seconds``.
Each pass starts with the memo caches cleared, as a fresh CLI process would.
Results are checked after each pass, outside the timed span.

Every pass repeats the same deterministic calls. On a shared machine the
host's speed swings by up to a factor of two, for seconds to minutes at a
time, and CPU time swings with it (the slowdown is contention for the
physical core, not waiting). So every timing is host-normalized: a fixed
pure-Python probe (big-integer products, dict and list work, as in qlucas)
runs between calls, about every ``PROBE_EVERY_S``, and each pass's call
latencies are scaled by ``PROBE_REF_S`` over the median probe time of that
pass. A timing therefore reads as seconds on a host where the probe takes
``PROBE_REF_S``; the probe is benchmark code, so a change to qlucas moves
every timing as it would move the raw clock. The raw figures are printed on
the summary lines and kept in the run's record.

With ``--trace 0`` it reports the end-to-end metrics:

- ``wall_s``: the time of one pass, from its first call to the return of its
  last, as the sum of its calls' latencies; the median over the passes;
- ``checks_per_s``: verified checks of a pass over ``wall_s`` (a call
  returning a report, a congruence sweep or a series check, counts the
  report's ``checked``; any other call counts one);
- ``task_p50_ms``, ``task_p95_ms``: median and 95th percentile of the
  latencies of the calls of a pass (sweep 90 calls, apery 93, decide 233,
  query 251 per pass), where a call's latency is its median over the passes;
- ``setup_s``: median over nine fresh interpreters of starting, importing
  qlucas and generating the inputs. It is not normalized: probes run in the
  child right after its set-up were tried and tracked its time worse than
  the raw clock does;
- ``peak_rss_mib``: peak resident memory of the run's own process, read
  when the first pass's last call returns, before any check builds its
  references (each pass starts with cleared caches, so the first is like
  the others).

``attempted`` counts the distinct calls of the workload's task list and
``failed`` those that failed or broke their check in any pass, so both
depend on the seed alone, not on how many passes the host's speed allowed.

``error_rate`` (failed over attempted calls) is printed on the summary lines
and is carried by ``attempted`` and ``failed`` in the result line; it is not
an end-to-end metric because it is zero on three workloads. So is
``host_probe_ms``, the median probe time of the run: no change to qlucas
moves it; it says how fast the host was while the run was made.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the in-process set-up plus one traced pass (self times
are medians over the traced passes, not normalized), and
``trace.overhead_s``, the median normalized traced pass minus the median
normalized untraced pass. The spans of the set-up and the
first traced pass go to ``bench/out/spans-<workload>-seed<seed>.json``.

``--smoke`` shrinks every workload to a few calls, for the smoke test. The
last line of standard output is the JSON result; the lines before it give
the environment, sample counts and every metric with its unit. A copy of the
result set with the environment is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 4
SETUP_RUNS = 9
# The host probe runs between calls about this often, and the timings are
# scaled to a host on which one probe takes PROBE_REF_S.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.006
PROBE_INT = 3 ** 4000

END_TO_END_UNITS = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _import_qlucas():
    """Import qlucas from this checkout's src/, or exit without a result."""
    if not (SRC / "qlucas" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qlucas'} not found; run from a qlucas checkout")
    sys.path.insert(0, str(SRC))
    import qlucas

    if Path(qlucas.__file__).resolve().parent != SRC / "qlucas":
        sys.exit(f"error: imported qlucas from {qlucas.__file__}, not from {SRC}")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top, commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # a checkout without history, inside another repository
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlucas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "qlucas_commit": commit,
        "qlucas_source_sha256": digest.hexdigest()[:16],
    }


def clear_caches() -> None:
    """Empty the memo caches so a pass starts cold, like a fresh process."""
    from qlucas import congruence, intpoly, qcombinatorics

    for module, name in (
        (intpoly, "cyclotomic"),
        (congruence, "apery_polynomial"),
        (qcombinatorics, "_residue_power_cache"),
    ):
        cache = getattr(module, name, None)
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
        elif hasattr(cache, "clear"):
            cache.clear()


def measure_setup(args) -> float:
    """Median set-up time of fresh interpreters.

    Each child is given the monotonic clock reading (shared by all processes)
    taken just before it is started, and reports the time elapsed since once
    it has imported qlucas and built the inputs.
    """
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(argv + ["--setup-only", repr(time.monotonic())], check=True,
                               capture_output=True, text=True, timeout=170)
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Outcome:
    """Call latencies and check results of every pass of a run."""

    def __init__(self):
        self.walls: list[float] = []  # normalized, untraced passes
        self.traced_walls: list[float] = []  # normalized, traced passes
        self.raw_walls: list[float] = []
        self.pass_latencies: list[list[float]] = []  # normalized, untraced passes
        self.checks: list[int] = []
        self.probes: list[float] = []  # median probe time of each pass
        self.peak_rss_mib: float | None = None
        self.failed_tasks: set[int] = set()
        self.wrong = 0
        self.problems: dict[str, int] = {}

    def note(self, label: str, exc: BaseException) -> None:
        key = f"{label}: {type(exc).__name__}: {exc}"[:160]
        self.problems[key] = self.problems.get(key, 0) + 1


def host_probe() -> float:
    """Seconds taken by a fixed mix of big-integer, dict and list work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(150):
        acc ^= (PROBE_INT * (PROBE_INT + i)) % 1000003
        table[(i % 31, acc & 7)] = [acc, i]
    order = sorted(range(3000), key=lambda k: (k * 7919) % 3001)
    acc += sum(a * b for a, b in zip(order, order[1:]))
    return time.perf_counter() - start


def run_pass(tasks, outcome: Outcome, tracer=None) -> None:
    from workloads import ContractBreach

    clear_caches()
    store: dict = {}
    results = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.reset()
        tracer.install()
    probes = [host_probe()]
    next_probe = clock() + PROBE_EVERY_S
    for task in tasks:
        if clock() >= next_probe:
            probes.append(host_probe())
            next_probe = clock() + PROBE_EVERY_S
        t0 = clock()
        try:
            value, error = task.call(store), None
        except Exception as exc:  # a failed call is counted, the run goes on
            value, error = None, exc
        results.append((value, error, clock() - t0))
    if tracer is not None:
        tracer.uninstall()
    probes.append(host_probe())
    probe = statistics.median(probes)
    outcome.probes.append(probe)
    scale = PROBE_REF_S / probe
    wall = sum(r[2] for r in results)
    if tracer is not None:
        tracer.pass_readings.append(
            (dict(tracer.calls), dict(tracer.self_s), dict(tracer.counts), tracer.cache_hit_ratios())
        )
        tracer.keep_spans = False
        outcome.traced_walls.append(wall * scale)
    else:
        if outcome.peak_rss_mib is None:
            outcome.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcome.walls.append(wall * scale)
        outcome.raw_walls.append(wall)
        outcome.pass_latencies.append([r[2] * scale for r in results])

    checks = 0
    for i, (task, (value, error, _)) in enumerate(zip(tasks, results)):
        if error is not None:
            outcome.failed_tasks.add(i)
            outcome.wrong += 1
            outcome.note(task.label, error)
            continue
        try:
            checks += task.check(value)
        except ContractBreach as exc:
            outcome.failed_tasks.add(i)
            outcome.note(task.label, exc)
        except Exception as exc:  # Mismatch, or a report missing a field
            outcome.failed_tasks.add(i)
            outcome.wrong += 1
            outcome.note(task.label, exc)
    if tracer is None:
        outcome.checks.append(checks)


def end_to_end(outcome: Outcome, setup_s: float) -> dict:
    per_call = [statistics.median(times) for times in zip(*outcome.pass_latencies)]
    wall_s = statistics.median(outcome.walls)
    return {
        "wall_s": wall_s,
        "checks_per_s": statistics.median(outcome.checks) / wall_s,
        "task_p50_ms": statistics.median(per_call) * 1e3,
        "task_p95_ms": statistics.quantiles(per_call, n=20, method="inclusive")[18] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": outcome.peak_rss_mib,
    }


def per_layer(tracer, setup_reading, outcome: Outcome) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the traced set-up plus one traced pass."""
    import tracing

    s_calls, s_self, s_counts = setup_reading
    readings = tracer.pass_readings
    calls, _, counts, hit_ratios = readings[-1]
    out: dict[str, tuple[float, str]] = {}
    layer_self: dict[str, float] = {}
    for name in tracing.boundary_names():
        self_s = s_self[name] + statistics.median(r[1][name] for r in readings)
        out[f"{name}.calls"] = (s_calls[name] + calls[name], "count")
        out[f"{name}.self_s"] = (self_s, "s")
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = (value, "s")
    total = {k: s_counts[k] + counts[k] for k in counts}
    high = total.pop("qcombinatorics.q_ratio_mod.high_degree_calls")
    mod_calls = out["qcombinatorics.q_ratio_mod.calls"][0]
    out["qcombinatorics.q_ratio_mod.high_degree_share"] = (high / mod_calls if mod_calls else 0.0, "ratio")
    units = {"intpoly.mul.computed_bytes": "B"}
    for key, value in total.items():
        out[key] = (value, units.get(key, "count"))
    for key, value in hit_ratios.items():
        out[key] = (value, "ratio")
    out["trace.overhead_s"] = (
        statistics.median(outcome.traced_walls) - statistics.median(outcome.walls), "s")
    out["trace.absent"] = (len(set(tracer.absent)), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "apery", "decide", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-only", type=float, metavar="START", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_qlucas()
    import tracing
    import workloads

    if args.setup_only is not None:
        workloads.build(args.workload, args.seed, args.smoke)
        print(time.monotonic() - args.setup_only)
        return 0

    env = environment()
    setup_s = measure_setup(args)
    outcome = Outcome()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    tasks = workloads.build(args.workload, args.seed, args.smoke)
    if tracer is not None:
        tracer.uninstall()
        setup_reading = (dict(tracer.calls), dict(tracer.self_s), dict(tracer.counts))

    start = time.perf_counter()
    pass_costs = []
    while True:
        traced = tracer is not None and len(outcome.walls) > len(outcome.traced_walls)
        pass_start = time.perf_counter()
        run_pass(tasks, outcome, tracer if traced else None)
        pass_costs.append(time.perf_counter() - pass_start)
        enough = len(outcome.walls) >= (MIN_PASSES // 2 if tracer else MIN_PASSES) and (
            tracer is None or len(outcome.traced_walls) >= MIN_PASSES // 2)
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(pass_costs) > args.seconds:
            break

    if tracer is None:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(outcome, setup_s).items()}
    else:
        metrics = per_layer(tracer, setup_reading, outcome)
    attempted, failed = len(tasks), len(outcome.failed_tasks)
    error_rate = failed / attempted
    host_probe_ms = statistics.median(outcome.probes) * 1e3
    passes = len(outcome.walls) + len(outcome.traced_walls)
    result = {
        "correct": outcome.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "passes": passes, "pass_walls_s": outcome.walls, "traced_pass_walls_s": outcome.traced_walls,
        "raw_pass_walls_s": outcome.raw_walls, "pass_probes_s": outcome.probes,
        "pass_latencies_s": outcome.pass_latencies,
        "error_rate": error_rate, "host_probe_ms": host_probe_ms, "problems": outcome.problems,
        "absent": sorted(set(tracer.absent)) if tracer else [], **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        spans = {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans), encoding="utf-8")

    print("environment:", json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of {len(tasks)} calls; "
          f"task_p50_ms and task_p95_ms over the {len(tasks)} calls of a pass, "
          f"each timed in {len(outcome.walls)} untraced passes")
    if tracer is not None and tracer.absent:
        print("absent boundaries:", ", ".join(sorted(set(tracer.absent))))
    for key, count in sorted(outcome.problems.items()):
        print(f"failed x{count}: {key}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    print(f"error_rate {error_rate} ratio")
    print(f"host_probe_ms {host_probe_ms} ms")
    if tracer is None:
        print(f"raw wall_s {statistics.median(outcome.raw_walls)} s (not normalized)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
