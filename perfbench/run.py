"""Benchmark of the lsar command-line tool.

Usage, from the root of a checkout that holds ``src/lsar``:

    python3 perfbench/run.py --workload ingest_long --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Each workload is a closed loop with one client: an op runs one or more
``lsar`` commands, each as a fresh process, the way users run the tool, and
the next op starts when the last process of the previous one has exited.
Every op's outputs are checked.  The first and the last op of a run use the
same sampler seed and must write byte-identical report bodies.

``--trace 0`` reports the end-to-end metrics of the process-based loop.
``--trace 1`` runs the op in-process through ``lsar.cli.main`` three times:
a warm-up, an untraced op, and an op with every public entry point wrapped
in spans (``tracing.py``); it reports the per-layer metrics of the last.
``--self-check`` runs every workload at tiny sizes in both modes and checks
that each metric in BENCHMARK.json is reported with its unit; every traced
op also checks that its layers' self times add up to its root span.

BLAS threading is left as the environment sets it and is recorded in the
environment block, which is printed as the line before the result.  The
last line of stdout is the JSON result.  Scratch files live in
``.perfbench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
IMPORTED = "perfbench-imported="
# A process still running after this long is killed and its op fails, so a
# hung program cannot keep a run past its time limit.
PROCESS_TIMEOUT_S = 120.0

# What the installed ``lsar`` console script runs, plus one stderr line
# with the monotonic time at which ``lsar.cli`` finished importing.
IMPORT = (
    "import sys, time\n"
    "from lsar.cli import main\n"
    f"sys.stderr.write('{IMPORTED}%r\\n' % time.perf_counter())\n"
    "sys.stderr.flush()\n"
)
LAUNCHER = IMPORT + "sys.exit(main(sys.argv[1:]))\n"
# Processes that only import ``lsar.cli`` and exit, started before a run's
# ops, so that ``setup_s`` is a median over enough samples even when the
# run has few ops.
SETUP_PROBES = 5


def sampler_seed(seed: int, op_index: int) -> int:
    return int(np.random.SeedSequence([seed, op_index]).generate_state(1)[0] >> 1)


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def steal_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(start, end) -> float | None:
    """Share of CPU time the hypervisor gave to others between two reads."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(args: list[str], outdir: str, tag: str, code: str = LAUNCHER) -> dict:
    """Run one ``lsar`` process to exit; its own wall, CPU and peak RSS."""
    out_path = os.path.join(outdir, f"{tag}.out")
    err_path = os.path.join(outdir, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
        # running maximum over every child reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    setup = None
    for line in stderr.splitlines():
        if line.startswith(IMPORTED):
            setup = float(line[len(IMPORTED):]) - t0
    return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0, "setup": setup, "stdout": stdout,
            "stderr": stderr}


def run_op(workload, inp: dict, outdir: str, seed: int) -> dict:
    """One op as fresh processes; stops at the first non-zero exit."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    procs = []
    t0 = time.perf_counter()
    for k, args in enumerate(workload.argvs(inp, outdir, seed)):
        procs.append(run_process(args, outdir, f"cmd{k}"))
        if procs[-1]["rc"] != 0:
            break
    return {"wall": time.perf_counter() - t0, "procs": procs}


def run_op_inprocess(workload, inp: dict, outdir: str, seed: int, tracer=None,
                     op_id=None) -> dict:
    """One op through ``lsar.cli.main`` in this process."""
    import lsar.cli

    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    procs = []
    root = tracer.root(op_id) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with root:
        for args in workload.argvs(inp, outdir, seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = lsar.cli.main(args)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
            procs.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
            if rc != 0:
                break
    return {"wall": time.perf_counter() - t0, "procs": procs}


def check_op(workload, inp: dict, outdir: str, op: dict) -> tuple[list[str], str | None]:
    """Problems of one op (empty when it passed) and its report bodies."""
    procs = op["procs"]
    failed = [p for p in procs if p["rc"] != 0]
    if failed:
        return [f"exit code {failed[0]['rc']}: {failed[0]['stderr'].strip()[-300:]}"], None
    notes = []
    try:
        problems, body = workload.check(inp, outdir, [p["stdout"] for p in procs], notes)
    except (OSError, ValueError, IndexError, KeyError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"], None
    for line in notes:
        note(f"perfbench: tolerated: {line}")
    return problems, body


def note(line: str):
    print(line, flush=True)


def measure(workload, inp: dict, seconds: float) -> tuple[dict, int, int, list[str]]:
    """The process-based closed loop; end-to-end metrics of one run.

    Ops run back to back for about ``seconds``: an op becomes the last one
    when, judged by the previous op's wall time, one more op after it would
    not finish in time.  The last op reuses op 0's sampler seed.  A run has
    at least two ops.
    """
    ops, problems_all = [], []
    first_body = None
    failed = 0
    base = int(inp["seed"])
    outdir = os.path.join(WORKDIR, "ops", workload.name)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    probes = [run_process([], outdir, f"probe{k}", IMPORT) for k in range(SETUP_PROBES)]
    for probe in probes:
        if probe["rc"] != 0 or probe["setup"] is None:
            problems_all.append(f"import probe: exit code {probe['rc']}: "
                                f"{probe['stderr'].strip()[-300:]}")
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        last = index > 0 and elapsed + 2 * ops[-1]["wall"] > seconds
        seed = sampler_seed(base, 0 if last else index)
        ticks = steal_ticks()
        op = run_op(workload, inp, outdir, seed)
        steal = steal_share(ticks, steal_ticks())
        problems, body = check_op(workload, inp, outdir, op)
        if index == 0:
            first_body = body
        elif last and body is not None and body != first_body:
            problems.append("report bodies differ from the first op with the same seed")
        if problems:
            failed += 1
            problems_all += [f"op {index}: {p}" for p in problems]
        ops.append(op)
        procs = " ".join(f"{p['wall']:.2f}/{p['cpu']:.2f}" for p in op["procs"])
        note(f"perfbench: op {index} seed={seed} wall={op['wall']:.3f}s "
             f"process wall/cpu {procs} steal={steal if steal is None else round(steal, 3)} "
             f"{'FAIL ' + '; '.join(problems) if problems else 'ok'}")
        index += 1
        if last:
            break
    shutil.rmtree(os.path.join(WORKDIR, "ops", workload.name), ignore_errors=True)
    procs = [p for op in ops for p in op["procs"]]
    walls = [op["wall"] for op in ops]
    setups = [p["setup"] for p in probes + procs if p["setup"] is not None]
    metrics = {
        "setup_s": (statistics.median(setups) if setups else float("nan"), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_cpu_s": (statistics.median(sum(p["cpu"] for p in op["procs"]) for op in ops), "s"),
        "throughput_obs_per_s": (len(ops) * workload.n_obs / sum(walls), "obs/s"),
        "peak_rss_mib": (max(p["rss_mib"] for p in procs), "MiB"),
    }
    return metrics, len(ops), failed, problems_all


def traced(workload, inp: dict) -> tuple[dict, int, int, list[str]]:
    """Untraced and traced in-process ops with the same sampler seed;
    per-layer metrics of the traced one.

    A first untraced op warms page cache and allocator and is not timed;
    ``trace.overhead_s`` is the traced op's wall time minus the second
    untraced op's.  Both are in-process, so neither pays interpreter start
    and import, which the process-based ``op_p50_s`` includes.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    seed = sampler_seed(int(inp["seed"]), 0)
    outdir = os.path.join(WORKDIR, "ops", workload.name)
    run_op_inprocess(workload, inp, outdir, seed)
    plain = run_op_inprocess(workload, inp, outdir, seed)
    plain_problems, body = check_op(workload, inp, outdir, plain)
    tracer = tracing.Tracer()
    op_id = f"{workload.name}-seed{inp['seed']}"
    with tracer:
        op = run_op_inprocess(workload, inp, outdir, seed, tracer, op_id)
    traced_problems, traced_body = check_op(workload, inp, outdir, op)
    shutil.rmtree(outdir, ignore_errors=True)
    if body is not None and traced_body is not None and body != traced_body:
        traced_problems.append("report bodies differ from the untraced op")
    if tracer.missing:
        traced_problems.append(f"entry points not found: {tracer.missing}")
    overhead = op["wall"] - plain["wall"]
    # Every span but the root belongs to a layer, so the layers' self times
    # must add up to the root span up to the tracing overhead (the wall
    # difference, or the calibrated wrapper cost when noise hides it).
    self_s, _, root_s = tracer.self_times(op_id)
    layer_sum = sum(v for k, v in self_s.items() if k != "op")
    tolerance = max(abs(overhead), tracing.span_cost() * len(tracer.spans))
    if not 0 <= root_s - layer_sum <= tolerance:
        traced_problems.append(f"root span {root_s:.6f}s vs layer self times "
                               f"{layer_sum:.6f}s, beyond the overhead {tolerance:.6f}s")
    note(f"perfbench: untraced op {plain['wall']:.3f}s, traced op {op['wall']:.3f}s, "
         f"root span {root_s:.6f}s, layer self times {layer_sum:.6f}s, "
         f"{len(tracer.spans)} spans")
    os.makedirs(os.path.join(WORKDIR, "traces"), exist_ok=True)
    tracer.dump(os.path.join(WORKDIR, "traces", f"{op_id}.json"))
    units = tracing.metric_units()
    metrics = {k: (float(v), units[k]) for k, v in tracer.metrics(op_id, overhead).items()}
    problems = ([f"untraced op: {p}" for p in plain_problems]
                + [f"traced op: {p}" for p in traced_problems])
    return metrics, 2, int(bool(plain_problems)) + int(bool(traced_problems)), problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    workload = WORKLOADS[name](tiny=tiny)
    t0 = time.perf_counter()
    inp = workload.prepare(WORKDIR, seed)
    note(f"perfbench: workload={name} seed={seed} params={json.dumps(workload.params)} "
         f"inputs ready in {time.perf_counter() - t0:.1f}s")
    if trace:
        return traced(workload, inp)
    return measure(workload, inp, seconds)


def result_line(metrics: dict, attempted: int, failed: int, problems: list[str]) -> str:
    public = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                       "failed": failed, "metrics": public})


def self_check() -> int:
    """Tiny-n run of every workload in both modes against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        problems.append(f"BENCHMARK.json workloads {unknown} are not in workloads.py")
    for name in WORKLOADS:
        for trace, want in ((False, want_e2e), (True, want_layer)):
            metrics, attempted, failed, op_problems = run_workload(name, 1, 0, trace, True)
            problems += [f"{name}: {p}" for p in op_problems]
            got = {k: u for k, (v, u) in metrics.items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(want.items())}")
    for p in problems:
        note(f"perfbench: self-check FAIL {p}")
    note(f"perfbench: self-check {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "lsar", "cli.py")):
        print(f"perfbench: no lsar sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    env = environment()
    ticks = steal_ticks()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, problems = {}, 0, 0, []
    for name in names:
        m, a, f, p = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
        problems += [f"{name}: {x}" for x in p]
        for k, (v, u) in m.items():
            note(f"perfbench: {name} {k} = {v:.6g} {u}")
    env["loadavg_end"] = list(os.getloadavg())
    env["cpu_steal_share"] = steal_share(ticks, steal_ticks())
    for p in problems:
        note(f"perfbench: FAIL {p}")
    note("perfbench: environment " + json.dumps(env))
    print(result_line(metrics, attempted, failed, problems), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
