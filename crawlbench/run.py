"""Benchmark entry point for the crawl and corpus-cleaning engine.

    python3 crawlbench/run.py --workload crawl-wide --seed 1 --seconds 5 --trace 0

Run from the root of a checkout.  The command supervises one child
process that does the work: the child gets a fresh process, the checkout
on its (and every Ray worker's) import path, and a deadline.  When the
child ends, or the deadline kills it, every process that carries this
run's token in its environment (the child and all Ray processes it
started) is stopped and waited for.  The last stdout line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The line before holds the run's detail: sample counts, phase
times, each iteration's time and, when traced, span self times and the
Ray Data operator table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("crawl-wide", "crawl-resume", "corpus-clean")
DEADLINE_ENV = "CRAWLBENCH_DEADLINE_S"
T0_ENV = "CRAWLBENCH_T0"

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- supervisor ---------------------------------------------------------------


def stop_token_processes(token: str, grace: float) -> int:
    """Wait ``grace`` seconds for the run's processes to exit on their own,
    then kill the rest and wait until they are gone.  Returns how many had
    to be killed."""
    from harness import token_pids

    end = time.monotonic() + grace
    while token_pids(token) and time.monotonic() < end:
        time.sleep(0.2)
    left = token_pids(token)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in token_pids(token):
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        end = time.monotonic() + 5
        while token_pids(token) and time.monotonic() < end:
            time.sleep(0.1)
    return len(left)


def supervise(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "texrex_ray", "__init__.py")):
        print(f"crawlbench: no texrex_ray package next to {HERE}", file=sys.stderr)
        return 2
    deadline = float(os.environ.get(DEADLINE_ENV, "160"))
    token = uuid.uuid4().hex
    from harness import TOKEN_ENV

    env = dict(os.environ)
    env[TOKEN_ENV] = token
    env[T0_ENV] = repr(time.time())
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.setdefault("RAY_BACKEND_LOG_LEVEL", "fatal")
    cmd = [sys.executable, os.path.abspath(__file__), *sys.argv[1:], "--child"]
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True)

    # the child's scratch outputs, left behind when it is killed
    child_out = os.path.join(ROOT, ".bench_out", f"{args.workload}-{child.pid}")

    def on_term(signum, _frame):
        # stopped from outside: take the child and its Ray processes along
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        stop_token_processes(token, grace=0)
        shutil.rmtree(child_out, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    timed_out = False
    try:
        out, _ = child.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(child.pid, signal.SIGKILL)
        out, _ = child.communicate()
    leftover = stop_token_processes(token, grace=0 if timed_out else 10)
    shutil.rmtree(child_out, ignore_errors=True)
    lines = out.decode(errors="replace").strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if timed_out:
        print(f"crawlbench: {args.workload} exceeded its {deadline:.0f} s deadline; "
              "the hung operation counts as failed", file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if child.returncode != 0 or not isinstance(result, dict):
        print(f"crawlbench: child exited with {child.returncode} and no result",
              file=sys.stderr)
        return 4
    # no Ray process may outlive the run: one more check
    result["attempted"] += 1
    if leftover:
        result["failed"] += 1
        result["correct"] = False
        print(f"crawlbench: {leftover} processes outlived the run", file=sys.stderr)
    print(json.dumps(result))
    return 0


# -- child --------------------------------------------------------------------


def child_main(args) -> int:
    t_proc0 = float(os.environ.get(T0_ENV, time.time()))
    from harness import TOKEN_ENV, Ops, OpFailed, RssSampler, StatsCapture, Tracer
    from harness import median, nproc, session_dir, start_ray
    from workloads import SIZES, WORKLOADS, Context

    ncpu = nproc()
    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    ops = Ops()
    ctx = Context(out=out, cache=os.path.join(ROOT, ".bench_cache"),
                  seed=args.seed, size=SIZES[args.workload][args.size], ncpu=ncpu, ops=ops,
                  tracer=Tracer(enabled=False), stats=StatsCapture())
    wl = WORKLOADS[args.workload]()
    rss = RssSampler(os.environ.get(TOKEN_ENV, "no-token"))
    items: list[int] = []
    ray = start_ray(ROOT, ncpu)
    boot_s = time.time() - t_proc0
    sess = session_dir()
    setup: list[float] = []
    layer: dict = {}
    phase: dict[str, float] = {"boot": boot_s}
    try:
        t0 = time.perf_counter()
        wl.prepare(ctx)
        ctx.inputs_s = phase["inputs"] = time.perf_counter() - t0
        for k in range(wl.setup_passes):
            t0 = time.perf_counter()
            wl.setup_pass(ctx, k)
            setup.append(time.perf_counter() - t0)
        phase["setup_passes"] = sum(setup)
        t0 = time.perf_counter()
        wl.reference(ctx)
        phase["reference"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        with rss:
            stop = time.perf_counter() + args.seconds
            k = 0
            # trace runs alternate untraced and traced iterations, so the
            # same session yields both and their ratio is the overhead; at
            # least two untraced ones give the within-session drift
            least = max(wl.min_iterations, 3 if args.trace else 1)
            while k < least or time.perf_counter() < stop:
                on = bool(args.trace and k % 2 == 1)
                ctx.tracer.enabled = on
                if on:
                    with ctx.stats.active():
                        items.append(wl.iteration(ctx, k))
                else:
                    items.append(wl.iteration(ctx, k))
                ctx.traced.append(on)
                k += 1
            ctx.tracer.enabled = bool(args.trace)
        phase["measured"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        if args.trace:
            layer = wl.layers(ctx)
        phase["layers"] = time.perf_counter() - t0
    except OpFailed:
        pass
    finally:
        t0 = time.perf_counter()
        ray.shutdown()
        phase["shutdown"] = time.perf_counter() - t0
        if sess and sess.startswith(ROOT):
            shutil.rmtree(sess, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)

    for e in ops.errors:
        print(f"crawlbench: {e}", file=sys.stderr)
    ok = ops.failed == 0 and bool(items) and len(items) == len(ctx.iter_s)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "samples": {"iteration_s": len(ctx.iter_s), "setup_s": len(setup)},
        "phases_s": phase, "iterations_s": ctx.iter_s, "setup_passes_s": setup,
    }
    if args.trace:
        metrics = per_layer_metrics(ctx, layer, ok)
        detail["self_s"] = ctx.tracer.self_times()
        if ok and hasattr(wl, "op_table"):
            detail["op_table"] = wl.op_table
    else:
        metrics = {
            "setup_s": (boot_s + median(setup), "s"),
            "iteration_s": (median(ctx.iter_s), "s"),
            "items_per_s": (sum(items) / sum(ctx.iter_s) if ctx.iter_s else 0.0, "1/s"),
            "peak_rss_mb": (rss.peak_mb, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(ok), "attempted": max(1, ops.attempted),
        "failed": ops.failed or (0 if ok else 1), "metrics": metrics,
    }))
    return 0


def per_layer_metrics(ctx, layer: dict, ok) -> dict:
    """Every declared per-layer metric; a layer the workload never touches
    reports 0."""
    from harness import median

    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]
    on = [t for t, f in zip(ctx.iter_s, ctx.traced) if f]
    off = ctx.untraced_s()
    layer = dict(layer)
    layer["sources.inputs_s"] = ctx.inputs_s
    layer["trace.overhead"] = median(on) / median(off) if on and off else 0.0
    return {
        m["name"]: {"value": float(layer.get(m["name"], 0.0)) if ok else 0.0,
                    "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [ROOT, HERE]
    if args.child:
        return child_main(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
