#!/usr/bin/env python3
"""Benchmark of the blp command line on seeded workloads.

    python3 blpbench/run.py --workload winmove --seed 1 --seconds 20 --trace 0
    python3 blpbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  The program under test is the checkout's
own `src/blp`; without it the benchmark exits with status 1 and prints no
result.  Requests run in this process through `blp.cli.main`, one at a
time (a closed loop with a single client), with stdout captured.  The
stream of requests is repeated in passes for about --seconds seconds.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and
traced passes alternately and reports the per-layer metrics, writing the
spans under .bench_build/blpbench/.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
status is 0 only when every output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "blpbench"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from spans import FIX_FROM, LAYERS, ROOT_NAME, Tracer, body_nodes  # noqa: E402
from calib import CAL_EVERY_S, CAL_REF_S, CAL_WINDOW, calibrate, chunk_time  # noqa: E402

SETUP_REPEATS = 9
WARMUP_REQUESTS = 5
# Runs in a fresh interpreter: times `import blp.cli` there, scaled by
# calibration chunks run in that same process, and prints the seconds.
IMPORT_SNIPPET = """import sys
sys.path[:0] = sys.argv[1:3]
from calib import CAL_REF_S, calibrate, chunk_time
from time import perf_counter
calibrate()  # warms the chunk's code up; its time is not used
before = chunk_time()
start = perf_counter()
import blp.cli
elapsed = perf_counter() - start
print(elapsed * 2 * CAL_REF_S / (before + chunk_time()))
"""


@dataclass
class Pass:
    wall: float  # raw seconds for the whole pass, calibration excluded
    latencies: list  # raw seconds, one per request
    scaled: list  # latencies scaled to the reference speed
    results: list | None  # (exit status, stdout, stderr) per request; None once checked


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny workloads, for the benchmark's own tests")
    return p.parse_args(argv)


def import_blp():
    """Import the checkout's blp, never an installed copy."""
    if not (SRC / "blp" / "cli.py").is_file():
        raise SystemExit(f"blpbench: no program under test at {SRC / 'blp'}")
    sys.path.insert(0, str(SRC))
    import blp.cli

    if Path(blp.cli.__file__).resolve().parent != (SRC / "blp").resolve():
        raise SystemExit(f"blpbench: imported blp from {blp.cli.__file__}, not {SRC}")
    return blp.cli


def set_up(name, seed, smoke, workdir):
    """Time a fresh-process import of blp plus generating the inputs,
    SETUP_REPEATS times, then write the inputs; returns (median scaled
    seconds, workload).  Writing is left out of the time: it is the
    benchmark's own file I/O, which no change to blp can move, and its
    kernel time varied fourfold within minutes on a shared machine."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(HERE), str(SRC)],
                               check=True, timeout=120, capture_output=True, text=True)
        before = chunk_time()
        start = perf_counter()
        workload = workloads.build(name, seed, smoke)
        elapsed = perf_counter() - start
        times.append(float(child.stdout) + elapsed * 2 * CAL_REF_S / (before + chunk_time()))
    workload.write(workdir)
    return statistics.median(times), workload


def run_pass(cli, workload, workdir, tracer=None) -> Pass:
    # Objects alive now (the first pass's outputs, the inputs) move to the
    # collector's permanent generation, so each pass starts from the same
    # collector state and pays only for the garbage blp itself makes.
    gc.collect()
    gc.freeze()
    latencies, results = [], []
    chunks = [calibrate()]  # calibration chunk times
    chunk_after = []  # index of the first chunk timed after each request
    last = start_pass = perf_counter()
    for i, req in enumerate(workload.requests):
        argv = req.argv(workdir)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                status = cli.main(argv) if tracer is None else tracer.call(i, cli.main, argv)
            except Exception as exc:  # a traceback is a failed request, not a crash
                status = f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - start)
        results.append((status, out.getvalue(), err.getvalue()))
        chunk_after.append(len(chunks))
        if perf_counter() - last >= CAL_EVERY_S:
            chunks.append(calibrate())
            last = perf_counter()
    wall = perf_counter() - start_pass - sum(chunks[1:])
    chunks.append(calibrate())
    # the machine speed around a request: the median chunk time within
    # CAL_WINDOW chunks of it, which ignores single disturbed chunks
    scaled = []
    for lat, k in zip(latencies, chunk_after):
        window = chunks[max(0, k - CAL_WINDOW):k + CAL_WINDOW]
        scaled.append(lat * CAL_REF_S / statistics.median(window))
    return Pass(wall, latencies, scaled, results)


def digest(workload, results) -> str:
    h = hashlib.sha256()
    for req, (status, out, _) in zip(workload.requests, results):
        h.update(f"{req.label}\0{status}\0{out}\0".encode("utf-8"))
    return h.hexdigest()


def digest_key(name, seed, smoke) -> str:
    return f"{name}/{seed}" + ("/smoke" if smoke else "")


def end_to_end(passes, setup_s, rss_mb, field="scaled"):
    """End-to-end metrics; field="latencies" gives them from raw wall times."""
    n = len(passes[0].latencies)
    runs = [getattr(p, field) for p in passes]
    # each request's latency is the median of its executions, one per pass
    per_request = [statistics.median(r[i] for r in runs) for i in range(n)]
    return {
        "setup_s": (setup_s, "s"),
        # a pass in which every request takes its median time
        "requests_per_s": (n / sum(per_request), "1/s"),
        "req_p50_ms": (statistics.median(per_request) * 1e3, "ms"),
        "req_p90_ms": (statistics.quantiles(per_request, n=10, method="inclusive")[8] * 1e3,
                       "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_metrics(tracer, workload, wall):
    """Per-layer metrics of one traced pass."""
    selfs = tracer.self_times()
    name_of = {s[0]: s[1] for s in tracer.spans}
    incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    layer_self = defaultdict(float)
    check_s = 0.0
    for sid, name, start, end, parent, request in tracer.spans:
        layer = tracer.layer_of[name]
        incl[name] += end - start
        own[name] += selfs[sid]
        calls[name] += 1
        layer_self[layer] += selfs[sid]
        outermost = parent is None or tracer.layer_of[name_of[parent]] != layer
        if layer == "engine" and outermost and workload.requests[request].kind == "check":
            check_s += end - start
    requests_s = incl[ROOT_NAME]
    counts = tracer.counts
    step_s = own["blp.engine.immediate_consequence"]
    m = {
        "engine.semantics_s": (incl["blp.engine.semantics"], "s"),
        "engine.compare_s": (incl["blp.engine.compare_semantics"], "s"),
        "engine.consensus_s": (incl["blp.engine.consensus_semantics"], "s"),
        "engine.check_s": (check_s, "s"),
        "engine.fix_u_s": (incl[FIX_FROM + "[U]"], "s"),
        "engine.fix_i_s": (incl[FIX_FROM + "[I]"], "s"),
        "engine.fix_f_t_s": (incl["blp.engine._oscillation_pair"], "s"),
        "engine.step_s": (step_s, "s"),
        "engine.steps": (calls["blp.engine.immediate_consequence"], "count"),
        "engine.outer_iters": (counts["engine.outer_iters"], "count"),
        "engine.inner_iters": (counts["engine.inner_iters"], "count"),
        "valuation.eval_ns_per_node": (
            step_s * 1e9 / counts["engine.node_evals"] if counts["engine.node_evals"] else 0.0,
            "ns"),
        "valuation.pointwise_s": (sum(incl[f"blp.valuation.Valuation.{op}"] for op in (
            "meet_t", "join_t", "meet_k", "join_k", "leq_t", "leq_k")), "s"),
        "valuation.render_s": (incl["blp.valuation.Valuation.to_lines"]
                               + incl["blp.valuation.Valuation.to_json_dict"], "s"),
        "grounder.ground_s": (incl["blp.cli.ground"], "s"),
        "grounder.render_s": (incl["blp.grounder.GroundProgram.render"], "s"),
        "syntax.parse_s": (incl["blp.cli.parse_program"], "s"),
        "syntax.bytes": (counts["syntax.bytes"], "bytes"),
        "cli.self_s": (own[ROOT_NAME], "s"),
        "oracles.stable_enum_s": (incl["blp.oracles.enumerate_stable_models"], "s"),
        "oracles.gl_transforms": (calls["blp.oracles.gl_transform"], "count"),
        "oracles.stable_models": (counts["oracles.stable_models"], "count"),
        "oracles.wfs_s": (incl["blp.oracles.well_founded"], "s"),
        "oracles.kk_s": (incl["blp.oracles.kripke_kleene"], "s"),
    }
    for layer in ("engine", "oracles", "valuation"):
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["harness.self_s"] = (wall - requests_s, "s")
    table = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    table["harness.self_s"] = wall - requests_s
    return m, table


def input_sizes(workload, refs):
    gps = [ref.gp for ref in refs.values()]
    return {
        "programs": len(workload.programs),
        "requests": len(workload.requests),
        "atoms": sum(len(gp.base) for gp in gps),
        "rules": sum(len(gp.rules) for gp in gps),
        "body_nodes": sum(body_nodes(gp) for gp in gps),
    }


def run_all(argv) -> int:
    """Run every workload in its own process; the last line sums them up,
    with each metric named <workload>.<metric>."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        args = [a if a != "all" else name for a in argv]
        proc = subprocess.run([sys.executable, __file__, *args], capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("blpbench: --seconds must be positive")
    if args.workload == "all":
        return run_all(argv)
    cli = import_blp()
    import gate

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_start": os.getloadavg()}
    workdir = WORK / f"{args.workload}-{args.seed}"
    setup_s, workload = set_up(args.workload, args.seed, args.smoke, workdir)

    for req in workload.requests[:WARMUP_REQUESTS]:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(req.argv(workdir))

    passes, tracers, differs = [], [], set()

    def timed_pass(tracer=None):
        p = run_pass(cli, workload, workdir, tracer)
        if passes:  # a later pass must repeat the first; its outputs are then dropped
            first = passes[0].results
            differs.update(i for i, (got, want) in enumerate(zip(p.results, first))
                           if got[:2] != want[:2])
            p.results = None
        passes.append(p)

    begin = perf_counter()
    while True:
        timed_pass()
        if len(passes) == 1:
            # read here so that it does not grow with the number of passes
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                timed_pass(tracer)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        elapsed = perf_counter() - begin
        if elapsed + elapsed / len(passes) * (1 + args.trace) > args.seconds:
            break

    first = passes[0].results
    failures, refs = gate.check(workload, first)
    for i in differs:
        failures.setdefault(i, "output differs between passes")
    failed = len(passes) * len(failures)
    attempted = len(passes) * len(first)

    out_digest = digest(workload, first)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    want_digest = pinned.get(digest_key(args.workload, args.seed, args.smoke))
    # an unpinned seed still passes on the gate alone; digest_pinned says so
    digest_ok = want_digest is None or want_digest == out_digest
    if not digest_ok:
        failed = min(attempted, failed + 1)

    sizes = input_sizes(workload, refs)
    if args.trace:
        analysed = [layer_metrics(t, workload, p.wall)
                    for t, p in zip(tracers, passes[1::2])]
        per_pass = [m for m, _ in analysed]
        layer_table = analysed[0][1]
        metrics = {}
        for k, (value, unit) in per_pass[0].items():
            if unit in ("count", "bytes"):  # counts must repeat exactly
                if any(m[k] != per_pass[0][k] for m in per_pass):
                    failed = min(attempted, failed + 1)
                    failures.setdefault(-1, f"counter {k} differs between traced passes")
                metrics[k] = (value, unit)
            else:
                metrics[k] = (statistics.median(m[k][0] for m in per_pass), unit)
        for k in ("atoms", "rules", "body_nodes"):
            metrics[f"grounder.{k}"] = (sizes[k], "count")
        bottomup_s = sum(r.bottomup_s for r in refs.values())
        metrics["bottomup.alpha_fixed_s"] = (bottomup_s, "s")
        traced = statistics.median(sum(p.scaled) for p in passes[1::2])
        untraced = statistics.median(sum(p.scaled) for p in passes[0::2])
        metrics["trace.traced_pass_s"] = (traced, "s")
        metrics["trace.untraced_pass_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracers[0].write(spans_path)
    else:
        metrics = end_to_end(passes, setup_s, rss_mb)
        spans_path = layer_table = None
    env["loadavg_end"] = os.getloadavg()

    correct = not failures and digest_ok
    report(args, workload, sizes, passes, metrics, layer_table, failures, attempted,
           failed, out_digest, want_digest, env, spans_path)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "sizes": sizes, "digest": out_digest,
                    "digest_pinned": want_digest is not None,
                    "failures": {str(k): v for k, v in sorted(failures.items())}},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def report(args, workload, sizes, passes, metrics, layer_table, failures, attempted,
           failed, out_digest, want_digest, env, spans_path):
    print(f"workload {args.workload} seed {args.seed}: " +
          ", ".join(f"{k} {v}" for k, v in sizes.items()))
    print(f"env: python {env['python']}, nproc {env['nproc']}, loadavg start "
          f"{env['loadavg_start'][0]:.2f} end {env['loadavg_end'][0]:.2f}")
    print("load model: closed loop, one client, one thread, in-process blp.cli.main; "
          f"{len(passes)} passes of {sizes['requests']} requests")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':28s} {failed / attempted:14.6g} ratio "
              f"({failed} of {attempted} requests)")
        print(f"  latency samples: {sizes['requests']} requests, "
              f"each the median of {len(passes)} executions")
        raw = end_to_end(passes, 0, 0, field="latencies")
        print("  raw wall-clock values: " + ", ".join(
            f"{k} {raw[k][0]:.6g} {raw[k][1]}"
            for k in ("requests_per_s", "req_p50_ms", "req_p90_ms")))
    else:
        wall = passes[1].wall
        print(f"self time by layer in the first traced pass (wall {wall:.4f} s):")
        for key, value in layer_table.items():
            print(f"  {key:28s} {value:10.4f} s {100 * value / wall:6.1f} %")
        print(f"  {'sum':28s} {sum(layer_table.values()):10.4f} s")
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.4f} s per pass "
              f"(median traced pass minus median untraced pass, scaled)")
        print("wait time: 0 in every layer (no layer has a queue or a lock)")
        print(f"spans written to {spans_path}")
    state = ("matches the pinned value" if want_digest == out_digest else
             "UNPINNED, no pinned value for this seed; only the gate checked the "
             "outputs" if want_digest is None else
             f"MISMATCH, pinned {want_digest}")
    print(f"output digest {out_digest}: {state}")
    for i, reason in sorted(failures.items())[:10]:
        label = workload.requests[i].label if i >= 0 else "run"
        print(f"FAILED {label}: {reason}")


if __name__ == "__main__":
    sys.exit(main())
