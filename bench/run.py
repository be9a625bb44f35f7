"""Benchmark for lpa-lie: seeded workloads through ``lpa_lie.cli.main``.

    python3 bench/run.py --workload analyze_mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

A workload is a closed loop with one client: one process makes its calls one
after another, in-process, with no extra threads.  The calls of one pass are
built from the seed (see ``workloads.py``); the run repeats whole passes for
about ``--seconds``, and each call's time is its median over the passes.
Every answer is checked by ``checks.py``; a call fails when it passes the
per-call time limit, raises, exits with an unexpected code or fails a check.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
it makes one untraced pass and then one pass with every public function of
the package wrapped (``tracing.py``), and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records and spans go to
``.bench_work/`` at the root of the checkout.  ``--workload all`` runs each
workload in a fresh interpreter and prints one row per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402
from tracing import EDGE_SCANS, Tracer  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10

# The host's speed drifts by 20-30% over seconds (shared machine), which
# swamps the differences the benchmark must resolve.  A fixed reference
# computation is timed before every call, and each call's time is scaled by
# REFERENCE_NOMINAL_S over the median of the five reference timings nearest
# to it, so times read as if the host ran at one steady speed.  Time-limited
# calls are not scaled: the alarm, not the host, sets their length.  The raw
# times are kept in the run record.
REFERENCE_NOMINAL_S = 0.0025
REFERENCE_WINDOW = 2
_REFERENCE_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + (i == j) * 20 for j in range(16)] for i in range(16)]


def reference_time() -> float:
    """Seconds taken by a fixed mix of big-integer, dict and Fraction work."""
    start = time.perf_counter()
    exact.bareiss_det(_REFERENCE_MATRIX)
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 1)
    return time.perf_counter() - start


def speed_factors(refs: list[float], count: int) -> list[float]:
    """Scale for each of ``count`` items, from the ``count + 1`` reference timings around them."""
    return [
        REFERENCE_NOMINAL_S / statistics.median(refs[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1])
        for i in range(count)
    ]


END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("call_ms_p50", "ms"), ("call_ms_tail", "ms"),
    ("peak_rss_mb", "MB"), ("ok_frac", "frac"),
)


class CallTimeout(Exception):
    """Raised by the alarm handler in a call that passed the time limit."""


class _Alarm:
    armed = False

    @classmethod
    def fire(cls, signum, frame):
        if cls.armed:
            raise CallTimeout()


def run_call(cli, call, limit: float) -> tuple[float, str, int | None, str, str]:
    """Run one call; returns (seconds, status, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(call.stdin)
    status, code = "done", None
    start = time.perf_counter()
    try:
        _Alarm.armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    except CallTimeout:
        status = "timeout"
    except Exception as exc:  # a traceback from the package is a failed call
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        sys.stdin = saved_stdin
    return elapsed, status, code, out.getvalue(), err.getvalue()


def run_pass(cli, calls, limit: float, tracer: Tracer | None = None) -> list[dict]:
    records, refs = [], []
    for i, call in enumerate(calls):
        gc.collect()
        refs.append(reference_time())
        if tracer is not None:
            tracer.begin_call(i)
        seconds, status, code, stdout, stderr = run_call(cli, call, limit)
        problem, answer = None, [status]
        if status == "done":
            problem, answer = checks.check(call, code, stdout)
            if problem and stderr:
                problem += f" (stderr: {stderr.strip()[:200]})"
        records.append(
            {
                "id": call.id,
                "raw_seconds": seconds,
                "status": status,
                "problem": problem,
                "failed": status != "done" or problem is not None,
                "digest": checks.digest(answer) if problem is None else None,
            }
        )
    refs.append(reference_time())
    for record, factor in zip(records, speed_factors(refs, len(records))):
        record["speed_factor"] = factor
        scale = 1.0 if record["status"] == "timeout" else factor
        record["seconds"] = record["raw_seconds"] * scale
    return records


def load_cli():
    if not (SRC / "lpa_lie" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'lpa_lie'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lpa_lie.cli

    return lpa_lie.cli


def setup(workload: str, seed: int):
    """Build the corpus, then time the package import and warm-up.

    ``setup_s`` is the import plus the median of SETUP_REPEATS warm-ups (the
    anchor calls).  Building the corpus is the benchmark's own work, which no
    change to the package can affect, and its cost varies with the seed, so
    it is timed apart (``corpus_s``) and left out of ``setup_s``.
    """
    WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _Alarm.fire)
    start = time.perf_counter()
    calls = workloads.WORKLOADS[workload](seed, WORK)
    anchor_calls = workloads.anchors(workload, WORK)
    corpus_s = time.perf_counter() - start
    refs = [reference_time()]
    start = time.perf_counter()
    cli = load_cli()
    times = [time.perf_counter() - start]
    refs.append(reference_time())
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        anchors = run_pass(cli, anchor_calls, workloads.CALL_LIMIT_S[workload])
        times.append(time.perf_counter() - start)
        refs.append(reference_time())
    scaled = [t * f for t, f in zip(times, speed_factors(refs, len(times)))]
    return cli, calls, anchors, scaled[0] + statistics.median(scaled[1:]), corpus_s


def check_anchors(workload: str, anchors: list[dict]) -> list[str]:
    reference = json.loads(REFERENCE.read_text())[workload]
    bad = [f"{r['id']}: {r['problem'] or r['status']}" for r in anchors if r["failed"]]
    bad += [
        f"{r['id']}: digest {r['digest']} != reference {reference.get(r['id'])}"
        for r in anchors
        if not r["failed"] and r["digest"] != reference.get(r["id"])
    ]
    return bad


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ten calls beyond it, and that percentile."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100 * (index + 1) / len(ordered)


def measure(cli, calls, limit: float, seconds: float) -> list[list[dict]]:
    """Whole passes while the next one is expected to end within ``seconds``.

    A call stopped at the time limit in the first pass is not made again in
    later passes: it would only spend the limit once more.
    """
    start = time.perf_counter()
    passes = [run_pass(cli, calls, limit)]
    stopped = {r["id"] for r in passes[0] if r["status"] == "timeout"}
    calls = [c for c in calls if c.id not in stopped]
    while True:
        now = time.perf_counter()
        last = sum(r["raw_seconds"] for r in passes[-1] if r["id"] not in stopped)
        if not calls or now - start + last > seconds:
            return passes
        passes.append(run_pass(cli, calls, limit))


def digests_repeat(passes: list[list[dict]]) -> list[str]:
    first = {r["id"]: (r["digest"], r["failed"]) for r in passes[0]}
    return [
        f"{r['id']}: answer changed between passes"
        for p in passes[1:]
        for r in p
        if (r["digest"], r["failed"]) != first[r["id"]]
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def call_times(passes) -> dict[str, float]:
    """Each call's time: the median of its times over the passes that made it."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            times.setdefault(r["id"], []).append(r["seconds"])
    return {cid: statistics.median(t) for cid, t in times.items()}


def end_to_end(passes, setup_s: float) -> tuple[dict, list[str]]:
    per_pass = len(passes[0])
    times = call_times(passes)
    stopped = [r["id"] for r in passes[0] if r["status"] == "timeout"]
    lat = [t * 1000 for t in times.values()]
    tail_ms, level = tail(lat)
    failed = sum(r["failed"] for r in passes[0])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": setup_s,
        "wall_s": sum(t for cid, t in times.items() if cid not in stopped),
        "call_ms_p50": statistics.median(lat),
        "call_ms_tail": tail_ms,
        "peak_rss_mb": rss,
        "ok_frac": (per_pass - failed) / per_pass,
    }
    notes = {
        "setup_s": f"import + median of {SETUP_REPEATS} warm-ups",
        "wall_s": f"{per_pass - len(stopped)} calls ({len(stopped)} stopped at the limit left out),"
                  f" each the median of its times over {len(passes)} pass(es)",
        "call_ms_p50": f"{len(lat)} calls",
        "call_ms_tail": f"p{level:.1f} of {len(lat)} calls",
        "peak_rss_mb": "process high-water mark",
        "ok_frac": f"fail_frac = {failed}/{per_pass} = {failed / per_pass:.4f}",
    }
    rows = [f"{name:<14} {values[name]:>14.6f} {unit:<5} {notes[name]}" for name, unit in END_TO_END]
    return {name: metric(values[name], unit) for name, unit in END_TO_END}, rows


def per_layer(cli, calls, limit: float, workload: str, seed: int) -> tuple[dict, list[str], list[dict]]:
    """One untraced pass, then one traced pass of the same calls."""
    plain = run_pass(cli, calls, limit)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, calls, limit, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(WORK / f"spans-{workload}-{seed}.csv")
    plain_wall = sum(r["seconds"] for r in plain)
    traced_wall = sum(r["seconds"] for r in traced)
    # spans are raw times; scale them like the calls they belong to
    scale = traced_wall / sum(r["raw_seconds"] for r in traced)
    self_s = {layer: t * scale for layer, t in tracer.self_times().items()}
    layer_calls = tracer.layer_calls()
    scans = sum(tracer.calls[name] for name in EDGE_SCANS)
    graphs = tracer.calls["Graph.build"]
    snf_calls = tracer.calls["smith_normal_form"]
    values = {}
    for layer in ("linalg.span", "linalg.snf", "linalg.numtheory", "graph", "analysis", "cohn", "verdict"):
        values[f"{layer}.self_s"] = (self_s[layer], "s")
        values[f"{layer}.calls"] = (layer_calls[layer], "count")
    values.update(
        {
            "linalg.snf.per_graph": (snf_calls / graphs if graphs else 0.0, "calls/graph"),
            "linalg.snf.max_bits": (tracer.snf_max_bits, "bits"),
            "graph.edge_scans": (scans, "count"),
            "graph.edges_built": (tracer.edges_built, "count"),
            "verdict.pointed_iso.self_s": (self_s["verdict.pointed_iso"], "s"),
            "cli.self_s": (self_s["cli"], "s"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.self_sum_s": (sum(self_s.values()), "s"),
            "trace.overhead_frac": (traced_wall / plain_wall - 1, "frac"),
        }
    )
    rows = [f"{name:<28} {value:>16.6f} {unit}" for name, (value, unit) in values.items()]
    rows.append(f"spans recorded: {len(tracer.span_start)}; untraced wall {plain_wall:.6f} s")
    return {name: metric(v, u) for name, (v, u) in values.items()}, rows, [plain, traced]


def run_one(args) -> int:
    cli, calls, anchors, setup_s, corpus_s = setup(args.workload, args.seed)
    limit = workloads.CALL_LIMIT_S[args.workload]
    problems = check_anchors(args.workload, anchors)
    if args.trace:
        metrics, rows, passes = per_layer(cli, calls, limit, args.workload, args.seed)
    else:
        passes = measure(cli, calls, limit, args.seconds)
        metrics, rows = end_to_end(passes, setup_s)
    problems += digests_repeat(passes)
    first = passes[0]
    problems += [f"{r['id']}: {r['problem']}" for r in first if r["problem"]]
    failed_ids = sorted(f"{r['id']}({r['status'] if r['status'] == 'timeout' else 'failed'})" for r in first if r["failed"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "limit_s": limit,
        "corpus_s": corpus_s,
        "problems": problems,
        "failed_ids": failed_ids,
        "anchors": anchors,
        "passes": passes,
        "metrics": metrics,
    }
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload}  seed {args.seed}  calls/pass {len(first)}  passes {len(passes)}"
          f"  limit {limit} s  corpus built in {corpus_s:.3f} s")
    for row in rows:
        print(row)
    print("failed calls: " + (", ".join(failed_ids) or "none"))
    for p in problems:
        print(f"CHECK FAILED {p}")
    result = {
        "correct": not problems,
        "attempted": len(first),
        "failed": sum(r["failed"] for r in first),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter: its metric rows, then one table row per workload."""
    names = [f"{name}[{unit}]" for name, unit in END_TO_END]
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows, last = proc.stdout.strip().rsplit("\n", 1)
        print(rows)
        results[workload] = json.loads(last)
    if not args.trace:
        print(f"{'workload':<14}" + "".join(f"{n:>18}" for n in names) + "  failed/attempted")
        for workload, result in results.items():
            m = result["metrics"]
            print(f"{workload:<14}" + "".join(f"{m[n]['value']:>18.4f}" for n, _ in END_TO_END)
                  + f"  {result['failed']}/{result['attempted']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
