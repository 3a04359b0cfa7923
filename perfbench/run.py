"""Benchmark of the resumable KG job (``pipelines.kg.run_partitioned``).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One driver process, one Ray session with
``NUM_CPUS`` CPUs and a fixed object store, one job at a time (a closed
loop with one client). Every rep's outputs are checked against the
sequential oracle, untimed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (kernel pass plus a traced run). The
last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 2**20
MIN_REPS = 3
REP_TIMEOUT_S = 90
LAST_REP_START_S = 150  # no rep starts later than this, so the run ends within 180 s
RUN_LIMIT_S = 168  # a rep still running now is stopped and counted as failed
# Ray's session sockets live under its temp dir; a unix socket path is at
# most 107 bytes, and "/session_<time>_<pid>/sockets/plasma_store" takes
# up to 64 of them. A longer checkout path falls back to Ray's default.
MAX_RAY_TEMP_DIR = 42


class RepTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RepTimeout("rep exceeded its time limit")


def log(msg: str) -> None:
    print(msg, flush=True)


def start_ray() -> float:
    """Start the benchmark's own Ray session; returns how long that took, in s."""
    # Workers inherit the driver's environment: without the repository on
    # their path, every task fails with "No module named 'transner_ray'"
    # whenever the driver script lives outside the package's directory.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import ray

    kwargs = dict(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
    )
    temp_dir = os.path.join(WORK, "ray")
    if len(temp_dir) <= MAX_RAY_TEMP_DIR:
        kwargs["_temp_dir"] = temp_dir
    else:
        print(f"perfbench: {temp_dir} is too long for Ray's sockets; using Ray's default", file=sys.stderr)
    t0 = time.perf_counter()
    ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return time.perf_counter() - t0


class Bench:
    def __init__(self, w, seed: int, pages: list[str], expected: dict, corrupt: bool):
        self.w = w
        self.seed = seed
        self.pages = pages
        self.expected = expected
        self.corrupt = corrupt
        self.base = None
        self.run_dir = os.path.join(WORK, "run")

    def _job(self, ckpt: str) -> dict:
        from transner_ray.pipelines.kg import run_partitioned

        return run_partitioned(
            self.pages,
            ckpt,
            num_partitions=self.w.partitions(self.pages),
            write_mentions=self.w.write_mentions,
        )

    def setup(self) -> dict:
        """Ray session start plus one warm-up job over the corpus's first
        shard, so that workers are spawned and every stage's module is
        imported; then, untimed, the workload's base checkpoint."""
        from transner_ray.pipelines.kg import run_partitioned

        from perfbench import workloads

        init_s = start_ray()
        t0 = time.perf_counter()
        run_partitioned(
            sorted(self.pages)[:1],
            os.path.join(self.run_dir, "warmup"),
            num_partitions=1,
            write_mentions=self.w.write_mentions,
        )
        warmup_s = time.perf_counter() - t0
        shutil.rmtree(os.path.join(self.run_dir, "warmup"))
        self.base = workloads.base_checkpoint(
            os.path.join(WORK, "cache"), self.w, self.seed, self.pages
        )
        return {"ray_init_s": init_s, "warmup_s": warmup_s, "setup_s": init_s + warmup_s}

    def rep(self, tracer=None) -> dict:
        """One timed job from the restored start state, then a rerun with
        nothing new; both outputs checked against the oracle."""
        from perfbench import host, verify

        ckpt = os.path.join(self.run_dir, "ckpt")
        out = os.path.join(ckpt, "out")
        shutil.rmtree(ckpt, ignore_errors=True)
        if self.base:
            shutil.copytree(self.base, ckpt)
        n_parts = self.w.partitions(self.pages)
        span = tracer.job_span if tracer else lambda job: nullcontext()
        cpu0, steal0 = host.tree_cpu_s(), host.cpu_times()
        with host.PeakRss() as rss, span("job"):
            t0 = time.perf_counter()
            res = self._job(ckpt)
            job_s = time.perf_counter() - t0
        job_cpu_s = host.tree_cpu_s() - cpu0 - rss.cpu_s
        steal = host.steal_share(steal0, host.cpu_times())
        if self.corrupt:
            self.corrupt = False
            verify.corrupt_triples(ckpt)
        verify.check(ckpt, out, self.expected)
        want_ran = list(range(self.w.base_shards, n_parts))
        if res["ran"] != want_ran:
            raise verify.Mismatch(f"job ran partitions {res['ran']}, expected {want_ran}")
        _, out_bytes = host.du_bytes(ckpt)
        cpu0 = host.tree_cpu_s()
        with span("noop"):
            t0 = time.perf_counter()
            noop = self._job(ckpt)
            noop_s = time.perf_counter() - t0
        noop_cpu_s = host.tree_cpu_s() - cpu0
        if noop["ran"]:
            raise verify.Mismatch(f"rerun with nothing new ran partitions {noop['ran']}")
        verify.check(ckpt, out, self.expected)
        return {
            "job_s": job_s,
            "docs_per_s": self.w.new_docs() / job_s,
            "cpu_ms_per_doc": job_cpu_s * 1e3 / self.w.new_docs(),
            "resume_noop_s": noop_s,
            "resume_noop_cpu_s": noop_cpu_s,
            "peak_rss_mb": rss.peak / 2**20,
            "out_bytes_per_doc": out_bytes / self.w.n_docs,
            "steal_share": steal,
        }


def run_rep(bench: Bench, t_start: float, tracer=None) -> dict:
    """One rep, recorded as failed if it raises or outlives its limit,
    which also keeps the whole run within RUN_LIMIT_S."""
    limit = max(1, min(REP_TIMEOUT_S, int(RUN_LIMIT_S - (time.perf_counter() - t_start))))
    t0 = time.perf_counter()
    signal.alarm(limit)
    try:
        rep = bench.rep(tracer)
        rep["ok"] = True
    except Exception as e:  # the run goes on; the rep counts as failed
        traceback.print_exc(file=sys.stderr)
        rep = {"ok": False, "error": f"{type(e).__name__}: {e}"}
    finally:
        signal.alarm(0)
    rep["traced"] = tracer is not None
    rep["rep_s"] = time.perf_counter() - t0
    log("rep: " + json.dumps(rep))
    return rep


def end_to_end(setup: dict, reps: list[dict]) -> dict:
    """Each job measure is its best rep: on a host with CPU steal,
    interference only ever slows a rep. The gated ones are CPU seconds,
    which steal inflates far less than wall time (README.md)."""
    ok = [r for r in reps if r["ok"]]
    return {
        "setup_s": setup["setup_s"],
        "cpu_ms_per_doc": min(r["cpu_ms_per_doc"] for r in ok),
        "resume_noop_cpu_s": min(r["resume_noop_cpu_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "out_bytes_per_doc": statistics.median(r["out_bytes_per_doc"] for r in ok),
        "docs_per_s": max(r["docs_per_s"] for r in ok),
        "resume_noop_s": min(r["resume_noop_s"] for r in ok),
    }


def per_layer(w, kernel: dict, tracer, untraced_docs_per_s: float, traced: dict) -> dict:
    m = {k: v for k, v in kernel.items() if k != "narrow_s_per_doc"}
    job = tracer.job_metrics("job", NUM_CPUS)
    narrow_udf_s = job.pop("narrow_udf_s")
    m.update(job)
    noop = tracer.job_metrics("noop", NUM_CPUS)
    m["pipelines.noop_executions"] = noop["pipelines.executions"]
    m["checkpoint.noop_s"] = noop["checkpoint.s"]
    m["pipelines.parallel_efficiency"] = untraced_docs_per_s / (
        kernel["kernel.docs_per_s"] * NUM_CPUS
    )
    m["pipelines.kernel_udf_ratio"] = kernel["narrow_s_per_doc"] * w.new_docs() / max(
        narrow_udf_s, 1e-9
    )
    m["trace.docs_per_s"] = traced["docs_per_s"]
    m["trace.overhead"] = untraced_docs_per_s / traced["docs_per_s"]
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-check size")
    ap.add_argument(
        "--corrupt-triples",
        action="store_true",
        help="self-check: damage the first rep's triples before its oracle check",
    )
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "transner_ray")):
        print(f"perfbench: no transner_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import host, kernels, metrics, workloads

    problems = metrics.check_spec(
        os.path.join(ROOT, "BENCHMARK.json"), list(workloads.GATED)
    )
    if problems:
        print("perfbench: BENCHMARK.json does not match the benchmark:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    w = workloads.SIZES[args.size].get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2

    log(f"perfbench: workload={w.name} seed={args.seed} trace={args.trace} size={args.size}")
    facts = host.facts(ROOT)
    facts["loadavg_before"] = os.getloadavg()
    cpu_before = host.cpu_times()
    cache = os.path.join(WORK, "cache")
    pages = workloads.corpus(cache, w, args.seed)
    expected = workloads.oracle(cache, args.seed, w.n_docs, pages)
    kernel = None
    if args.trace:
        kernel = kernels.kernel_pass(kernels.sample_pages(pages, w.kernel_docs), w.write_mentions)

    import ray

    from perfbench.tracing import Tracer

    bench = Bench(w, args.seed, pages, expected, args.corrupt_triples)
    shutil.rmtree(bench.run_dir, ignore_errors=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer()
    try:
        signal.alarm(REP_TIMEOUT_S)
        try:
            setup = bench.setup()
        finally:
            signal.alarm(0)
        facts.update(host.ray_facts())
        log("setup: " + json.dumps(setup))
        reps = []
        if args.trace:
            # the traced rep sits between two untraced ones, which give
            # the untraced docs_per_s it is compared with
            reps.append(run_rep(bench, t_start))
            tracer.install()
            try:
                reps.append(run_rep(bench, t_start, tracer))
            finally:
                tracer.uninstall()
            reps.append(run_rep(bench, t_start))
        else:
            # reps start while the longest so far still fits in --seconds
            # (at least MIN_REPS) and no rep has timed out
            measure_end = time.perf_counter() + args.seconds
            while not any(r.get("error", "").startswith("RepTimeout") for r in reps):
                longest = max((r["rep_s"] for r in reps), default=0.0)
                now = time.perf_counter()
                if len(reps) >= MIN_REPS and now + longest > measure_end:
                    break
                if reps and now - t_start + longest > LAST_REP_START_S:
                    log(f"perfbench: no time left for rep {len(reps) + 1}")
                    break
                reps.append(run_rep(bench, t_start))
    finally:
        ray.shutdown()
        shutil.rmtree(bench.run_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    facts["loadavg_after"] = os.getloadavg()
    facts["steal_share"] = host.steal_share(cpu_before, host.cpu_times())
    log("host: " + json.dumps(facts))

    failed = sum(not r["ok"] for r in reps)
    log(f"failed_frac = {failed / len(reps)} ratio  ({failed} of {len(reps)} reps)")
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        untraced = [r for r in reps if r["ok"] and not r["traced"]]
        if not (traced and traced[0]["ok"] and untraced):
            print("perfbench: the traced run failed; no per-layer metrics", file=sys.stderr)
            return 1
        untraced_docs_per_s = statistics.median(r["docs_per_s"] for r in untraced)
        values = per_layer(w, kernel, tracer, untraced_docs_per_s, traced[0])
        units = metrics.PER_LAYER
        spans_path = os.path.join(WORK, "traces", f"{w.name}-s{args.seed}.json")
        tracer.dump(spans_path, {"workload": w.name, "seed": args.seed, "host": facts, "reps": reps})
        log(f"spans: {spans_path}")
    else:
        if failed == len(reps):
            print("perfbench: every rep failed; no metrics", file=sys.stderr)
            return 1
        values = end_to_end(setup, reps)
        units = metrics.END_TO_END
    for name in units:
        log(f"{name} = {values[name]} {units[name][0]}")
    for name in sorted(set(values) - set(units)):
        log(f"{name} = {values[name]} {metrics.detail_unit(name)}  (not in the result)")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
