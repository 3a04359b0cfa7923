"""Self-checks of the benchmark itself, at a tiny size (a few minutes):

    python3 perfbench/selfcheck.py

1. every workload, untraced and traced, exits 0 with a correct result
   whose metric names equal those in BENCHMARK.json and whose metrics
   all differ from 0;
2. a rep whose triples output is corrupted is reported as failed;
3. in a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(args: list[str], cwd: str = ROOT) -> tuple[int, dict | None]:
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if p.returncode and result is None:
        sys.stderr.write(p.stderr[-3000:])
    return p.returncode, result


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {
        0: sorted(m["name"] for m in spec["end_to_end"]),
        1: sorted(m["name"] for m in spec["per_layer"]),
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name in workloads.SIZES["tiny"]:
        for trace in (0, 1):
            code, r = bench(["--workload", name, "--seed", "7", "--trace", str(trace), "--size", "tiny"])
            expect(
                code == 0 and r is not None and r["correct"] and r["failed"] == 0,
                f"{name} trace={trace}: exit 0, every rep equals the oracle",
            )
            expect(
                r is not None and sorted(r["metrics"]) == names[trace],
                f"{name} trace={trace}: metric names equal BENCHMARK.json",
            )
            expect(
                r is not None and all(m["value"] != 0 for m in r["metrics"].values()),
                f"{name} trace={trace}: no metric reads 0",
            )

    code, r = bench(
        ["--workload", "bulk", "--seed", "7", "--trace", "0", "--size", "tiny", "--corrupt-triples"]
    )
    expect(
        code == 0 and r is not None and r["failed"] == 1 and not r["correct"],
        "corrupted triples: the rep is reported as failed",
    )

    bare = os.path.join(ROOT, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    code, r = bench(["--workload", "bulk", "--seed", "7", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and r is None, "without the program: non-zero exit and no result")

    print("selfcheck: " + ("all passed" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
