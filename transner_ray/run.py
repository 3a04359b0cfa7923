"""Job entry point: ``python -m transner_ray.run [options]``.

This is what ``ray job submit -- python -m transner_ray.run ...`` runs
on a cluster (SURVEY.md §3.4): a resumable, partitioned KG-construction
job with per-partition lineage manifests. Re-running the same command
after a failure resumes — completed partitions are skipped.

Starts a Ray session only when none is running, and shuts down only a
session it started; library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="transner_ray KG-construction job")
    ap.add_argument("--input", required=True, help="pages file/glob/dir (parquet or jsonl)")
    ap.add_argument(
        "--input-format",
        choices=("parquet", "jsonl"),
        default="parquet",
        help="jsonl = WET-shaped line-delimited records (url/text/lang)",
    )
    ap.add_argument("--ckpt-dir", required=True, help="checkpoint + manifest root")
    ap.add_argument("--out-dir", default=None, help="final outputs (default: <ckpt>/out)")
    ap.add_argument("--num-partitions", type=int, default=16)
    ap.add_argument("--detect-batch-size", type=int, default=256)
    ap.add_argument("--no-mentions", action="store_true", help="skip the flat mentions output")
    ap.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU cap (tests)")
    args = ap.parse_args(argv)

    import ray

    started = not ray.is_initialized()
    if started:
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)
    try:
        return _run(args)
    finally:
        if started:
            ray.shutdown()


def _run(args: argparse.Namespace) -> int:
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import os

    ext = "*.parquet" if args.input_format == "parquet" else "*.jsonl"
    if os.path.isdir(args.input):
        files = sorted(glob.glob(os.path.join(args.input, ext)))
    else:
        files = sorted(glob.glob(args.input))
    if not files:
        print(f"no input files match {args.input}", file=sys.stderr)
        return 2

    from .pipelines.kg import run_partitioned

    result = run_partitioned(
        files,
        args.ckpt_dir,
        out_dir=args.out_dir,
        num_partitions=args.num_partitions,
        detect_batch_size=args.detect_batch_size,
        write_mentions=not args.no_mentions,
        input_format=args.input_format,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
