"""Per-partition lineage manifests + resume planning (SURVEY.md §4.2).

The reference's only sink is a JSON-lines request log (logger.py:5-11,
api.py:64-69); at corpus scale that generalizes to a **lineage
manifest** per completed partition: which input files went in, how many
rows came out of each stage, wall time, and a completion marker. A
resumed run diffs manifests against the partition list and re-runs ONLY
the missing partitions — no recompute of finished ones (north_rule
resumability).

Layout under a checkpoint root:

    ckpt/
      triples/part=0007/*.parquet      (stage output, written to a tmp
      mentions/part=0007/*.parquet      dir then atomically renamed;
                                        mentions only if requested)
      manifest/part-0007.json          (written LAST → completion marker)
      manifest/wide.json               (the wide phase's record, written
                                        after its outputs are in place)

The stage dirs of every partition a run computes are filled by one
Ray Data execution shared by the run (``pipelines/kg.py::TaggedSink``
routes each row to its partition's dirs); the partitions then commit
one by one. No intermediate stage is stored.

``wide.json`` holds a sha256 of the fingerprints of the triple files
the wide phase read, one of the entity/edge files it wrote, and their
row counts; a resume whose digests both match skips the wide phase.
Digests, not file lists, so the record stays a few hundred bytes at
any file count. It is deleted before the wide phase writes and
rewritten after, so a kill in between leaves no record and the resume
recomputes.

Atomicity: parquet is written into ``<dir>.tmp`` and ``os.replace``d
into place; the manifest is written only after every stage directory of
the partition is in place, so a kill at any point leaves either a
complete partition (manifest present) or a re-runnable one (no
manifest; stale tmp/partial dirs are cleaned on resume).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field


def fingerprint_files(files: list[str]) -> list[list]:
    """Per-file (path, size, mtime_ns) — recorded in the manifest and
    compared on resume, so a REGENERATED input (same path, new content)
    invalidates the partition instead of silently reusing stale
    triples. Content-free by design: stat() is O(1) per file; a 100 TB
    re-hash per resume would defeat the point of resuming."""
    out = []
    for f in sorted(files):
        st = os.stat(f)
        out.append([f, st.st_size, st.st_mtime_ns])
    return out


def digest_files(files: list[str]) -> str:
    """sha256 over :func:`fingerprint_files` — fixed size at any file count."""
    return hashlib.sha256(json.dumps(fingerprint_files(files)).encode()).hexdigest()


@dataclass
class PartitionManifest:
    partition: int
    input_files: list[str]
    rows: dict[str, int] = field(default_factory=dict)  # stage -> row count
    wall_sec: float = 0.0
    status: str = "complete"
    input_fingerprint: list = field(default_factory=list)  # [path, size, mtime_ns]

    def to_json(self) -> str:
        return json.dumps(
            {
                "partition": self.partition,
                "input_files": self.input_files,
                "input_fingerprint": self.input_fingerprint,
                "rows": self.rows,
                "wall_sec": self.wall_sec,
                "status": self.status,
            },
            sort_keys=True,
        )


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "manifest"), exist_ok=True)

    # ---- manifests -----------------------------------------------------
    def manifest_path(self, partition: int) -> str:
        return os.path.join(self.root, "manifest", f"part-{partition:04d}.json")

    def is_complete(self, partition: int) -> bool:
        return os.path.exists(self.manifest_path(partition))

    def completed_partitions(self) -> list[int]:
        out = []
        d = os.path.join(self.root, "manifest")
        for name in sorted(os.listdir(d)):
            if name.startswith("part-") and name.endswith(".json"):
                out.append(int(name[5:-5]))
        return out

    def load_manifest(self, partition: int) -> dict:
        with open(self.manifest_path(partition)) as f:
            return json.load(f)

    def write_manifest(self, manifest: PartitionManifest) -> None:
        _write_atomic(self.manifest_path(manifest.partition), manifest.to_json())

    def wide_manifest_path(self) -> str:
        return os.path.join(self.root, "manifest", "wide.json")

    def load_wide_manifest(self) -> dict | None:
        try:
            with open(self.wide_manifest_path()) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def write_wide_manifest(self, triples: str, outputs: str, counts: dict[str, int]) -> None:
        record = {"triples": triples, "outputs": outputs, "counts": counts}
        _write_atomic(self.wide_manifest_path(), json.dumps(record, sort_keys=True))

    def clear_wide_manifest(self) -> None:
        try:
            os.remove(self.wide_manifest_path())
        except FileNotFoundError:
            pass

    # ---- stage output dirs --------------------------------------------
    def stage_dir(self, stage: str, partition: int) -> str:
        return os.path.join(self.root, stage, f"part={partition:04d}")

    def tmp_stage_dir(self, stage: str, partition: int) -> str:
        return self.stage_dir(stage, partition) + ".tmp"

    def clean_incomplete(self, stage: str, partition: int) -> None:
        """Remove stale output of a partition whose manifest is absent
        (kill happened mid-write)."""
        for d in (self.tmp_stage_dir(stage, partition), self.stage_dir(stage, partition)):
            if os.path.exists(d):
                shutil.rmtree(d)

    def commit_stage_dir(self, stage: str, partition: int) -> None:
        os.replace(self.tmp_stage_dir(stage, partition), self.stage_dir(stage, partition))

    def completed_stage_dirs(self, stage: str) -> list[str]:
        return [self.stage_dir(stage, p) for p in self.completed_partitions()]

    def completed_stage_files(self, stage: str) -> list[str]:
        """Parquet files of all completed partitions (read_parquet with
        an explicit file list — a list of directories is not accepted)."""
        files: list[str] = []
        for d in self.completed_stage_dirs(stage):
            for name in sorted(os.listdir(d)):
                if name.endswith(".parquet"):
                    files.append(os.path.join(d, name))
        return files


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def plan_partitions(input_files: list[str], num_partitions: int) -> list[list[str]]:
    """Contiguous grouping of input files into partitions (partition
    identity is stable for a fixed input listing → manifests stay valid
    across runs)."""
    files = sorted(input_files)
    num_partitions = max(1, min(num_partitions, len(files)))
    bounds = [round(i * len(files) / num_partitions) for i in range(num_partitions + 1)]
    return [files[bounds[i] : bounds[i + 1]] for i in range(num_partitions) if bounds[i + 1] > bounds[i]]


def timed() -> float:
    return time.perf_counter()
