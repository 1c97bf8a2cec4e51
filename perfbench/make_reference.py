"""Make the study workloads' reference archives.

    python3 perfbench/make_reference.py

Runs one serial ``fast``-kernel pass of the reference grid per dataset
seed of the pool (0 to 31), in a fresh process each, and writes its
archive to ``perfbench/reference/study-seed<N>.json``, plus a
``manifest.json`` naming the grid and the commit that made them.  Every later study run is checked
against these files, so run this only at a commit whose results are
trusted, and commit the files it writes.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import envelope  # noqa: E402
from study import REFERENCE_DIR, reference_manifest, run_pass  # noqa: E402
from workloads import REFERENCE_SEEDS, StudySpec  # noqa: E402


def main() -> int:
    work = HERE / ".work" / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for seed in range(REFERENCE_SEEDS):
            started = time.perf_counter()
            out = run_pass(StudySpec(seed=seed, jobs=1), work, f"seed{seed}",
                        started + 600, kernels="fast",
                        archive=REFERENCE_DIR / f"study-seed{seed}.json")
            failed = [c["name"] for c in out["cells"] if not c["ok"]]
            if failed:
                print(f"seed {seed}: cells failed: {failed}", file=sys.stderr)
                return 1
            print(f"seed {seed}: {time.perf_counter() - started:.1f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = envelope("make-reference", 0)
    manifest = {**reference_manifest(), "commit": env["git_commit"],
                "seeds": list(range(REFERENCE_SEEDS)),
                "envelope": {k: env[k] for k in ("nproc", "python", "numpy",
                                                 "blas_library", "blas_threads")},
                "pass_blas_env": StudySpec(seed=0, jobs=1).blas_env}
    (REFERENCE_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
