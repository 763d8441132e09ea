#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_sweep|serve_fleet|live \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout. The first call configures and
builds perfbench/ (the library from src/ plus the perfbench binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line
on stdout is the binary's JSON result. The exit code is the binary's (1
when an output check failed), 3 when the build fails and 4 on a timeout.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> bool:
    """Configures (once) and builds the binary; False on failure."""
    log = sys.stderr
    for attempt in range(2):
        if not (out / "CMakeCache.txt").exists():
            out.mkdir(parents=True, exist_ok=True)
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out)] + generator,
                stdout=log, stderr=log)
            if configure.returncode != 0:
                return False
        jobs = str(os.cpu_count() or 1)
        made = subprocess.run(
            ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
            stdout=log, stderr=log)
        if made.returncode == 0:
            return True
        if attempt == 0:
            # A build tree left by another checkout path: start afresh.
            shutil.rmtree(out, ignore_errors=True)
    return False


def source_id() -> str:
    """The git commit, or a digest of the sources when ROOT is not the top
    of a git work tree."""
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
             "--short=12", "HEAD"],
            capture_output=True, text=True, check=True)
        top, commit = head.stdout.split()
        if Path(top).resolve() == ROOT:
            return commit
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def main() -> int:
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(out / "perfbench")] + sys.argv[1:] + [
        "--commit", source_id(), "--trace-dir", str(traces)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
