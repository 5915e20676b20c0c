#!/usr/bin/env python3
"""Builds the benchmark and the binaries it drives, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload engine-dense --seed 1 --seconds 10 --trace 0

Builds `rlb-sim` and `experiments` from the repository's workspace and
the `perfbench` package next to this file, all into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs `perfbench` with the same arguments.
Its last line of stdout is the JSON result; cargo's output goes to
stderr. Exits 2 without a result when the repository sources are
missing, and with cargo's status when a build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates"))
    ):
        print(
            "perfbench: run from the repository root (no Cargo.toml and crates/ here)",
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    builds = [
        cargo + [os.path.join(root, "Cargo.toml"), "-p", "rlb-cli", "-p", "rlb-experiments"],
        cargo + [os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return built.returncode
    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--root", root,
        "--work", work,
        "--sim", os.path.join(release, "rlb-sim"),
        "--experiments", os.path.join(release, "experiments"),
    ]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
