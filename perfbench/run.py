#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <ycsb-mem|tpcc-durable|net-kv> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is the Rust package in this directory (its own workspace, with
path dependencies on the repository's crates). This script builds it in
release mode (into $CARGO_TARGET_DIR, or perfbench/target), runs it, stores
the result together with its full config (workload parameters, seed, nproc,
epoch interval, fsync policy, git revision when there is one, and a digest
of the sources) under perfbench/results/, and prints the benchmark's JSON
result as the last line of standard output. It exits non-zero when the
build fails, a correctness check fails, or no result is produced.
See perfbench/METRICS.md for what each metric means.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Beyond twice the measured seconds, a run may take this long (set-ups,
# warm-ups and checks).
RUN_MARGIN_S = 120


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or BENCH / "target")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    # Cargo's own output goes to stderr so stdout stays the benchmark's.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return target / "release" / "perfbench"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even where there is no git history."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for top in (ROOT / "crates", BENCH / "src"):
        files += [p for p in top.rglob("*") if p.is_file() and "target" not in p.parts]
    for path in sorted(set(files)):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_timeout(args):
    seconds = 10.0
    if "--seconds" in args[:-1]:
        try:
            seconds = float(args[args.index("--seconds") + 1])
        except ValueError:
            pass  # the benchmark itself rejects the value
    return RUN_MARGIN_S + 2 * seconds


def main():
    args = sys.argv[1:]
    binary = build()
    out_dir = BENCH / "out"
    timeout = run_timeout(args)
    try:
        done = subprocess.run([str(binary), *args, "--out", str(out_dir)],
                              capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        sys.exit(1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if "--selftest" in args:
        print("\n".join(lines))
        sys.exit(done.returncode)

    config, result = {}, None
    for line in lines:
        if line.startswith("CONFIG "):
            config = json.loads(line[len("CONFIG "):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    if result is None:
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        sys.exit(done.returncode or 1)

    config["git_rev"] = git_rev()
    config["source_digest"] = source_digest()
    config["cpu_count"] = os.cpu_count()
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = "{}-seed{}-trace{}-{}.json".format(
        config.get("workload"), config.get("seed"), config.get("trace"),
        time.strftime("%Y%m%dT%H%M%S"))
    (results / name).write_text(json.dumps({"config": config, "result": result}, indent=1) + "\n")
    print(f"# result and config stored in {(results / name).relative_to(ROOT)}")
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
