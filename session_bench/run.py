#!/usr/bin/env python3
"""Session benchmark entry point.

Builds bench_session from the checkout's sources (configure once, then an
incremental build on every call) and runs one workload:

    python3 session_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Build output goes to stderr and under
$CARGO_TARGET_DIR (default .bench_build); the last line of stdout is the
result object bench_session prints.  With --trace 1 the spans are written as
Chrome trace-event JSON under <build dir>/session_bench/traces/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The binary's own session watchdog (60 s) ends a wedged engine first; this
# is the backstop that keeps a whole run under three minutes.
RUN_MARGIN_S = 120


def fail(message, code=2):
    print(f"session_bench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "session_bench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree at {ROOT}; run from the root of a full checkout")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "bench_session",
         "-j", str(min(os.cpu_count() or 1, 4))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["SIDCO_THREADS"] = "1"  # kernel pool pinned: sessions compress serially
    env.pop("SIDCO_SOCKET_FAMILY", None)  # Unix-domain sockets
    # Rendezvous sockets go under TMPDIR; a relative path keeps them inside
    # the checkout and short enough for sun_path.
    env["TMPDIR"] = os.path.relpath(tmp, ROOT)

    cmd = [str(out / "bench_session"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_file)]

    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        # The sockets engine forks workers into the same process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {args.seconds + RUN_MARGIN_S:.0f} s", code=3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"bench_session exited with {proc.returncode}", code=proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("bench_session printed no result line", code=4)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}", code=4)
    if args.trace == 1:
        print(f"trace: {os.path.relpath(trace_file, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
