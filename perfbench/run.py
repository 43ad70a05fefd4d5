#!/usr/bin/env python3
"""Builds and runs the IDL benchmark (one workload per call).

    python3 perfbench/run.py --workload fig1_build|view_reads|commit_mix \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. The first call configures and builds the
library and the benchmark from source into .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls only rebuild what changed. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. See perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "idl_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_fingerprint():
    """(git sha, dirty bit, digest of the library sources)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sha, dirty = "unknown", "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True,
                                    check=True).stdout
            dirty = "1" if status.strip() else "0"
        except (OSError, subprocess.CalledProcessError):
            pass
    return sha, dirty, digest.hexdigest()[:16]


def main(argv):
    for needed in ("src", "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full "
                 "checkout of the repository")
    out = build_dir()
    build(out)
    sha, dirty, digest = source_fingerprint()
    scratch = os.path.join(os.path.dirname(out), "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(out, "idl_perfbench"), *argv,
           "--scratch-dir", scratch, "--git-sha", sha, "--git-dirty", dirty,
           "--source-digest", digest]
    child = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
