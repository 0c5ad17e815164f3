#!/usr/bin/env python3
"""Build the wire-to-verdict benchmark from source and run one workload.

    python3 wirebench/run.py --workload <udp_paced|udp_saturate|chaos_mix> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under wirebench/; build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The traced run's span and
window files are written next to the build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("wirebench: no program sources next to the benchmark "
              "(expected CMakeLists.txt and src/ at the checkout root)",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "wirebench")
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "wirebench",
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("wirebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    binary = os.path.join(build, "wirebench")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", build]).returncode


if __name__ == "__main__":
    sys.exit(main())
