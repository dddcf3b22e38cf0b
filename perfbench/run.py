#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark program are compiled (Release) into
.bench_build/perfbench under the repository root; the build output goes to
stderr so that the program's result stays the last line of stdout. With
--trace 1 the spans go to .bench_build/spans/<workload>-seed<n>.json
unless --spans is given. Every other argument is passed to the program
unchanged (see README.md).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = []  # the cache remembers it
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] +
        generator,
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "wehey_perfbench")


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    binary = build()
    if arg_value(args, "--trace", "0") == "1" and "--spans" not in args:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "run"),
                                   arg_value(args, "--seed", "1"))
        args += ["--spans", os.path.join(spans_dir, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
