#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark (perfbench/bench.ml) is built with dune into .bench_build/
in the checkout, with dune's shared cache off, so nothing is read or
written outside the checkout.  Its standard output passes through
unchanged; the last line is the JSON result.  See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ not found")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    build_dir = os.path.abspath(BUILD_DIR)
    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=build_dir)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail(f"build failed (dune exit {build.returncode})")
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:], env=env).returncode)


if __name__ == "__main__":
    main()
