#!/usr/bin/env python3
"""Build the perfbench driver from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload disk_table1 --seed 1 --seconds 25 --trace 0

Every argument is passed to the driver (see perfbench/README.md). The Go
build cache, the binary and everything else the build writes stay under
.bench_build/ in the repository root. When the build fails (for example,
because the omtree module is not beside perfbench/), this script exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        # The go command keeps its env file and telemetry counters under the
        # user config directory; point that inside the build directory too.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    # Replace this process with the driver, so no child outlives the run.
    os.chdir(root)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
