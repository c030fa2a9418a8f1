#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload iws-sweep --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the traced runs' span files all live
under .bench_build/ in the repository root, so the benchmark reads and
writes nothing outside the checkout. The last line of standard output is
the benchmark's JSON result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 900


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 1

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S,
                       stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    sys.stdout.flush()
    os.execve(binary, [binary, *sys.argv[1:]], env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
