#!/usr/bin/env python3
"""Builds and runs the observatory benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <archive_analytics|semantic_mixed|fire_chain> \
        --seed <n> --seconds <s> --trace <0|1> [--sanitize thread]

Run from the repository root. The first run configures and builds the
teleios library and the benchmark program under .bench_build/perfbench
(a few minutes); later runs reuse that build. Build output goes to
stderr; the last line on stdout is the JSON result. --sanitize builds a
separate sanitizer tree (for race checks, never for timing).
"""
import os
import shutil
import subprocess
import sys


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, cwd):
    # Build chatter goes to stderr so stdout stays the benchmark's.
    if subprocess.run(cmd, cwd=cwd, stdout=sys.stderr).returncode != 0:
        fail("command failed: " + " ".join(cmd))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no teleios sources at " + os.path.join(root, "src"))
    args = sys.argv[1:]
    sanitize = ""
    if "--sanitize" in args:
        i = args.index("--sanitize")
        if i + 1 >= len(args):
            fail("--sanitize needs a value")
        sanitize = args[i + 1]
        del args[i:i + 2]

    build = os.path.join(root, ".bench_build",
                         "perfbench" + ("-" + sanitize if sanitize else ""))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build,
               "-DTELEIOS_SANITIZE=" + sanitize]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd, root)
    run(["cmake", "--build", build, "--target", "teleios_perfbench",
         "-j", str(os.cpu_count() or 1)], root)

    # The program runs on its defaults: no TELEIOS_* tuning knob.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TELEIOS_")}
    cleared = sorted(k for k in os.environ if k.startswith("TELEIOS_"))
    if cleared:
        print("run.py: cleared from the environment: " + " ".join(cleared))
        sys.stdout.flush()
    binary = os.path.join(build, "teleios_perfbench")
    sys.exit(subprocess.run([binary] + args, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
