#!/usr/bin/env python3
"""Builds the SciBORQ benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
`perfbench/` (which compiles the library from `src/`) into
`.bench_build/perfbench`; later runs rebuild incrementally. The program's
human-readable report goes to stdout, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics for --trace 0 and the per-layer metrics for --trace 1.

Each run also records its work fingerprint (answered_by histogram, base rows
scanned, matching rows, response bytes) under `.bench_build/fingerprints/`,
keyed by workload, seed and a digest of the sources (`src/` and
`perfbench/`). A later run of the same sources, workload and seed whose
fingerprint differs is reported as invalid (correct: false): its escalation
depended on timing. Changed sources start a fresh record, since a correct
change may legitimately change the work.

Exit status: 0 on a correct run, 1 when an answer check failed or the
fingerprint changed, 2 when the build or the run could not be carried out
(no result line is printed then).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "
STATIC_WORKLOADS = ("explore_focal", "drill_base", "coord_fanout")


def die(message):
    sys.stdout.flush()
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "api", "engine.h")):
        die("no SciBORQ sources under src/: run from the root of a source tree")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build step failed: " + " ".join(step))
    if not os.access(binary, os.X_OK):
        die("build produced no " + binary)
    return binary


def source_digest(root):
    """SHA-256 over the relative paths and contents of src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def check_fingerprint(root, workload, seed, fingerprint):
    """Returns an error string when an earlier run of the same sources and
    seed did other work."""
    if workload not in STATIC_WORKLOADS:
        return None
    if fingerprint is None:
        return "no work fingerprint reported"
    directory = os.path.join(root, ".bench_build", "fingerprints")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-%d-%s.json" % (workload, seed,
                                                      source_digest(root)))
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != fingerprint:
            return ("work fingerprint differs from an earlier run of seed %d: "
                    "%s vs %s" % (seed, json.dumps(earlier),
                                   json.dumps(fingerprint)))
        return None
    with open(path, "w") as f:
        json.dump(fingerprint, f)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore_focal", "drill_base",
                                 "ingest_window", "coord_fanout"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    out_dir = os.path.join(root, ".bench_build", "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            report, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    result = None
    for line in report.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None or proc.returncode not in (0, 1):
        die("perfbench exited with %d and no result" % proc.returncode)

    correct = bool(result["correct"]) and proc.returncode == 0
    invalid = check_fingerprint(root, args.workload, args.seed,
                                result.get("fingerprint"))
    if invalid is not None:
        print("INVALID RUN: " + invalid)
        correct = False
    sys.stdout.flush()
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
