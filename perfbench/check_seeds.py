#!/usr/bin/env python3
"""Check that the simulated metrics repeat for a seed, and report them for
the default and the held-out seed.

    python3 perfbench/check_seeds.py [workload ...]

Run it from the repository root. For every workload and both seeds in
predictions.json it runs the benchmark twice untraced, requires the
simulated end-to-end metrics (sim_*) of the two runs to be identical,
and prints them. Within one run the benchmark already holds every
episode, traced or not, to the first episode's simulated results.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["bulk-faults", "fanin-udp", "fanin-tcp", "ash-rpc"]
SIM = ["sim_p50_us", "sim_p99_us", "sim_goodput_mb_s"]


def run(workload, seed):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                         stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit("%s seed %d: benchmark exited %d" % (workload, seed, out.returncode))
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in SIM}


def main():
    with open(os.path.join(HERE, "predictions.json")) as f:
        seeds = json.load(f)["seeds"]
    ok = True
    for workload in sys.argv[1:] or WORKLOADS:
        for label in ("default", "held_out"):
            seed = seeds[label]
            first, second = run(workload, seed), run(workload, seed)
            same = first == second
            ok = ok and same
            print("%-12s %-8s seed %-5d %s %s" % (workload, label, seed,
                                                 "repeats" if same else "DIFFERS",
                                                 " ".join("%s=%r" % kv for kv in sorted(first.items()))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
