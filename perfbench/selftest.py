#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [--update-golden]

For every workload, at tiny size and the default seed:
  * an untraced run completes with every output check passing;
  * RERAMDL_THREADS=1 and RERAMDL_THREADS=nproc give the same digests and
    bit-identical modeled results (the repo's bit-identity contract, checked
    from outside the library);
  * the digests match golden.json;
  * a traced run produces every per_layer metric of BENCHMARK.json.

--update-golden rewrites golden.json from full- and tiny-size runs at the
default seed instead of checking it (the digests change whenever the modeled
design or the workload definitions change; say so when committing).
"""
import argparse
import json
import os
import sys

import run

SECONDS = 0.2


def check(ok, what, failures):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    seed, threads = run.DEFAULT_SEED, run.nproc()

    if args.update_golden:
        golden = {}
        for size, seconds in (("full", 0), ("tiny", 0)):
            golden[size] = {}
            for w in run.WORKLOADS:
                raw, _ = run.run_driver(binary, w, seed, seconds, False, size)
                golden[size][w] = raw["digests"]
        with open(os.path.join(run.HERE, "golden.json"), "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote golden.json")
        return 0

    failures = []
    for w in run.WORKLOADS:
        one, _ = run.run_driver(binary, w, seed, SECONDS, False, "tiny", 1)
        many, _ = run.run_driver(binary, w, seed, SECONDS, False, "tiny",
                                 threads)
        for name, raw in (("1 thread", one), (f"{threads} threads", many)):
            check(raw["failed"] == 0 and all(raw["checks"].values()),
                  f"{w}: output checks pass at {name} {raw['checks']}",
                  failures)
        check(one["digests"] == many["digests"],
              f"{w}: digests identical at 1 and {threads} threads", failures)
        check(one["modeled"] == many["modeled"],
              f"{w}: modeled results identical at 1 and {threads} threads",
              failures)
        check(run.golden_ok(one, w, seed, "tiny") is True,
              f"{w}: digests match golden.json", failures)
        traced, _ = run.run_driver(binary, w, seed, SECONDS, True, "tiny")
        try:
            run.metric_values(traced, spec, w, True)
            produced = True
        except KeyError as e:
            print(e)
            produced = False
        check(produced, f"{w}: traced run gives every per_layer metric",
              failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
