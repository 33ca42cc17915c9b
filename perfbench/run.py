#!/usr/bin/env python3
"""Build and run one workload of the reramdl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the simulator's libraries plus the driver, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
re-check the build. The driver binary runs the workload and writes its raw
result; this script folds the library's trace spans into per-layer self
times (--trace 1), checks digests against golden.json for the default seed,
prints a human-readable report with provenance, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are BENCHMARK.json's end_to_end set (--trace 0) or its per_layer
set (--trace 1). See perfbench/README.md for what each one measures.
"""
import argparse
import collections
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_lenet", "serve_aging", "train_regan", "chip_vgg")
DEFAULT_SEED = 2018
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170

# Per-layer metrics only exist on the workloads that exercise their layer;
# elsewhere they read 0. Keys are metric-name prefixes.
APPLIES = {
    "pool.": WORKLOADS,
    "obs.": WORKLOADS,
    "core.table1_": WORKLOADS,
    "tensor.": WORKLOADS,
    "nn.": ("train_regan",),
    "circuit.": ("serve_lenet", "serve_aging"),
    "core.add_tenant": ("serve_lenet", "serve_aging"),
    "serving.": ("serve_lenet", "serve_aging"),
    "virt_": ("serve_lenet", "serve_aging"),
    "maint.": ("serve_aging",),
    "retained_acc": ("serve_aging",),
    "arch.": ("chip_vgg",),
    "chip_": ("chip_vgg",),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# Default pool size. With one thread every parallel region runs inline on
# the calling thread, so no run waits on a pool worker being woken or
# rescheduled; on a shared 4-vCPU host that wait was the largest source of
# run-to-run spread on the workloads with many small regions (chip_vgg).
DEFAULT_THREADS = 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                        "perfbench")


def run_checked(cmd, env=None, timeout=None):
    """Runs cmd in its own process group with stdout sent to stderr. On a
    timeout or interruption the whole group (make, compilers, ...) is killed
    and reaped."""
    env = dict(os.environ if env is None else env)
    # Compilers and the driver keep their temporary files in the checkout.
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    p = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                         start_new_session=True)
    try:
        code = p.wait(timeout=timeout)
    except BaseException:  # timeout, SIGTERM (see main) or ^C
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(
            "reramdl sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            run_checked(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"],
                        timeout=BUILD_TIMEOUT_S)
        run_checked(["cmake", "--build", out, "--target", "reramdl_bench",
                     "-j", str(nproc())],
                    timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "reramdl_bench")


def git_describe():
    try:
        # The ceiling keeps git from describing a repository above the
        # checkout when the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        p = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout)"


def run_driver(binary, workload, seed, seconds, trace, size, threads=None):
    """Runs the driver once; returns (raw result dict, env used)."""
    runs = os.path.join(build_dir(), "runs", str(os.getpid()))
    os.makedirs(runs, exist_ok=True)
    env = dict(os.environ)
    if threads is not None:
        env["RERAMDL_THREADS"] = str(threads)
    if not env.get("RERAMDL_THREADS"):
        env["RERAMDL_THREADS"] = str(DEFAULT_THREADS)
    files = {k: os.path.join(runs, f"{workload}.{k}.json")
             for k in ("result", "trace", "metrics", "spans")}
    for path in files.values():
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--size", size, "--out", files["result"]]
    if trace:
        env["RERAMDL_TRACE"] = files["trace"]
        env["RERAMDL_METRICS"] = files["metrics"]
        cmd += ["--trace", "--spans-out", files["spans"]]
    else:
        env.pop("RERAMDL_TRACE", None)
        env.pop("RERAMDL_METRICS", None)
    try:
        run_checked(cmd, env, RUN_TIMEOUT_S)
        with open(files["result"]) as f:
            raw = json.load(f)
        if trace:
            raw["layer"].update(fold_trace(files["trace"], raw["fold"]))
            # The driver's own spans stay for inspection; the library trace
            # (tens of MB) does not.
            kept = os.path.join(build_dir(), "spans", f"{workload}.json")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            os.replace(files["spans"], kept)
            raw["spans_file"] = kept
    finally:
        for path in files.values():
            if os.path.exists(path):
                os.remove(path)
        try:
            os.rmdir(runs)
        except OSError:
            pass
    return raw, env


def fold_trace(path, fold):
    """Self times of the library's own spans, per traced call.

    A span's self time is its duration minus the part covered by nested
    spans on the same thread. pool.* spans are not counted as children: they
    are the parent's own work, split into chunks.
    """
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X" and e.get("pid") == 1
                  and not e["name"].startswith("pool.")]
    by_tid = collections.defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    self_us = collections.defaultdict(float)
    top_matmul_us = 0.0
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, event, child_us]

        def close(frame):
            self_us[frame[1]["name"]] += max(0.0, frame[1]["dur"] - frame[2])

        for e in evs:
            while stack and e["ts"] >= stack[-1][0]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            is_matmul = e["name"].startswith("ops.matmul")
            if is_matmul and not any(
                    f[1]["name"].startswith("ops.matmul") for f in stack):
                top_matmul_us += e["dur"]
            stack.append([e["ts"] + e["dur"], e, 0.0])
        while stack:
            close(stack.pop())
    calls = max(1.0, fold.get("traced_calls", 0.0))
    matmul_self = sum(v for k, v in self_us.items()
                      if k.startswith("ops.matmul"))
    return {
        "tensor.matmul_self_ms": matmul_self * 1e-3 / calls,
        "tensor.matmul_gflops": (fold.get("matmul_flops", 0.0) /
                                 (top_matmul_us * 1e-6) * 1e-9
                                 if top_matmul_us > 0 else 0.0),
        "circuit.compute_batch_self_ms":
            self_us.get("xbar.compute_batch", 0.0) * 1e-3 / calls,
        "arch.chip_run_self_ms": self_us.get("chip.run", 0.0) * 1e-3 / calls,
    }


def applies(metric, workload):
    for prefix, workloads in APPLIES.items():
        if metric.startswith(prefix):
            return workload in workloads
    raise KeyError(f"metric {metric} has no entry in APPLIES")


def golden_ok(raw, workload, seed, size):
    """Digest check against golden.json; None when no golden value applies."""
    if seed != DEFAULT_SEED:
        return None
    try:
        with open(os.path.join(HERE, "golden.json")) as f:
            golden = json.load(f)[size][workload]
    except (OSError, KeyError):
        return None
    return all(raw["digests"].get(k) == v for k, v in golden.items())


def metric_values(raw, spec, workload, traced):
    """The BENCHMARK.json metric set for this run, by name."""
    if not traced:
        values = {
            "setup_s": raw["setup_ref_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
            "host_ops_per_ref_s": raw["host_ops_per_ref_s"],
        }
        names = spec["end_to_end"]
    else:
        values = dict(raw["layer"])
        values.update(raw["modeled"])
        names = spec["per_layer"]
    out = {}
    for m in names:
        name = m["name"]
        if name in values:
            v = values[name]
        elif traced and not applies(name, workload):
            v = 0.0
        else:
            raise KeyError(f"{workload}: metric {name} was not produced")
        out[name] = {"value": float(v), "unit": m["unit"]}
    return out


def report(raw, env, workload, seed, traced, golden):
    """Human-readable lines; everything before the final JSON line."""
    prov = dict(raw["provenance"])
    prov["git_describe"] = git_describe()
    prov["seed"] = seed
    prov["reramdl_env"] = {k: v for k, v in sorted(env.items())
                           if k.startswith("RERAMDL_")}
    print(f"reramdl benchmark  workload={workload}  seed={seed}  "
          f"size={raw['size']}  traced={int(traced)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    attempted, failed = raw["attempted"], raw["failed"]
    rows = [
        ("setup_s", raw["setup_ref_s"], "ref s", "host"),
        ("setup_wall_s", statistics.median(raw["setup_s"]), "s", "host"),
        ("peak_rss_mb", raw["peak_rss_mb"], "MiB", "host"),
        (raw["host_name"], raw["host_ops_per_s"], raw["host_unit"], "host"),
        ("host_ops_per_ref_s", raw["host_ops_per_ref_s"], "1/ref_s", "host"),
        ("ref_kernel_ms", raw["ref_kernel_s"] * 1e3,
         f"ms (n={raw['ref_runs']})", "host"),
    ]
    units = {"virt_rps": "req/s", "virt_e2e_p99_us": "us",
             "retained_acc": "ratio", "chip_latency_us": "us",
             "chip_energy_uj": "uJ", "fresh_acc": "ratio"}
    for k, v in sorted(raw["modeled"].items()):
        rows.append((k, v, units.get(k, ""), "modeled"))
    rows.append(("fail_frac", failed / attempted if attempted else 1.0,
                 f"ratio ({failed}/{attempted})", "check"))
    for name, value, unit, kind in rows:
        print(f"  {name:<22} {value:>16.6g} {unit:<18} [{kind}]")
    print("  " + repetition_times(raw["op_s"]))
    checks = dict(raw["checks"])
    if golden is not None:
        checks["golden_digests"] = golden
    print("checks " + json.dumps(checks, sort_keys=True))
    print("digests " + json.dumps(raw["digests"], sort_keys=True))
    if "spans_file" in raw:
        print("driver spans " + raw["spans_file"])


def repetition_times(op_s):
    """Median host time per timed repetition and the highest of p90/p99 that
    has at least ten samples beyond it, with the sample count."""
    parts = [f"median {statistics.median(op_s) * 1e3:.3f} ms"]
    cuts = statistics.quantiles(op_s, n=100) if len(op_s) >= 2 else []
    for p in (99, 90):
        if len(op_s) * (100 - p) / 100 >= 10:
            parts.append(f"p{p} {cuts[p - 1] * 1e3:.3f} ms")
            break
    return f"repetition time: {', '.join(parts)} (n={len(op_s)})"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    traced = bool(args.trace)
    raw, env = run_driver(binary, args.workload, args.seed, args.seconds,
                          traced, args.size)
    golden = golden_ok(raw, args.workload, args.seed, args.size)
    metrics = metric_values(raw, spec, args.workload, traced)

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if golden is False:
        failed = attempted  # every operation produced the wrong output
    correct = (attempted > 0 and failed == 0 and all(raw["checks"].values())
               and golden is not False)
    report(raw, env, args.workload, args.seed, traced, golden)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
