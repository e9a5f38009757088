"""Record reference outputs, machine facts and baselines, or check steadiness.

    python3 perfbench/record.py references
        Run every fixed-input CLI step of every workload once and store its
        stdout in perfbench/references.json.  Do this only at a commit whose
        outputs are trusted: the oracle compares later runs against them.
    python3 perfbench/record.py baseline --tag NAME
        Machine facts plus the ROADMAP "Baseline" rows (all but the 80 s
        `basis --n 32` stretch), written to perfbench/records/BENCH_NAME.json.
    python3 perfbench/record.py steadiness --runs 10 [--workload W ...]
                                [--first-seed S] [--tag NAME]
        Run the benchmark once per seed (S..S+runs-1) on each workload and report,
        per end-to-end metric, the median and the quartile spread as a share
        of the median, the figure a bound in BENCHMARK.json is judged by.

All of them run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run as bench  # noqa: E402
import steps  # noqa: E402

RECORDS = os.path.join(HERE, "records")


def _cli(args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "startorus.cli"] + args,
        capture_output=True, text=True, env=bench.child_env(), cwd=ROOT, timeout=timeout,
    )


def record_references():
    refs = {}
    for workload in steps.WORKLOADS:
        for argv in steps.fixed_steps(workload):
            key = oracle.reference_key(argv)
            if key in refs:
                continue
            proc = _cli(argv)
            if proc.returncode != 0:
                raise SystemExit(f"{key}: exit status {proc.returncode}\n{proc.stderr}")
            refs[key] = proc.stdout
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} reference outputs")


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: bench.child_env().get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


# ROADMAP baseline rows: (label, kind, payload)
BASELINE_ROWS = [
    ("import startorus", "python", "import startorus"),
    ("star on two single modes", "cli", ["star", "--f", "[[1,0,1,0]]", "--g", "[[0,1,1,0]]"]),
    ("basis --n 16", "cli", ["basis", "--n", "16"]),
    ("verify-me", "cli", ["verify-me"]),
    ("verify-chiral --n 8 --h 1/64", "cli", ["verify-chiral", "--n", "8", "--h", "0.015625"]),
    ("curvature --points 32", "cli", ["curvature", "--points", "32"]),
]

_IN_PROCESS = {
    "basis cache at n=24": (
        "import resource, startorus.sine_basis as sb; sb.verify_basis_properties(24); "
        "print(sb._basis_cached.cache_info().currsize, "
        "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
    ),
    "moyal_bracket / star_product, dense band R": (
        "import sys, time, numpy as np, startorus as st\n"
        "for R in (16, 32):\n"
        "    r = np.arange(-R, R + 1); m = np.stack(np.meshgrid(r, r, indexing='ij'), -1).reshape(-1, 2)\n"
        "    c = np.random.default_rng(0).standard_normal(len(m)) + 0j; f = st.FourierField(m, c)\n"
        "    t = time.perf_counter(); st.moyal_bracket(f, f * 1.5 + f.derivative(0), 0.1); a = time.perf_counter() - t\n"
        "    t = time.perf_counter(); st.star_product(f, f, 0.1); b = time.perf_counter() - t\n"
        "    print(R, a, b)"
    ),
}


def record_baseline(tag: str):
    facts = machine_facts()
    rows = {}
    for label, kind, payload in BASELINE_ROWS:
        start = time.perf_counter()
        if kind == "python":
            proc = subprocess.run([sys.executable, "-c", payload], env=bench.child_env(), cwd=ROOT)
        else:
            proc = _cli(payload)
        rows[label] = {"seconds": time.perf_counter() - start, "status": proc.returncode}
        print(f"{label:40s} {rows[label]['seconds']:.3f} s", flush=True)
    for label, code in _IN_PROCESS.items():
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=bench.child_env(), cwd=ROOT,
        )
        rows[label] = {"stdout": proc.stdout.strip().splitlines(), "status": proc.returncode}
        print(f"{label:40s} {proc.stdout.strip()}", flush=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, env=bench.child_env(), cwd=ROOT,
    )
    rows["full tier-1 suite"] = {
        "seconds": time.perf_counter() - start,
        "summary": proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "",
    }
    print(f"{'full tier-1 suite':40s} {rows['full tier-1 suite']}", flush=True)
    _write(tag, {"machine": facts, "baseline": rows})


def _write(tag, payload):
    os.makedirs(RECORDS, exist_ok=True)
    path = os.path.join(RECORDS, f"BENCH_{tag}.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    old.update(payload)
    with open(path, "w") as fh:
        json.dump(old, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def steadiness(runs: int, workloads, seconds: int, tag, first_seed=1):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    report = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        took = []
        for seed in range(first_seed, first_seed + runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            took.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall_s={result['metrics']['wall_s']['value']:.3f} run {took[-1]:.1f} s",
                  flush=True)
        report[workload] = {"run_seconds_max": max(took), "values": values, "metrics": {}}
        for name, vals in values.items():
            med, spread = quartile_spread(vals)
            report[workload]["metrics"][name] = {
                "median": med, "spread": spread, "bound": bounds[name]
            }
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:12s} {name:18s} median {med:10.4f}  spread {spread:.3f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
    if tag:
        key = "steadiness" if first_seed == 1 else f"steadiness_from_seed_{first_seed}"
        path = os.path.join(RECORDS, f"BENCH_{tag}.json")
        if os.path.exists(path):  # keep the other workloads' studies of the same key
            with open(path) as fh:
                report = {**json.load(fh).get(key, {}).get("workloads", {}), **report}
        _write(tag, {key: {"runs": runs, "seconds": seconds, "workloads": report}})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("references")
    p = sub.add_parser("baseline")
    p.add_argument("--tag", required=True)
    p = sub.add_parser("steadiness")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=steps.WORKLOADS)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--tag", default=None)
    args = parser.parse_args(argv)
    if args.mode == "references":
        record_references()
    elif args.mode == "baseline":
        record_baseline(args.tag)
    else:
        steadiness(args.runs, args.workload or list(steps.WORKLOADS), args.seconds, args.tag,
                   args.first_seed)


if __name__ == "__main__":
    main()
