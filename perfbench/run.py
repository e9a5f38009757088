"""The startorus benchmark: one closed-loop client, two workloads.

    python3 perfbench/run.py --workload cli-studies --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is loaded from
``src/`` of that checkout.  One client runs passes of eleven operations
one step at a time, each waiting for the previous one: the nine CLI
subcommands (through `startorus.cli.main`) and the library sections
`bracket` and `doubled_me`.  Passes repeat while another pass still fits in
--seconds (at least one pass).  Pass p draws its seeded inputs from
(seed, p), and starts with the package's functools caches empty.
`cli-studies` runs every pass in a fresh interpreter; `lib-algebra` runs
all of them in one long-lived process.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run, which keeps the same process layout and must reproduce
the untraced outputs byte for byte.  Every output is checked by
`oracle.py` outside the timed region.  The last stdout line is the JSON
result; the lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import oracle  # noqa: E402
import steps  # noqa: E402
import tracer as tracing  # noqa: E402

PY = sys.executable
LAUNCH = os.path.join(HERE, "launch.py")
TIME_LIMIT = 170.0  # seconds from start; children still running are killed
SETUP_SAMPLES = 3  # fresh-interpreter imports before the passes, and as many after
IMPORTTIME_SAMPLES = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # users run with cached bytecode; let children write and reuse it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one BLAS thread: the sizes here run as fast on one core as on two, and
    # a step then does not wait on whichever vCPU another tenant slows down
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


class Client:
    """Runs child processes one at a time and times each with wait4."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def path(self, name: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:05d}-{name}")

    def run(self, cmd):
        """(seconds, exit status, max RSS in MB, stderr text)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return float("nan"), -1, 0.0, "time limit reached"
        err_path = self.path("err")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT
            )
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            err_text = fh.read()
        return seconds, proc.returncode, usage.ru_maxrss / 1024.0, err_text


# -- passes -----------------------------------------------------------------


def child_run(client, workload, seed, seconds, texts, traced: bool, passes=None, first=0):
    """One `launch.py` process; returns (pass records, gen_s, process seconds)."""
    out_path = client.path("passes.json")
    trace_path = client.path("trace.json") if traced else None
    cmd = [
        PY, LAUNCH, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--out", out_path, "--first-pass", str(first),
    ]
    if traced:
        cmd += ["--trace", trace_path]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    process_s, rc, rss, err = client.run(cmd)
    if rc != 0 or not os.path.exists(out_path):
        raise RuntimeError(f"benchmark process failed (status {rc}): {err[-400:]}")
    with open(out_path) as fh:
        data = json.load(fh)
    texts.update(data["texts"])
    layers = tracing.load_summary(trace_path) if traced else {}
    npass = len(data["passes"])
    for record in data["passes"]:
        record["rss_mb"] = rss
        # the traced process reports totals; spread them evenly per pass
        record["layers"] = {k: v / npass for k, v in layers.items()}
    return data["passes"], data["gen_s"], process_s


def run_passes(client, workload, seed, seconds, texts, traced, passes=None):
    """(pass records, input generation seconds).

    lib-algebra: every pass in one long-lived process.  cli-studies: every
    pass in a fresh interpreter, whose whole life (start, import, inputs,
    the eleven operations) is the pass's wall time.
    """
    if workload == "lib-algebra":
        records, gen_s, _ = child_run(client, workload, seed, seconds, texts, traced, passes)
        return records, gen_s
    records, gens = [], []
    began = time.perf_counter()
    while steps.another_pass(records, time.perf_counter() - began, seconds, passes):
        one, gen_s, process_s = child_run(
            client, workload, seed, 0, texts, traced, passes=1, first=len(records)
        )
        # the process's life, less the speed samples it took
        one[0]["wall_s"] = process_s - one[0]["probe_s"]
        records += one
        gens.append(gen_s)
    return records, _median(gens)


# -- set-up ---------------------------------------------------------------


def import_samples(client, count=SETUP_SAMPLES):
    """(seconds, speed factor) of fresh-interpreter imports, each factor
    sampled in this process just before its import."""
    out = []
    for _ in range(count):
        factor = calibrate.sample()
        seconds, rc, _, err = client.run([PY, "-c", "import startorus"])
        if rc != 0:
            raise RuntimeError(f"import startorus failed: {err[-400:]}")
        out.append((seconds, factor))
    return out


def importtime_breakdown(stderr_text: str) -> dict:
    """Seconds of startorus, and of the outermost numpy and scipy imports,
    from `python -X importtime` output."""
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum) * 1e-6))
    totals = {"startorus": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors = []
    # a module is printed after the modules it imports: walk backwards
    for depth, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and not any(a[1].split(".")[0] == top for a in ancestors):
            totals[top] += cum
        ancestors.append((depth, name))
    return totals


# -- oracle ----------------------------------------------------------------


def verify(workload, seed, records, texts, baseline=None):
    """Count failed operations, one per operation and pass.

    Seeded steps are checked pass by pass against that pass's inputs;
    fixed-input steps must print the same bytes in every pass.  `baseline`
    maps (pass, operation) to the untraced digest a traced run must
    reproduce.
    """
    refs = oracle.load_references()
    attempted = failed = 0
    reasons = {}
    for op in steps.CLI_ORDER + steps.SECTIONS:
        fixed = op not in steps.seeded(workload)
        first, first_reason = records[0]["ops"][op]["digest"], None
        for i, record in enumerate(records):
            run, index = record["ops"][op], record["pass"]
            attempted += 1
            text = texts[run["digest"]]
            if run["rc"] != 0:
                reason = f"exit status {run['rc']}: {text[-400:]}"
            elif baseline is not None and baseline.get((index, op), run["digest"]) != run["digest"]:
                reason = "traced output differs from the untraced output"
            elif fixed and run["digest"] != first:
                reason = "output differs between passes on the same inputs"
            elif fixed and i > 0:
                reason = first_reason  # same bytes as the first pass, checked there
            else:
                argv = steps.cli_argv(workload, seed, index).get(op, [])
                reason = oracle.check(op, workload, seed, argv, text, refs, index, exact=i == 0)
            if i == 0:
                first_reason = reason
            if reason:
                failed += 1
                reasons.setdefault(op, reason)
    return attempted, failed, reasons


# -- metrics ----------------------------------------------------------------


def _median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def end_to_end(records, setup, gen_s, calibrated=True):
    """Every time is divided by the speed factor measured around it (see
    `calibrate.py`: for a set-up sample the one sampled before it, for a
    pass the median of the pass's factors, for a step the two next to it)
    and is the median over the run: of the set-up samples, and of the
    passes for pass and step times.  `calibrated=False` gives the
    seconds as measured, for the summary."""
    def scale(seconds, factor):
        return seconds / factor if calibrated else seconds

    gen_factor = _median([r["speed"] for r in records])
    metrics = {
        "setup_s": (_median([scale(s, f) for s, f in setup]) + scale(gen_s, gen_factor), "s"),
        "wall_s": (_median([scale(r["wall_s"], r["speed"]) for r in records]), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
    }
    for op in steps.TIMED:
        metrics[steps.OPS[op]] = step_time(records, op, calibrated)
    return metrics


def step_time(records, op, calibrated=True):
    """Median over the passes; calibrated by the factors sampled around the step."""
    runs = [r["ops"][op] for r in records]
    return _median([x["seconds"] / (x["speed"] if calibrated else 1.0) for x in runs]), "s"


def per_layer(records, imports, untraced_wall):
    metrics = {}
    for key in ("startorus", "scipy", "numpy"):
        metrics[f"import.{key}_s"] = (_median([i[key] for i in imports]), "s")
    layers = [r["layers"] for r in records]
    for key in tracing.summarize([], {}):
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (_median([lay.get(key, 0) for lay in layers]), unit)
        if key == "fourier.out_modes":
            ratios = [lay.get(key, 0) / lay["fourier.pairs"] if lay.get("fourier.pairs") else 0.0
                      for lay in layers]
            metrics["fourier.merge_ratio"] = (_median(ratios), "1")
    # pass 0 on both sides: the same inputs; calibrated, as they ran at different times
    traced = records[0]["wall_s"] / records[0]["speed"]
    metrics["trace_overhead_ratio"] = (traced / untraced_wall, "1")
    return metrics


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=steps.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "startorus", "__init__.py")):
        print(f"error: no startorus sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workdir = os.path.join(ROOT, ".perfbench-out", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    client = Client(workdir, started + TIME_LIMIT)
    sys.path.insert(0, SRC)  # the oracle calls the library in-process
    texts = {}
    try:
        if args.trace:
            imports = []
            for _ in range(IMPORTTIME_SAMPLES):
                _, rc, _, err = client.run([PY, "-X", "importtime", "-c", "import startorus"])
                if rc != 0:
                    raise RuntimeError(f"import startorus failed: {err[-400:]}")
                imports.append(importtime_breakdown(err))
            measure_start = time.perf_counter()
            plain, _ = run_passes(client, args.workload, args.seed, 0, texts, False, passes=1)
            left = args.seconds - (time.perf_counter() - measure_start)
            records, _ = run_passes(client, args.workload, args.seed, left, texts, True)
            baseline = {
                (rec["pass"], op): run["digest"]
                for rec in plain for op, run in rec["ops"].items()
            }
            attempted, failed, reasons = verify(args.workload, args.seed, plain, texts)
            a2, f2, r2 = verify(args.workload, args.seed, records, texts, baseline)
            attempted, failed = attempted + a2, failed + f2
            reasons.update(r2)
            metrics = per_layer(records, imports, plain[0]["wall_s"] / plain[0]["speed"])
            measured = {}
        else:
            setup = import_samples(client)
            records, gen_s = run_passes(client, args.workload, args.seed, args.seconds, texts, False)
            setup += import_samples(client)  # both ends of the run: less swayed by one slow spell
            attempted, failed, reasons = verify(args.workload, args.seed, records, texts)
            metrics = end_to_end(records, setup, gen_s)
            measured = end_to_end(records, setup, gen_s, calibrated=False)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for op, reason in sorted(reasons.items()):
        print(f"FAILED {op}: {reason}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(records)}  "
          f"attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4f}  "
          f"speed factor {_median([r['speed'] for r in records]):.3f}")
    for name, (value, unit) in metrics.items():
        raw = f"  (as measured {measured[name][0]:.6g})" if name in measured else ""
        print(f"  {name:32s} {value:14.6g} {unit}{raw}")
    if not args.trace:
        print("  other step times, not gated:")
        for op, name in steps.OPS.items():
            if op not in steps.TIMED:
                value, raw = step_time(records, op)[0], step_time(records, op, False)[0]
                print(f"  {name:32s} {value:14.6g} s  (as measured {raw:.6g})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
