"""The benchmark's child process: import startorus once, then run passes.

    launch.py --workload W --seed S --out FILE [--seconds T | --passes N]
              [--first-pass P] [--trace FILE]

Repeats passes of the eleven operations in this process: the nine
subcommands through `startorus.cli.main(argv)` with stdout captured, and
the two library sections.  Pass p (counted from --first-pass) draws its
seeded inputs from (seed, p).  Before each pass, outside its timing, the
inputs are generated and every functools cache of the package is emptied,
so a pass does the work of a first call instead of replaying cache hits.
Each operation is timed on its own; its output is stored by digest for
the oracle.  Before the first operation and after each one, outside their
timing, `calibrate.sample()` measures the machine's speed factor.  An
operation records the geometric mean of the factors just before and after
it, a pass the median of its factors and the seconds the samples took.  Passes
follow `steps.another_pass`.  The timings, digests
and output texts go to --out as JSON.  With --trace the layer wrappers are
installed after import and the spans are written to the trace file at the
end.  Needs startorus on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import statistics
import time
import traceback

import calibrate
import sections
import steps
import tracer as tracing


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return time.perf_counter() - start, rc, out.getvalue()


def _run_section(name, inp):
    start = time.perf_counter()
    out = sections.run(name, inp)
    seconds = time.perf_counter() - start
    return seconds, 0, sections.dump(name, out)


def clear_caches():
    """Empty every functools cache of a function defined in startorus."""
    for obj in gc.get_objects():
        if isinstance(obj, functools._lru_cache_wrapper) and (
            getattr(obj, "__module__", None) or ""
        ).startswith("startorus"):
            obj.cache_clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=steps.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    import startorus.cli as cli

    tracer = None
    if args.trace is not None:
        tracer = tracing.Tracer()
        tracer.install()
    passes, texts, gens = [], {}, []
    began = time.perf_counter()
    while steps.another_pass(passes, time.perf_counter() - began, args.seconds, args.passes):
        index = args.first_pass + len(passes)
        start = time.perf_counter()
        argv = steps.cli_argv(args.workload, args.seed, index)
        inputs = {
            name: sections.prepare(name, args.workload, args.seed, index)
            for name in steps.SECTIONS
        }
        gens.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.harvest()
        clear_caches()
        probe = calibrate.Probe()
        probe.sample()
        before = probe.spent
        record = {"pass": index, "ops": {}}
        pass_start = time.perf_counter()
        for op in steps.CLI_ORDER + steps.SECTIONS:
            try:
                if op in steps.SECTIONS:
                    seconds, rc, text = _run_section(op, inputs[op])
                else:
                    seconds, rc, text = _run_cli(cli, argv[op])
            except Exception:  # a crash is a failed operation, not a failed run
                seconds, rc, text = float("nan"), 1, traceback.format_exc()
            digest = hashlib.sha256(text.encode()).hexdigest()
            texts.setdefault(digest, text)
            # the step's own factor: the samples just before and just after it
            factor = math.sqrt(probe.factors[-1] * probe.sample())
            record["ops"][op] = {"seconds": seconds, "rc": rc, "digest": digest, "speed": factor}
        record["wall_s"] = time.perf_counter() - pass_start - (probe.spent - before)
        record["speed"] = probe.factor()
        record["probe_s"] = probe.spent
        passes.append(record)
    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.out, "w") as fh:
        json.dump({"gen_s": statistics.median(gens), "passes": passes, "texts": texts}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
