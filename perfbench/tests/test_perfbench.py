"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import sections  # noqa: E402
import steps  # noqa: E402
import tracer as tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _inputs(workload, seed, pass_index=0) -> str:
    """Canonical text of every generated input of one pass."""
    return json.dumps(
        {
            "cli": steps.cli_argv(workload, seed, pass_index),
            "bracket": steps.bracket_inputs(workload, seed, pass_index),
            "doubled_me": steps.doubled_inputs(workload, seed, pass_index),
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("workload", steps.WORKLOADS)
def test_inputs_depend_only_on_the_seed_and_the_pass(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)
    assert _inputs(workload, 7, 3) == _inputs(workload, 7, 3)
    assert _inputs(workload, 7, 3) != _inputs(workload, 7, 4)
    fixed = steps.fixed_steps(workload)
    assert all(argv in steps.cli_argv(workload, 9, 5).values() for argv in fixed)


@pytest.mark.parametrize("workload", steps.WORKLOADS)
def test_input_sizes_do_not_depend_on_the_seed(workload):
    def shape(seed, pass_index):
        argv = steps.cli_argv(workload, seed, pass_index)
        star = steps.star_inputs(workload, seed, pass_index)
        bracket = steps.bracket_inputs(workload, seed, pass_index)
        return (
            [len(a) for a in argv.values()],
            len(star["f"]), len(star["g"]), len(bracket["f"]), len(bracket["g"]),
        )

    assert shape(1, 0) == shape(12345, 6)


def _fake_record():
    layers = tracing.summarize([], {"fourier.pairs": 4, "fourier.out_modes": 2})
    ops = {op: {"seconds": 1.0, "rc": 0, "digest": "x", "speed": 1.0} for op in steps.OPS}
    return {"ops": ops, "wall_s": 2.0, "rss_mb": 80.0, "layers": layers, "speed": 1.0}


def test_emitted_names_match_the_spec_and_the_pattern():
    spec = _spec()
    e2e = bench.end_to_end([_fake_record()], [(0.5, 1.0)], 0.0)
    imports = [{"startorus": 0.7, "scipy": 0.5, "numpy": 0.2}]
    layer = bench.per_layer([_fake_record()], imports, 2.0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    for metrics, listed in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        for m in listed:
            assert NAME.match(m["name"]), m["name"]
            assert metrics[m["name"]][1] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(steps.WORKLOADS)


def test_speed_factor_is_near_one_and_scales_every_time():
    factors = [calibrate.sample() for _ in range(5)]
    assert all(0.2 < f < 5.0 for f in factors)
    slow, fast = _fake_record(), _fake_record()
    # the same work on a machine running at half the reference speed
    slow["speed"], slow["wall_s"] = 2.0, 2.0 * fast["wall_s"]
    for op in slow["ops"].values():
        op["seconds"], op["speed"] = 2.0, 2.0
    got = bench.end_to_end([slow], [(0.8, 2.0)], 0.0)
    want = bench.end_to_end([fast], [(0.4, 1.0)], 0.0)
    raw = bench.end_to_end([slow], [(0.8, 2.0)], 0.0, calibrated=False)
    for name, (value, unit) in got.items():
        if unit == "s":
            assert value == pytest.approx(want[name][0]), name
            assert raw[name][0] == pytest.approx(2.0 * value), name
    assert got["peak_rss_mb"] == raw["peak_rss_mb"]


def test_importtime_breakdown_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy",
        "import time:       500 |        600 |     scipy.integrate",
        "import time:         5 |        615 |   startorus.chiral",
        "import time:         5 |        800 | startorus",
    ])
    got = bench.importtime_breakdown(text)
    assert got == pytest.approx({"startorus": 800e-6, "numpy": 150e-6, "scipy": 610e-6})


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_independent_fold_matches_the_library(n):
    from startorus import chi_project

    rows = steps.sparse_modes(3, "fold", 9, 60)
    got = oracle.fold(rows, n)
    want = chi_project(sections._field(rows), n)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _project_text(inp):
    from startorus import chi_project, matrix_to_json

    return matrix_to_json(chi_project(sections._field(inp["f"]), inp["n"])) + "\n"


def test_oracle_counts_a_planted_wrong_fold():
    inp = steps.star_inputs("lib-algebra", 4)
    text = _project_text(inp)
    argv = steps.cli_argv("lib-algebra", 4)["project"]
    assert oracle.check("project", "lib-algebra", 4, argv, text, {}) is None
    payload = json.loads(text)
    payload["re"][1][0] *= 1.0 + 1e-6
    wrong = json.dumps(payload)
    assert "folded matrix" in oracle.check("project", "lib-algebra", 4, argv, wrong, {})


def test_oracle_counts_a_planted_wrong_bracket():
    inp = sections.prepare("bracket", "cli-studies", 2)
    text = sections.dump("bracket", sections.run_bracket(inp))
    assert oracle.check("bracket", "cli-studies", 2, [], text, {}) is None
    payload = json.loads(text)
    payload["fold_moyal"]["im"][0][1] += 1e-3
    reason = oracle.check("bracket", "cli-studies", 2, [], json.dumps(payload), {})
    assert reason is not None and "fold" in reason
    payload = json.loads(text)
    payload["moyal"]["modes"][0][2] *= 1.0 + 1e-15
    reason = oracle.check("bracket", "cli-studies", 2, [], json.dumps(payload), {})
    assert reason is not None and "exactly" in reason


def test_oracle_counts_a_planted_wrong_poisson_bracket():
    inp = sections.prepare("bracket", "lib-algebra", 3, 2)
    text = sections.dump("bracket", sections.run_bracket(inp))
    assert oracle.check("bracket", "lib-algebra", 3, [], text, {}, 2, exact=False) is None
    payload = json.loads(text)
    payload["poisson"]["modes"][7][3] += 1e-6
    reason = oracle.check("bracket", "lib-algebra", 3, [], json.dumps(payload), {}, 2, exact=False)
    assert reason is not None and "pairwise" in reason
    # the right output for another pass's inputs is wrong for this one
    assert oracle.check("bracket", "lib-algebra", 3, [], text, {}, 1, exact=False) is not None


def test_passes_start_with_empty_caches():
    import launch
    from startorus.chiral import bessel_integral

    bessel_integral(3, 0.75)
    assert bessel_integral.cache_info().currsize > 0
    launch.clear_caches()
    assert bessel_integral.cache_info().currsize == 0


def test_bessel_counter_counts_quadratures_not_lookups():
    code = (
        "import tracer, startorus.chiral as ch\n"
        "t = tracer.Tracer(); t.install()\n"
        "for x in (0.5, 0.5, 0.5, 0.7): ch.bessel_integral(2, x)\n"
        "t.harvest(); ch.bessel_integral(2, 0.5); t.harvest()\n"
        "print(t.counters['chiral.bessel_calls'], t.counters['chiral.calls'])\n"
    )
    env = dict(bench.child_env(), PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "5"]


def test_oracle_counts_a_drifted_reference():
    refs = oracle.load_references()
    argv = steps.cli_argv("cli-studies", 0)["verify-me"]
    key = oracle.reference_key(argv)
    assert oracle.check("verify-me", "cli-studies", 0, argv, refs[key], refs) is None
    rows = refs[key].splitlines()
    cells = rows[1].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-4))
    rows[1] = ",".join(cells)
    drifted = "\n".join(rows) + "\n"
    assert "reference" in oracle.check("verify-me", "cli-studies", 0, argv, drifted, refs)


def test_oracle_counts_a_planted_wrong_series_point():
    import contextlib
    import io

    import startorus.cli as cli

    argv = steps.cli_argv("lib-algebra", 6, 2)["solve"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert oracle.check("solve", "lib-algebra", 6, argv, out.getvalue(), {}, 2) is None
    payload = json.loads(out.getvalue())
    payload["field"]["modes"][0][2] += 1e-6
    reason = oracle.check("solve", "lib-algebra", 6, argv, json.dumps(payload), {}, 2)
    assert reason is not None and "closed form" in reason


def _one_pass(workload, seed, tmp_path, trace):
    out = tmp_path / f"{workload}-{trace}.json"
    cmd = [sys.executable, bench.LAUNCH, "--workload", workload, "--seed", str(seed),
           "--passes", "1", "--out", str(out)]
    if trace:
        cmd += ["--trace", str(tmp_path / f"{workload}-spans.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=bench.child_env(),
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        data = json.load(fh)
    record = data["passes"][0]
    assert record["speed"] > 0 and 0 < record["probe_s"] < record["wall_s"]
    return data


@pytest.mark.parametrize("workload", steps.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(workload, tmp_path):
    plain = _one_pass(workload, 5, tmp_path, trace=False)
    traced = _one_pass(workload, 5, tmp_path, trace=True)
    digests = {op: r["digest"] for op, r in plain["passes"][0]["ops"].items()}
    assert digests == {op: r["digest"] for op, r in traced["passes"][0]["ops"].items()}
    refs = oracle.load_references()
    argv = steps.cli_argv(workload, 5)
    for op, digest in digests.items():
        text = plain["texts"][digest]
        assert oracle.check(op, workload, 5, argv.get(op, []), text, refs) is None, op
    summary = tracing.load_summary(tmp_path / f"{workload}-spans.json")
    assert summary["cli.calls"] == 2 * len(steps.CLI_ORDER)  # main and the subcommand
    argv = steps.cli_argv(workload, 5)["curvature"]
    points = int(argv[argv.index("--points") + 1]) if "--points" in argv else 8
    # 25 solves in curvature_undotted, 1 in weyl_sample, 1 in cmd_curvature
    assert summary["geometry.cartan_solves"] == 27 * points


def test_self_times_partition_the_root_spans():
    spans = [
        ["main", "cli", 0.0, 10.0, -1],
        ["cmd_x", "cli", 1.0, 9.0, 0],
        ["moyal_bracket", "fourier", 2.0, 5.0, 1],
        ["chi_project", "projection", 6.0, 8.0, 1],
    ]
    got = tracing.summarize(spans, {})
    assert got["cli.self_s"] == pytest.approx(5.0)
    assert got["fourier.self_s"] == pytest.approx(3.0)
    assert got["projection.self_s"] == pytest.approx(2.0)


def test_run_refuses_a_tree_without_sources(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-studies", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
