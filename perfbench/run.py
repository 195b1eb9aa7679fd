"""Benchmark of the mstd package: exact counts, oracle sweeps and large-order
structure, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory and nothing is installed. Workloads (see workloads.py for
why each exists and what is left out):

- count-table      in-process `mstd table --family all` with exact counts
                   over orders 14..top, threads = nproc
- oracle-sweep     verify.run_checks, every check but `determinism`,
                   max_order 12, one thread
- structure-large  seeded forbiddance-graph cases on groups of order 36-105
                   and bound reports up to order ~3000

One process issues the load (a closed loop, at most nproc threads). It sets
up several times (fresh processes that import mstd, build the inputs and
warm up) and reports the median as setup_s, then repeats whole passes until
the next one would overrun --seconds. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it first runs the same untraced passes,
then as many traced passes, and prints the per-layer metrics. Every output
is checked before anything is reported: a single failure prints
"correct": false with no metrics and exits 1. The last stdout line is one
JSON object {correct, attempted, failed, metrics}; the share of failed
outputs is failed/attempted. Machine and engine facts, sample counts and
(for traced runs) the spans go to .bench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

#: Fresh set-up processes per run; their median (with this process's own
#: set-up) is setup_s.
SETUP_PROBES = 8


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def clean_env() -> dict:
    """This process's environment without MSTD_* defaults for the CLI."""
    for key in [k for k in os.environ if k.startswith("MSTD_")]:
        del os.environ[key]
    return dict(os.environ)


def setup(workload: str, seed: int, seconds: float):
    """Import mstd from the checkout, build the inputs and warm up.

    Returns (workload object, set-up seconds, import seconds, warm-up error
    or None). A missing or foreign mstd raises: there is nothing to measure.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import mstd

    imported = time.perf_counter()
    if Path(mstd.__file__).resolve().parent != (ROOT / "src" / "mstd").resolve():
        raise RuntimeError(f"mstd was imported from {mstd.__file__}, not from this checkout")
    from workloads import WORKLOADS

    work = WORKLOADS[workload](seed, seconds, nproc())
    try:
        work.warm_up()
        error = None
    except Exception as exc:  # the program failed: judged, not timed
        error = f"warm-up: {type(exc).__name__}: {exc}"
    return work, time.perf_counter() - start, imported - start, error


def probe_setup(workload: str, seed: int, seconds: float) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True,
                          text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def run_passes(work, seconds: float, first=None) -> list[dict]:
    """Closed loop of whole passes until the next one would overrun `seconds`.

    Each pass starts from a collected heap, so where the cyclic garbage
    collector runs inside a pass does not depend on what ran before it (the
    seeded warm-up, the benchmark's own bookkeeping). Only the first pass
    keeps its outputs; every later pass is compared with it on the spot and
    keeps one flag per case, so memory does not grow with the number of
    passes. A pass that raises ends the loop; judge() fails every case of it.
    """
    passes = []
    same = getattr(work, "same", lambda a, b: a == b)
    begin = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        try:
            outputs, cases = work.run_pass()
        except Exception as exc:  # a refusal or crash is a failed pass, not a number
            passes.append({"wall": time.perf_counter() - start, "cases": [],
                           "error": f"{type(exc).__name__}: {exc}"})
            return passes
        wall = time.perf_counter() - start
        if first is None:
            first = outputs
            record = {"outputs": outputs}
        else:
            record = {"changed": [not same(a, b) for a, b in zip(outputs, first)]
                      + [True] * (len(first) - len(outputs))}
        passes.append({"wall": wall, "cases": cases, **record})
        typical = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() - begin + typical > seconds:
            return passes


def judge(work, passes: list[dict]) -> tuple[int, list[str]]:
    """(attempted, failures) over every output of every pass.

    The first pass is checked against the references; each later pass must
    reproduce it exactly, so a wrong or unstable output fails everywhere.
    """
    attempted, failures = 0, []
    verdicts = work.check(passes[0]["outputs"]) if "outputs" in passes[0] else []
    for p in passes:
        if "error" in p:
            attempted += work.size
            failures += [p["error"]] * work.size
            continue
        for i, changed in enumerate(p.get("changed", [False] * len(verdicts))):
            attempted += 1
            if verdicts[i] is not None:
                failures.append(verdicts[i])
            elif changed:
                failures.append(f"case {i} changed between passes")
    return attempted, failures


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def facts(work) -> dict:
    import mpmath
    import networkx
    import numpy
    from mstd import _kernels

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "networkx": networkx.__version__,
        "numba_importable": find_spec("numba") is not None,
        "have_numba": _kernels.HAVE_NUMBA,
        "git_commit": git_commit(),
        "threads_requested": work.threads,
    }


def end_to_end(setup_samples, passes, rss_mb) -> tuple[dict, dict]:
    cases_ms = [c * 1000 for p in passes for c in p["cases"]]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "case_p50_ms": (percentile(cases_ms, 50), "ms"),
        "case_p90_ms": (percentile(cases_ms, 90), "ms"),
    }
    samples = {"setup": len(setup_samples), "passes": len(passes), "cases": len(cases_ms)}
    return metrics, samples


def per_layer(tracer, traced, untraced, import_s, band_top, check_names) -> dict:
    from tracing import group_label
    from mstd.groups import groups_of_order

    k = len(traced)
    wall = sum(p["wall"] for p in traced)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    cm = "enumerate_subsets.count_mstd"
    busy = tracer.busy(cm)
    put(f"{cm}.calls", tracer.calls(cm) / k, "count")
    put(f"{cm}.busy_s", busy / k, "s")
    put(f"{cm}.subsets_per_s", tracer.subsets.get(cm, 0) / busy if busy else 0.0, "1/s")
    put(f"{cm}.cpu_per_wall", tracer.cpu(cm) / busy if busy else 0.0, "ratio")
    for group in groups_of_order(band_top):
        put(f"{cm}.busy_s.{group_label(group)}", tracer.busy(cm, group_label(group)) / k, "s")
    ca = "enumerate_subsets.count_avoiding"
    busy = tracer.busy(ca)
    put(f"{ca}.calls", tracer.calls(ca) / k, "count")
    put(f"{ca}.busy_s", busy / k, "s")
    put(f"{ca}.subsets_per_s", tracer.subsets.get(ca, 0) / busy if busy else 0.0, "1/s")
    for name in ("enumerate_subsets.missing_histogram", "enumerate_subsets.containment_violations"):
        put(f"{name}.busy_s", tracer.busy(name) / k, "s")
    put("forbiddance.build_graph.calls", tracer.calls("forbiddance.build_graph") / k, "count")
    put("forbiddance.build_graph.busy_s", tracer.busy("forbiddance.build_graph") / k, "s")
    put("forbiddance.decompose.calls", tracer.calls("forbiddance.decompose") / k, "count")
    put("forbiddance.decompose.self_s", tracer.self_time("forbiddance.decompose") / k, "s")
    put("forbiddance.decompose.structured_share",
        tracer.structured / tracer.components if tracer.components else 0.0, "ratio")
    put("fib_index.fib_index_exact.self_s", tracer.self_time("fib_index.fib_index_exact") / k, "s")
    put("fib_index.count_independent_sets.calls",
        tracer.calls("fib_index.count_independent_sets") / k, "count")
    put("fib_index.count_independent_sets.busy_s",
        tracer.busy("fib_index.count_independent_sets") / k, "s")
    for name in ("build_report", "upper_bound", "lower_bound_odd", "odd_sum_bracket"):
        put(f"bounds.{name}.busy_s", tracer.busy(f"bounds.{name}") / k, "s")
    put("groups.half_set.busy_s", tracer.busy("groups.half_set") / k, "s")
    for name in ("sumset", "diffset"):
        put(f"subsets.{name}.calls", tracer.calls(f"subsets.{name}") / k, "count")
        put(f"subsets.{name}.busy_s", tracer.busy(f"subsets.{name}") / k, "s")
    for check in check_names:
        put(f"verify.{check}.elapsed_s", tracer.busy(f"verify.{check}") / k, "s")
    put("cli.main.self_s", tracer.self_time("cli.main") / k, "s")
    put("setup.import_s", import_s, "s")
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    put("trace.overhead_share", statistics.median(p["wall"] for p in traced) / untraced_wall - 1,
        "ratio")
    put("trace.covered_share", tracer.covered() / wall, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mstd benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("count-table", "oracle-sweep", "structure-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    clean_env()

    if args.setup_probe:
        _, took, _, _ = setup(args.workload, args.seed, args.seconds)
        print(repr(took))
        return 0

    probes = [probe_setup(args.workload, args.seed, args.seconds) for _ in range(SETUP_PROBES)]
    work, own_setup, import_s, warm_error = setup(args.workload, args.seed, args.seconds)
    if warm_error:
        passes = [{"wall": 0.0, "cases": [], "error": warm_error}]
    else:
        passes = run_passes(work, args.seconds)
    # read before the correctness checks, whose oracles are not the workload
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if args.trace and "error" not in passes[-1]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(work, args.seconds, first=passes[0]["outputs"])
        finally:
            tracer.uninstall()

    attempted, failures = judge(work, passes + traced)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts(work),
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "fail_share": len(failures) / attempted,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if failures:
        for line in failures[:10]:
            print(f"FAIL {line}", file=sys.stderr)
        with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as out:
            json.dump(record, out, indent=1)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": len(failures), "metrics": {}}))
        return 1

    metrics, samples = end_to_end(probes + [own_setup], passes, rss_mb)
    if args.trace:
        from workloads import count_table_groups, oracle_checks

        band_top = count_table_groups(args.seconds)[-1]["order"]
        metrics = per_layer(tracer, traced, passes, import_s, band_top, oracle_checks())
        samples["traced_passes"] = len(traced)
    record["samples"] = samples
    record["pass_walls_s"] = [p["wall"] for p in passes]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    if args.trace:
        tracer.write(OUT_DIR / f"{args.workload}-spans.tsv")
    print(f"facts {json.dumps(record['facts'], sort_keys=True)}")
    print(f"samples {json.dumps(samples, sort_keys=True)} fail_share {record['fail_share']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except Exception as exc:  # report on stderr only: no result line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
