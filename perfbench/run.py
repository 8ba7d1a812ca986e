"""xsgowl benchmark: per-source `generate` time on one workload.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it benchmarks the checkout's `src/`.
Each process it starts runs alone, one after the other (a closed loop of
one client). With --trace 0 it reports the end-to-end metrics: set-up runs
in five fresh processes (median reported), the last of which then times
`generate` calls for --seconds. With --trace 1 it reports the per-layer
metrics from one process that takes turns between traced full-size,
traced half-size (for the scaling exponents) and untraced full-size
sources (for the tracing overhead). Every source's outputs are checked,
and must be byte-identical each time one source runs again: in one
process, and across processes for the warm-up source. The last stdout
line is the JSON result; README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170  # every process this run starts must end within this
SETUPS = 5  # fresh processes that set up in a --trace 0 run; the last one times


class BenchError(Exception):
    pass


def run_worker(role: str, args, work: Path, deadline: float, seconds: float = 0.0,
               spans_path: Path | None = None) -> dict:
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--root", str(ROOT), "--work", str(work),
           "--result", str(result_path)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker did not finish within the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def outcome(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems). A worker whose warm-up outputs
    differ from the first worker's counts as one more failed source."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    reference = results[0]["warmup_digest"]
    for r in results[1:]:
        if r["warmup_digest"] != reference:
            failed += 1
            problems.append("warm-up outputs differ between two runs of one source")
    return attempted, min(failed, attempted), problems


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    timed = results[-1]
    durations = timed["durations"]
    values = {
        "source_s": statistics.median(durations),
        "input_mb_s": statistics.median(
            size / d / 1e6 for size, d in zip(timed["sizes"], durations)),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(r["setup_s"] for r in results),
    }
    notes = [f"  sources timed: {len(durations)}; per source (s): "
             + ", ".join(f"{d:.3f}" for d in durations)]
    tail = stats.tail(durations)
    if tail is None:
        notes.append(f"  source_s tail: no percentile has 10 samples beyond it "
                     f"(n={len(durations)})")
    else:
        p, value, beyond = tail
        notes.append(f"  source_s p{p:g}: {value:.4f} s ({beyond} samples beyond, "
                     f"n={len(durations)})")
    notes.append("  setup_s per process: "
                 + ", ".join(f"{r['setup_s']:.3f}" for r in results))
    return values, notes


def per_layer(traced: dict) -> tuple[dict, list[str]]:
    values = dict(traced["layers"])
    source_s = values["trace.source_s"]
    notes = [f"  untraced source_s {statistics.median(traced['untraced']):.4f} s, "
             f"traced {source_s:.4f} s, overhead x{values['trace.overhead']:.3f}"]
    shares = {spec.GC_SPAN: values["gc.pause_s"] / source_s}
    for name in spec.STAGE_SPANS:
        shares[name] = values[f"{name}.self_s"] / source_s
    notes.append("  share of traced source_s: self, inclusive; self-time scale_exp")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share > 0:
            inclusive = traced["inclusive"][name] / source_s
            notes.append(f"  {name:28s} {100 * share:6.2f}% {100 * inclusive:6.2f}%  "
                         f"{values[f'{name}.scale_exp']:5.2f}")
    graph_tbox = sum(v for k, v in shares.items() if k.startswith(("xsg.", "owlgen.")))
    notes.append(f"  xsg.* + owlgen.* self time: {100 * graph_tbox:.2f}% of source_s")
    if traced["missing_spans"]:
        notes.append("  not traced (not found): " + ", ".join(traced["missing_spans"]))
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xsgowl" / "cli.py").is_file():
        print(f"no xsgowl sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            traced = run_worker("traced", args, work / "traced", deadline, args.seconds,
                                scratch / f"spans-{args.workload}.tsv.gz")
            results = [traced]
            values, notes = per_layer(traced)
            units = dict(spec.per_layer_metrics())
        else:
            results = [run_worker("setup", args, work / f"setup{i}", deadline)
                       for i in range(SETUPS - 1)]
            results.append(run_worker("timed", args, work / "timed", deadline,
                                      args.seconds))
            values, notes = end_to_end(results)
            units = dict(spec.END_TO_END)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = outcome(results)
    print(f"xsgowl benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s; Python {platform.python_version()}, "
          f"nproc {os.cpu_count()}; wall-clock on a shared machine")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} sources)")
    print("\n".join(notes))
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
