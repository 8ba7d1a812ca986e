"""One benchmark process.

Every role first sets up: import xsgowl from the checkout's `src/`,
write the seeded corpus, and run the (small) warm-up source. Then
  setup   stops there (the runner repeats set-up in fresh processes);
  timed   runs `generate` on the corpus for the given seconds;
  traced  installs the spans and, for the given seconds, takes turns
          between a traced full-size source, a traced half-size source
          and an untraced full-size source, then writes the spans out.
The result is one JSON file; the runner aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus
import spans
import spec
import stats

TIMED_SOURCES = 3  # distinct full-size sources the timed loops cycle through
HALF_SIZE_SOURCES = 2
# The warm-up source has the workload's shape at a tenth of its size: enough
# to run every code path once, small enough that set-up stays short.
WARMUP_DIVISOR = 10


@dataclass
class Job:
    path: Path
    source: corpus.Source
    out_dir: Path


class Runner:
    """Runs single `generate` calls and checks their outputs."""

    def __init__(self, cli, workload: str, work: Path):
        self.cli = cli
        self.flags = spec.WORKLOADS[workload]
        self.work = work
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failed: set[int] = set()  # numbers of the attempts that failed
        self.problems: list[str] = []
        self.digests: dict[Path, dict[str, str]] = {}

    def job(self, source: corpus.Source, folder: str) -> Job:
        path = self.work / folder / source.name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source.text, encoding="utf-8")
        return Job(path, source, self.work / "out" / folder / path.stem)

    def run(self, job: Job, source_id: int = -1) -> float:
        """Wall seconds of one `generate` call. Its outputs must match the
        inventory and, byte for byte, the previous run of the same job."""
        argv = ["generate", str(job.path), "--out-dir", str(job.out_dir), *self.flags]
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer:
                tracer.source_id = source_id
                span = tracer.open(tracer.intern(spec.SOURCE_SPAN))
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            finally:
                if tracer:
                    tracer.close(span)
                    tracer.source_id = -1
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = checks.check_source(code, out.getvalue(), job.path.stem, job.out_dir,
                                       job.source.inventory)
        if not problems:
            digest = checks.digest_outputs(job.out_dir)
            if self.digests.setdefault(job.out_dir, digest) != digest:
                problems = [f"{job.path.stem}: outputs differ between two runs"]
        if problems:
            self.failed.add(self.attempted)
            problems.append(err.getvalue().strip()[-2000:])
            self.problems.extend(p for p in problems if p)
        return elapsed


def _timed_loop(runner: Runner, jobs: list[Job], seconds: float) -> list[float]:
    """Cycle through the jobs until `seconds` have passed."""
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        durations.append(runner.run(jobs[len(durations) % len(jobs)]))
        if time.perf_counter() >= deadline:
            return durations


def _traced_loop(runner: Runner, tracer: spans.Tracer, full: list[Job],
                 half: list[Job], seconds: float) -> dict:
    """Take turns between a traced full-size, a traced half-size and an
    untraced full-size source until `seconds` have passed, so that all
    three see the same machine conditions. The untraced runs have the
    wrappers uninstalled and give the tracing overhead."""
    undo, missing = spans.install(tracer)
    runner.tracer = tracer
    turns: list[tuple[int, int, float]] = []  # (full id, half id, untraced s)
    deadline = time.perf_counter() + seconds
    while True:
        k = len(turns)
        full_id, half_id = 2 * k, 2 * k + 1
        for kind in ("full", "half", "untraced") if k % 2 else ("untraced", "half", "full"):
            if kind == "full":
                runner.run(full[k % len(full)], full_id)
            elif kind == "half":
                runner.run(half[k % len(half)], half_id)
            else:
                spans.uninstall(tracer, undo)
                runner.tracer = None
                untraced_s = runner.run(full[k % len(full)])
                undo, _ = spans.install(tracer)
                runner.tracer = tracer
        turns.append((full_id, half_id, untraced_s))
        if time.perf_counter() >= deadline:
            break
    spans.uninstall(tracer, undo)
    runner.tracer = None
    layers, inclusive = _layer_metrics(tracer, turns)
    return {"layers": layers, "inclusive": inclusive,
            "untraced": [u for _, _, u in turns], "missing_spans": missing}


def _layer_metrics(tracer: spans.Tracer, turns):
    """Per-source medians of each layer's self time, calls and counters.
    Scaling exponents and the tracing overhead are medians of ratios
    within one turn, so drift in machine speed between turns cancels.
    Also returns, for the report, each span's median inclusive time."""
    rows = spans.per_source(tracer)
    full_ids = [full for full, _, _ in turns]

    def get(i, name, key):
        return rows.get(i, {}).get(name, {}).get(key, 0)

    def med(name, key):
        return statistics.median(get(i, name, key) for i in full_ids)

    metrics: dict[str, float] = {}
    for name in spec.STAGE_SPANS:
        metrics[f"{name}.self_s"] = med(name, "self_s")
    metrics["gc.pause_s"] = med(spec.GC_SPAN, "self_s")
    for name in spec.CALL_COUNTED:
        metrics[f"{name}.calls"] = med(name, "calls")
    for name in spec.COUNTERS:
        if name == "gc.collections":
            metrics[name] = med(spec.GC_SPAN, "calls")
        else:
            metrics[name] = statistics.median(tracer.counts.get((i, name), 0)
                                              for i in full_ids)
    for name in spec.STAGE_SPANS + [spec.GC_SPAN]:
        metrics[f"{name}.scale_exp"] = stats.scale_exponent(
            (get(full, name, "self_s"), get(half, name, "self_s"))
            for full, half, _ in turns)
    metrics["trace.source_s"] = med(spec.SOURCE_SPAN, "total_s")
    metrics["trace.overhead"] = statistics.median(
        get(full, spec.SOURCE_SPAN, "total_s") / untraced for full, _, untraced in turns)
    inclusive = {name: med(name, "total_s")
                 for name in spec.STAGE_SPANS + [spec.GC_SPAN]}
    return metrics, inclusive


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--root", type=Path, required=True, help="checkout root")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    parser.add_argument("--result", type=Path, required=True, help="result JSON path")
    parser.add_argument("--spans", type=Path, help="where the traced role writes spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import xsgowl.cli

    if src not in Path(xsgowl.__file__).resolve().parents:
        raise SystemExit(f"imported xsgowl from {xsgowl.__file__}, not from {src}")
    runner = Runner(xsgowl.cli, args.workload, args.work)
    full = corpus.FULL_SIZE[args.workload]
    warmup = runner.job(corpus.make_source(args.workload, args.seed, 0,
                                           full // WARMUP_DIVISOR), "warmup")
    jobs = [runner.job(corpus.make_source(args.workload, args.seed, i), "full")
            for i in range(1, TIMED_SOURCES + 1)]
    runner.run(warmup)
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "warmup_digest": runner.digests.get(warmup.out_dir)}
    if args.role == "timed":
        durations = _timed_loop(runner, jobs, args.seconds)
        result["durations"] = durations
        result["sizes"] = [len(jobs[i % len(jobs)].source.text.encode("utf-8"))
                           for i in range(len(durations))]
    elif args.role == "traced":
        half = [runner.job(corpus.make_source(args.workload, args.seed, i, full // 2),
                           "half")
                for i in range(HALF_SIZE_SOURCES)]
        tracer = spans.Tracer()
        result.update(_traced_loop(runner, tracer, jobs, half, args.seconds))
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_tsv(args.spans)
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failed)
    result["problems"] = runner.problems
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
