"""Self-tests for the benchmark, at tiny sizes.

    python3 -m pytest perfbench      (or: python3 perfbench/test_perfbench.py)
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
from xsgowl import cli  # noqa: E402
from xsgowl.xsdmodel import read_schema  # noqa: E402
from xsgowl.xsg import build_xsg  # noqa: E402

TINY = {"wide": 12, "records": 30, "xsd": 20}


def _generate(workload: str, source: corpus.Source, work: Path) -> tuple[int, str, Path]:
    path = work / source.name
    path.write_text(source.text, encoding="utf-8")
    out_dir = work / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["generate", str(path), "--out-dir", str(out_dir),
                         *spec.WORKLOADS[workload]])
    return code, stdout.getvalue(), out_dir


class GeneratorTests(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for workload, size in TINY.items():
            a = corpus.make_source(workload, 5, 1, size)
            self.assertEqual(a, corpus.make_source(workload, 5, 1, size))
            other = corpus.make_source(workload, 6, 1, size)
            self.assertNotEqual(a.text, other.text, workload)
            # the seed changes names and values, not shape
            self.assertEqual(len(a.text), len(other.text), workload)
            self.assertEqual(a.inventory, other.inventory, workload)

    def test_inventory_matches_generate(self):
        for workload, size in TINY.items():
            for seed in (1, 2):
                source = corpus.make_source(workload, seed, 0, size)
                with tempfile.TemporaryDirectory() as tmp:
                    code, stdout, out_dir = _generate(workload, source, Path(tmp))
                    problems = checks.check_source(code, stdout, Path(source.name).stem,
                                                   out_dir, source.inventory)
                self.assertEqual(problems, [], f"{workload} seed {seed}")

    def test_predicted_shapes(self):
        self.assertEqual(corpus.wide(1, 0, 7).inventory, corpus.Inventory(8, 7, 8, 8))
        self.assertEqual(corpus.records(1, 0, 9).inventory, corpus.Inventory(2, 1, 3, 10))
        self.assertEqual(corpus.xsd_back_edges(), 5)
        for n in (20, 400):  # 1 and 2 recursive references
            source = corpus.xsd(1, 0, n)
            graph = build_xsg(read_schema(source.text.encode("utf-8"), source.name))
            self.assertEqual(len(graph.back_edges), corpus.xsd_back_edges(n))


class CheckTests(unittest.TestCase):
    def test_mismatches_are_reported(self):
        source = corpus.make_source("records", 3, 0, 5)
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, out_dir = _generate("records", source, Path(tmp))
            stem = Path(source.name).stem
            wrong = corpus.Inventory(2, 1, 3, 7)
            self.assertEqual(len(checks.check_source(code, stdout, stem, out_dir, wrong)), 3)
            self.assertEqual(checks.check_source(3, stdout, stem, out_dir, source.inventory),
                             [f"{stem}: generate exited 3"])
            first = checks.digest_outputs(out_dir)
            _generate("records", source, Path(tmp))
            self.assertEqual(first, checks.digest_outputs(out_dir))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SpanTests(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        # root [0,10] > a [1,4] > leaf [2,3];  root > b [5,9] > gc [6,7]
        t = spans.Tracer(FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
        root, a, leaf, b = (t.intern(n) for n in ("root", "a", "leaf", "b"))
        t.source_id = 0
        r = t.open(root)
        i = t.open(a)
        j = t.open(leaf)
        t.close(j)
        t.close(i)
        k = t.open(b)
        t.on_gc("start", {})
        t.on_gc("stop", {})
        t.close(k)
        t.close(r)
        own = spans.self_times(t.start, t.end, t.parent)
        self.assertEqual(list(own), [3, 2, 1, 3, 1])
        rows = spans.per_source(t)[0]
        self.assertEqual(rows["root"], {"self_s": 3, "total_s": 10, "calls": 1})
        self.assertEqual(rows[spec.GC_SPAN]["self_s"], 1)
        self.assertEqual(sum(row["self_s"] for row in rows.values()), 10)

    def test_traced_generate(self):
        tracer = spans.Tracer()
        undo, missing = spans.install(tracer)
        try:
            self.assertEqual(missing, [])
            source = corpus.make_source("wide", 1, 0, 10)
            with tempfile.TemporaryDirectory() as tmp:
                tracer.source_id = 0
                span = tracer.open(tracer.intern(spec.SOURCE_SPAN))
                code, _, _ = _generate("wide", source, Path(tmp))
                tracer.close(span)
                tracer.source_id = -1
        finally:
            spans.uninstall(tracer, undo)
        self.assertEqual(code, 0)
        self.assertFalse(hasattr(cli.validate, "__wrapped__"))
        rows = spans.per_source(tracer)[0]
        self.assertEqual(rows["xsdmodel.validate"]["calls"], 2)
        self.assertEqual(rows["paths.build_path_map"]["calls"], 2)
        self.assertEqual(tracer.counts[(0, "xsg.vertices")], 4 * 10 + 2)
        self.assertEqual(tracer.counts[(0, "abox.individuals")], 11)
        total = rows[spec.SOURCE_SPAN]["total_s"]
        self.assertAlmostEqual(sum(r["self_s"] for r in rows.values()), total, places=9)


class StatsTests(unittest.TestCase):
    def test_tail_percentile(self):
        values = [float(v) for v in range(1, 101)]
        p, value, beyond = stats.tail(values)
        self.assertEqual((p, beyond), (90, 10))
        self.assertAlmostEqual(value, 90.1)
        self.assertIsNone(stats.tail([1.0, 2.0, 3.0]))

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([1.0, 3.0], 50), 2.0)
        self.assertEqual(stats.percentile([4.0], 99), 4.0)

    def test_scale_exponent(self):
        self.assertEqual(stats.scale_exponent([(4.0, 1.0), (2.0, 1.0), (8.0, 1.0)]), 2.0)
        self.assertEqual(stats.scale_exponent([(3.0, 0.0), (0.0, 0.0)]), 0.0)


if __name__ == "__main__":
    unittest.main()
