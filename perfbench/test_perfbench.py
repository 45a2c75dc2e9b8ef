"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

The span tests are pure Python. The input-generation test builds
harp_perfbench first (as run.py does), so it needs ../src and a C++
toolchain.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import spans  # noqa: E402


def span(sid, parent, name, start, end, synthetic=False):
    return {"id": sid, "parent": parent, "name": name, "start_ns": start,
            "end_ns": end, "synthetic": synthetic}


# run [0, 1000) > pipeline [100, 900) > train [200, 800) > tree [200, 700)
# > build [250, 550) > reduce [250, 350), plus find [550, 650) under the
# tree, and a save [820, 880) sibling of train.
HAND_BUILT = [
    span(0, -1, "run", 0, 1000),
    span(1, 0, "pipeline", 100, 900),
    span(2, 1, "core.train", 200, 800),
    span(3, 2, "core.tree", 200, 700),
    span(4, 3, "core.build_hist", 250, 550, True),
    span(5, 4, "core.reduce", 250, 350, True),
    span(6, 3, "core.find_split", 550, 650, True),
    span(7, 1, "core.save", 820, 880),
]


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        selfs = spans.self_times(HAND_BUILT)
        self.assertEqual(selfs, {
            0: 200,  # 1000 - pipeline 800
            1: 140,  # 800 - train 600 - save 60
            2: 100,  # 600 - tree 500
            3: 100,  # 500 - build 300 - find 100
            4: 200,  # build keeps its time minus the nested reduce
            5: 100,
            6: 100,
            7: 60,
        })
        self.assertEqual(spans.identity_error_ns(HAND_BUILT, selfs), 0)

    def test_reduce_counted_once(self):
        # Reduce runs inside build: listing it as build's sibling would
        # count its 100 ns twice against the tree.
        flat = [dict(s) for s in HAND_BUILT]
        flat[5]["parent"] = 3
        selfs = spans.self_times(flat)
        self.assertEqual(selfs[4], 300)
        self.assertEqual(selfs[3], 100)  # union, so still 100
        self.assertEqual(spans.identity_error_ns(flat, selfs), 100)

    def test_table_shares_sum_to_one(self):
        rows = spans.self_time_table(HAND_BUILT)
        self.assertAlmostEqual(sum(r[4] for r in rows), 1.0)
        self.assertEqual(rows[0][0], "run")


class ChromeTraceTest(unittest.TestCase):
    def test_valid_json_with_parent_links(self):
        text = json.dumps(spans.chrome_trace(HAND_BUILT, metadata={"a": 1}))
        doc = json.loads(text)
        events = doc["traceEvents"]
        self.assertEqual(len(events), len(HAND_BUILT))
        ids = {e["args"]["span_id"] for e in events}
        by_id = {e["args"]["span_id"]: e for e in events}
        for e in events:
            self.assertEqual(e["ph"], "X")
            for key in ("name", "ts", "dur", "pid", "tid"):
                self.assertIn(key, e)
            parent = e["args"]["parent_id"]
            if parent < 0:
                continue
            self.assertIn(parent, ids)
            p = by_id[parent]
            self.assertGreaterEqual(e["ts"], p["ts"])
            self.assertLessEqual(e["ts"] + e["dur"], p["ts"] + p["dur"])
        self.assertEqual(by_id[5]["args"]["parent_id"], 4)
        self.assertTrue(by_id[5]["args"]["synthetic"])
        self.assertEqual(doc["otherData"], {"a": 1})


class GeneratedInputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("harp_perfbench does not build here")
        cls.dir = tempfile.mkdtemp(dir=run.BUILD_ROOT)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def read(self, workload, seed, tag):
        prefix = os.path.join(self.dir, "%s-%d-%s" % (workload, seed, tag))
        self.assertTrue(run.generate(workload, seed, prefix))
        parts = []
        for suffix in (".train", ".test"):
            with open(prefix + suffix, "rb") as f:
                parts.append(f.read())
            os.remove(prefix + suffix)
        return tuple(parts)

    def test_same_seed_same_bytes_other_seed_differs(self):
        # The inputs the benchmark runs on, at full size (4-13 MB each).
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.read(workload, 1, "a")
                b = self.read(workload, 1, "b")
                c = self.read(workload, 2, "c")
                self.assertGreater(len(a[0]), 0)
                self.assertGreater(len(a[1]), 0)
                self.assertEqual(a, b)
                self.assertNotEqual(a[0], c[0])
                self.assertNotEqual(a[1], c[1])
                # Same rows, another order: the seed must not change what
                # is learned.
                self.assertEqual(sorted(a[0].splitlines()),
                                 sorted(c[0].splitlines()))


if __name__ == "__main__":
    unittest.main()
