#!/usr/bin/env python3
"""Self-tests of the benchmark's own code: the Python statistics and trace
helpers (sortbench/tests/test_stats.py) and the C++ output checker
(sortbench/tests/check_test.cc, built into .bench_build like the benchmark).

    python3 sortbench/selftest.py
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    suite = unittest.defaultTestLoader.discover(
        os.path.join(HERE, "tests"), pattern="test_*.py",
        top_level_dir=os.path.join(HERE, "tests"))
    python_ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()

    build_dir = os.path.join(run.ROOT, ".bench_build", "sortbench", "build")
    run.build(build_dir)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "sortbench_selftest"], check=True, stdout=sys.stderr)
    cpp_ok = subprocess.run(
        [os.path.join(build_dir, "sortbench_selftest")]).returncode == 0
    return 0 if python_ok and cpp_ok else 1


if __name__ == "__main__":
    sys.exit(main())
