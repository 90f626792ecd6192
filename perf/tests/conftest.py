"""Make ``perf/`` (harness, run, compare, workloads) and ``src/`` importable.

Run with ``python -m pytest perf/tests -q`` from the repository root;
these tests live outside tier-1's ``testpaths`` on purpose — they start
processes and take tens of seconds.
"""

import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
for path in (PERF_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
