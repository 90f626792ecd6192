"""Crash matrix: kill -9 at every registered failpoint, recover, verify.

For each failpoint the workload child (``chaos_child.py``) runs with a
seeded crash schedule armed through ``REPRO_FAILPOINTS``.  If the
failpoint is on the workload's path the child dies with ``os._exit(137)``
mid-write; either way a fault-free verify child must then recover the
data directory, observe every acknowledged batch as already applied
(``deduplicated``), idempotently re-apply the rest, and produce golden
query results identical to a clean from-scratch load of all batches —
zero acknowledged-write loss, zero duplicate application.

Marked ``chaos`` (deselected from tier-1): each case boots 2+ Python
subprocesses. Run with ``make test-chaos``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.durability.failpoints import (
    CRASH_EXIT_STATUS,
    crashable_failpoints,
    seeded_crash_schedule,
)

pytestmark = pytest.mark.chaos

CHILD = os.path.join(os.path.dirname(__file__), "chaos_child.py")
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1729"))


def run_child(mode, data_dir=None, acked=None, failpoints=None, timeout=120):
    argv = [sys.executable, CHILD, "--mode", mode, "--seed", str(SEED)]
    if data_dir is not None:
        argv += ["--data-dir", data_dir]
    if acked is not None:
        argv += ["--acked", ",".join(str(b) for b in sorted(acked, key=str))]
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    if failpoints:
        env["REPRO_FAILPOINTS"] = failpoints
    return subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=timeout
    )


def parse_acks(stdout):
    acked, golden = set(), None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "ack" in record:
            acked.add(record["ack"])
        if "golden" in record:
            golden = record["golden"]
    return acked, golden


@pytest.fixture(scope="module")
def clean_golden():
    proc = run_child("clean")
    assert proc.returncode == 0, proc.stderr
    _, golden = parse_acks(proc.stdout)
    assert golden is not None
    return golden


class TestCrashMatrix:
    @pytest.mark.parametrize("failpoint", crashable_failpoints())
    def test_kill_at_failpoint_then_recover(self, failpoint, tmp_path, clean_golden):
        spec, trigger = seeded_crash_schedule(SEED, failpoint)
        data_dir = str(tmp_path / "d")

        workload = run_child("workload", data_dir=data_dir, failpoints=spec)
        assert workload.returncode in (0, CRASH_EXIT_STATUS), (
            f"{failpoint} (trigger {trigger}): unexpected exit "
            f"{workload.returncode}\n{workload.stderr}"
        )
        acked, _ = parse_acks(workload.stdout)
        crashed = workload.returncode == CRASH_EXIT_STATUS
        if failpoint.startswith(("snapshot.", "wal.compact.")):
            # the workload checkpoints often enough to reach every trigger
            assert crashed, f"{failpoint} (trigger {trigger}) never fired"

        verify = run_child("verify", data_dir=data_dir, acked=acked)
        assert verify.returncode == 0, (
            f"{failpoint} (crashed={crashed}, acked={sorted(acked)}): "
            f"verify failed\n{verify.stderr}"
        )
        _, golden = parse_acks(verify.stdout)
        assert golden == clean_golden, (
            f"{failpoint} (crashed={crashed}): recovered state diverges "
            f"from clean load"
        )

    def test_crash_during_recovery_then_recover(self, tmp_path, clean_golden):
        """Double crash: die mid-write, then die again mid-recovery; the
        third process must still recover to the clean-load state."""
        data_dir = str(tmp_path / "d")
        spec, _ = seeded_crash_schedule(SEED, "wal.append.after_fsync")

        workload = run_child("workload", data_dir=data_dir, failpoints=spec)
        assert workload.returncode == CRASH_EXIT_STATUS
        acked, _ = parse_acks(workload.stdout)

        aborted = run_child(
            "verify", data_dir=data_dir, acked=acked,
            failpoints="recovery.before_replay=crash",
        )
        assert aborted.returncode == CRASH_EXIT_STATUS

        verify = run_child("verify", data_dir=data_dir, acked=acked)
        assert verify.returncode == 0, verify.stderr
        _, golden = parse_acks(verify.stdout)
        assert golden == clean_golden
