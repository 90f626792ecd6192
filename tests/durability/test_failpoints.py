"""Fault-injection framework: spec grammar, modes, triggers, activation."""

import pathlib
import subprocess
import sys

import pytest

import repro
from repro.durability.failpoints import (
    CRASH_EXIT_STATUS,
    FAILPOINTS,
    FAILPOINTS_ENV,
    FailpointError,
    FaultInjected,
    FaultInjector,
    clear,
    injector,
    install,
    maybe_fire,
    seeded_crash_schedule,
)

#: the package under test and the directory that puts it on the path, so
#: the tests read and run this checkout's code wherever it lives
PACKAGE = pathlib.Path(repro.__file__).resolve().parent
SRC = PACKAGE.parent


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    clear()


class TestSpecGrammar:
    def test_simple_raise(self):
        inj = FaultInjector()
        inj.configure("bsp.superstep=raise")
        with pytest.raises(FaultInjected) as excinfo:
            inj.hit("bsp.superstep")
        assert excinfo.value.failpoint == "bsp.superstep"

    def test_trigger_on_nth_hit(self):
        inj = FaultInjector()
        inj.configure("wal.append.after_write=raise@3")
        inj.hit("wal.append.after_write")
        inj.hit("wal.append.after_write")
        with pytest.raises(FaultInjected):
            inj.hit("wal.append.after_write")
        # times defaults to 1: the fourth hit passes
        inj.hit("wal.append.after_write")

    def test_delay_mode_sleeps_not_raises(self):
        inj = FaultInjector()
        inj.configure("serve.dispatch=delay:0.001")
        inj.hit("serve.dispatch")  # no exception

    def test_repeat_times(self):
        inj = FaultInjector()
        inj.configure("bsp.superstep=raisex2")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                inj.hit("bsp.superstep")
        inj.hit("bsp.superstep")  # exhausted

    def test_multiple_rules(self):
        inj = FaultInjector()
        inj.configure("bsp.superstep=delay:0.001;serve.dispatch=raise")
        inj.hit("bsp.superstep")
        with pytest.raises(FaultInjected):
            inj.hit("serve.dispatch")

    def test_unknown_failpoint_rejected(self):
        inj = FaultInjector()
        with pytest.raises(FailpointError):
            inj.configure("no.such.place=raise")

    def test_unknown_mode_rejected(self):
        inj = FaultInjector()
        with pytest.raises(FailpointError):
            inj.configure("bsp.superstep=explode")

    def test_malformed_rule_rejected(self):
        inj = FaultInjector()
        with pytest.raises(FailpointError):
            inj.configure("just-a-name")

    def test_unregistered_hit_rejected(self):
        inj = FaultInjector()
        with pytest.raises(FailpointError):
            inj.hit("not.registered")


class TestLifecycle:
    def test_unarmed_is_inactive(self):
        inj = FaultInjector()
        assert not inj.active
        inj.arm("bsp.superstep", "raise")
        assert inj.active
        inj.disarm("bsp.superstep")
        assert not inj.active

    def test_counters(self):
        inj = FaultInjector()
        inj.configure("bsp.superstep=raise@2")
        inj.hit("bsp.superstep")
        with pytest.raises(FaultInjected):
            inj.hit("bsp.superstep")
        assert inj.counters() == {"bsp.superstep": (2, 1)}

    def test_global_install_reaches_maybe_fire(self):
        install("delta.apply.after_apply=raise")
        with pytest.raises(FaultInjected):
            maybe_fire("delta.apply.after_apply")
        clear()
        maybe_fire("delta.apply.after_apply")  # disarmed: no-op

    def test_injector_is_process_global(self):
        install("bsp.superstep=raise")
        assert injector().active


class TestSeededSchedule:
    def test_reproducible(self):
        a = seeded_crash_schedule(7, "wal.append.after_write")
        b = seeded_crash_schedule(7, "wal.append.after_write")
        assert a == b
        spec, trigger = a
        assert spec == f"wal.append.after_write=crash@{trigger}"
        assert 1 <= trigger <= 5

    def test_varies_with_seed_or_failpoint(self):
        schedules = {
            seeded_crash_schedule(seed, name)
            for seed in range(20)
            for name in ("wal.append.after_write", "snapshot.after_tmp_write")
        }
        assert len(schedules) > 1


class TestCrashMode:
    def test_env_armed_crash_kills_subprocess(self, tmp_path):
        """The real thing, in a sacrificial interpreter: REPRO_FAILPOINTS
        arms a crash failpoint and the process dies with status 137."""
        code = (
            "from repro.durability.failpoints import maybe_fire\n"
            "maybe_fire('wal.append.before_write')\n"
            "print('survived')\n"
        )
        env = {
            "PYTHONPATH": str(SRC),
            FAILPOINTS_ENV: "wal.append.before_write=crash",
            "PATH": "/usr/bin:/bin",
        }
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=env,
            cwd=tmp_path,
            timeout=30,
        )
        assert proc.returncode == CRASH_EXIT_STATUS
        assert b"survived" not in proc.stdout


class TestCatalog:
    def test_every_failpoint_is_threaded_somewhere(self):
        """Each registered name appears in a maybe_fire() call site —
        keeps the chaos matrix honest about its coverage claim."""
        sites = "\n".join(
            path.read_text() for path in PACKAGE.rglob("*.py")
            if path.name != "failpoints.py"
        )
        for name in FAILPOINTS:
            assert f'maybe_fire("{name}")' in sites, name
