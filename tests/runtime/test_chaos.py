"""Cross-process chaos harness for the self-healing parallel runtime.

Each scenario composes several :class:`FaultPlan` cross-process faults
(kill -9, premature exit, hangs, snapshot corruption, in-worker poison,
transient ring errors) against a real forked fleet, then asserts the
two invariants the runtime promises under *every* schedule:

1. **one-sided always** — estimates never under-count any key that
   actually reached a synopsis (quarantined payloads excluded until
   replayed from the dead-letter queue);
2. **exact once healed** — when every injected fault is of a kind the
   recovery tiers repair exactly (crash/exit/hang/corruption, no
   poison), the merged state is bit-identical to an
   uninterrupted single-process ingest.

Every scenario also checks resource hygiene: no leaked worker
processes and no leaked ``/dev/shm`` segments, even when workers died
by ``os._exit`` mid-handoff — or when the parent itself is killed.
"""

from __future__ import annotations

import contextlib
import glob
import json
import multiprocessing as mp
import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.runtime.engine import StreamEngine
from repro.runtime.parallel import ParallelIngestRuntime
from repro.runtime.reliability import FaultPlan, RetryPolicy
from repro.runtime.sharding import ShardedASketch
from repro.streams.zipf import zipf_stream

GROUP_PARAMS = {"total_bytes": 16 * 1024, "filter_items": 16, "seed": 23}
CHUNK = 1_000


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(30_000, 8_000, 1.4, seed=97)


@pytest.fixture(autouse=True)
def no_leaks():
    """Leaked-process and shm-segment check after every scenario."""
    before = set(glob.glob("/dev/shm/psm_*"))
    yield
    assert set(glob.glob("/dev/shm/psm_*")) <= before, "leaked /dev/shm"
    assert mp.active_children() == [], "leaked worker processes"


def chunks_of(stream):
    keys = stream.keys
    return [keys[i : i + CHUNK] for i in range(0, keys.shape[0], CHUNK)]


def sequential_state(stream, shards):
    group = ShardedASketch(shards, **GROUP_PARAMS)
    StreamEngine(group, batched=True).run(chunks_of(stream))
    return group.state()


def assert_one_sided(runtime, stream):
    """Estimates must cover every key's true count, minus quarantined
    payloads (whose pristine copies sit in the parent DLQ)."""
    truth = Counter(int(k) for k in stream.keys)
    for letter in runtime.dead_letters.letters:
        if letter.payload is not None:
            truth.subtract(int(k) for k in letter.payload)
    for key, count in truth.most_common(64):
        assert runtime.supervisor.query(key) >= count, key


class TestExactRecoverySchedules:
    """Fault schedules the tiers repair exactly: bit-identity holds."""

    @pytest.mark.parametrize(
        "plan",
        [
            # two workers killed at different depths
            FaultPlan(worker_crash={0: 2, 1: 7}),
            # kill one, premature-exit another
            FaultPlan(worker_crash={2: 4}, worker_exit={0: 9}),
            # kill + hang at once
            FaultPlan(worker_crash={0: 3}, worker_hang={2: 5}),
            # corruption rejected, then the same worker killed
            FaultPlan(corrupt_snapshot={1: 2}, worker_crash={1: 8}),
            # transient ring errors + a kill elsewhere
            FaultPlan(
                worker_transient={0: {2: 3}}, worker_crash={1: 5}
            ),
        ],
        ids=["two-kills", "kill+exit", "kill+hang", "corrupt+kill",
             "transient+kill"],
    )
    def test_respawn_heals_to_bit_identity(self, stream, plan):
        expected = sequential_state(stream, shards=6)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
            respawn=True,
            stall_timeout=1.5,
            slots=4,
            fault_plan=plan,
            **GROUP_PARAMS,
        )
        stats = runtime.run(chunks_of(stream))
        assert stats.tuples_ingested == len(stream)
        assert runtime.supervisor.group.state().equals(expected)
        assert_one_sided(runtime, stream)

    def test_kill_during_migration_window(self, stream):
        # The source of a shard migration is killed right around the
        # commit window; the shard must be counted exactly once.
        expected = sequential_state(stream, shards=6)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=2,
            respawn=True,
            fault_plan=FaultPlan(worker_crash={1: 8}),
            **GROUP_PARAMS,
        )
        all_chunks = chunks_of(stream)

        def driven():
            for index, chunk in enumerate(all_chunks):
                if index == 6:
                    assert runtime.reshard({1: 0, 4: 2}) == 2
                yield chunk

        runtime.run(driven())
        assert runtime.migrations == 2
        assert runtime.supervisor.group.state().equals(expected)
        assert_one_sided(runtime, stream)

    def test_reshard_across_repeated_kills(self, stream):
        # Migrations interleaved with kills of both endpoints.
        expected = sequential_state(stream, shards=4)
        runtime = ParallelIngestRuntime(
            2,
            shards=4,
            sync_every=2,
            respawn=True,
            fault_plan=FaultPlan(worker_crash={0: 6, 1: 14}),
            **GROUP_PARAMS,
        )
        all_chunks = chunks_of(stream)

        def driven():
            for index, chunk in enumerate(all_chunks):
                if index == 4:
                    runtime.reshard({1: 0})
                if index == 12:
                    runtime.reshard({1: 1, 3: 1})
                yield chunk

        runtime.run(driven())
        assert runtime.migrations >= 2
        assert runtime.supervisor.group.state().equals(expected)

    def test_inline_after_budget_exhaustion_is_exact(self, stream):
        # A spent respawn budget falls through to inline failover: the
        # parent takes the worker's shards over, still exactly.
        expected = sequential_state(stream, shards=6)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
            respawn=True,
            respawn_policy=RetryPolicy(max_retries=0),
            fault_plan=FaultPlan(worker_crash={1: 5}),
            **GROUP_PARAMS,
        )
        runtime.run(chunks_of(stream))
        health = {h["worker"]: h for h in runtime.worker_health()}
        assert health[1]["status"] == "inlined"
        assert runtime.health()["status"] == "ok"
        assert runtime.supervisor.group.state().equals(expected)
        assert_one_sided(runtime, stream)


class TestDegradedSchedules:
    """Schedules that legitimately lose exactness keep one-sidedness
    (modulo the documented dead-letter carve-outs) and report it."""

    def test_poison_plus_kill_quarantines_and_heals(self, stream):
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
            respawn=True,
            fault_plan=FaultPlan(
                worker_poison={0: 4}, worker_crash={2: 6}
            ),
            **GROUP_PARAMS,
        )
        runtime.run(chunks_of(stream))
        assert runtime.quarantined_count == 1
        assert runtime.respawn_count == 1
        assert runtime.health()["status"] == "degraded"
        assert_one_sided(runtime, stream)
        # Replaying the quarantined payload restores full coverage.
        for letter in runtime.dead_letters.letters:
            runtime.supervisor.group.process_batch(letter.payload)
        for key, count in stream.exact.top_k(64):
            assert runtime.supervisor.query(int(key)) >= count


class TestEverythingAtOnce:
    def test_full_chaos_schedule(self, stream):
        # All fault kinds in one run: kill, exit, corruption, poison,
        # transient errors.  Poison forfeits bit-identity (documented),
        # so the invariant is one-sidedness + full coverage after DLQ
        # replay + clean healing of every recoverable fault.
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
            respawn=True,
            stall_timeout=2.0,
            fault_plan=FaultPlan(
                worker_crash={0: 5},
                worker_exit={1: 9},
                corrupt_snapshot={2: 1},
                worker_poison={2: 6},
                worker_transient={1: {1: 2}},
            ),
            **GROUP_PARAMS,
        )
        stats = runtime.run(chunks_of(stream))
        assert stats.tuples_ingested == len(stream)
        assert runtime.respawn_count == 2
        assert runtime.quarantined_count == 1
        assert_one_sided(runtime, stream)
        for letter in runtime.dead_letters.letters:
            runtime.supervisor.group.process_batch(letter.payload)
        for key, count in stream.exact.top_k(64):
            assert runtime.supervisor.query(int(key)) >= count
        # Every recoverable fault healed: no shard is still healing.
        assert runtime.supervisor.healing_shards == []


#: A fleet parent that never finishes: a 2-worker fleet over an endless
#: chunk stream.  After 20 chunks it prints its workers' pids and ring
#: names.  Every snapshot of this 4-shard layout overflows the socket
#: buffer, so its workers keep blocking in ``send`` until it reads.
ENDLESS_FLEET = """
import itertools
import json

from repro.runtime.parallel import ParallelIngestRuntime
from repro.streams.zipf import zipf_stream


def main():
    keys = zipf_stream(100_000, 100_000, 1.1, seed=3).keys
    runtime = ParallelIngestRuntime(
        2, shards=4, total_bytes=32 * 1024, seed=7, sync_every=1
    )

    def endless():
        for n in itertools.count():
            if n == 20:
                print(json.dumps({
                    "pids": [slot.process.pid for slot in runtime._slots],
                    "rings": [slot.ring.name for slot in runtime._slots],
                }), flush=True)
            start = (n % 10) * 10_000
            yield keys[start : start + 10_000]

    runtime.run(endless())


if __name__ == "__main__":
    main()
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc and /dev/shm"
)
class TestParentDeath:
    def test_workers_and_rings_go_with_a_killed_parent(self, tmp_path):
        script = tmp_path / "endless_fleet.py"
        script.write_text(ENDLESS_FLEET)
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, path] if path else [src]),
        }
        parent = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        pids: list[int] = []
        rings: list[str] = []
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60.0)
            assert ready, "the fleet never reported its workers"
            fleet = json.loads(parent.stdout.readline())
            pids, rings = fleet["pids"], fleet["rings"]
            assert len(pids) == len(rings) == 2
            parent.kill()
            parent.wait(timeout=10.0)
            deadline = time.monotonic() + 10.0
            while True:
                running = [pid for pid in pids if _running(pid)]
                segments = [r for r in rings if os.path.exists(f"/dev/shm/{r}")]
                if not (running or segments) or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert running == [], "workers outlived their killed parent"
            assert segments == [], "rings outlived their killed fleet"
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
            parent.stdout.close()
            for pid in pids:
                if _running(pid):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            for ring in rings:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(f"/dev/shm/{ring}")
