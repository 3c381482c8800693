"""Cross-process chaos harness for the parallel runtime's failover.

Each scenario composes several :class:`FaultPlan` cross-process faults
(kill -9, premature exit, hangs, snapshot corruption) against a real
forked fleet, some with a poison chunk in the source, then asserts the
two invariants the runtime promises under *every* schedule:

1. **one-sided always** — estimates never under-count any key of the
   stream;
2. **exact once recovered** — inline failover repairs every fault
   exactly, so the merged state is bit-identical to an uninterrupted
   single-process ingest of the same chunks (the parent quarantines a
   poison chunk before routing, as the single-process reference does).

Every scenario also checks resource hygiene: no leaked worker
processes and no leaked ``/dev/shm`` segments, even when workers died
by ``os._exit`` mid-handoff — or when the parent itself is killed.
"""

from __future__ import annotations

import contextlib
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
from repro.runtime.reliability import DeadLetterQueue, FaultPlan
from repro.runtime.sharding import ShardedASketch
from repro.streams.zipf import zipf_stream

GROUP_PARAMS = {"total_bytes": 16 * 1024, "filter_items": 16, "seed": 23}
CHUNK = 1_000


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(30_000, 8_000, 1.4, seed=97)


@pytest.fixture(autouse=True)
def no_leaks(leaked_rings):
    """Leaked-process and shm-segment check after every scenario: no
    ring the scenario created survives it."""
    yield
    assert leaked_rings() == [], "leaked /dev/shm"
    assert mp.active_children() == [], "leaked worker processes"


def chunks_of(stream):
    keys = stream.keys
    return [keys[i : i + CHUNK] for i in range(0, keys.shape[0], CHUNK)]


def with_poison(chunks, position):
    """``chunks`` with a float copy of ``chunks[position]`` inserted at
    ``position``: a poison chunk no key of the stream is lost to."""
    poison = chunks[position].astype(np.float64) + 0.5
    return [*chunks[:position], poison, *chunks[position:]]


def sequential_state(chunks, shards):
    """The single-process reference: the ingest loop over ``chunks``,
    quarantining poison as the fleet parent does."""
    group = ShardedASketch(shards, **GROUP_PARAMS)
    engine = StreamEngine(group, batched=True)
    engine.quarantine = DeadLetterQueue().quarantine
    engine.run(chunks)
    return group.state()


def assert_one_sided(runtime, stream):
    """Estimates must cover every key's true count."""
    truth = Counter(int(k) for k in stream.keys)
    for key, count in truth.most_common(64):
        assert runtime.supervisor.query(key) >= count, key


class TestExactRecoverySchedules:
    """Fault schedules failover repairs exactly: bit-identity holds."""

    @pytest.mark.parametrize(
        "plan, poison_at",
        [
            # two workers killed at different depths
            (FaultPlan(worker_crash={0: 2, 1: 7}), None),
            # kill one, premature-exit another
            (FaultPlan(worker_crash={2: 4}, worker_exit={0: 9}), None),
            # kill + hang at once
            (FaultPlan(worker_crash={0: 3}, worker_hang={2: 5}), None),
            # corruption rejected, then the same worker killed
            (FaultPlan(corrupt_snapshot={1: 2}, worker_crash={1: 8}), None),
            # a poison chunk in the source + a kill
            (FaultPlan(worker_crash={1: 5}), 3),
        ],
        ids=["two-kills", "kill+exit", "kill+hang", "corrupt+kill",
             "poison+kill"],
    )
    def test_schedule_recovers_to_bit_identity(self, stream, plan, poison_at):
        chunks = chunks_of(stream)
        if poison_at is not None:
            chunks = with_poison(chunks, poison_at)
        expected = sequential_state(chunks, shards=6)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
            stall_timeout=1.5,
            slots=4,
            fault_plan=plan,
            **GROUP_PARAMS,
        )
        stats = runtime.run(chunks)
        assert stats.tuples_ingested == len(stream)
        assert runtime.supervisor.group.state().equals(expected)
        assert_one_sided(runtime, stream)
        assert runtime.dead_letters.chunk_indices() == (
            [] if poison_at is None else [poison_at]
        )

    def test_inline_failover_is_exact(self, stream):
        # The parent takes the killed worker's shards over, exactly.
        expected = sequential_state(chunks_of(stream), shards=6)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
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
    """Schedules with poison in the source: the fleet reads degraded
    (a chunk sits in the dead-letter queue) and stays exact."""

    def test_poison_plus_kill_quarantines_and_heals(self, stream):
        chunks = with_poison(chunks_of(stream), 4)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
            fault_plan=FaultPlan(worker_crash={2: 6}),
            **GROUP_PARAMS,
        )
        runtime.run(chunks)
        assert runtime.dead_letters.quarantined == 1
        assert runtime.health()["status"] == "degraded"
        assert_one_sided(runtime, stream)
        assert runtime.supervisor.group.state().equals(
            sequential_state(chunks, shards=6)
        )


class TestEverythingAtOnce:
    def test_full_chaos_schedule(self, stream):
        # Kill, exit and corruption in the workers plus a poison chunk
        # in the source, in one run: every fault is recovered exactly.
        chunks = with_poison(chunks_of(stream), 6)
        runtime = ParallelIngestRuntime(
            3,
            shards=6,
            sync_every=3,
            stall_timeout=2.0,
            fault_plan=FaultPlan(
                worker_crash={0: 5},
                worker_exit={1: 9},
                corrupt_snapshot={2: 1},
            ),
            **GROUP_PARAMS,
        )
        stats = runtime.run(chunks)
        assert stats.tuples_ingested == len(stream)
        assert runtime.dead_letters.quarantined == 1
        assert_one_sided(runtime, stream)
        for key, count in stream.exact.top_k(64):
            assert runtime.supervisor.query(int(key)) >= count
        assert runtime.supervisor.group.state().equals(
            sequential_state(chunks, shards=6)
        )


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
