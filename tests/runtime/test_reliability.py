"""Fault-injection tests for the reliability runtime.

Every guarantee the module documents is proven here against the
deterministic :class:`~repro.runtime.reliability.FaultPlan` harness:
exact crash recovery (kill at any chunk boundary, resume, states
bit-identical), corrupt-checkpoint fallback, source errors ending a run,
poison quarantine, and the shard supervisor's exact health view.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.asketch import ASketch
from repro.errors import ConfigurationError, RecoveryError, StreamFormatError
from repro.persistence import load_synopsis, save_synopsis
from repro.runtime.reliability import (
    CheckpointStore,
    DeadLetterQueue,
    FaultPlan,
    ResilientEngine,
    ShardSupervisor,
    SimulatedCrash,
    corrupt_file,
)
from repro.sketches.count_min import CountMinSketch
from repro.streams.zipf import zipf_stream
from repro.synopses.protocol import SynopsisState, pack_nested, prefix_arrays

CHUNK = 1_000


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(30_000, 8_000, 1.5, seed=91)


def make_asketch() -> ASketch:
    return ASketch(total_bytes=16 * 1024, filter_items=16, seed=5)


def poisoned(chunks, positions) -> list:
    """``chunks`` as a list with the chunk at each of ``positions``
    replaced by a malformed payload: fractional float keys, a NaN key
    and a string key in turn."""
    chunks = list(chunks)
    for turn, position in enumerate(sorted(positions)):
        keys = chunks[position].astype(np.float64)
        if turn % 3 == 0:
            chunks[position] = keys + 0.5
        elif turn % 3 == 1:
            keys[len(keys) // 2] = np.nan
            chunks[position] = keys
        else:
            chunks[position] = [*chunks[position][:-1].tolist(), "poison"]
    return chunks


@pytest.fixture(scope="module")
def reference_state(stream):
    """State of an uninterrupted run over the module stream."""
    synopsis = make_asketch()
    ResilientEngine(synopsis).run(stream.chunks(CHUNK))
    return synopsis.state()


# -- atomic persistence ------------------------------------------------------


class TestAtomicSave:
    def test_interrupted_save_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-save can never clobber the existing archive."""
        path = tmp_path / "synopsis.npz"
        first = make_asketch()
        first.update(7, 3)
        save_synopsis(first, path)
        golden = path.read_bytes()

        import repro.persistence as persistence_module

        def exploding_write(handle, arrays):
            handle.write(b"partial garbage")
            raise OSError("disk full mid-write")

        monkeypatch.setattr(persistence_module, "_write_npz", exploding_write)
        second = make_asketch()
        with pytest.raises(OSError, match="disk full"):
            save_synopsis(second, path)
        monkeypatch.undo()

        assert path.read_bytes() == golden  # old checkpoint untouched
        assert list(tmp_path.glob("*.tmp")) == []  # no debris
        restored = load_synopsis(path)
        assert restored.query(7) >= 3

    def test_suffixless_path_still_lands_at_npz(self, tmp_path):
        """The historical np.savez suffix behaviour is preserved."""
        save_synopsis(make_asketch(), tmp_path / "ckpt")
        assert (tmp_path / "ckpt.npz").is_file()
        assert load_synopsis(tmp_path / "ckpt.npz") is not None


def _savez_compressed_archive(synopsis, path: Path) -> None:
    """An archive as ``save_synopsis`` wrote it with ``np.savez_compressed``
    (numpy's default deflate level 6), before the level-1 writer."""
    state = synopsis.state()
    metadata = {
        "version": 2,
        "kind": state.kind,
        "params": state.params,
        "extra": state.extra,
    }
    arrays = {f"array.{name}": array for name, array in state.arrays.items()}
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            metadata=np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
            **arrays,
        )


def _level1_archive(synopsis, path: Path) -> None:
    """An archive as ``save_synopsis`` wrote it before members were
    stored: every member deflated at level 1."""
    state = synopsis.state()
    metadata = {
        "version": 2,
        "kind": state.kind,
        "params": state.params,
        "extra": state.extra,
    }
    arrays = {
        "metadata": np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
        **{f"array.{name}": array for name, array in state.arrays.items()},
    }
    with zipfile.ZipFile(
        path, mode="w", compression=zipfile.ZIP_DEFLATED,
        compresslevel=zlib.Z_BEST_SPEED, allowZip64=True,
    ) as archive:
        for key, array in arrays.items():
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _rewrite_journal(store: CheckpointStore, records: list[dict]) -> None:
    store.journal_path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


class TestArchiveCompatibility:
    @pytest.fixture
    def ingested(self, stream):
        synopsis = make_asketch()
        ResilientEngine(synopsis).run(stream.chunks(CHUNK))
        return synopsis

    def test_savez_compressed_checkpoint_restores_exactly(
        self, tmp_path, ingested
    ):
        store = CheckpointStore(tmp_path / "ckpt")
        record = store.save(ingested, chunk_index=30, tuples_ingested=30_000)
        snapshot = store.directory / record["snapshot"]
        _savez_compressed_archive(ingested, snapshot)
        assert load_synopsis(snapshot).state().equals(ingested.state())
        record["sha256"] = hashlib.sha256(snapshot.read_bytes()).hexdigest()
        store.journal_path.write_text(
            json.dumps(record, sort_keys=True) + "\n", encoding="utf-8"
        )
        restored, loaded_record = CheckpointStore(
            tmp_path / "ckpt"
        ).load_latest()
        assert loaded_record == record
        assert restored.state().equals(ingested.state())

    def test_level1_checkpoint_restores_exactly(self, tmp_path, ingested):
        store = CheckpointStore(tmp_path / "ckpt")
        record = store.save(ingested, chunk_index=30, tuples_ingested=30_000)
        snapshot = store.directory / record["snapshot"]
        _level1_archive(ingested, snapshot)
        with zipfile.ZipFile(snapshot) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        record["sha256"] = hashlib.sha256(snapshot.read_bytes()).hexdigest()
        _rewrite_journal(store, [record])
        restored, loaded_record = CheckpointStore(
            tmp_path / "ckpt"
        ).load_latest()
        assert loaded_record == record
        assert restored.state().equals(ingested.state())

    @pytest.mark.parametrize("seed", range(4))
    def test_corrupt_deflated_newest_without_checksum_falls_back(
        self, tmp_path, ingested, seed
    ):
        """A broken deflate stream or member CRC-32 is a typed load
        failure: with no checksum to catch it first, the store still
        falls back."""
        store = CheckpointStore(tmp_path / "ckpt")
        first = store.save(make_asketch(), chunk_index=3, tuples_ingested=0)
        newest = store.save(ingested, chunk_index=30, tuples_ingested=30_000)
        snapshot = store.directory / newest["snapshot"]
        _level1_archive(ingested, snapshot)
        corrupt_file(snapshot, seed=seed)
        del newest["sha256"]
        _rewrite_journal(store, [first, newest])
        restored, record = store.load_latest()
        assert record == first
        assert restored.state().equals(make_asketch().state())

    def test_archive_is_a_plain_npz(self, tmp_path, ingested):
        ours, legacy = tmp_path / "ours.npz", tmp_path / "legacy.npz"
        save_synopsis(ingested, ours)
        _savez_compressed_archive(ingested, legacy)
        with np.load(ours) as new, np.load(legacy) as old:
            assert new.files == old.files
            for name in old.files:
                assert new[name].dtype == old[name].dtype
                np.testing.assert_array_equal(new[name], old[name])


# -- dead letters ------------------------------------------------------------


class TestDeadLetterQueue:
    def test_capacity_bounds_retention(self):
        queue = DeadLetterQueue(capacity=2)
        for index in range(5):
            queue.quarantine(index, [index], "bad")
        assert len(queue) == 2
        assert queue.quarantined == 5
        assert queue.dropped == 3
        assert queue.chunk_indices() == [0, 1]

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            DeadLetterQueue(capacity=0)

    def test_engine_quarantines_poison_and_keeps_ingesting(self, stream):
        synopsis = make_asketch()
        engine = ResilientEngine(synopsis)
        stats = engine.run(poisoned(stream.chunks(CHUNK), {2, 7, 11}))
        # Three chunks quarantined, the rest ingested.
        assert engine.dead_letters.chunk_indices() == [2, 7, 11]
        assert stats.tuples_ingested == len(stream) - 3 * CHUNK
        assert synopsis.total_mass == len(stream) - 3 * CHUNK
        for letter in engine.dead_letters.letters:
            assert letter.reason  # validation failure recorded
        health = engine.health()
        assert health["status"] == "degraded"
        assert health["quarantined"] == 3


class TestWorkerFaultPlan:
    def test_worker_plan_carries_that_workers_faults(self):
        plan = FaultPlan(
            seed=4,
            worker_crash={0: 5},
            worker_exit={1: 3},
            worker_hang={0: 2, 1: 3},
            corrupt_snapshot={1: 2},
        )
        hang = plan.worker_faults_for(0)
        assert (hang.crash_at_chunk, hang.worker_hang) == (2, {0: 2})
        assert hang.worker_exit == {}
        exits = plan.worker_faults_for(1)  # the exit wins the tie at 3
        assert (exits.crash_at_chunk, exits.worker_exit) == (3, {1: 3})
        assert exits.worker_hang == {}
        assert exits.corrupt_checkpoint_after == 2
        assert exits.seed == 4
        assert plan.worker_faults_for(2) == FaultPlan(seed=4)


# -- checkpoint store --------------------------------------------------------


class TestCheckpointStore:
    def test_save_load_roundtrip_with_positions(self, tmp_path):
        store = CheckpointStore(tmp_path)
        synopsis = make_asketch()
        synopsis.update(42, 9)
        record = store.save(synopsis, chunk_index=6, tuples_ingested=6_000)
        assert record["generation"] == 0
        loaded, loaded_record = store.load_latest()
        assert loaded_record["chunk_index"] == 6
        assert loaded_record["tuples_ingested"] == 6_000
        assert loaded.state().equals(synopsis.state())

    def test_generation_rotation_prunes_old_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        synopsis = make_asketch()
        for position in range(5):
            store.save(
                synopsis,
                chunk_index=position,
                tuples_ingested=position * CHUNK,
            )
        snapshots = sorted(p.name for p in tmp_path.glob("gen-*.npz"))
        assert snapshots == ["gen-00000003.npz", "gen-00000004.npz"]
        # The journal keeps the full history even after pruning.
        assert [r["generation"] for r in store.journal_records()] == list(
            range(5)
        )

    def test_save_cost_does_not_grow_with_the_journal(
        self, tmp_path, monkeypatch
    ):
        # Each save unlinks only the one snapshot that falls out of the
        # newest ``keep``, never every generation pruned so far.
        store = CheckpointStore(tmp_path, keep=2)
        synopsis = make_asketch()
        unlinked: list[str] = []
        original = Path.unlink

        def counting_unlink(path, *args, **kwargs):
            unlinked.append(path.name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", counting_unlink)
        for position in range(50):
            store.save(synopsis, chunk_index=position, tuples_ingested=0)
        assert len(unlinked) == 48
        snapshots = sorted(p.name for p in tmp_path.glob("gen-*.npz"))
        assert snapshots == ["gen-00000048.npz", "gen-00000049.npz"]

    def test_new_store_continues_generations_and_prunes_leftovers(
        self, tmp_path
    ):
        synopsis = make_asketch()
        first = CheckpointStore(tmp_path, keep=5)
        for position in range(5):
            first.save(synopsis, chunk_index=position, tuples_ingested=0)
        second = CheckpointStore(tmp_path, keep=2)
        record = second.save(synopsis, chunk_index=5, tuples_ingested=0)
        assert record["generation"] == 5
        snapshots = sorted(p.name for p in tmp_path.glob("gen-*.npz"))
        assert snapshots == ["gen-00000004.npz", "gen-00000005.npz"]

    def test_journal_checksums_match_the_files(self, tmp_path, stream):
        store = CheckpointStore(tmp_path, keep=3)
        synopsis = make_asketch()
        for index, chunk in enumerate(stream.chunks(10_000)):
            synopsis.process_batch(chunk)
            store.save(synopsis, chunk_index=index + 1,
                       tuples_ingested=synopsis.total_mass)
        records = store.journal_records()
        assert len(records) == 3
        for record in records:
            blob = (tmp_path / record["snapshot"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == record["sha256"]

    def test_corrupt_latest_falls_back_one_generation(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        synopsis = make_asketch()
        synopsis.update(1, 5)
        store.save(synopsis, chunk_index=3, tuples_ingested=3_000)
        synopsis.update(2, 5)
        record = store.save(synopsis, chunk_index=6, tuples_ingested=6_000)
        corrupt_file(store.snapshot_path(record["generation"]), seed=9)
        loaded, loaded_record = store.load_latest()
        assert loaded_record["generation"] == 0
        assert loaded_record["chunk_index"] == 3
        assert loaded.query(2) == 0  # generation 0 predates key 2

    def test_all_generations_corrupt_raises_recovery_error(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        synopsis = make_asketch()
        for position in range(2):
            record = store.save(
                synopsis, chunk_index=position, tuples_ingested=position
            )
            corrupt_file(store.snapshot_path(record["generation"]), seed=1)
        with pytest.raises(RecoveryError, match="no recoverable checkpoint"):
            store.load_latest()

    def test_empty_store_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None

    def test_torn_journal_line_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_asketch(), chunk_index=4, tuples_ingested=4_000)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"generation": 1, "snapsho')  # torn mid-crash
        assert [r["generation"] for r in store.journal_records()] == [0]
        loaded, record = store.load_latest()
        assert record["generation"] == 0

    def test_invalid_keep_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointStore(tmp_path, keep=0)


# -- crash recovery ----------------------------------------------------------


class TestCrashRecovery:
    @pytest.mark.parametrize("crash_at", [1, 4, 13, 29])
    def test_kill_at_any_chunk_boundary_recovers_exactly(
        self, tmp_path, stream, reference_state, crash_at
    ):
        directory = tmp_path / f"crash-{crash_at}"
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=directory, checkpoint_every=3
        )
        with pytest.raises(SimulatedCrash):
            engine.run(
                stream.chunks(CHUNK),
                fault_plan=FaultPlan(crash_at_chunk=crash_at),
            )
        # Exactly crash_at chunks made it in before the "kill -9".
        assert engine.stats.tuples_ingested == crash_at * CHUNK

        recovered = ResilientEngine(
            make_asketch(), checkpoint_dir=directory, checkpoint_every=3
        )
        stats = recovered.resume(stream.chunks(CHUNK))
        assert stats.tuples_ingested == len(stream)
        assert recovered.synopsis.state().equals(reference_state)

    def test_crash_before_first_checkpoint_restarts_cleanly(
        self, tmp_path, stream, reference_state
    ):
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=10
        )
        with pytest.raises(SimulatedCrash):
            engine.run(
                stream.chunks(CHUNK), fault_plan=FaultPlan(crash_at_chunk=2)
            )
        assert engine.store.load_latest() is None  # nothing checkpointed yet
        recovered = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=10
        )
        recovered.resume(stream.chunks(CHUNK))
        assert recovered.synopsis.state().equals(reference_state)

    def test_corrupt_latest_checkpoint_falls_back_and_recovers(
        self, tmp_path, stream, reference_state
    ):
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=3
        )
        plan = FaultPlan(crash_at_chunk=14, corrupt_checkpoint_after=4, seed=8)
        with pytest.raises(SimulatedCrash):
            engine.run(stream.chunks(CHUNK), fault_plan=plan)

        recovered = ResilientEngine(checkpoint_dir=tmp_path, checkpoint_every=3)
        recovered.resume(stream.chunks(CHUNK))
        # Fell back to generation 2 (chunk 9) and replayed the longer suffix.
        assert recovered.synopsis.state().equals(reference_state)

    def test_resume_without_checkpoint_or_synopsis_raises(self, tmp_path):
        engine = ResilientEngine(checkpoint_dir=tmp_path)
        with pytest.raises(RecoveryError, match="nothing to resume"):
            engine.resume([np.arange(4)])

    def test_resume_requires_checkpoint_dir(self):
        engine = ResilientEngine(make_asketch())
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            engine.resume([np.arange(4)])

    def test_resume_after_clean_finish_is_a_no_op(self, tmp_path, stream):
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=4
        )
        engine.run(stream.chunks(CHUNK))
        final_state = engine.synopsis.state()
        again = ResilientEngine(checkpoint_dir=tmp_path, checkpoint_every=4)
        stats = again.resume(stream.chunks(CHUNK))
        assert stats.tuples_ingested == len(stream)
        assert again.synopsis.state().equals(final_state)

    def test_resume_rate_counts_only_the_replayed_chunks(
        self, tmp_path, stream
    ):
        """The ingest rate divides the tuples this drive ingested by its
        time; the journal total stays in ``tuples_ingested``."""
        chunks = list(stream.chunks(CHUNK))[:10]
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=4
        )
        with pytest.raises(SimulatedCrash):
            engine.run(chunks, fault_plan=FaultPlan(crash_at_chunk=9))
        assert engine.health()["checkpoint"]["chunk_index"] == 8

        recovered = ResilientEngine(checkpoint_dir=tmp_path, checkpoint_every=4)
        stats = recovered.resume(chunks)
        assert recovered.health()["tuples_ingested"] == 10 * CHUNK
        assert stats.chunks_ingested == 10
        assert stats.tuples_ingested - stats.restored_tuples == 2 * CHUNK
        assert stats.wall_seconds > 0
        numerator = stats.wall_throughput_items_per_ms * stats.wall_seconds
        assert numerator * 1000.0 == pytest.approx(2 * CHUNK)

    def test_recovery_with_quarantined_chunks_in_suffix(
        self, tmp_path, stream
    ):
        """Poison chunks replay deterministically across the crash."""
        chunks = poisoned(stream.chunks(CHUNK), {5, 16})
        reference = make_asketch()
        ResilientEngine(reference).run(chunks)

        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=3
        )
        with pytest.raises(SimulatedCrash):
            engine.run(chunks, fault_plan=FaultPlan(crash_at_chunk=14))
        recovered = ResilientEngine(checkpoint_dir=tmp_path, checkpoint_every=3)
        recovered.resume(chunks)
        assert recovered.synopsis.state().equals(reference.state())


# -- shard supervision -------------------------------------------------------


class TestShardSupervisor:
    def make_supervisor(self) -> ShardSupervisor:
        return ShardSupervisor(
            shards=4, total_bytes=8 * 1024, filter_items=8, seed=3
        )

    def ingest(self, stream) -> ShardSupervisor:
        """A supervisor fed the whole stream chunk by chunk."""
        supervisor = self.make_supervisor()
        for chunk in stream.chunks(CHUNK):
            supervisor.process_batch(chunk)
        return supervisor

    def test_group_is_a_plain_ingest_and_one_sided(self, stream):
        supervisor = self.ingest(stream)
        # The supervisor never reroutes: the group is exactly a plain
        # ingest.
        plain = self.make_supervisor().group
        for chunk in stream.chunks(CHUNK):
            plain.process_batch(chunk)
        assert supervisor.group.state().equals(plain.state())
        probes = np.unique(stream.keys[:4_000])
        estimates = supervisor.query_batch(probes)
        exact = stream.exact
        for key, estimate in zip(probes.tolist(), estimates):
            assert estimate >= exact.count_of(key), key
        assert supervisor.total_mass == len(stream)

    def test_query_batch_matches_scalar_queries(self, stream):
        supervisor = self.ingest(stream)
        probes = stream.keys[:500].tolist()
        assert supervisor.query_batch(probes).tolist() == [
            supervisor.query(key) for key in probes
        ]

    def test_real_exception_inside_shard_propagates(self, stream):
        supervisor = self.make_supervisor()

        def explode(*_args, **_kwargs):
            raise RuntimeError("simulated backend fault")

        supervisor.group.shards[3].process_batch = explode  # type: ignore
        with pytest.raises(RuntimeError, match="simulated backend fault"):
            supervisor.process_batch(stream.keys[:5_000])

    def test_top_k_finds_the_heaviest_key(self, stream):
        supervisor = self.ingest(stream)
        top = supervisor.top_k(5)
        assert len(top) == 5
        heaviest_true = max(stream.exact.items(), key=lambda kv: kv[1])[0]
        assert heaviest_true in {key for key, _ in top}

    def test_state_roundtrip_is_exact(self, stream):
        supervisor = self.ingest(stream)
        restored = ShardSupervisor.from_state(supervisor.state())
        assert restored.state().equals(supervisor.state())
        probes = stream.keys[:200].tolist()
        np.testing.assert_array_equal(
            restored.query_batch(probes), supervisor.query_batch(probes)
        )

    def test_checkpoint_roundtrip_through_persistence(self, tmp_path, stream):
        supervisor = self.ingest(stream)
        save_synopsis(supervisor, tmp_path / "supervised.npz")
        restored = load_synopsis(tmp_path / "supervised.npz")
        assert isinstance(restored, ShardSupervisor)
        assert restored.state().equals(supervisor.state())

    def test_crash_recovery_of_supervised_group(self, tmp_path, stream):
        reference = self.make_supervisor()
        ResilientEngine(reference).run(stream.chunks(CHUNK))

        engine = ResilientEngine(
            self.make_supervisor(),
            checkpoint_dir=tmp_path,
            checkpoint_every=4,
        )
        with pytest.raises(SimulatedCrash):
            engine.run(
                stream.chunks(CHUNK), fault_plan=FaultPlan(crash_at_chunk=17)
            )
        recovered = ResilientEngine(checkpoint_dir=tmp_path, checkpoint_every=4)
        recovered.resume(stream.chunks(CHUNK))
        assert recovered.synopsis.state().equals(reference.state())

    def test_spec_construction(self):
        from repro.synopses.spec import SynopsisSpec, build_synopsis

        supervisor = build_synopsis(
            SynopsisSpec(
                "shard-supervisor",
                {"shards": 2, "total_bytes": 4 * 1024, "seed": 1},
            )
        )
        assert isinstance(supervisor, ShardSupervisor)
        assert len(supervisor) == 2

    def test_bad_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardSupervisor()  # neither a group nor parameters
        group = ShardSupervisor(shards=2, total_bytes=4096, seed=0).group
        with pytest.raises(ConfigurationError):
            ShardSupervisor(group, shards=2, total_bytes=4096)


def legacy_supervisor_state(
    supervisor: ShardSupervisor,
    status: list[str],
    standbys: dict[int, CountMinSketch] | None = None,
) -> SynopsisState:
    """A ``shard-supervisor`` state in the layout builds with a standby
    Count-Min tier saved: standby sizing in ``params``, each standby's
    counters under ``standby<i>.`` arrays, and its metadata, the forced
    failures and the standby traffic in ``extra``."""
    group_state = supervisor.group.state()
    arrays = prefix_arrays("group", group_state.arrays)
    standbys_meta = {}
    for index, standby in (standbys or {}).items():
        standby_state = standby.state()
        arrays.update(prefix_arrays(f"standby{index}", standby_state.arrays))
        standbys_meta[str(index)] = pack_nested(standby_state)
    return SynopsisState(
        kind="shard-supervisor",
        params={
            "standby_hashes": 4,
            "standby_bytes": supervisor.group.total_bytes,
        },
        arrays=arrays,
        extra={
            "group": pack_nested(group_state),
            "standbys": standbys_meta,
            "status": status,
            "errors": {
                str(i): f"{s} on shard {i}"
                for i, s in enumerate(status)
                if s != "ok"
            },
            "forced": [],
            "standby_tuples": {
                str(i): int(sb.total_count())
                for i, sb in (standbys or {}).items()
            },
        },
    )


class TestLegacySupervisorState:
    def make_group(self, stream) -> ShardSupervisor:
        supervisor = ShardSupervisor(
            shards=4, total_bytes=8 * 1024, filter_items=8, seed=3
        )
        supervisor.process_batch(stream.keys)
        return supervisor

    def make_standby(self, stream) -> CountMinSketch:
        standby = CountMinSketch(4, total_bytes=8 * 1024, seed=3 * 7919 + 1)
        standby.update_batch(stream.keys[:1_000])
        return standby

    def test_ok_and_healing_state_loads_exactly(self, tmp_path, stream):
        supervisor = self.make_group(stream)
        legacy = legacy_supervisor_state(
            supervisor, ["ok", "healing", "ok", "ok"]
        )
        save_synopsis(SimpleNamespace(state=lambda: legacy),
                      tmp_path / "legacy.npz")
        restored = load_synopsis(tmp_path / "legacy.npz")
        assert isinstance(restored, ShardSupervisor)
        # A healing shard's data was intact: it loads as an ok shard.
        assert restored.health()["status"] == "ok"
        assert restored.state().extra["status"] == ["ok"] * 4
        assert restored.state().extra["errors"] == {}
        assert restored.group.state().equals(supervisor.group.state())
        probes = stream.keys[:500].tolist()
        np.testing.assert_array_equal(
            restored.query_batch(probes), supervisor.query_batch(probes)
        )

    def test_failed_shard_state_is_rejected(self, tmp_path, stream):
        supervisor = self.make_group(stream)
        failed = legacy_supervisor_state(
            supervisor,
            ["ok", "failed", "ok", "ok"],
            standbys={1: self.make_standby(stream)},
        )
        with pytest.raises(StreamFormatError, match="cannot be restored"):
            ShardSupervisor.from_state(failed)
        # A checkpoint store treats it like any corrupt snapshot and
        # falls back one generation.
        store = CheckpointStore(tmp_path)
        healthy = legacy_supervisor_state(supervisor, ["ok"] * 4)
        store.save(SimpleNamespace(state=lambda: healthy),
                   chunk_index=1, tuples_ingested=len(stream))
        store.save(SimpleNamespace(state=lambda: failed),
                   chunk_index=2, tuples_ingested=len(stream))
        restored, record = store.load_latest()
        assert record["generation"] == 0
        assert restored.group.state().equals(supervisor.group.state())

    def test_standby_counts_are_rejected(self, stream):
        supervisor = self.make_group(stream)
        state = legacy_supervisor_state(
            supervisor, ["ok"] * 4, standbys={1: self.make_standby(stream)}
        )
        with pytest.raises(StreamFormatError, match="cannot be restored"):
            ShardSupervisor.from_state(state)


# -- engine health and source errors ----------------------------------------


class TestEngineHealth:
    def test_health_reports_checkpoint_lag_and_quarantine(
        self, tmp_path, stream
    ):
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=4
        )
        plan = FaultPlan(crash_at_chunk=10)
        with pytest.raises(SimulatedCrash):
            engine.run(poisoned(stream.chunks(CHUNK), {3, 9}), fault_plan=plan)
        health = engine.health()
        assert health["quarantined"] == 2
        assert health["checkpoint"]["chunk_index"] == 8
        assert health["checkpoint_lag_chunks"] == 2  # chunks 8 and 9
        assert health["source_chunks_seen"] == 10

    @pytest.mark.parametrize("fails_at", [0, 5, 10])
    def test_source_error_escapes_run(
        self, tmp_path, stream, reference_state, fails_at
    ):
        """A source that raises ends the run with the error, never with a
        truncated stream reported ``ok``; resuming over a fresh source
        recovers the uninterrupted state."""

        def failing_source():
            for position, chunk in enumerate(stream.chunks(CHUNK)):
                if position == fails_at:
                    raise ConnectionError(f"source lost at chunk {position}")
                yield chunk

        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=4
        )
        with pytest.raises(ConnectionError, match="source lost"):
            engine.run(failing_source())
        health = engine.health()
        assert health["source_chunks_seen"] == fails_at
        assert health["tuples_ingested"] == fails_at * CHUNK
        # No end-of-stream checkpoint was written for the cut-off run.
        assert health["checkpoint_lag_chunks"] == fails_at % 4

        recovered = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=4
        )
        stats = recovered.resume(stream.chunks(CHUNK))
        assert stats.tuples_ingested == len(stream)
        assert recovered.synopsis.state().equals(reference_state)

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResilientEngine()  # nothing to drive, nothing to resume
        with pytest.raises(ConfigurationError):
            ResilientEngine(make_asketch(), checkpoint_every=0)


# -- journal format sanity ---------------------------------------------------


class TestJournalFormat:
    def test_journal_records_are_json_lines_with_positions(
        self, tmp_path, stream
    ):
        engine = ResilientEngine(
            make_asketch(), checkpoint_dir=tmp_path, checkpoint_every=10
        )
        engine.run(stream.chunks(CHUNK))
        lines = (
            (tmp_path / "journal.jsonl").read_text().strip().splitlines()
        )
        records = [json.loads(line) for line in lines]
        assert [r["chunk_index"] for r in records] == [10, 20, 30]
        assert records[-1]["tuples_ingested"] == len(stream)
        for record in records:
            assert set(record) >= {
                "generation",
                "snapshot",
                "chunk_index",
                "tuples_ingested",
                "sha256",
            }
