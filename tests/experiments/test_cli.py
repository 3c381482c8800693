"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure17" in out
        assert out.count("\n") == 21


class TestRun:
    def test_runs_small_experiment(self, capsys):
        code = main(["run", "figure3", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure3" in out
        assert "|F|=32" in out

    def test_unknown_experiment_errors(self, capsys):
        """Unknown ids fail fast with a one-line error, before any work."""
        code = main(["run", "figure99"])
        err = capsys.readouterr().err
        assert code == 2
        assert "figure99" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_options_forwarded(self, capsys):
        code = main(
            ["run", "table5", "--scale", "0.05", "--synopsis-kb", "64",
             "--filter-items", "16", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "k = 16" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestCheckpointRestore:
    def test_roundtrip_asketch(self, capsys, tmp_path):
        path = tmp_path / "asketch.npz"
        code = main(
            ["checkpoint", str(path), "--method", "asketch",
             "--scale", "0.05", "--synopsis-kb", "32"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpointed asketch" in out
        assert path.exists()

        code = main(["restore", str(path), "--top-k", "5", "--query", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restored asketch" in out
        assert "  1. key=" in out
        assert "estimate(1) = " in out

    def test_checkpoint_any_registered_kind(self, capsys, tmp_path):
        path = tmp_path / "ss.npz"
        code = main(
            ["checkpoint", str(path), "--method", "space-saving-min",
             "--scale", "0.05"]
        )
        assert code == 0
        assert "checkpointed space-saving" in capsys.readouterr().out
        code = main(["restore", str(path), "--top-k", "3"])
        assert code == 0
        assert "restored space-saving" in capsys.readouterr().out

    def test_checkpoint_unknown_method(self, capsys, tmp_path):
        code = main(
            ["checkpoint", str(tmp_path / "x.npz"), "--method", "bloom"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "bloom" in err

    def test_restore_missing_metadata(self, capsys, tmp_path):
        import numpy as np

        path = tmp_path / "bare.npz"
        np.savez_compressed(path, table=np.zeros(4, dtype=np.int64))
        code = main(["restore", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error during restore" in err

    def test_restore_corrupt_archive_exits_1(self, capsys, tmp_path):
        from repro.runtime.reliability import corrupt_file

        path = tmp_path / "asketch.npz"
        assert main(["checkpoint", str(path), "--scale", "0.05"]) == 0
        capsys.readouterr()
        corrupt_file(path)
        code = main(["restore", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error during restore" in err
        assert "corrupt synopsis archive" in err

    @pytest.mark.parametrize("target", ["missing.npz", "."])
    def test_restore_unreadable_path_exits_1(self, capsys, tmp_path, target):
        # A missing file and a directory: one error line, no traceback.
        code = main(["restore", str(tmp_path / target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error during restore: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_restore_top_k_unsupported(self, capsys, tmp_path):
        path = tmp_path / "cms.npz"
        code = main(
            ["checkpoint", str(path), "--method", "count-min",
             "--scale", "0.05"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["restore", str(path), "--top-k", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "does not answer top-k" in captured.err


def _top_k_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if ". key=" in line]


class TestResume:
    """``resume DIR`` finishes a checkpointed ``run`` from its newest
    valid generation; exit codes 0 (recovered), 1 (no recoverable
    checkpoint), 2 (not a checkpoint directory)."""

    @staticmethod
    def run_checkpointed(directory, capsys) -> None:
        # 10 chunks, a checkpoint every 2: the newest two of five
        # generations are kept.
        code = main(
            ["run", "asketch", "--checkpoint-dir", str(directory),
             "--checkpoint-every", "2", "--chunk-size", "2000",
             "--scale", "0.05"]
        )
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("corrupt_newest", [False, True])
    def test_resume_prints_the_uninterrupted_top_k(
        self, capsys, tmp_path, corrupt_newest
    ):
        from repro.runtime.reliability import corrupt_file

        directory = tmp_path / "ck"
        self.run_checkpointed(directory, capsys)
        newest = max(directory.glob("gen-*.npz"))
        # The newest generation is the end-of-stream checkpoint.
        assert main(["restore", str(newest), "--top-k", "3"]) == 0
        expected = _top_k_lines(capsys.readouterr().out)
        assert len(expected) == 3
        if corrupt_newest:
            # Falls back one generation and replays the suffix.
            corrupt_file(newest)
        assert main(["resume", str(directory), "--top-k", "3"]) == 0
        assert _top_k_lines(capsys.readouterr().out) == expected

    def test_directory_without_manifest_is_a_usage_error(
        self, capsys, tmp_path
    ):
        assert main(["resume", str(tmp_path)]) == 2
        assert "run-manifest.json" in capsys.readouterr().err

    def test_unreadable_journal_exits_1(self, capsys, tmp_path):
        directory = tmp_path / "ck"
        self.run_checkpointed(directory, capsys)
        journal = directory / "journal.jsonl"
        journal.unlink()
        journal.mkdir()
        assert main(["resume", str(directory)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error during resume: ")
        assert err.count("\n") == 1

    def test_every_generation_corrupt_fails(self, capsys, tmp_path):
        from repro.runtime.reliability import corrupt_file

        directory = tmp_path / "ck"
        self.run_checkpointed(directory, capsys)
        generations = sorted(directory.glob("gen-*.npz"))
        assert len(generations) == 2
        for path in generations:
            corrupt_file(path)
        assert main(["resume", str(directory), "--top-k", "3"]) == 1
        assert "no recoverable checkpoint" in capsys.readouterr().err
