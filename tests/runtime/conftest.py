"""Fixtures shared by the runtime suites."""

from __future__ import annotations

import os

import pytest

from repro.runtime import parallel


@pytest.fixture()
def leaked_rings(monkeypatch):
    """A check for the shared-memory segments created during the test:
    calling it lists those still present in ``/dev/shm``.

    Every segment the runtime creates is a :class:`ChunkRing`'s, made by
    this process, so the check sees every segment the test made and
    none that another process on the host made.
    """
    names: list[str] = []

    class Recorded(parallel.shared_memory.SharedMemory):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            names.append(self.name)

    monkeypatch.setattr(parallel.shared_memory, "SharedMemory", Recorded)
    return lambda: [
        name for name in names if os.path.exists(f"/dev/shm/{name}")
    ]
