"""Persist synopses to disk and restore them bit-for-bit.

Production deployments checkpoint their synopses (collector restarts,
shard migration).  Because every structure in this library derives its
hash functions deterministically from ``(seed, dimensions)``, a synopsis
is fully described by its construction parameters plus its counter
state; :func:`save_synopsis` captures both through the synopsis state
protocol (:mod:`repro.synopses.protocol`) into a single ``.npz``
archive, and :func:`load_synopsis` restores an object whose future
behaviour is identical to the original's.

Every registered synopsis kind is supported — plain sketches (Count-Min,
Count Sketch, FCM, Holistic UDAF), counter summaries (Space Saving,
Misra-Gries), :class:`~repro.core.asketch.ASketch` over any filter kind
and any persistable backend, and
:class:`~repro.runtime.sharding.ShardedASketch` groups.
``load_synopsis(path, expect_kind=...)`` also pins the archive's kind.
An archive whose kind is not registered, at the top level or as an
ASketch's back stage (among them ``sf-sketch``, ``salsa-cm``,
``hierarchical-count-min`` and ``sliding-window-asketch``), fails with
a :class:`~repro.errors.StreamFormatError` saying the archive names an
unknown synopsis kind.

Archive layout (format version 2): one ``metadata`` array holding a
UTF-8 JSON blob ``{version, kind, params, extra}`` plus the state's
NumPy arrays stored under ``array.<name>`` keys (nested synopses use
dotted prefixes inside ``<name>``, e.g. ``array.sketch.table``).  The
archive is a standard ``.npz`` (one ``<key>.npy`` zip member per array)
with every member stored uncompressed, the layout ``np.savez`` writes;
``np.load`` reads it.  Deflated archives (level 1 from earlier builds,
``np.savez_compressed``'s level 6) load too.  A broken container (bad
zip structure, a member failing its CRC-32 or its deflate stream, a
truncated ``.npy`` header) raises :class:`~repro.errors.StreamFormatError`
naming the archive.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from repro.errors import ConfigurationError, StreamFormatError
from repro.synopses.protocol import SynopsisState, synopsis_state_of
from repro.synopses.spec import resolve_kind

_FORMAT_VERSION = 2

#: npz key prefix separating state arrays from the metadata blob.
_ARRAY_PREFIX = "array."


def _pack_metadata(metadata: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)


def _unpack_metadata(blob: np.ndarray) -> dict:
    try:
        decoded = json.loads(blob.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StreamFormatError(f"corrupt synopsis metadata: {exc}") from exc
    if not isinstance(decoded, dict):
        raise StreamFormatError(
            "corrupt synopsis metadata: expected a JSON object, got "
            f"{type(decoded).__name__}"
        )
    return decoded


def _write_npz(handle, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``handle`` as an uncompressed ``.npz``.

    The layout ``np.savez`` writes: a ``ZIP_STORED`` ``<key>.npy``
    member per array, zip64 forced as numpy does.  A checkpoint is
    mostly a Count-Min table of int64 counts; deflating it, even at
    level 1, took longer than writing and fsyncing the stored bytes.
    ``write_array(..., allow_pickle=False)`` refuses object arrays on
    every numpy this package supports.
    """
    with zipfile.ZipFile(handle, mode="w", allowZip64=True) as archive:
        for key, array in arrays.items():
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(array), allow_pickle=False
                )


# -- generic entry points ----------------------------------------------------


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a completed rename survives power loss.

    Best-effort: platforms/filesystems that cannot fsync a directory
    (Windows, some network mounts) are silently skipped.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_synopsis(synopsis: Any, path: str | Path) -> bytes:
    """Write any state-protocol synopsis (parameters + counters) to ``path``.

    The archive is an uncompressed ``.npz`` (see :func:`_write_npz`),
    built in memory and returned, so a caller that hashes or ships it
    need not read the file back.  The write is atomic: bytes land in a
    ``<path>.tmp`` sibling first, are fsynced, and only then renamed
    over ``path`` (``os.replace``).
    A crash mid-save can therefore never leave a truncated archive where
    a valid checkpoint used to be — readers observe either the old file
    or the complete new one.  A stale ``.tmp`` from an interrupted save
    is overwritten by the next attempt.

    Raises :class:`StreamFormatError` for objects that do not implement
    the synopsis state protocol.
    """
    state = synopsis_state_of(synopsis)
    metadata = {
        "version": _FORMAT_VERSION,
        "kind": state.kind,
        "params": state.params,
        "extra": state.extra,
    }
    arrays = {"metadata": _pack_metadata(metadata)}
    arrays.update(
        (f"{_ARRAY_PREFIX}{name}", array)
        for name, array in state.arrays.items()
    )
    target = Path(path)
    if not target.name.endswith(".npz"):
        # np.savez appends the suffix itself; mirror that for the rename
        # target so callers see the same final filename as before.
        target = target.with_name(target.name + ".npz")
    scratch = target.with_name(target.name + ".tmp")
    buffer = io.BytesIO()
    _write_npz(buffer, arrays)
    blob = buffer.getvalue()
    try:
        with open(scratch, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, target)
    except BaseException:
        with contextlib.suppress(OSError):
            scratch.unlink()
        raise
    _fsync_directory(target.parent)
    return blob


def _describe(source: str | Path | BinaryIO) -> str:
    if isinstance(source, (str, os.PathLike)):
        return os.fspath(source)
    return getattr(source, "name", "in-memory archive")


def _read_members(source: str | Path | BinaryIO) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` at ``source``, keyed by member name.

    Container damage is typed: the zip structure (``BadZipFile``, which
    also reports a stored member failing its CRC-32), a deflated
    member's stream (``zlib.error``), or a member cut short or holding
    no valid ``.npy`` header (``EOFError``, ``ValueError``) raises
    :class:`StreamFormatError` naming the archive.
    """
    try:
        archive = np.load(source)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise StreamFormatError(
                f"{_describe(source)} is not a synopsis archive "
                "(a bare .npy array, not an .npz)"
            )
        with archive:
            return {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise StreamFormatError(
            f"{_describe(source)} is a corrupt synopsis archive: {exc}"
        ) from exc


def load_synopsis(
    source: str | Path | BinaryIO, *, expect_kind: str | None = None
) -> Any:
    """Restore a synopsis saved by :func:`save_synopsis`.

    ``source`` is a path or a seekable binary file object (a
    checkpoint store passes the bytes it verified as ``io.BytesIO``).
    ``expect_kind`` optionally pins the archive's kind (the legacy
    wrappers use it); a mismatch raises :class:`StreamFormatError`, as
    does a corrupt archive.
    """
    members = _read_members(source)
    if "metadata" not in members:
        raise StreamFormatError(
            f"{_describe(source)} is not a synopsis archive "
            "(no metadata entry)"
        )
    metadata = _unpack_metadata(members["metadata"])
    version = metadata.get("version")
    if version != _FORMAT_VERSION:
        raise StreamFormatError(
            f"unsupported synopsis format version {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    kind = metadata.get("kind")
    if not isinstance(kind, str):
        raise StreamFormatError(
            f"corrupt synopsis metadata: kind is {kind!r}"
        )
    if expect_kind is not None and kind != expect_kind:
        raise StreamFormatError(
            f"expected a {expect_kind} archive, found {kind!r}"
        )
    try:
        cls = resolve_kind(kind)
    except ConfigurationError as exc:
        raise StreamFormatError(
            f"archive names unknown synopsis kind {kind!r}"
        ) from exc
    arrays = {
        name[len(_ARRAY_PREFIX):]: array
        for name, array in members.items()
        if name.startswith(_ARRAY_PREFIX)
    }
    state = SynopsisState(
        kind=kind,
        params=dict(metadata.get("params", {})),
        arrays=arrays,
        extra=dict(metadata.get("extra", {})),
    )
    return cls.from_state(state)
