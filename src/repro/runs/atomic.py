"""Crash-safe artifact writes: tmp file + ``os.replace``.

Every JSON artifact the toolkit persists (``SWEEP_repro.json``, the
run store's manifests, shard results and mid-shard checkpoints) goes
through :func:`atomic_write_text`.  A plain
truncate-then-write leaves a half-written file behind when the process
dies mid-write -- exactly the moment a *durable* run store must survive
-- so writers stage the full payload in a sibling temp file and publish
it with the one primitive POSIX makes atomic, ``os.replace``.  Readers
therefore only ever see the old bytes or the new bytes, never a torn
artifact.
"""

import json
import os
import tempfile


def atomic_write_text(path, text, encoding="utf-8"):
    """Write ``text`` to ``path`` atomically (tmp sibling + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary (cross-device renames are a copy,
    not an atomic swap).  On any failure the temp file is removed and the
    destination keeps its previous content.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_json(path, payload, indent=2):
    """Serialize ``payload`` and write it atomically with a trailing newline."""
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def read_json(path):
    """Load a JSON artifact; returns ``None`` when missing or corrupt.

    Corruption cannot happen through :func:`atomic_write_text`, but a run
    directory may carry files written by older (truncate-then-write)
    versions or a dying filesystem -- a torn shard result must read as
    "not cached", never crash the resume.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
