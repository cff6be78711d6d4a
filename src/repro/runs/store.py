"""The durable run store: ``RUNS/<run-id>/`` directories a sweep survives in.

A sweep that dies at shard 900 of 1000 used to replay from zero and
could leave a truncated ``SWEEP_repro.json`` behind.  The store gives
every sweep a per-run directory::

    RUNS/<run-id>/
      manifest.json        # run identity: sweep name, seed, shard axes + hashes
      shard-0000.json      # one completed shard result (atomic write)
      shard-0000.ckpt.json # latest mid-shard SimCheckpoint (optional)
      SWEEP_repro.json     # the merged artifact, once the run completes

Resume correctness rests on one key: the **spec fingerprint**, a SHA-256
over the canonical JSON encoding of the shard's full
:class:`~repro.scenarios.spec.ScenarioSpec` (its derived seed included).
A cached shard result is reused only when its recorded fingerprint
matches the fingerprint of the shard the sweep is asking for *now* --
so editing a scenario, changing the sweep seed, or shrinking the grid
silently invalidates exactly the stale shards and nothing else, and the
resumed merge is byte-identical to an uninterrupted run.
"""

import hashlib
import json
import os
import re
import time  # lint: disable=DET001(host-side run naming, never simulation state)

from repro.runs.atomic import atomic_write_json, atomic_write_text, read_json

MANIFEST_SCHEMA_VERSION = 1
SHARD_SCHEMA_VERSION = 1
CHECKPOINT_FILE_SCHEMA_VERSION = 1

#: Merged artifact name inside a run directory (same bytes as --output).
MERGED_NAME = "SWEEP_repro.json"

_RUN_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class RunStoreError(RuntimeError):
    """A run-store operation failed (unknown run id, bad manifest, ...)."""


def canonical_bytes(payload):
    """Canonical JSON encoding (sorted keys, no whitespace) of plain data."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def spec_fingerprint(spec):
    """SHA-256 hex digest of a spec's canonical serialized form.

    The fingerprint covers the *whole* spec dict -- workload, pods,
    duration, checkpoint cadence and the shard's derived seed -- so two
    shards agree on it iff they would run the exact same simulation.
    """
    return hashlib.sha256(canonical_bytes(spec.to_dict())).hexdigest()


def _shard_name(index):
    return f"shard-{index:04d}.json"


def _checkpoint_name(index):
    return f"shard-{index:04d}.ckpt.json"


def write_checkpoint_file(path, fingerprint, snapshot):
    """Atomically persist a mid-shard checkpoint where
    :meth:`Run.load_checkpoint` will look for it.

    Module-level and keyed by path (``Run.checkpoint_path``) so a worker
    process can call it with nothing but its shard payload.
    """
    atomic_write_json(path, {
        "schema_version": CHECKPOINT_FILE_SCHEMA_VERSION,
        "spec_hash": fingerprint,
        "checkpoint": snapshot,
    })


class Run:
    """One run directory: manifest plus per-shard results and checkpoints."""

    def __init__(self, root, run_id, manifest):
        self.root = root
        self.run_id = run_id
        self.manifest = manifest

    @property
    def path(self):
        return os.path.join(self.root, self.run_id)

    # -- per-shard result files -------------------------------------------

    def shard_path(self, index):
        return os.path.join(self.path, _shard_name(index))

    def checkpoint_path(self, index):
        return os.path.join(self.path, _checkpoint_name(index))

    def load_shard(self, index, fingerprint):
        """The cached shard result, or ``None`` when missing or stale.

        Stale means: unreadable/torn JSON, a schema the store does not
        know, or a fingerprint that no longer matches what the sweep
        wants to run -- all collapse to "run it again".
        """
        payload = read_json(self.shard_path(index))
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != SHARD_SCHEMA_VERSION:
            return None
        if payload.get("spec_hash") != fingerprint:
            return None
        result = payload.get("result")
        if not isinstance(result, dict) or "report" not in result:
            return None
        return result

    def record_shard(self, index, fingerprint, result):
        """Durably record one completed shard (atomic tmp + replace)."""
        atomic_write_json(self.shard_path(index), {
            "schema_version": SHARD_SCHEMA_VERSION,
            "spec_hash": fingerprint,
            "result": result,
        })
        # The shard is complete; its mid-run checkpoint is dead weight.
        self.discard_checkpoint(index)

    def load_checkpoint(self, index, fingerprint):
        """The latest mid-shard checkpoint, or ``None`` when missing/stale."""
        payload = read_json(self.checkpoint_path(index))
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != CHECKPOINT_FILE_SCHEMA_VERSION:
            return None
        if payload.get("spec_hash") != fingerprint:
            return None
        checkpoint = payload.get("checkpoint")
        return checkpoint if isinstance(checkpoint, dict) else None

    def discard_checkpoint(self, index):
        try:
            os.unlink(self.checkpoint_path(index))
        except OSError:
            pass

    # -- run-level views ---------------------------------------------------

    def completed_indices(self):
        """Indices of shards with a valid cached result (manifest order)."""
        done = []
        for entry in self.manifest.get("shards", ()):
            if self.load_shard(entry["index"], entry["spec_hash"]) is not None:
                done.append(entry["index"])
        return done

    def write_merged(self, text):
        """Publish the merged artifact inside the run directory."""
        atomic_write_text(os.path.join(self.path, MERGED_NAME), text)

    def load_merged(self):
        return read_json(os.path.join(self.path, MERGED_NAME))

    def __repr__(self):
        return f"<Run {self.run_id}: {len(self.manifest.get('shards', ()))} shard(s)>"


class RunStore:
    """The ``RUNS/`` root: creates, opens and lists run directories."""

    def __init__(self, root="RUNS"):
        self.root = root

    def _manifest_path(self, run_id):
        return os.path.join(self.root, run_id, "manifest.json")

    def default_run_id(self, name):
        """A fresh, human-sortable run id: ``<sweep>-<YYYYmmdd-HHMMSS>``.

        Wall time here is pure *host-side naming* -- it never reaches a
        report or a simulation.  Same-second collisions get a numeric
        suffix, so ids stay unique without any entropy.
        """
        stamp = time.strftime("%Y%m%d-%H%M%S")
        candidate = f"{name}-{stamp}"
        suffix = 1
        while os.path.exists(os.path.join(self.root, candidate)):
            suffix += 1
            candidate = f"{name}-{stamp}-{suffix}"
        return candidate

    def create(self, name, seed, shards, run_id=None, quick=False):
        """Create (or re-anchor) a run directory for this shard set.

        Writes the manifest recording the sweep identity and every
        shard's axes + spec fingerprint.  Calling it on an existing
        ``run_id`` rewrites the manifest to the *current* truth -- shard
        results already on disk stay, and the fingerprint check decides
        per shard whether they are still valid (that is the whole resume
        story; a stale manifest never forces a from-zero restart by
        itself, and never lets a stale result through).
        """
        run_id = run_id if run_id is not None else self.default_run_id(name)
        if not _RUN_ID_PATTERN.match(run_id):
            raise RunStoreError(
                f"bad run id {run_id!r}: use letters, digits, '.', '_' or '-'"
            )
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": run_id,
            "sweep": name,
            "seed": seed,
            "quick": bool(quick),
            "shards": [
                {
                    "index": shard.index,
                    "axes": dict(shard.axes),
                    "spec_hash": spec_fingerprint(shard.spec),
                }
                for shard in shards
            ],
        }
        os.makedirs(os.path.join(self.root, run_id), exist_ok=True)
        atomic_write_json(self._manifest_path(run_id), manifest)
        return Run(self.root, run_id, manifest)

    def open(self, run_id):
        """Open an existing run; :class:`RunStoreError` names the miss."""
        manifest = read_json(self._manifest_path(run_id))
        if manifest is None:
            known = ", ".join(self.run_ids()) or "(none)"
            raise RunStoreError(
                f"unknown run id {run_id!r} under {self.root!r}; known runs: {known}"
            )
        if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
            raise RunStoreError(
                f"run {run_id!r} has manifest schema "
                f"{manifest.get('schema_version')!r}, expected "
                f"{MANIFEST_SCHEMA_VERSION}"
            )
        return Run(self.root, run_id, manifest)

    def resume(self, run_id, name, seed, shards, quick=False):
        """Re-anchor ``run_id`` for a resume of the given shard set.

        The run must exist (resuming a typo must fail loudly, not
        silently start an empty run).  The manifest is rewritten with
        the current fingerprints; cached shard results that no longer
        match are simply ignored by :meth:`Run.load_shard`.
        """
        self.open(run_id)  # raises RunStoreError with the known-run list
        return self.create(name, seed, shards, run_id=run_id, quick=quick)

    def run_ids(self):
        """Sorted ids of every directory holding a readable manifest."""
        try:
            entries = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            entry
            for entry in entries
            if read_json(self._manifest_path(entry)) is not None
        ]

    def runs(self):
        return [self.open(run_id) for run_id in self.run_ids()]
