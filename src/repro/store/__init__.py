"""Crash-safe concurrent artifact store (the checkpoint substrate).

:class:`ArtifactStore` turns a checkpoint directory tree into a store
that many processes can share without corrupting each other:

* :mod:`repro.store.locks` — advisory per-key writer locks
  (:class:`KeyLock`): ``fcntl.flock`` where the filesystem supports it,
  with an ``O_EXCL`` lease-file fallback carrying pid + heartbeat mtime
  and deterministic stale-lease takeover.  N concurrent batch runners
  on one ``resume_dir`` serialize per key and dedupe work instead of
  racing ``os.replace`` and double-computing.
* :mod:`repro.store.manifest` — a per-key ``manifest.json`` recording a
  sha256 + size sidecar for every artifact plus the key's last-access
  time, so restores are integrity-verified and eviction has an LRU
  order to walk.
* :mod:`repro.store.core` — :class:`ArtifactStore` itself: atomic
  checksummed writes, verified reads that move a corrupt or truncated
  entry to ``<key>/.corrupt-N/`` (counted on ``resilience.store.corrupt``)
  instead of ever raising or serving it, ``gc``/``stats``/``verify``
  maintenance, and ``store.*`` lock metrics through :mod:`repro.obs`.

``repro store stats|verify|gc`` drives the maintenance surface from the
CLI, and the store bench suite (``python -m benchmarks.suites store``)
tortures the whole stack (kill
mid-write, torn writes, stale leases, checksum flips under concurrent
writers).  See docs/RESILIENCE.md, "The artifact store".
"""

from repro.store.core import ArtifactStore
from repro.store.locks import KeyLock, StoreLockTimeout
from repro.store.manifest import (
    MANIFEST_NAME,
    file_sha256,
    load_manifest,
    save_manifest,
    text_sha256,
)

__all__ = [
    "ArtifactStore",
    "KeyLock",
    "MANIFEST_NAME",
    "StoreLockTimeout",
    "file_sha256",
    "load_manifest",
    "save_manifest",
    "text_sha256",
]
