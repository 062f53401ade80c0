"""Durable publish: the one staging → seal → atomic-rename sequence.

Every crash-consistent file above the stores — the engine checkpoint, the
service journal, a finished job's values file — is written the same way:
the payload goes to a *staging* name, is sealed, and one atomic
``rename(overwrite=True)`` makes it the *final* name.  A power loss at any
op leaves ``final`` reading as exactly the old or exactly the new payload;
a leftover staging file is dead weight the next publish (or
:func:`discard`) removes, never something a reader sees.

Both names are the caller's: durable stores journal file names, so they
are part of the on-flash format.
"""

from __future__ import annotations

from repro.flash.store import FileStore


def publish(store: FileStore, staging: str, final: str, payload: bytes) -> None:
    """Atomically replace ``final`` with ``payload`` on either file store."""
    if store.exists(staging):
        store.delete(staging)
    store.append(staging, payload)
    store.seal(staging)
    store.rename(staging, final, overwrite=True)


def discard(store: FileStore, staging: str, final: str) -> None:
    """Delete a published file and any staging leftover of it."""
    for name in (staging, final):
        if store.exists(name):
            store.delete(name)
