"""Shared-memory publication of the nominal waveforms for campaign workers.

A fault campaign compares every faulty response against the same fault-free
("nominal") waveform set.  With a process pool, the naive approach pickles
those waveforms into every worker at pool start: N workers pay N copies of
the full trace data over IPC.  :class:`NominalStore` instead packs the
waveforms into one :mod:`multiprocessing.shared_memory` block; pickling the
store transports only the segment *name* plus a small layout table, and each
worker attaches to the same physical pages — N workers pay one copy total.

:func:`publish_nominal` is the entry point used by the campaign layer
(:class:`repro.anafault.executors.PoolExecutor` publishes once per pool
run).  It
degrades cleanly: when shared memory is unavailable (platform without
``/dev/shm``, or an environment that forbids segment creation) it returns
an :class:`InlineNominalStore` that simply
carries the waveform dict and pickles it the old way.  Both stores expose the
same small interface (:meth:`~NominalStore.waveforms`,
:meth:`~NominalStore.payload_bytes`, :meth:`~NominalStore.dispose`,
:attr:`~NominalStore.kind`), so the parallel layer does not care which one it
was handed.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..spice.waveform import Waveform

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - no _posixshmem on this platform
    _shared_memory = None


def _attach_segment(name: str):
    """Attach to an existing shared-memory segment without letting the
    resource tracker claim it.

    On Python < 3.13 an attaching process registers the segment with its
    ``multiprocessing.resource_tracker``, which then unlinks it when that
    process exits — yanking the pages away from the publisher and every
    other worker.  Python 3.13 grew ``track=False`` for exactly this case;
    on older interpreters the attachment is unregistered by hand.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        segment = _shared_memory.SharedMemory(name=name)
        try:  # pragma: no cover - defensive; private API may move
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        return segment


class NominalStore:
    """The nominal waveform set, published once in shared memory.

    Build one with :meth:`publish` in the campaign parent.  Pickling the
    store (what ``ProcessPoolExecutor`` does with its initializer
    arguments) transports only the segment name and the layout table —
    a few hundred bytes regardless of trace length; unpickling attaches
    to the existing segment and :meth:`waveforms` reconstructs the
    :class:`~repro.spice.waveform.Waveform` objects as zero-copy views
    over the shared pages.

    The publisher owns the segment: call :meth:`dispose` (idempotent)
    when the pool is done to unmap and unlink it.  Workers keep their
    attachment alive for the lifetime of their ``_WORKER_STATE`` and are
    cleaned up by process exit.
    """

    kind = "shared_memory"

    def __init__(self, segment, layout: list[tuple]):
        self._segment = segment
        #: One ``(name, offset, samples, unit, x_unit)`` row per waveform;
        #: x and y are stored back to back as float64 at ``offset``.
        self._layout = layout
        self._waveforms: dict[str, Waveform] | None = None
        self._owner = False

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, waveforms: dict[str, Waveform]) -> "NominalStore":
        """Copy ``waveforms`` into one fresh shared-memory segment."""
        if _shared_memory is None:
            # The OSError is part of the publish_nominal fallback protocol
            # (callers catch it to degrade to the inline store).
            raise OSError("multiprocessing.shared_memory is "
                          "unavailable")  # repro-lint: allow=raise-type
        layout: list[tuple] = []
        offset = 0
        for name, wave in waveforms.items():
            samples = len(wave)
            layout.append((name, offset, samples, wave.unit, wave.x_unit))
            offset += 2 * samples * 8  # x then y, float64 each
        segment = _shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for (name, start, samples, _unit, _x_unit), wave in zip(
                layout, waveforms.values()):
            block = np.ndarray((2, samples), dtype=np.float64,
                               buffer=segment.buf, offset=start)
            block[0] = wave.x
            block[1] = wave.y
        store = cls(segment, layout)
        store._owner = True
        return store

    # ------------------------------------------------------------------
    def waveforms(self) -> dict[str, Waveform]:
        """The published waveform set, as views over the shared pages.

        Each returned :class:`~repro.spice.waveform.Waveform` keeps a
        reference back to this store: a ``SharedMemory`` whose last Python
        reference dies unmaps its pages even while numpy views into them
        exist (the documented shared-memory lifetime gotcha), so the views
        themselves must keep the attachment alive.
        """
        if self._waveforms is None:
            waves = {}
            for name, start, samples, unit, x_unit in self._layout:
                block = np.ndarray((2, samples), dtype=np.float64,
                                   buffer=self._segment.buf, offset=start)
                wave = Waveform(block[0], block[1], name=f"v({name})",
                                unit=unit, x_unit=x_unit)
                wave._nominal_store = self  # pin the mapping (see above)
                waves[name] = wave
            self._waveforms = waves
        return self._waveforms

    def payload_bytes(self) -> int:
        """Size of the pickled store — what one worker receives over IPC."""
        return len(pickle.dumps(self))

    def dispose(self) -> None:
        """Unmap and (for the publisher) unlink the segment.  Idempotent.

        Waveform views previously handed out by :meth:`waveforms` become
        invalid; only call this once the consumers are done (the campaign
        parent never reads its own store, so it disposes right after the
        worker pool shuts down).
        """
        segment, self._segment = self._segment, None
        self._waveforms = None
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - live views keep the map
            return
        if self._owner:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        if self._segment is None:
            # The pickle protocol expects PicklingError from __getstate__.
            raise pickle.PicklingError(
                "NominalStore already disposed")  # repro-lint: allow=raise-type
        return {"name": self._segment.name, "layout": self._layout}

    def __setstate__(self, state: dict) -> None:
        self._segment = _attach_segment(state["name"])
        self._layout = state["layout"]
        self._waveforms = None
        self._owner = False


class InlineNominalStore:
    """Fallback store: carries the waveform dict and pickles it whole.

    Behaviourally identical to :class:`NominalStore` (same interface, same
    waveform values) but every worker receives its own full copy over IPC —
    the pre-streaming behaviour, kept for platforms without shared memory.
    """

    kind = "inline"

    def __init__(self, waveforms: dict[str, Waveform]):
        self._waveforms = dict(waveforms)

    def waveforms(self) -> dict[str, Waveform]:
        """The waveform set (the dict itself; nothing shared)."""
        return self._waveforms

    def payload_bytes(self) -> int:
        """Size of the pickled store — what one worker receives over IPC."""
        return len(pickle.dumps(self))

    def dispose(self) -> None:
        """Nothing to release; present for interface symmetry."""


def publish_nominal(
        waveforms: dict[str, Waveform]) -> NominalStore | InlineNominalStore:
    """Publish the nominal waveforms for worker processes.

    Returns a shared-memory :class:`NominalStore` when the platform
    supports it, otherwise (no ``shared_memory`` module, or ``OSError`` on
    publish, e.g. a read-only ``/dev/shm``) an :class:`InlineNominalStore`;
    the caller is responsible for :meth:`~NominalStore.dispose` once the
    worker pool has shut down.
    """
    try:
        return NominalStore.publish(waveforms)
    except OSError:
        return InlineNominalStore(waveforms)
