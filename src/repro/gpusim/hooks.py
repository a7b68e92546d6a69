"""Ambient hook slots: where the simulator meets ``repro.analysis``,
``repro.resilience`` and ``repro.obs.memory``.

Each slot is a module-level :class:`contextvars.ContextVar` that defaults
to ``None``.  Readers call ``SLOT.get()``; writers use :func:`installed`,
which sets the slot for a ``with`` block and restores the previous value
on exit.  Because the slots are context variables, a value installed in
one thread or asyncio task is invisible to another, and
``asyncio.to_thread`` hands a worker thread exactly the slots of the task
that started it.

* :data:`ACTIVE` — the sanitizer of the kernel launch in flight
  (:meth:`repro.gpusim.device.Device.launch` installs it for one kernel
  body).  The accounting models (:mod:`~repro.gpusim.memory`,
  :mod:`~repro.gpusim.sharedmem`, :mod:`~repro.gpusim.atomics`), the warp
  intrinsics and the block helpers forward memory and synchronization
  events to it.
* :data:`SESSION` — the ambient session sanitizer
  (:func:`repro.analysis.sanitize`) every kernel launch on any device
  attaches to; this is how ``repro run --sanitize`` covers engines that
  build their own devices.
* :data:`FAULTS` — the fault injector of :mod:`repro.resilience`:
  ``Device.alloc``/``h2d``/``d2h``/``launch`` forward their events to it
  and it may raise typed :class:`~repro.errors.DeviceFault`\\ s at the
  planned event indices.
* :data:`MEMORY` — the :class:`~repro.obs.memory.MemoryTracker` that
  ``Device`` allocation and transfer events are forwarded to.
* :data:`MEMSCOPE` — the ``(category, origin)`` allocation tag engines set
  around their residency uploads (:func:`repro.obs.memory.alloc_scope`),
  so every allocation is attributed to a semantic category (``csr``,
  ``labels``, ``frontier``, ...).

With nothing installed every forward is one ``ContextVar.get`` plus a
``None`` check, so counters, labels and timings stay bitwise identical —
the same contract :mod:`repro.obs` honors.

This module deliberately imports nothing from the rest of the package:
the simulator must stay loadable without :mod:`repro.analysis` or
:mod:`repro.resilience`, and those packages plug in through these slots
only.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Any, Iterator, TypeVar

T = TypeVar("T")

#: Sanitizer recording the currently-executing kernel launch.
ACTIVE: ContextVar[Any] = ContextVar("repro.gpusim.ACTIVE", default=None)

#: Ambient session sanitizer future launches attach to.
SESSION: ContextVar[Any] = ContextVar("repro.gpusim.SESSION", default=None)

#: Ambient fault injector device events are forwarded to.
FAULTS: ContextVar[Any] = ContextVar("repro.gpusim.FAULTS", default=None)

#: Ambient device-memory tracker alloc/free/transfer events go to.
MEMORY: ContextVar[Any] = ContextVar("repro.gpusim.MEMORY", default=None)

#: Ambient ``(category, origin)`` allocation tag.
MEMSCOPE: ContextVar[Any] = ContextVar("repro.gpusim.MEMSCOPE", default=None)


@contextlib.contextmanager
def installed(var: ContextVar[T], value: T) -> Iterator[T]:
    """Set ``var`` to ``value`` for the block; restore it on exit."""
    token = var.set(value)
    try:
        yield value
    finally:
        var.reset(token)
