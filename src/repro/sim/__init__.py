"""Cycle-accurate handshake simulation (the ModelSim substitute).

Two interchangeable backends simulate the same two-phase handshake
semantics:

``"event"``
    :class:`Engine` — the event-driven reference implementation: a dirty
    queue drives ``eval_comb`` re-evaluation to a per-cycle fixpoint.
    The oracle every other engine is tested against, and the generic
    path for circuits with non-catalogue units, which codegen refuses.

``"codegen"``
    :class:`CodegenEngine` — levelizes the circuit once into a static
    occurrence schedule (:mod:`repro.sim.signal_graph`) and emits
    specialized Python source for the whole circuit from it (unit logic
    inlined over signal variables; no closure calls or dict dispatch on
    the hot path), compiled in bounded pieces that run as generators
    sharing one set of cells, and cached on disk under a
    content-addressed key.  Bit-identical to the event engine
    (differentially tested on all goldens and under hypothesis
    lockstep) and the fastest, so it is the default.  A
    :class:`SimProfile` selects its instrumented (profiled) source
    variant.

Select a backend with :func:`create_engine`, the ``--sim-backend`` CLI
flag, or the ``REPRO_SIM_BACKEND`` environment variable.  With
``lanes=B`` the same call returns the lane-parallel engine,
:class:`~repro.sim.batched.BatchedEngine`, which runs ``B`` input sets
per pass over lane tuples; the event backend, which has no generated
loop, refuses ``lanes``.  Lanes are only a width: callers that batch
seeds (:func:`repro.frontend.simulate_kernel_batch`, ``repro run``/``sweep
--lanes``) run an event batch, any one-seed batch and any batch with the
sanitizer armed seed by seed on the scalar engines.  Every engine reports a deadlock or an exhausted
cycle budget through one function,
:func:`~repro.sim.engine.raise_stopped`.

All backends accept ``sanitize=True`` (or ``REPRO_SIM_SANITIZE=1``) to
run the opt-in handshake-protocol sanitizer
(:class:`~repro.sim.sanitize.HandshakeSanitizer`): every channel is
checked each cycle for the latency-insensitive contract — valid held
until accepted, data stable while pending, no token dropped or
duplicated — with violations reported as ``repro.lint`` diagnostics.
"""

import os

from ..errors import SimulationError
from .batched import BatchedEngine
from .codegen import CodegenEngine
from .engine import DEFAULT_DEADLOCK_WINDOW, BaseEngine, Engine
from .memory import Memory
from .profile import SimProfile
from .sanitize import SANITIZE_ENV, HandshakeSanitizer, sanitize_default
from .trace import Trace

#: Available simulation backends, by name.
BACKENDS = {
    "event": Engine,
    "codegen": CodegenEngine,
}

#: Backend used when none is requested explicitly.  Overridable through
#: the environment so a whole test run can be pinned to one backend.
DEFAULT_BACKEND = os.environ.get("REPRO_SIM_BACKEND", "codegen")


def create_engine(circuit, backend=None, lanes=None, memories=None,
                  **kwargs):
    """Instantiate the requested simulation backend for ``circuit``.

    ``backend`` is ``"event"``, ``"codegen"`` or ``None``
    (use :data:`DEFAULT_BACKEND`); remaining keyword arguments
    (``memory``, ``trace``, ``deadlock_window``, ``profile``,
    ``sanitize``) are forwarded to the engine constructor.

    ``lanes`` returns the lane-parallel :class:`BatchedEngine` instead:
    it evaluates ``lanes`` independent input sets per pass and exposes
    ``run_lanes`` / ``sink_count`` / ``lane_fires`` instead of the scalar
    ``run``.
    ``memories`` then supplies one :class:`Memory` per lane (instead of
    the scalar ``memory=`` argument).  The event backend has no
    lane-parallel loop and raises;
    :func:`repro.frontend.simulate_kernel_batch` runs an event batch
    seed by seed.
    """
    name = backend or DEFAULT_BACKEND
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {name!r}; "
            f"choose from {sorted(BACKENDS)}"
        ) from None
    if lanes is not None:
        if name == "event":
            raise SimulationError(
                "the event backend has no lane-parallel loop: pick "
                "backend 'codegen' for lanes=, or let "
                "simulate_kernel_batch run the event batch seed by seed"
            )
        if kwargs.get("memory") is not None:
            raise SimulationError(
                "batched engines take one memory per lane via memories=[...],"
                " not the scalar memory= argument"
            )
        kwargs.pop("memory", None)
        return BatchedEngine(circuit, lanes, memories=memories, **kwargs)
    if memories is not None:
        raise SimulationError(
            "memories= is only meaningful with lanes= (batched mode); "
            "scalar engines take a single memory="
        )
    return cls(circuit, **kwargs)


__all__ = [
    "BACKENDS",
    "BaseEngine",
    "BatchedEngine",
    "CodegenEngine",
    "DEFAULT_BACKEND",
    "DEFAULT_DEADLOCK_WINDOW",
    "Engine",
    "HandshakeSanitizer",
    "Memory",
    "SANITIZE_ENV",
    "SimProfile",
    "Trace",
    "create_engine",
    "sanitize_default",
]
