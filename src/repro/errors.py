"""Exception hierarchy for the CRUSH reproduction library."""


class ReproError(Exception):
    """Base class for all library errors."""


class CircuitError(ReproError):
    """Raised for malformed circuits (dangling ports, duplicate names, ...)."""


class SimulationError(ReproError):
    """Raised when the simulator cannot make sense of the circuit."""


class DeadlockError(SimulationError):
    """Raised when the simulated circuit reaches a deadlock.

    Attributes
    ----------
    cycle:
        Simulation cycle at which the deadlock was declared.
    blocked:
        A list of human-readable descriptions of blocked units, useful for
        diagnosing the dependency cycle that caused the deadlock.
    """

    def __init__(self, message, cycle=None, blocked=None):
        super().__init__(message)
        self.cycle = cycle
        self.blocked = list(blocked or [])


class ConvergenceError(SimulationError):
    """Raised when combinational handshake signals do not reach a fixpoint.

    This indicates a combinational cycle, i.e. a graph cycle with no
    sequential element on it; buffer placement is supposed to prevent this.
    """


class CombinationalCycleError(SimulationError):
    """Raised by the codegen backend when static scheduling finds a
    combinational cycle in the handshake signal graph.

    The event-driven engine discovers the same defect only dynamically (as a
    :class:`ConvergenceError` after thousands of wasted evaluations); the
    static scheduler proves it up front and names the offending signal path.

    Attributes
    ----------
    path:
        Human-readable descriptions of the signals on the cycle, in
        dependency order.
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = list(path or [])


class LaneDivergence(Exception):
    """Internal control-flow signal of the batched (lane-parallel) engines.

    Raised *inside* a lockstep batched pass when the lanes stop agreeing on
    a control decision — a branch condition or mux/demux select whose
    per-lane values differ in effect, or a ``done`` predicate satisfied by
    some lanes but not others.  It never escapes to callers: the
    generated-loop engines catch it and *promote* the batch to mask-lane
    (MIMD) execution, the event backend re-executes every lane on a scalar
    engine; both are bit-identical by construction.  Deliberately *not* a
    :class:`ReproError` so generic error handlers cannot swallow it.

    Attributes
    ----------
    channel:
        Human-readable name of the diverging control site
        (``"<unit>.<port>"``), or ``"done"`` for a partial done-mask.
    values:
        The per-lane values that disagreed (tuple, lane index = dataset).
    cycle:
        Simulation cycle of the divergence; filled in by the catching
        engine (the raise site works on unsynced loop locals).
    """

    def __init__(self, channel=None, values=None, cycle=None):
        super().__init__(channel)
        self.channel = channel
        self.values = tuple(values) if values is not None else None
        self.cycle = cycle

    def __str__(self):
        if self.channel is None:
            return "lane divergence"
        at = f" at cycle {self.cycle}" if self.cycle is not None else ""
        vals = f": per-lane values {self.values}" if self.values else ""
        return f"lanes diverged on {self.channel}{at}{vals}"


class AnalysisError(ReproError):
    """Raised by the performance-analysis passes."""


class SharingError(ReproError):
    """Raised by the sharing passes (CRUSH and baselines)."""


class FrontendError(ReproError):
    """Raised when lowering a kernel description to a dataflow circuit."""


class LintError(ReproError):
    """Raised when static lint (or the runtime handshake sanitizer) finds
    violations and the caller asked for them to be fatal.

    Attributes
    ----------
    diagnostics:
        The :class:`repro.lint.Diagnostic` objects behind the failure
        (empty when the error wraps an internal rule fault).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])
