"""Exception taxonomy shared across the engine.

Every failure surfaced to callers is a subclass of SupervisorError so that
the CLI can map error families to stable exit codes.
"""

from __future__ import annotations


class SupervisorError(Exception):
    """Base class for all engine errors."""


# --- state / serialization ---------------------------------------------------

class SizeExceeded(SupervisorError):
    """Inline attachment payload exceeds the configured serialization limit."""


class CorruptState(SupervisorError):
    """Serialized state is truncated or structurally invalid."""


class VersionMismatch(CorruptState):
    """Serialized state carries an unknown version tag."""


# --- tool registry -----------------------------------------------------------

class DuplicateTool(SupervisorError):
    """A tool with the same name is already registered."""


class InvalidSpec(SupervisorError):
    """Tool specification violates its invariants (e.g. inverted latency bounds)."""


class UnknownTool(SupervisorError):
    """ToolId not present in the registry."""


class NoCapableTool(SupervisorError):
    """No registered tool covers the requirement.

    Carries the unmet requirement for diagnostics.
    """

    def __init__(self, message: str, requirement=None):
        super().__init__(message)
        self.requirement = requirement


# --- routing -----------------------------------------------------------------

class BudgetExceeded(SupervisorError):
    """Accumulating this invocation would push the session past its budget cap."""


# --- memory ------------------------------------------------------------------

class DimensionMismatch(SupervisorError):
    """Record embedding dimension differs from the store's configured dimension."""


class EmbeddingUnavailable(SupervisorError):
    """The embedding backend failed; caller may retry or skip storage."""


# --- scheduler / couplet -----------------------------------------------------

class UnplannableQuery(SupervisorError):
    """Graph construction failed because no tool covers a required step."""

    def __init__(self, message: str, requirement=None):
        super().__init__(message)
        self.requirement = requirement


class PipelineFailed(SupervisorError):
    """A node failed with no viable repair; carries the execution's trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


class NodeFailure(SupervisorError):
    """A backend invocation failed; handled by the scheduler's repair path."""


class AmbiguousIntent(SupervisorError):
    """Intent parsing could not produce a schema-valid perceptual task."""

    def __init__(self, message: str, missing: str = ""):
        super().__init__(message)
        self.missing = missing


class EvidenceTypeError(SupervisorError):
    """Raw payload kind does not match the task kind (programming error surface)."""


# --- harness -----------------------------------------------------------------

class IncomparableReports(SupervisorError):
    """Two metrics reports were produced over different workloads."""


class WorkloadSpecError(SupervisorError):
    """Workload spec file violates its schema; names the offending field."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(message)
        self.field_path = field_path


# --- command line ------------------------------------------------------------

class InvalidInput(SupervisorError):
    """A config file, catalog, fixtures file, workload or option value is unusable."""


class UnknownSession(SupervisorError):
    """No saved session under the given id."""
