"""Exception taxonomy for the dense-to-MoE surgery toolkit.

Every error raised by the library derives from D2mError so callers (and the
CLI) can distinguish toolkit failures from programming errors.
"""


class D2mError(Exception):
    """Base class for all toolkit errors."""


# --- validation of domain types ---------------------------------------------

class InvalidShape(D2mError):
    """A model/MoE shape violates one of its invariants."""


class InvalidPlan(D2mError):
    """A fusion plan violates coverage, disjointness, or contiguity."""


class InvalidTrace(D2mError):
    """An activation trace has inconsistent or degenerate dimensions."""


class InvalidConfig(D2mError):
    """A configuration document is malformed or carries unknown keys."""


# --- binary format I/O -------------------------------------------------------

class IoFailure(D2mError):
    """The underlying byte sink/source failed."""


class FormatError(D2mError):
    """A serialized stream does not conform to its format."""


class BadMagic(FormatError):
    """Stream does not start with the expected magic bytes."""


class VersionMismatch(FormatError):
    """Stream uses an unsupported format version."""


class TruncatedPayload(FormatError):
    """Stream ended before the header-declared payload was complete."""


class NonFiniteValue(FormatError):
    """Deserialized data contains NaN or infinity."""


class DimensionMismatch(D2mError):
    """A tensor's or a load profile's dimensions disagree with what is
    expected, or an unexpected tensor is present."""


class MissingTensor(D2mError):
    """A tensor required by the model shape is absent."""


# --- numerics ----------------------------------------------------------------

class NonFiniteActivation(D2mError):
    """A forward pass produced NaN or infinity."""


class NonFiniteGradient(D2mError):
    """A gradient computation produced NaN or infinity."""


class DivergenceDetected(D2mError):
    """Training loss became non-finite."""


class ZeroVector(D2mError):
    """A token row with zero norm where a direction/denominator is needed."""


# --- argument / state errors -------------------------------------------------

class OutOfRange(D2mError):
    """A layer, offset, block size or other argument is outside its valid
    range, or a list argument is empty."""


class EmptyRecord(D2mError):
    """An aggregate received nothing to aggregate: no routing records, tokens,
    layer profiles or candidates."""


class DepthUnreachable(D2mError):
    """No sweep cell achieves the requested retained depth."""


class PlanModelMismatch(D2mError):
    """A fusion plan is incompatible with the model it is applied to."""


class VerificationFailure(D2mError):
    """A fused model failed one of the post-surgery checks."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedTopology(D2mError):
    """The toy trainer only supports models whose MoE layer is last."""


class NonPositiveLatency(D2mError):
    """A latency input to the reward must be strictly positive."""


class DegenerateCalibration(D2mError):
    """Penalty-exponent calibration needs a latency factor above one."""
