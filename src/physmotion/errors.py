"""Exception types shared across the package, and the number check that
raises one."""

import math


class PhysmotionError(Exception):
    """Base class for all package errors."""


class InvalidTransformError(PhysmotionError):
    """Rotation input is not orthonormal with determinant +1."""


class InvalidInputError(PhysmotionError):
    """Input violates a documented precondition (NaN, bad shape, ...)."""


class EmptySceneError(PhysmotionError):
    """Scene mesh has no vertices or faces."""


class InvalidStateError(PhysmotionError):
    """Generalized state carries non-finite values."""


class SolverError(PhysmotionError):
    """QP solver failed to converge; message carries iteration diagnostics."""


class QPInfeasibleError(SolverError):
    """QP constraint set admits no solution."""


class UndefinedMetricError(PhysmotionError):
    """Metric is undefined for this input (too short, zero displacement)."""


class ConfigError(PhysmotionError):
    """Run configuration is inconsistent or references missing files."""


class MotionFormatError(PhysmotionError):
    """Motion or trajectory file failed to parse or validate."""


_BOUNDS = {"": lambda v: True, ">= 0": lambda v: v >= 0.0, "> 0": lambda v: v > 0.0}


def check_number(name: str, value: float, bound: str = "") -> None:
    """Raise InvalidInputError unless value is finite and within bound ("",
    ">= 0" or "> 0"). A NaN fails every comparison, so a bound alone would
    let it through."""
    if not (math.isfinite(value) and _BOUNDS[bound](value)):
        raise InvalidInputError(f"{name} must be finite{' and ' + bound if bound else ''}, not {value!r}")
