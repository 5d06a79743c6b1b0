"""Exception types shared across the library.

Everything raised deliberately by radialcal derives from RadialCalError, so
callers (including the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class RadialCalError(Exception):
    """Base class for all radialcal failures."""


class UnknownModel(RadialCalError):
    """Model id outside the supported range 0..9."""


class UnsupportedModel(RadialCalError):
    """Operation is undefined for this model: closed-form inversion of model
    0, or any inversion of a model whose pole or fold lies among subnormal
    radii (coefficients of about 4e307 or more)."""


class SingularProfile(RadialCalError):
    """A profile is undefined at the requested radius. A rational model
    (4..9) reports that its denominator vanished there, and a polynomial one
    (0..3), whose f is nan only for a nan radius or an overflow, that its
    profile is undefined there."""


class NonPositiveDepth(RadialCalError):
    """Point lies on or behind the camera plane (Z^c below threshold)."""


class DegenerateLeadingCoefficient(RadialCalError):
    """Cubic outside the closed form's range; use solve_poly_real."""


class ZeroPolynomial(RadialCalError):
    """All polynomial coefficients are (numerically) zero."""


class NoRealCandidate(RadialCalError):
    """Inversion got a point outside the model's invertible domain."""


class BracketNotFound(NoRealCandidate):
    """Numeric inversion got a point outside the model's invertible domain."""


class DegenerateConfiguration(RadialCalError):
    """Point set unusable for homography estimation (collinear or duplicated),
    or a homography whose leading columns no rotation explains."""


class SingularConfiguration(RadialCalError):
    """Intrinsic estimation system is rank-deficient (e.g. parallel target planes)."""


class BehindCamera(RadialCalError):
    """Recovered pose places the target plane at non-positive depth."""


class ParseError(RadialCalError):
    """A data file failed to parse. Carries file, line and reason."""

    def __init__(self, file: str, line: int, reason: str):
        super().__init__(f"{file}:{line}: {reason}")
        self.file = file
        self.line = line
        self.reason = reason


class CountMismatch(RadialCalError):
    """An image file's point count differs from the model file's."""

    def __init__(self, file: str, expected: int, got: int):
        super().__init__(f"{file}: expected {expected} points, got {got}")
        self.file = file
        self.expected = expected
        self.got = got
