"""Exception hierarchy shared by all submodules.

Each error's exit code on the command line follows from its class.  An
``InputError`` says the input was unusable, and ``segal`` exits 2 with
``error:``; any other ``SegalError`` says a computation ran and its check
failed, and ``segal`` exits 1 with ``check failed:``.
"""


class SegalError(Exception):
    """Base class for every error raised by this package."""


class InputError(SegalError):
    """Base class for the errors that mean the input was unusable."""


class SignatureMismatch(SegalError):
    """Outgoing and incoming boundary signatures disagree."""


class InternalInconsistency(SegalError):
    """A derived quantity (genus, Euler characteristic) came out impossible."""


class NotOrientationPreserving(InputError):
    """A tangent map or chart sample has |f_z| <= |f_zbar| somewhere."""


class OutOfDisc(InputError):
    """A dilatation value lies outside the open unit disc (or too close to it)."""


class GridMismatch(InputError):
    """Two sampled fields do not live on compatible grids."""


class DegenerateFrame(InputError):
    """Frame vector unusable for building an almost complex structure."""


class InvalidACS(SegalError):
    """Matrix fails J^2 = -Id or the orientation requirement."""


class NonMonotone(InputError):
    """Sample list expected to be strictly increasing is not."""


class InvalidPhi(InputError):
    """Circle map fails a structural requirement (winding, derivative sign,
    or the half-angle condition on the upper semicircle)."""


class JacobianDegenerate(SegalError):
    """A sampled map has a non-positive Jacobian at some node."""


class DomainError(InputError):
    """Argument outside the domain of definition."""


class DegenerateQuad(InputError):
    """Quadrilateral vertices coincide or are otherwise unusable."""


class QuadratureFailure(SegalError):
    """Adaptive integration failed to reach its tolerance."""


class OutOfWindow(InputError):
    """Point outside the sampled window of a boundary strip."""


class CurveEscape(SegalError):
    """An integral curve left the strip before reaching the requested height."""


class InversionFailure(SegalError):
    """Coordinate grid could not be inverted (grid folds or Newton stalls)."""
