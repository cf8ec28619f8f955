"""Exception hierarchy shared across the package."""


class UwdaeError(Exception):
    """Base class for all package errors."""


class IrregularPencil(UwdaeError):
    """All probe shifts lambda*E - A were numerically singular."""


class InconsistentExtension(UwdaeError):
    """Initial-condition extension has the wrong dimension."""


class ParameterDimensionMismatch(UwdaeError):
    """Parameter vector shorter than a theta expression requires."""


class GridMismatch(UwdaeError):
    """Two time grids that must share a horizon do not."""


class SingularAssembly(UwdaeError):
    """Assembled stiffness matrix is not symmetric."""


class FactorizationFailure(UwdaeError):
    """Stiffness matrix not positive definite, or a solve failed its gate."""


class StepSingular(UwdaeError):
    """Implicit Euler step matrix (E - dt*A) is singular."""


class DegenerateTraining(UwdaeError):
    """Every training parameter has zero error estimate at N=1."""


class OutOfDomain(UwdaeError):
    """Query time outside [0, T]."""


class ManifestError(UwdaeError):
    """System manifest missing files or failing schema checks."""
