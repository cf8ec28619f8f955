"""Exception hierarchy shared across the package."""


class UwdaeError(Exception):
    """Base class for all package errors."""


class ParameterDimensionMismatch(UwdaeError):
    """Parameter vector shorter than a theta expression requires."""


class GridMismatch(UwdaeError):
    """Two time grids that must share a horizon do not."""


class FactorizationFailure(UwdaeError):
    """Stiffness matrix not positive definite, or a solve failed its gate."""


class DegenerateTraining(UwdaeError):
    """Training loads all vanish, or the first snapshot has zero norm."""


class OutOfDomain(UwdaeError):
    """Query time outside [0, T]."""


class ManifestError(UwdaeError):
    """System manifest missing files or failing schema checks."""
