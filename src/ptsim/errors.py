"""Exception hierarchy shared across the package.

Exit-code buckets used by the CLI:
  2 parse, 3 dimension/type, 4 domain precondition, 5 numerical failure.
"""


class PTSimError(Exception):
    """Base class for all library errors; ``exit_code`` is the CLI's bucket."""

    exit_code = 4


# -- dimension / type errors (CLI exit 3) -----------------------------------

class NonSquareError(PTSimError):
    exit_code = 3


class DimensionMismatchError(PTSimError):
    exit_code = 3


class WrongDimensionError(PTSimError):
    exit_code = 3


# -- domain precondition errors (CLI exit 4) --------------------------------

class NotHermitianError(PTSimError):
    pass


class NotPSDError(PTSimError):
    pass


class NotPositiveDefiniteError(PTSimError):
    pass


class DependentInputError(PTSimError):
    pass


class NotInvolutoryPError(PTSimError):
    pass


class NotInvolutoryTError(PTSimError):
    pass


class NonCommutingError(PTSimError):
    pass


class NotUnbrokenError(PTSimError):
    pass


class NotIntertwiningError(PTSimError):
    pass


class EtaNotGreaterThanIError(PTSimError):
    pass


class SuppliedH1NotHermitianError(PTSimError):
    pass


class ZeroVectorError(PTSimError):
    pass


class NotInSubspaceError(PTSimError):
    pass


class ZeroMapError(PTSimError):
    pass


class NotProjectionError(PTSimError):
    pass


class NotNormalizedError(PTSimError):
    pass


class ZeroFinalStateError(PTSimError):
    pass


# -- numerical failures (CLI exit 5) -----------------------------------------

class NumericalFailureError(PTSimError):
    exit_code = 5


# -- I/O (CLI exit 2) ---------------------------------------------------------

class ParseError(PTSimError):
    exit_code = 2
