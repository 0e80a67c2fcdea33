"""Exception hierarchy shared across the compiler pipeline.  Each class
declares the exit code the command line ends with when it is raised."""


class DiscocircError(Exception):
    """Base class for all pipeline errors; exit 1 is an internal error."""
    exit_code = 1


class FormatError(DiscocircError):
    """Malformed interchange or lexicon input."""
    exit_code = 2

    def __init__(self, message, location=None):
        self.message, self.location = message, location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class InvalidDiagram(DiscocircError):
    """A pregroup diagram failed validation (illegal or crossing cups)."""
    exit_code = 2


class NoParse(DiscocircError):
    """The mini parser found no type assignment reducing to a sentence."""
    exit_code = 3


class ChainMismatch(DiscocircError):
    """A mention references a coreference chain that does not exist."""


class UnexpandedFrame(DiscocircError):
    """A frame survived into a stage that requires frame-free diagrams."""


class CapExceeded(DiscocircError):
    """A circuit exceeds the simulator's qubit cap."""
    exit_code = 4


class ZeroNorm(DiscocircError):
    """Postselection annihilated the state (success probability ~ 0)."""
    exit_code = 5


class UnboundSymbol(DiscocircError):
    """A circuit symbol has no value bound at simulation time."""
    exit_code = 5
