"""Exception types shared across the package."""


class TypeMismatchError(TypeError):
    """An arity or base-type rule was violated when building or running a term."""


class CompositionError(Exception):
    """A named composition's well-formedness condition failed (clashing variables)."""


class PreconditionError(Exception):
    """An algorithm precondition (io-distinctness, loop-freedom, ...) failed."""


class FixpointDivergence(RuntimeError):
    """Kleene iteration on values did not stabilize within its cap."""


class ParseError(ValueError):
    """Input text or JSON could not be parsed."""


class SchemaError(ValueError):
    """A diagram document violates the documented schema."""


class DanglingPortError(SchemaError):
    """A wire or binding references a port that does not exist or is unconnected."""


class CycleError(Exception):
    """The subsystem reference graph is cyclic."""
