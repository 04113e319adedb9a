"""Exception types shared across the package."""


class PseudovisError(Exception):
    """Base class for all package-specific errors."""


class GraphError(PseudovisError):
    """Invalid graph input."""


class MissingCycleEdge(GraphError):
    """A boundary-cycle edge {i, i+1} is absent from the edge list."""


class SelfLoop(GraphError):
    """An edge joins a vertex to itself."""


class IndexOutOfRange(GraphError):
    """A vertex index falls outside [0, n)."""


class MalformedInput(PseudovisError):
    """A JSON input has the wrong shape or a value of the wrong type."""


class NotInvisible(PseudovisError):
    """Operation requires an invisible pair but got a visible or degenerate one."""


class UnknownPair(PseudovisError):
    """Assignment entry refers to a pair that is not an invisible pair of the graph."""


class NotACandidate(PseudovisError):
    """Assigned blocker is not in the pair's candidate set."""


class InvalidAssignment(PseudovisError):
    """An entry's blocker is its own viewer or target (build_ve)."""


class VertexOutsideInterval(PseudovisError):
    """Vertex is not strictly inside the given boundary interval."""


class DegenerateInput(PseudovisError):
    """Polygon input violates an invariant (non-simple, collinear triple, ...)."""


class OracleContradiction(PseudovisError):
    """The geometric oracle reached a state its invariants rule out; indicates a bug."""


class GenerationBudgetExceeded(PseudovisError):
    """Random polygon generation hit its resampling cap."""


class SearchBudgetExceeded(PseudovisError):
    """Recognition search exceeded its node budget; the verdict is indeterminate."""
