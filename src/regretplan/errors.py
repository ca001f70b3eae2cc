"""Exception hierarchy shared by all regretplan modules."""


class RegretPlanError(Exception):
    """Base class for every domain error raised by this package."""


# --- formula / automaton ---

class FormulaSyntaxError(RegretPlanError):
    """Task text could not be tokenized or parsed."""


class NotCoSafe(RegretPlanError):
    """Formula violates the co-safe fragment (negation above a non-atom,
    or an always/release operator)."""


class AtomNotDeclared(RegretPlanError):
    """Formula mentions an atom missing from the declared atom set."""


class AlphabetTooLarge(RegretPlanError):
    """Declared atom set exceeds the explicit-alphabet cap."""


# --- models ---

class AtomMismatch(RegretPlanError):
    """Transition-system atoms are not covered by the automaton alphabet."""


class NegativeWeight(RegretPlanError):
    """Shortest-path search received a negative edge weight."""


class TooManyUnknowns(RegretPlanError):
    """Unknown-state count exceeds the enumeration cap."""


class IncompatibleEnvironment(RegretPlanError):
    """Concrete environment is not compatible with the possible-world model."""


# --- arena / solving ---

class ArenaTooLarge(RegretPlanError):
    """Game arena grew past the configured vertex cap."""


class UnrealizableTask(RegretPlanError):
    """No strategy can guarantee the task in every compatible environment."""


class StuckNoPath(RegretPlanError):
    """Optimistic replanning ran out of candidate paths before finishing."""


class StrategyIncomplete(RegretPlanError):
    """Execution reached a configuration the strategy has no decision for."""


class NonTermination(RegretPlanError):
    """Execution exceeded the step cap without stopping."""


class SolverInvariantError(RegretPlanError):
    """An internal solver invariant failed; indicates a bug, not bad input."""


class SearchSpaceTooLarge(RegretPlanError):
    """Brute-force enumeration would exceed its configured caps."""


# --- generation / ingestion ---

class GenerationFailed(RegretPlanError):
    """Every random draw had an unknown state with no spare successor to
    make optional."""


class MalformedGrid(RegretPlanError):
    """ASCII grid map has inconsistent geometry."""


class UnknownGlyph(RegretPlanError):
    """ASCII grid map contains an unrecognized character."""
