"""entrokit: an executable verification kernel for entropy constructions.

The package reconstructs entropy from adiabatic-accessibility relations and
simulated weight processes by two independent routes (two-reference
interpolation; reservoir-mediated measurement), checks the underlying order
axioms on concrete model systems, and verifies the construction theorems
numerically, with targeted fault injection guarding the checks themselves.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Access,
    AccessibilityRelation,
    CompositeState,
    ModelSystem,
    ProcessRecord,
    State,
    StateKind,
    StateSpace,
    accessible,
    composite_state,
    states_equal,
)
from .axioms import CheckResult, CheckStatus  # noqa: F401
from .energy import WeightPolygonal, polygonal_work  # noqa: F401
from .interpolation import (  # noqa: F401
    EntropyTable,
    ReferencePair,
    affine_match,
    entropy_from_accessibility,
    find_lambda,
    sandwich_bounds,
)
from .reservoir import (  # noqa: F401
    REFERENCE_TEMPERATURE,
    Reservoir,
    ReferenceReservoir,
    StandardWeightProcessRecord,
    entropy_from_reservoir,
    reference_reservoir,
    run_irreversible_swp,
    run_reversible_swp,
    temperature_of,
)
from .catalog import (  # noqa: F401
    FinitePreorderFixture,
    ideal_gas,
    load_fixture,
    two_level_spin,
)
from .mutants import MUTATIONS, mutate_model, mutation_matrix  # noqa: F401
