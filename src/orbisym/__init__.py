"""orbisym: maximally symmetric bordered surfaces in the 3-sphere.

Subpackage-free library layout:

- words:        freely reduced words, parsing, canonical printing
- presentation: presentations, the file format, the two parametric families
- coset:        Todd-Coxeter coset enumeration (HLT)
- permgroup:    permutations, BFS element closure (a test oracle)
- z2hom:        homomorphisms onto Z2 via GF(2) elimination
- surface:      surface invariants, classification, maximal orders
- scenario:     boundary-pattern evaluation (edge, dashed-arc, families)
- catalog:      the classification table, runnable cases, verification
- cli:          the orbisym command
"""

from .coset import (
    CosetTable,
    EnumerationLimits,
    coset_words,
    enumerate_cosets,
    group_order,
    subgroup_index,
    table_to_tsv,
    trace_word,
    verify_coset_table,
)
from .catalog import (
    CaseReport,
    CatalogEntry,
    CheckResult,
    TableRow,
    builtin_cases,
    builtin_table,
    find_case,
    run_case,
    verify_table,
)
from .errors import (
    ClassificationError,
    DuplicateGenerator,
    EmptyRelator,
    InvalidParameter,
    LimitExceeded,
    MismatchError,
    NegativeGenus,
    OrbisymError,
    ParityError,
    UnknownCase,
    UnknownGenerator,
    WordSyntaxError,
)
from .presentation import (
    Presentation,
    dump_presentation,
    family_15e,
    family_19,
    load_presentation,
    load_presentation_with_aliases,
)
from .scenario import (
    AlwaysOrientable,
    BoundaryPattern,
    DashedArcScenario,
    EdgeScenario,
    PatternOutcome,
    ScenarioResult,
    Z2HomRule,
    evaluate_dashed_arc_scenario,
    evaluate_edge_scenario,
)
from .surface import (
    MaxOrderClass,
    SurfaceType,
    algebraic_genus,
    classify_surface,
    m_alpha,
    surface_from_str,
)
from .words import (
    Word,
    conjugate,
    exponent_vector_mod2,
    format_word,
    parse_word,
)
from .z2hom import Z2Constraint, Z2HomResult, solve_hom_to_z2

__version__ = "0.1.0"
