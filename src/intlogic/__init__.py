"""intlogic: a many-valued predicate logic with an integral quantifier.

Exact rational truth values over finite weak probabilistic models, plus
the batch validators: integral laws, the mu-axioms, approximation systems,
proof scripts and abstract-logic closure properties.
"""

from .errors import IntlogicError
from .evaluate import Valuation, compile_formula, evaluate, evaluate_closed, value_matrix
from .integrals import (
    check_family_closure,
    check_semantic_integral_laws,
    check_similarity_lipschitz,
    integral_dirac,
    integral_dissection,
    integral_expectation,
    integral_layercake,
    set_partitions,
)
from .model import (
    FuzzySubset,
    WeakProbModel,
    expand_by_constants,
    isomorphic,
    level_set,
    model_from_json,
    model_to_json,
    mu_set,
    reduct,
    relabel_universe,
    rename,
)
from .parser import SourceSpan, VocabBuilder, close_free_names, parse_formula, print_formula
from .proofs import (
    AxiomInstance,
    Generalization,
    IntegralIntro,
    IntegralMono,
    ModusPonens,
    Premise,
    ProofLine,
    ProofScript,
    axiom_formula,
    axiom_sides,
    check_proof,
    matches_axiom,
)
from .rational import DEFAULT_GRID, format_rational, parse_rational, unit
from .reporting import Report
from .satisfaction import (
    ApproximationSystem,
    LevelConfig,
    check_elementary_substructure,
    check_weak_negation,
    default_level_config,
    hasat,
    hsat,
    hsat_qeq,
    hsat_qeq_dirac,
    theory_of,
    validate_approximation_system,
)
from .syntax import (
    And,
    Atom,
    Constant,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    Integral,
    Not,
    Or,
    QuantEq,
    StrongAnd,
    StrongOr,
    Term,
    TruthConst,
    Variable,
    Vocabulary,
    check_formula,
    congruence_axioms,
    free_vars,
    infer_vocabulary,
    mentions_eq,
    rename_symbols,
    substitute,
)
from .validate import (
    ModelGenSpec,
    check_abstract_logic_properties,
    find_countermodel,
    generate_models,
    grid_fuzzy_subsets,
    grid_measures,
    integral_law_suite,
    mu3_equality_gap,
    random_fuzzy_subset,
    validate_axiom,
)

__version__ = "0.1.0"
