"""Navigational homomorphisms between regex-labeled graph patterns.

The library decides whether one pattern maps into another so that every
arc is witnessed by a walk whose label language fits inside the arc's
expression, checks cores, and ships the polynomial special cases for
the one-symbol {a, a+} fragment next to the general solver.
"""

from .errors import (
    BudgetExceededError,
    CapExceededError,
    NotAcyclicError,
    NotBalancedError,
    PreconditionError,
    RegexParseError,
    RgpSchemaError,
    SearchBudget,
)
from .languages import (
    InclusionReport,
    TruncationReport,
    concat_inclusion,
    language_inclusion,
    truncated_words,
    truncation_equivalence_check,
    universality,
)
from .nhom import (
    NCoreVerdict,
    NHomomorphism,
    compose_n_hom,
    is_n_core,
    n_hom,
    verify_n_hom,
)
from .regexes import (
    Concat,
    RegexAst,
    Star,
    Sym,
    Union,
    parse_regex,
    plus,
    serialize_regex,
    sigma_star,
)
from .rgp import (
    Arc,
    LabelClass,
    LabelKind,
    Rgp,
    directed_path_order,
    export_dot,
    is_graph_database,
    label_class,
    make_rgp,
    parse_rgp,
    serialize_rgp,
)
from .solver import solve
from .testkit import (
    GadgetPair,
    OracleBudget,
    all_a_lift,
    gadget_inclusion,
    gadget_ncore,
    gadget_universality,
    oracle_n_hom,
    random_regex,
    random_rgp,
    random_unary_pattern,
)
from .unary import (
    CollapsedPattern,
    MajorityTable,
    SchedulingInstance,
    ScheduleResult,
    TemplateClass,
    TemplateKind,
    TwoLabeledDigraph,
    Violation,
    audit_undirected_ncore,
    classify_undirected_template,
    collapse_levels,
    d_of_q,
    hom_two_labeled,
    is_majority_polymorphism,
    median_polymorphism,
    path_consistency_solve,
    prune_plus_arcs,
    reduce_to_hom,
    solve_path_template,
    solve_scheduling,
    solve_undirected,
    to_scheduling,
)
from .walks import (
    WalkRelation, find_walk, relation_for_label, walk_length_bound, witness_walks,
)

__version__ = "0.1.0"
