"""nerode: a workbench for residual automata and syntactic monoids.

Exact constructions for rational languages (regex or DFA presentations) and
finite-depth truncations for arbitrary oracle-given languages: bounded
Myhill-Nerode quotients, orbit-closure statistics, transformation monoids
with recognizing subsets, verified minimization morphisms, and the unary
shift example with its dense-orbit sequence.
"""

from .alphabet import Alphabet, Word
from .dfa import (
    Dfa,
    access_words,
    canonical_form,
    dfa_isomorphic,
    is_strongly_connected,
    language_mismatch,
    minimize_dfa,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DepthExhaustedError,
    IllDefinedHomError,
    InputError,
    NerodeError,
    RecognitionError,
    RecognitionMismatchError,
    RegexParseError,
    ResourceError,
    SpecFileError,
    TrimnessError,
    UnsupportedPresentationError,
)
from .language import (
    DfaSpec,
    LanguageSpec,
    OracleSpec,
    RegexSpec,
    builtin_language,
    builtin_names,
    champernowne_bit,
    characteristic_table,
    membership,
    minimal_dfa,
    parse_spec_file,
    presented_dfa,
    residual_bits,
    serialize_spec,
)
from .monoid import (
    ContextClassTable,
    FiniteMonoid,
    GrowthProfile,
    Transformation,
    compose,
    context_classes,
    growth_profile,
    idempotent_power,
    monoid_from_generators,
    syntactic_monoid,
    transition_monoid,
)
from .recognition import (
    AutomatonMorphism,
    MonoidHom,
    Report,
    Violation,
    check_morphism,
    induced_hom,
    minimal_monoid_hom,
    minimization_morphism,
    verify_recognition,
)
from .regex import compile_regex
from .serialize import export_dot, export_json, write_json
from .shift import (
    BitStream,
    DensityReport,
    champernowne_prefix,
    champernowne_stream,
    density_check,
    unary_residual_count,
)
from .topology import (
    ApproxAutomaton,
    ClosurePattern,
    ClosureReport,
    StabilizationVerdict,
    Transition,
    TruncatedPoint,
    nerode_classes,
    orbit_closure_report,
    point_transition,
    residual_truncation,
    stabilization_check,
)

__version__ = "0.1.0"
