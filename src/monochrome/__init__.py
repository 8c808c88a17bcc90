"""Exact verification and search for monochromatic product/shift
configurations {x*y} u {x + f(y) : f in F} over finite windows of Z,
Z[i] and GF(q)[x], with witness-based largeness checks, desk-scale
Hales-Jewett machinery, avoidance-coloring search with DIMACS export,
and uniqueness-of-finite-products tooling."""

from .colorings import (
    Coloring,
    ColoringFormatError,
    dumps_coloring,
    load_coloring,
    loads_coloring,
    random_coloring,
    store_coloring,
)
from .errors import InternalError
from .halesjewett import (
    DEFAULT_WORK_CAP,
    HjResult,
    SigmaCheck,
    SigmaPoint,
    VariableWord,
    WILDCARD,
    WildcardSet,
    Word,
    coefficient_alphabet,
    find_avoiding_coloring,
    flat_index,
    hj_number_exhaustive,
    line_of,
    multi_indices,
    multiplicative_assignment,
    sigma_embed,
    sigma_translate,
    sigma_trials,
    substitute,
    variable_words,
    verify_sigma_line_identity,
    wildcard_set,
)
from .largeness import (
    FS_LENGTH_CAP,
    FSSet,
    PSWitness,
    dilate_set,
    dilation_transport,
    divide_set,
    division_transport,
    finite_sums,
    ipstar_refute,
    ps_witness_search,
    syndetic_check,
    validate_ps_witness,
)
from .patterns import (
    PatternInstance,
    PatternVerdict,
    PolyFamily,
    ScanConstraints,
    Witness,
    ZeroConstPoly,
    abundance_profile,
    eval_poly,
    format_family,
    format_poly,
    make_family,
    parse_family,
    parse_poly,
    pattern_color,
    pattern_elements,
    witness_scan,
    zero_const_poly,
)
from .prng import mix64, stream_below, stream_value
from .rings import (
    RingElement,
    RingSpec,
    Window,
    WindowParams,
    enumerate_window,
    exact_divide,
    format_element,
    format_ring_spec,
    format_window_params,
    parse_element,
    parse_element_set,
    parse_ring_spec,
    parse_window_params,
)
from .search import (
    AvoidanceInstance,
    AvoidanceResult,
    AvoidanceStatus,
    CnfDocument,
    MoreiraResult,
    avoidance_backtrack,
    build_instance,
    cnf_export,
    cnf_model_decode,
    cnf_var,
    coloring_to_model,
    dual_engine_check,
    moreira_number,
    parse_dimacs,
    parse_model,
    to_dimacs,
)
from .ufp import (
    GROW_CAP,
    UfpSequence,
    UfpViolation,
    exclusion_set,
    extend_ufp,
    grow_ufp,
    has_ufp,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
