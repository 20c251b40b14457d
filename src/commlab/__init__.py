"""commlab: a desk-scale lab for communication protocols as rectangle covers.

Covers of finite grids by combinatorial boxes, transcript selectors, an exact
Shannon-entropy engine over explicit joint distributions, margin checkers for
the covering/transcript/information-cost inequalities, AM branch analysis,
and classical lower bounds (exact monochromatic cover number, fooling sets,
matrix rank).
"""

import importlib

# public name -> the submodule that defines it; each submodule is imported
# on first use, so a command loads only the modules it needs
_EXPORTS = {
    "core": (
        "Box", "Cover", "DomainShape", "Protocol", "ProtocolTree",
        "TranscriptSelector", "TreeLeaf", "TreeSplit", "box", "compile_tree",
        "select_transcript", "selector_labels", "thickness_table",
    ),
    "errors": (
        "CommlabError", "DegenerateInstanceError", "GenerationFailureError",
        "InvalidInputError", "InvalidSelectorError", "InvalidTreeError",
        "SchemaError", "SolverTimeoutError", "UncoveredCellError",
    ),
    "functions": (
        "AMProtocol", "ColoredFunction", "ErrorProtocol", "Relation",
        "approx_xor_relation", "box_color_labels", "constant_function", "eq_function",
        "error_protocol_from_cover", "gen_cover", "gen_function", "matvec_function",
        "monochromatic_color", "parity_tightness_protocol", "random_bounded_cover",
        "random_function", "random_tree", "trivial_merlin_am", "trivial_merlin_cover",
        "windmill_cover", "xor_function",
    ),
    "info": (
        "InfoProfile", "JointDistribution", "binary_entropy", "build_profile",
        "pairwise_sum", "triple_information",
    ),
    "bounds": (
        "BoundSummary", "MonochromaticCatalog", "bound_summary",
        "comm_matrix_rank", "cover_number", "enumerate_maximal_monochromatic",
        "fooling_set",
    ),
    "verify": (
        "AMReport", "SuiteConfig", "am_analyze",
        "batch_experiment", "check_ic", "check_main_inequality",
        "check_multiparty", "check_transcript_bound",
    ),
    "serialize": (
        "AMBundle", "InstanceBundle", "load_am", "load_instance", "save_am",
        "save_instance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
