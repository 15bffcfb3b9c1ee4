"""Canonical reduced words, run statistics, RSK tableaux, and uncrowded
tableaux of boolean permutations.

``import boolrsk`` loads no submodule.  Each public name is imported from its
module on first access (PEP 562), so a program pays only for what it uses.
"""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "canonical": (
        "CanonicalWord",
        "canonical_from_heap",
        "canonical_from_word",
        "leftmost_letters",
        "rightmost_letters",
    ),
    "errors": ("CrowdedError", "DegreeLimitError", "DomainError", "NotBooleanError", "ParseError"),
    "permutation": (
        "Permutation",
        "Subsequence",
        "all_permutations",
        "boolean_permutations",
        "identity",
    ),
    "rsk": ("Shape", "StandardTableau", "row2_from_canonical", "rsk", "shape_of"),
    "runstat": (
        "RunStep",
        "UlamMove",
        "apply_ulam_move",
        "optimal_run_word",
        "run_statistic",
        "run_step",
        "ulam_sort",
    ),
    "uncrowded": (
        "UncrowdedCounts",
        "binary_word_from_tableau",
        "count_uncrowded",
        "count_uncrowded_range",
        "crowding_witness",
        "is_feasible_second_row",
        "is_uncrowded",
        "is_uncrowded_tableau",
        "odd_run_words",
        "realize_leftmost_letters",
        "tableau_from_binary_word",
    ),
    "words": (
        "BinaryWord",
        "Heap",
        "RunWord",
        "Word",
        "all_reduced_words",
        "evaluate",
        "heap_of",
        "linear_extensions",
        "run_decomposition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules that are public names themselves; ``rsk`` is the function.
_SUBMODULES = ("canonical", "errors", "permutation", "runstat", "uncrowded", "words")

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """The package's module type: importing a submodule binds it as a package
    attribute, and this keeps that binding off an exported name of the same
    spelling, so ``boolrsk.rsk`` stays the function after ``import boolrsk.rsk``."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
