"""Canonical reduced words, run statistics, RSK tableaux, and uncrowded
tableaux of boolean permutations."""

from .canonical import (
    CanonicalWord,
    canonical_from_heap,
    canonical_from_word,
    leftmost_letters,
    rightmost_letters,
)
from .errors import (
    CrowdedError,
    DegreeLimitError,
    DomainError,
    NotBooleanError,
    ParseError,
)
from .permutation import (
    Permutation,
    Subsequence,
    all_permutations,
    boolean_permutations,
    from_one_line,
    identity,
)
from .rsk import Shape, StandardTableau, partial_insertion, row2_from_canonical, rsk, shape_of
from .runstat import (
    RunStep,
    UlamMove,
    apply_ulam_move,
    optimal_run_word,
    run_statistic,
    run_step,
    ulam_sort,
)
from .uncrowded import (
    BinaryWord,
    UncrowdedCounts,
    binary_word_from_tableau,
    count_uncrowded,
    count_uncrowded_range,
    crowding_witness,
    is_feasible_second_row,
    is_uncrowded,
    is_uncrowded_tableau,
    odd_run_words,
    realize_leftmost_letters,
    tableau_from_binary_word,
)
from .words import (
    Heap,
    RunWord,
    Word,
    all_reduced_words,
    commutation_class,
    evaluate,
    heap_of,
    is_reduced,
    linear_extensions,
    reduced_word_of,
    run_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
