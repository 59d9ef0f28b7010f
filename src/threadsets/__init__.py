"""Combinatorial engine for iterated localizations over a finite prime poset.

Tuples of prime subsets name compositions of localizations; the package
reduces them to canonical form, computes their thread-set families,
classifies them into the proved normal forms on low-dimensional spectra
and verifies the governing identities exhaustively on small posets.
"""

from .classify import (PAYLOAD_KEYS, ZERO, NormalForm, classify_dim0,
                       classify_dim1, classify_dim2, classify_family,
                       form_instances, normal_form, shape_of)
from .families import (EMPTY_FAMILY, ChainFamily, chains_meeting, compose,
                       family, principal, singleton_tuple, thread_sets)
from .poset import Poset, bits, build_poset
from .tuples import (ZERO_TUPLE, canonical, collapse, is_collapsed,
                     is_concatenated, is_downward_concatenated,
                     is_upward_concatenated, prune_downward,
                     prune_to_threads, prune_upward, restrict, threads)
from .verify import (Bounds, VerificationReport, all_posets, default_corpus,
                     run_suite, verify_classifier, verify_conjecture,
                     verify_operator_laws, verify_thread_monoid)

__version__ = "0.1.0"

__all__ = [
    "Poset", "build_poset", "bits",
    "prune_upward", "prune_downward", "prune_to_threads", "collapse",
    "canonical", "restrict",
    "is_upward_concatenated", "is_downward_concatenated", "is_concatenated",
    "is_collapsed", "ZERO_TUPLE",
    "ChainFamily", "EMPTY_FAMILY", "threads", "thread_sets",
    "chains_meeting", "principal", "compose", "family", "singleton_tuple",
    "NormalForm", "ZERO", "PAYLOAD_KEYS", "shape_of",
    "normal_form", "classify_family", "classify_dim0",
    "classify_dim1", "classify_dim2", "form_instances",
    "Bounds", "VerificationReport", "verify_operator_laws",
    "verify_thread_monoid", "verify_conjecture", "verify_classifier",
    "run_suite", "all_posets", "default_corpus",
]
