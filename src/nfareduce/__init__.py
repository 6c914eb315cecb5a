"""Approximate reduction of NFAs with certified error bounds under a
probabilistic model of the input words."""

from .errors import (AlphabetMismatchError, CapExceededError,
                     DeterminizationCapError, FormatError)
from .nfa import (DEFAULT_DET_CAP, Nfa, accepts, components, coreach,
                  determinize, determinize_with_subsets, reach, restrict,
                  restrict_with_map, self_loop, through_state, trim,
                  trim_survivors)
from .pa import (Pa, Ppa, make_p_exp, support, validate_pa, word_prob,
                 word_weight)
from .langprob import ProductPpa, prob_lang, product_pa_nfa
from .labels import StateLabelling, label_prune, label_selfloop
from .reduction import (ReductionConfig, ReductionReport, default_order,
                        distance, err_prune, err_selfloop,
                        greedy_error_driven, greedy_size_driven,
                        minimize_prune_set, minimize_selfloop_set,
                        prune_survivors, reduce_prune, reduce_selfloop,
                        selfloop_survivors)
from .traffic import complete_dfa, count_events, learn_pa, traffic_error
from .formats import (parse_nfa, parse_pa, read_corpus_bin, read_corpus_text,
                      serialize_nfa, serialize_pa)

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatchError", "CapExceededError", "DeterminizationCapError",
    "FormatError",
    "DEFAULT_DET_CAP", "Nfa", "accepts", "components", "coreach",
    "determinize", "determinize_with_subsets", "reach", "restrict",
    "restrict_with_map", "self_loop", "through_state", "trim",
    "trim_survivors",
    "Pa", "Ppa", "make_p_exp", "support", "validate_pa", "word_prob",
    "word_weight",
    "ProductPpa", "prob_lang", "product_pa_nfa",
    "StateLabelling", "label_prune", "label_selfloop",
    "ReductionConfig", "ReductionReport", "default_order", "distance",
    "err_prune", "err_selfloop", "greedy_error_driven", "greedy_size_driven",
    "minimize_prune_set", "minimize_selfloop_set", "prune_survivors",
    "reduce_prune", "reduce_selfloop", "selfloop_survivors",
    "complete_dfa", "count_events", "learn_pa", "traffic_error",
    "parse_nfa", "parse_pa", "read_corpus_bin", "read_corpus_text",
    "serialize_nfa", "serialize_pa",
]
