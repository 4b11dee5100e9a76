"""Transducers over infinite words: reversible two-way machines, copyless
register machines, and the constructions converting between them.

The package is organized around three machine kinds (two-way parity
transducers, their one-way restriction, and copyless parity streaming string
transducers), an exact evaluation oracle on ultimately periodic words, and
the size-efficient constructions: product composition of reversible machines,
one-way to reversible, two-way to register machine via merging forests, and
register machine back to reversible two-way.
"""

from .machines import (
    LEFT_END,
    State,
    Transition,
    TwoWayParityTransducer,
    Substitution,
    SstTransition,
    CopylessParitySST,
    validate_reversible,
    validate_one_way,
    validate_sst_machine,
    validate_machine,
)
from .lasso import LassoWord, lasso_canonicalize, enumerate_lassos
from .evaluate import (
    EvalBudget,
    RunOutcome,
    eval_two_way,
    eval_sst,
    equiv_on_lassos,
)
from .compose import FiniteRunSummary, run_on_finite, compose_reachable
from .oneway import one_way_to_reversible
from .forests import two_way_to_sst, StateExplosion
from .sst2rev import sst_to_substitution_stream, build_register_walker, sst_to_reversible
from .buchi import dbt_to_rbt, drop_acceptance, buchi_as_parity, buchi_to_noacc

__all__ = [
    "LEFT_END",
    "State",
    "Transition",
    "TwoWayParityTransducer",
    "Substitution",
    "SstTransition",
    "CopylessParitySST",
    "validate_reversible",
    "validate_one_way",
    "validate_sst_machine",
    "validate_machine",
    "LassoWord",
    "lasso_canonicalize",
    "enumerate_lassos",
    "EvalBudget",
    "RunOutcome",
    "eval_two_way",
    "eval_sst",
    "equiv_on_lassos",
    "FiniteRunSummary",
    "run_on_finite",
    "compose_reachable",
    "one_way_to_reversible",
    "two_way_to_sst",
    "StateExplosion",
    "sst_to_substitution_stream",
    "build_register_walker",
    "sst_to_reversible",
    "dbt_to_rbt",
    "drop_acceptance",
    "buchi_as_parity",
    "buchi_to_noacc",
]
