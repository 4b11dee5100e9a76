"""Driving the register walker directly on substitution-letter lassos.

The evaluation machinery is letter-agnostic, so whole substitutions can act
as input letters; these tests run the walker as an ordinary two-way machine
over such lassos.
"""

from omegatrans.evaluate import eval_sst, eval_two_way
from omegatrans.lasso import LassoWord
from omegatrans.machines import validate_machine
from omegatrans.sst2rev import build_register_walker, sst_to_substitution_stream
from builtin import map_copy_reverse_sst
from support import lasso_equal


def mcr_updates():
    sst = map_copy_reverse_sst()
    q = sst.initial
    return sst, {a: sst.transitions[(q, a)].update for a in ("a", "b", "#")}


def test_walker_is_structurally_valid():
    sst, _ = mcr_updates()
    walker = build_register_walker(sst)
    assert validate_machine(walker) == []


def test_walker_on_stream_lasso_reproduces_sst_output():
    """Feeding the walker the substitution stream of an input lasso must
    produce the machine's output for that lasso."""
    sst, updates = mcr_updates()
    walker = build_register_walker(sst)
    for prefix, period in [("", "ab#"), ("a", "b#"), ("", "#"), ("ab#", "a")]:
        stream = LassoWord.make(
            [updates[c] for c in prefix], [updates[c] for c in period]
        )
        via_walker = eval_two_way(walker, stream)
        via_sst = eval_sst(sst, LassoWord.make(prefix, period))
        assert via_walker.verdict == "accepted"
        assert lasso_equal(via_walker.output, via_sst.output)


def test_walker_accepts_any_stream_with_growing_out():
    """The walker has no acceptance condition: any stream whose out register
    keeps growing is in its domain."""
    sst, updates = mcr_updates()
    walker = build_register_walker(sst)
    # a stream the underlying automaton could produce in no particular order
    stream = LassoWord.make([updates["#"]], [updates["#"], updates["a"]])
    out = eval_two_way(walker, stream)
    assert out.verdict == "accepted"


def test_stream_transducer_emits_machine_updates():
    sst, updates = mcr_updates()
    stream = sst_to_substitution_stream(sst)
    out = eval_two_way(stream, LassoWord.make("", "ab#"))
    assert out.verdict == "accepted"
    assert out.output.period == (updates["a"], updates["b"], updates["#"])
