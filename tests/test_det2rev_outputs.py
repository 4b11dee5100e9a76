"""The det2rev, 1w2rev and composition builders at corpus scale: pinned
output bytes, shared transition objects, two-stage agreement, the builders
that run with the cyclic garbage collector paused, and the memory the
document layer takes for a large output."""

import gc
import hashlib
import tracemalloc
from contextlib import contextmanager

import pytest

from omegatrans.buchi import dbt_to_rbt
from omegatrans.compose import compose_reachable
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_one_way, generate_two_way
from omegatrans.io import DocumentError, dumps_machine, loads_machine
from omegatrans.lasso import enumerate_lassos
from omegatrans.oneway import one_way_to_reversible
from omegatrans.sst2rev import build_register_walker, sst_to_substitution_stream
from support import check_two_stage, content_digest, full_product, reduce_sst


def source(seed):
    return generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0)


def digest(machine):
    return hashlib.sha256(dumps_machine(machine).encode()).hexdigest()


@pytest.fixture(scope="module")
def outputs():
    return {seed: dbt_to_rbt(source(seed)) for seed in range(12)}


# --- pinned output ------------------------------------------------------------

# SHA-256 of dumps_machine(dbt_to_rbt(m)) and the state count for
# generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0).  The bytes
# fix the order of states and transitions as well as the machine; what the
# machine is, whatever its order, is pinned by PINNED_CONTENT below.
PINNED_DET2REV = [
    (0, 22, "763d859acefa1a6d6f11ad7cbb8132e7c45f9756f5343d4f1466c9be1a5804fa"),
    (1, 2597, "da9133af90c8da3f797b95f6b414db620920f284bd36b27858e66b1725b5b1ed"),
    (2, 44, "ff45e9125013ebae5bb38832a8ce70be5a883939a0c682489e49ce7a825a1c32"),
    (3, 34, "8385eee41195fc280928bc4a1afdfa69cd43fa6fd7ee0558dfc5bb8d27c70bdc"),
    (4, 182, "e06b597caff24582422c7176f0318660feb51938f95d2d16a83259f9e3b275e7"),
    (5, 1, "3bf4d3123a4e8281a5a9cc92912ca3c0fe6dabb2b80f21f73781ed0104f8cb20"),
    (6, 3816, "d5f0ffca2c85d9d85bdcd1e9cb0ca61a699278e76bc50a1ea839b2ce5836a340"),
    (7, 33, "115d2785d1677336cb4140de1ae4e0eb029666718ec9effe204dff9f0f44c79d"),
    (8, 524, "2977281a2c3c8a44c3e136f7aef4aab8d01f814d5ffbce1ee60e04a6d21dcf04"),
    (9, 435, "1fd375228977e02f82069134c123d29b4bd7eabe6459f1791a49a263ebd72d44"),
    (10, 3, "fa131a02f15eb74333a7ecf6ccdeb17d07aabf11d133689993a815d00fa41113"),
    (11, 5, "90d75cfed1ed49bcad890923e5f045b1ba2e6cb1bbe02b18eca1bd0664ceeddd"),
]


def test_det2rev_outputs_are_pinned(outputs):
    for seed, states, expected in PINNED_DET2REV:
        assert len(outputs[seed].states) == states, seed
        assert digest(outputs[seed]) == expected, seed


def test_reachable_composition_of_outputs_is_pinned(outputs):
    composed = compose_reachable(outputs[7], outputs[4])
    assert (len(composed.states), len(composed.transitions)) == (5906, 8878)
    assert digest(composed) == "78fb553016f4cf46ccdb11773d38d1ffc72d5212ba0c343ad3ffcc23354ba336"


def test_full_composition_of_outputs_is_pinned(outputs):
    composed = full_product(outputs[11], outputs[4])
    assert len(composed.states) == 5 * 182
    assert digest(composed) == "6b3b5b6212b8c672f2b2f4c4344e50ce4b8a6130c1c5695197f8d5426dded41f"


@pytest.fixture(scope="module")
def one_way_outputs():
    return [
        one_way_to_reversible(generate_one_way(seed, 7, 1, 2, alphabet_size=3))
        for seed in range(10)
    ]


def test_one_way_to_reversible_bytes_are_pinned(one_way_outputs):
    texts = [dumps_machine(machine) for machine in one_way_outputs]
    assert sum(len(m.states) for m in one_way_outputs) == 1585
    assert sum(len(m.transitions) for m in one_way_outputs) == 4834
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "5201cc797fbd3ae3ce2169a3d42b17c720334f118fe7405232c5f61d32b32361"
    )


def test_equal_transitions_are_one_object(outputs, one_way_outputs):
    machines = [*one_way_outputs, *outputs.values(), compose_reachable(outputs[7], outputs[4])]
    for machine in machines:
        ts = list(machine.transitions.values())
        assert len({id(t) for t in ts}) == len(set(ts))


# content_digest of one_way_to_reversible of the substitution stream that
# dbt_to_rbt makes reversible, then of dbt_to_rbt itself, for the same
# sources.  A change that only reorders states or transitions keeps these.
PINNED_CONTENT = [
    (0, "087849db9f132f8e918f8de4737aa4534f4e5f08f1d88c50f5af88a4959e53d5",
         "d9f2f3f4d06b2b26266e4a44cadfe58563abcd2548f938014eeae4b76beeba30"),
    (1, "31999a6cf72c639435824dba7277e7cb9254727a245caef9ce340ebcb8cfa844",
         "4cb412b2909059799b7e9c81b8716818faeb169f859929709a50a7dcb4d9732a"),
    (2, "098146ae98d32a2bb43f0eb498b817277bd4b9b7328bc606b4d744e6ad537623",
         "afdf592e65ca0857111049dbad6da09472500e2846909010e64744f370dde9e8"),
    (3, "752baa6731d0eb8e96275bf039586d9d568732abd09e1e7ff1fffd8a71467521",
         "9dd740cd77ac540190843c9079cbf021a2618a6edc8688445ac3cd20f8d8be83"),
    (4, "016fffef151c1ad71cbd14a10eebee8ef409044469c4e64747f2c5c6a7d26677",
         "017e4829a2f823e4b5a6dcdd40caffb9827c092eeac1b0f357da0d13bb71fa32"),
    (5, "b3e12c032597073b82541a827f105c3801839a62d727d7fd58b8d50f43c59761",
         "d1a993c4e507fae94a73d2ac1b8fa8dd896ee97722a1fff49eb240894037ff13"),
    (6, "b89635dd86b229395b6213584f5d31cffc78cb3ef0a08da63016307b087de558",
         "e84c8e1234f1fe53b656caf7c24f8d1e2893b4b3b5cbcdab716e224a6e655515"),
    (7, "80dc40989fd8f09c810c1f51014ba7938ffd3b50f2389bb34b568445e95740a5",
         "cf9233263180f494170cc2596eea5921496e8d5ed62bb38a74f875063b88e7d5"),
    (8, "7b31d6aebb7c1a20f6fee0cd4a93d8a8fb610b696210cdf538b7866c73a03b1d",
         "76d5b477d89f24c326793d794315a284170c7d36a4eead01a5e5668072e22cb8"),
    (9, "b38eba46cd9303b40989609d4dbbc398b487340b8bfa485c6842524658b2a124",
         "6ed9050da634e1d7d6a63f2f5aa2a2064233bf06a39218beee5ecbcb7fc57698"),
    (10, "0e6f498785f555ece80d818b095bb842cf6c14a30017d8b371ca7a2b40203424",
         "abf1ca8f0fd43487bf644ba0bb761c1c35759edf2e658f68f855ecbfb480d079"),
    (11, "79671bd0a421ba1345b3e6bbf5fc281c3b68e1665115f7fb746cf56b91865fb8",
         "1a8a3bd7449921b7bda593580dfe3df444d89879c360f12e2aa892923c17e946"),
]


def test_det2rev_content_is_pinned(outputs):
    for seed, stream_digest, output_digest in PINNED_CONTENT:
        sst = reduce_sst(two_way_to_sst(source(seed)))
        stream = one_way_to_reversible(sst_to_substitution_stream(sst))
        assert content_digest(stream) == stream_digest, seed
        assert content_digest(outputs[seed]) == output_digest, seed


# --- two-stage agreement ------------------------------------------------------


def test_two_stage_agreement_at_det2rev_scale(outputs):
    first, second = outputs[7], outputs[4]
    lassos = enumerate_lassos(first.input_alphabet, 1, 2)
    failures, inconclusive = check_two_stage(
        first, second, compose_reachable(first, second), lassos
    )
    assert failures == []
    assert inconclusive == 0


# --- collector paused ---------------------------------------------------------


@pytest.fixture(scope="module")
def stages():
    """Inputs of the paused builders for one det2rev machine."""
    sst = two_way_to_sst(source(7))
    stream = sst_to_substitution_stream(sst)
    rev = one_way_to_reversible(stream)
    walker = build_register_walker(sst)
    return {
        "two_way_to_sst": (two_way_to_sst, (source(7),)),
        "one_way_to_reversible": (one_way_to_reversible, (stream,)),
        "compose_reachable": (compose_reachable, (rev, walker)),
        "loads_machine": (loads_machine, (dumps_machine(dbt_to_rbt(source(7))),)),
    }


@contextmanager
def collector(enabled):
    """The cyclic collector switched on or off, restored on exit."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "builder", ["two_way_to_sst", "one_way_to_reversible", "compose_reachable", "loads_machine"]
)
def test_paused_builders_restore_the_collector(stages, builder, enabled):
    build, args = stages[builder]
    with collector(enabled):
        build(*args)
        assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_load_restores_the_collector(enabled):
    with collector(enabled):
        with pytest.raises(DocumentError):
            loads_machine('{"kind": "2dpt"}')
        assert gc.isenabled() == enabled


@pytest.mark.parametrize("builder", ["one_way_to_reversible", "compose_reachable", "loads_machine"])
def test_paused_builders_leave_no_cyclic_garbage(stages, builder):
    """Pausing frees nothing later only while the builder makes no
    reference cycles."""
    build, args = stages[builder]
    gc.collect()
    with collector(False):
        build(*args)
        assert gc.collect() == 0


@pytest.mark.parametrize("seed", [1, 7])
def test_two_way_to_sst_leaves_no_cyclic_garbage(seed):
    """The forest step makes no reference cycles, so the cyclic collector
    has nothing to free after a conversion."""
    machine = source(seed)
    gc.collect()
    with collector(False):
        two_way_to_sst(machine)
        assert gc.collect() == 0


@pytest.mark.parametrize("kind", ["2dpt", "cpsst"])
def test_dumps_machine_leaves_no_cyclic_garbage(outputs, kind):
    """The writer lays out nested values itself, so it makes no reference
    cycles on either machine kind."""
    machine = outputs[7] if kind == "2dpt" else two_way_to_sst(source(7))
    gc.collect()
    with collector(False):
        dumps_machine(machine)
        assert gc.collect() == 0


# --- document memory ----------------------------------------------------------


def _extra_memory(call, arg):
    """``call(arg)`` and the peak bytes it allocated, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def large_output():
    """The det2rev output of seed 18 and its text (2.4 MB)."""
    machine = dbt_to_rbt(source(18))
    assert (len(machine.states), len(machine.transitions)) == (3767, 12827)
    return machine, dumps_machine(machine)


# The writer joins its text once, and the loader frees each parsed record
# once it has built it, so each holds a few copies of the text at its peak,
# not one per layer of nesting.


def test_dumps_machine_takes_few_copies_of_its_text(large_output):
    machine, text = large_output
    written, peak = _extra_memory(dumps_machine, machine)
    assert written == text
    assert peak <= 3.5 * len(text), peak / len(text)


def test_loads_machine_takes_few_copies_of_its_text(large_output):
    machine, text = large_output
    loaded, peak = _extra_memory(loads_machine, text)
    assert loaded == machine
    assert peak <= 3.5 * len(text), peak / len(text)
