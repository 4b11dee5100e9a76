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
from omegatrans.sst2rev import (
    build_register_walker,
    drop_dead_registers,
    merge_equal_states,
    sst_to_substitution_stream,
)
from support import check_two_stage, content_digest, full_product


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
    (0, 36, "a9c874739da4effc92349a0ab1bff2d40615efa662f52247591750f20c9c647f"),
    (1, 6244, "68b07051a7151e899b56d3fe840fd5524d625b27d1b3bdccc3f7bf25b5057f22"),
    (2, 50, "4ac67bfcb1bab8b1652ebc0bb511979002a4cca052fcc563ca1d7a27547443dc"),
    (3, 119, "a8499bb151de9943c94132a39b4e98506aadd0600d9f58ffd978ebb30863f16e"),
    (4, 182, "d87005ad2824d6ee8d792dff56f722838a27901894af1ba109b6728f781a0ff8"),
    (5, 1, "3bf4d3123a4e8281a5a9cc92912ca3c0fe6dabb2b80f21f73781ed0104f8cb20"),
    (6, 5690, "4e112df9183605b6aaf522c6acb932761666d336a85e3e1363877dce47c0f109"),
    (7, 33, "0b14a18355efa52685f02cb80e3b215d453ffaa106aa6b827fccc6a5c83b60a1"),
    (8, 1151, "a75ba32c4efccf929dcba6286aa7a1d120c702222141a9418fec259a7829a04e"),
    (9, 431, "6c184d7420e359a9703f288ae1b6de8999b6b30fa97398675fd0df2ede0253fb"),
    (10, 3, "fa131a02f15eb74333a7ecf6ccdeb17d07aabf11d133689993a815d00fa41113"),
    (11, 5, "90d75cfed1ed49bcad890923e5f045b1ba2e6cb1bbe02b18eca1bd0664ceeddd"),
]


def test_det2rev_outputs_are_pinned(outputs):
    for seed, states, expected in PINNED_DET2REV:
        assert len(outputs[seed].states) == states, seed
        assert digest(outputs[seed]) == expected, seed


def test_reachable_composition_of_outputs_is_pinned(outputs):
    composed = compose_reachable(outputs[7], outputs[4])
    assert (len(composed.states), len(composed.transitions)) == (5973, 9614)
    assert digest(composed) == "abc690810b8b2bad23f78bacd9d82d1f798b78e8afa684389ad37498510b2e3b"


def test_full_composition_of_outputs_is_pinned(outputs):
    composed = full_product(outputs[11], outputs[4])
    assert len(composed.states) == 5 * 182
    assert digest(composed) == "1ec9505aeec434d0d6326f48412021ae22357deebd99b6e938753134d347fe9a"


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
    (0, "357f4ec5d82c73e593e3f35902d85de17533225ba6a04a7a7782d50a2401460c",
         "78fdbef14861b582c7c27bfec76bd385d65a6234e5727289a1f9c5b53b341bc8"),
    (1, "db5d6fe452e87ccea1351871875be5172dc219c818260f11095de129c6070d85",
         "c36b7bf995d33d3d46407a0c07801276dad3f809054c96cac715729d8dbd8a97"),
    (2, "bbb388a1eda1179fc9602bbb0d37e9fd6387e1cd55fe7abaca984008fd2247e7",
         "db2f4b774d8b21e8fd8ee58a6b16736084e275b61ad385d5f262050ab1cf26de"),
    (3, "87979bfb0a99688f89ee9e6352e576b5ef5df7aeb3b4962665e30c590a9be59a",
         "508a64e8051de096e5d780220da96a14f68fb2e17aa980ec26aef0dfbdb37e19"),
    (4, "55c46da7b55746a63ef2ddedf0c3554bf1ec127a2258f5cbd1a03adcd743abd3",
         "aa6365e6414cf85e7694221ee5009d40ed25aa6da6bb28c83fef64278b9ed5bf"),
    (5, "b3e12c032597073b82541a827f105c3801839a62d727d7fd58b8d50f43c59761",
         "d1a993c4e507fae94a73d2ac1b8fa8dd896ee97722a1fff49eb240894037ff13"),
    (6, "b931c31d598624df6bfc70434598ae722c3798475cf0530b85acc904c4880fe6",
         "d35b655fcb3b362f80192e669963f089969a3f86b11d13f811b29e9ac894d94b"),
    (7, "d8714e0d6d8edf2142298f281b45d4c64efb47f5e902d730d960f4eb3d11ead9",
         "663950afac3969d45c000f01c5ad79394e8c7dff62b7b8977c8b363bdef04162"),
    (8, "c5ba5855d844ea1200c9f672f04db998487e317544a8eafe4f4e29a447b06ff4",
         "d7c7d1a7f31d9a770b7ac0425228248321ff8a402ed7b95845c7f7b25da724cd"),
    (9, "8695b2c265284c485dad8004a0d579b17f3820f52d46fbeafe9ed3a66c39e92b",
         "428be2a699b70f487f5b45342cdf9747ed8d10f558217fa2a0839ef24d8ccd9f"),
    (10, "0e6f498785f555ece80d818b095bb842cf6c14a30017d8b371ca7a2b40203424",
        "abf1ca8f0fd43487bf644ba0bb761c1c35759edf2e658f68f855ecbfb480d079"),
    (11, "79671bd0a421ba1345b3e6bbf5fc281c3b68e1665115f7fb746cf56b91865fb8",
        "1a8a3bd7449921b7bda593580dfe3df444d89879c360f12e2aa892923c17e946"),
]


def test_det2rev_content_is_pinned(outputs):
    for seed, stream_digest, output_digest in PINNED_CONTENT:
        sst = merge_equal_states(drop_dead_registers(two_way_to_sst(source(seed))))
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
    assert (len(machine.states), len(machine.transitions)) == (3767, 12869)
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
