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
    (1, 6244, "68e5a77148b11af406735ee7b586967080b8b07242c31cd97806c6ee3fa88383"),
    (2, 44, "f4bfdc16a258758e485438f37007f5861203282925171cd851db8653529bedae"),
    (3, 109, "72598c183c964988e181dbf7f170c313bdd2a55a5a8f79717938647c35fa353e"),
    (4, 182, "96d5b17e230dbe2d08dd125613b192666b6993030ad8eaef3ba1b865448e9884"),
    (5, 1, "3bf4d3123a4e8281a5a9cc92912ca3c0fe6dabb2b80f21f73781ed0104f8cb20"),
    (6, 5674, "dc585adf73483451ab4e892daeb425b3d8a10e5a0ab4618d703b6b55d26e7180"),
    (7, 33, "115d2785d1677336cb4140de1ae4e0eb029666718ec9effe204dff9f0f44c79d"),
    (8, 1152, "7d31c2cd01a88a007a2c49e25a224fd578d7bf6a176f0be21298ecbef4e41e3b"),
    (9, 436, "ba8b060145d6edec521db57ae6ce73a710663fedf0e37b401f050986ba1c810b"),
    (10, 3, "fa131a02f15eb74333a7ecf6ccdeb17d07aabf11d133689993a815d00fa41113"),
    (11, 5, "90d75cfed1ed49bcad890923e5f045b1ba2e6cb1bbe02b18eca1bd0664ceeddd"),
]


def test_det2rev_outputs_are_pinned(outputs):
    for seed, states, expected in PINNED_DET2REV:
        assert len(outputs[seed].states) == states, seed
        assert digest(outputs[seed]) == expected, seed


def test_reachable_composition_of_outputs_is_pinned(outputs):
    composed = compose_reachable(outputs[7], outputs[4])
    assert (len(composed.states), len(composed.transitions)) == (5912, 8957)
    assert digest(composed) == "4c117f99bf79a1758aebcdaf73a63ab14f06efdcd4df15b31d6a898118cddec4"


def test_full_composition_of_outputs_is_pinned(outputs):
    composed = full_product(outputs[11], outputs[4])
    assert len(composed.states) == 5 * 182
    assert digest(composed) == "090b1045f74f8de6085ab63e3997589d4f691d23706678f2f69335a9bf6bfb80"


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
    (1, "d364ed1fe17f7f9c07459c948b673103855321e829ba30016e0702d3122c355c",
         "aafc8b6ec263614928dafe0277b9cd6f1a71e05b6ca39c04be79e66847723573"),
    (2, "0aad5327e63cd3c281237b223b7bde33bbb66c2b7275c24b2ca473733207b33c",
         "f3b9f74adac0a69284544ac758cefa05375bd6034b43b71d2471c95fee250847"),
    (3, "15bb2f8b96b123ea3b5131092957073a76567f5a2f01350ac73aea3e567e14f3",
         "a376b3ec2873338fc1dac781e899c419c2c2015da1bbbbf82c00a597a4c4f8f0"),
    (4, "016fffef151c1ad71cbd14a10eebee8ef409044469c4e64747f2c5c6a7d26677",
         "017e4829a2f823e4b5a6dcdd40caffb9827c092eeac1b0f357da0d13bb71fa32"),
    (5, "b3e12c032597073b82541a827f105c3801839a62d727d7fd58b8d50f43c59761",
         "d1a993c4e507fae94a73d2ac1b8fa8dd896ee97722a1fff49eb240894037ff13"),
    (6, "38eb4c2788e6b6678432c4ea6dfc4d3732b50377c28c8c5905997c246fdc905c",
         "0c8305c8657d6b59ba7f5d087b47b638f5ee8923eccc6eb6364243a0344d4b92"),
    (7, "80dc40989fd8f09c810c1f51014ba7938ffd3b50f2389bb34b568445e95740a5",
         "cf9233263180f494170cc2596eea5921496e8d5ed62bb38a74f875063b88e7d5"),
    (8, "66a40e5ac4b83fcd3c14e48f2d3078fd36fe2484c012da726e231ddafe3d9279",
         "64e2cf31bd4c2eaf6e60dce307b39837c8f5cfd9334ff609034a3ce33493f913"),
    (9, "b38eba46cd9303b40989609d4dbbc398b487340b8bfa485c6842524658b2a124",
         "47188ee790f1232d9ece086f204a96d4533bc3608bce8d96bcc556d119c8a52b"),
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
