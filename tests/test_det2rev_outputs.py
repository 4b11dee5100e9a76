"""The det2rev conversion and composition at corpus scale: pinned output
bytes, two-stage agreement, and the builders that run with the cyclic
garbage collector paused."""

import gc
import hashlib
from contextlib import contextmanager

import pytest

from omegatrans.buchi import dbt_to_rbt
from omegatrans.compose import _product, compose, compose_reachable
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_two_way
from omegatrans.io import DocumentError, dumps_machine, loads_machine
from omegatrans.lasso import enumerate_lassos
from omegatrans.oneway import one_way_to_reversible
from omegatrans.sst2rev import build_register_walker, sst_to_substitution_stream
from support import check_two_stage


def source(seed):
    return generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0)


def digest(machine):
    return hashlib.sha256(dumps_machine(machine).encode()).hexdigest()


@pytest.fixture(scope="module")
def outputs():
    return {seed: dbt_to_rbt(source(seed)) for seed in range(12)}


# --- pinned output ------------------------------------------------------------

# SHA-256 of dumps_machine(dbt_to_rbt(m)) and the state count for
# generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0).  A change
# to how the conversion or the composition runs must keep these bytes.
PINNED_DET2REV = [
    (0, 139, "f0258af39729ae78ca5ff17ec4975a909a01c97c09fc2d684699c49f04519365"),
    (1, 6951, "76f333a2666328bda5edd6482d8ec1b33d5b25f5f61ccba877f1abb8c4ecd071"),
    (2, 247, "4365a5e1091144a42fa58c06f04f2194ac549a1baec705b9bd9ae8471eb184a1"),
    (3, 427, "e0d72418064681a09f2d3b386a5a63bc3ac8fd901d27bb736df9ac3e26470a68"),
    (4, 182, "811c4cf1d2a000cd1cc4ba350c1dced72bfe8798d885961ea443813e6b45a153"),
    (5, 1, "3bf4d3123a4e8281a5a9cc92912ca3c0fe6dabb2b80f21f73781ed0104f8cb20"),
    (6, 6686, "8074992b46d29b22fd982c36bf82ea1f0dbdbb94f8310ece657b4bc9d38dfecc"),
    (7, 116, "eeda650f2aa5a883ad841e2e8c396646df49c5626661a92fe220e8900d7d89f7"),
    (8, 1171, "b5c8f372b3aac2545f7b871e3b1edae8b761467a56d0a1224e7a92e04373cd64"),
    (9, 441, "893e2772d3bfd20347c25fc6c3600f4193bba5e028f560a532b6f474ff296299"),
    (10, 3, "fa131a02f15eb74333a7ecf6ccdeb17d07aabf11d133689993a815d00fa41113"),
    (11, 6, "c1ada777e24fb9cd42d9d713bfb3b774ac0fc8c90d044927d2bb72ed2d5584ea"),
]


def test_det2rev_outputs_are_pinned(outputs):
    for seed, states, expected in PINNED_DET2REV:
        assert len(outputs[seed].states) == states, seed
        assert digest(outputs[seed]) == expected, seed


def test_reachable_composition_of_outputs_is_pinned(outputs):
    composed = compose_reachable(outputs[7], outputs[4])
    assert (len(composed.states), len(composed.transitions)) == (20398, 57900)
    assert digest(composed) == "e869f5442a6fbbb5da62d0aed115b0c36b9b317eaf24f53129a3f5f659648683"


def test_full_composition_of_outputs_is_pinned(outputs):
    composed = compose(outputs[11], outputs[10])
    assert len(composed.states) == 6 * 3
    assert digest(composed) == "8d2c1c8439f70c27df607e537a34c79d1d5f4c58055dd0c723b63dbc35094acd"


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
    """Inputs of the three paused builders for one det2rev machine."""
    sst = two_way_to_sst(source(7))
    stream = sst_to_substitution_stream(sst)
    rev = one_way_to_reversible(stream)
    walker = build_register_walker(sst)
    return {
        "one_way_to_reversible": (one_way_to_reversible, (stream,)),
        "_product": (_product, (rev, walker, [(rev.initial, walker.initial)])),
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
@pytest.mark.parametrize("builder", ["one_way_to_reversible", "_product", "loads_machine"])
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


@pytest.mark.parametrize("builder", ["one_way_to_reversible", "_product", "loads_machine"])
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
