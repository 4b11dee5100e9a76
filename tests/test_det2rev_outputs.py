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
    (0, 60, "9b83d846f77bc2da7b586c8af751f0c886871616ba2561414029b19a084f67fa"),
    (1, 6924, "bab282295a19a57d119f545bec61893315bee0db94a99ae01a14746ddd5e24d0"),
    (2, 75, "4e986196a3518c56822608bbd9528ce7feaff7322f81489416414bab0b555bac"),
    (3, 119, "673cb162e29b672dffd3cb15af7618a71796f0cd66ca9c4107707759f5e6e09e"),
    (4, 182, "77689eead9852a166a4126ef2edc49247a210cacccc3ee87209b85bcf2ce84ca"),
    (5, 1, "3bf4d3123a4e8281a5a9cc92912ca3c0fe6dabb2b80f21f73781ed0104f8cb20"),
    (6, 6554, "f9b97453c77d71e7bfe2817ea1170b2bba46ed8e4a34d4e5a5bbebddb27e892d"),
    (7, 47, "ae8cd8bcb214a3f9723a9cc6786b61c969af4119c50af9f7b70017d78906d2d3"),
    (8, 1171, "0a118d58d49a52a7ec67f16a0c48af29c7ba4661c23221f04a7775dcd6d9531f"),
    (9, 431, "e63a09e8dc521ae759fd49f0c564165d010865b070a740354fbdd1d68d355efc"),
    (10, 3, "fa131a02f15eb74333a7ecf6ccdeb17d07aabf11d133689993a815d00fa41113"),
    (11, 5, "90d75cfed1ed49bcad890923e5f045b1ba2e6cb1bbe02b18eca1bd0664ceeddd"),
]


def test_det2rev_outputs_are_pinned(outputs):
    for seed, states, expected in PINNED_DET2REV:
        assert len(outputs[seed].states) == states, seed
        assert digest(outputs[seed]) == expected, seed


def test_reachable_composition_of_outputs_is_pinned(outputs):
    composed = compose_reachable(outputs[7], outputs[4])
    assert (len(composed.states), len(composed.transitions)) == (8503, 13764)
    assert digest(composed) == "1491bc75cdf7764b140a65cbd317435770bff12192b54d8c6c142493a33b95d7"


def test_full_composition_of_outputs_is_pinned(outputs):
    composed = compose(outputs[11], outputs[4])
    assert len(composed.states) == 5 * 182
    assert digest(composed) == "b7c263f18d220b9e6417bb4919101c99733a737433cfa0c3bf5153fa72b45f60"


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
