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
    (0, 237, "6b90cabe196931a4f20ee2ee5303e15f874f330999b3bcb0b29e4bbb932dbe0c"),
    (1, 13157, "6637c420fab1890f03aea22b62c74f6ccc672425cbcf38c94f2db8427eda6f4b"),
    (2, 742, "35042f199e0f2e07c4c008d2b0b3289405ae5ea36690a710dc98d41965e833ab"),
    (3, 605, "50bbb9c34df3afbd783b3361960a4195e4a10b7f7dd1e79d6e7884dee1967531"),
    (4, 238, "051c2540f1d554f0ee14ce7cec60b359c83632b5d7d3e3c9dad065c7c5c0d76a"),
    (5, 6, "979ccad2ec841f7c1f9663ae9c3d3f7215cafbbef49f7ab45690a7d7d7b93dbe"),
    (6, 7695, "9aa22f3f884549928409664e4c34d86fbe7f7cada74c5d1b6b08e1f40e114452"),
    (7, 153, "9a9fb84c13cec07a9e9907da5250b7e435b35f5cb24640971a4a58a1603963aa"),
    (8, 2247, "47d9efda37d4a5793277154e9c4d70f4ec9783c27995704cbf5e254f983f53c8"),
    (9, 1839, "ba12003bd583b0bfa62aa2b5937cc50ef617f192329c3330ff8075244d9f6c8c"),
    (10, 34, "2b6cf8011ee0c975317713d7f8234a19e948709e73c1398af53374df2e148ec8"),
    (11, 26, "fbbcb98a79755ae9b3a2ab701d47974e50dc4d76b77333cbeec1af4ca2b6919d"),
]


def test_det2rev_outputs_are_pinned(outputs):
    for seed, states, expected in PINNED_DET2REV:
        assert len(outputs[seed].states) == states, seed
        assert digest(outputs[seed]) == expected, seed


def test_reachable_composition_of_outputs_is_pinned(outputs):
    composed = compose_reachable(outputs[7], outputs[4])
    assert (len(composed.states), len(composed.transitions)) == (35364, 105112)
    assert digest(composed) == "6f4a28725caa64ad87cf305636e0064474c7be13b3159c663b5780f0da04a117"


def test_full_composition_of_outputs_is_pinned(outputs):
    composed = compose(outputs[11], outputs[10])
    assert len(composed.states) == 26 * 34
    assert digest(composed) == "d4cafda6079878d97b65a12eb67c5e051bd67d254fc0efa9f68346092c7a25a1"


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
