"""The size bounds the constructions are stated to meet, one function each.

Every check of a construction's size calls the function here instead of
writing the formula out, so each bound has one definition.  The module
imports nothing, so a script can load this file on its own, by path.
"""


def registers(n: int) -> int:
    """A two-way machine with n states becomes a copyless register machine
    over 2n−1 registers: ``out`` and a pool of 2n−2 (``two_way_to_sst``)."""
    return 2 * n - 1


def forest_edges(n: int) -> int:
    """A merging forest of an n-state machine has at most 2n−2 nodes and
    2n−2 edges: every edge owns one of the 2n−2 registers besides ``out``."""
    return 2 * n - 2


def outline_states(m: int) -> int:
    """A one-way machine with m states becomes a reversible one with at most
    4m² states: two tagged copies of the state set, paired
    (``one_way_to_reversible``)."""
    return 4 * m * m


def summaries(n: int, k: int, ell: int) -> int:
    """The paper's single-exponential bound on the reachable (endpoint,
    forest) summaries of ``two_way_to_sst`` for n states, k colorings and
    ell colors: n·(ℓ^k)^(n−1)·(2n−1)^(2n−3), that is n endpoints, a color
    vector for each of at most n−1 leaves, and Cayley's count of trees on
    2n−1 labelled nodes.  The last exponent is clamped at 0, so n = 1
    gives 1."""
    return n * (ell**k) ** (n - 1) * registers(n) ** max(2 * n - 3, 0)


def walker_states(r: int) -> int:
    """The register walker of a machine with r registers has exactly 2r
    states: one ``fetch`` and one ``done`` state per register
    (``build_register_walker``)."""
    return 2 * r


def composition_pairs(q: int, p: int) -> int:
    """Composing reversible machines with q and p states gives at most q·p
    states, one per pair (``compose_reachable``; Dartois et al., DFJL17)."""
    return q * p


def oracle_steps(q: int, u: int, v: int) -> int:
    """A run of a q-state machine on a canonical lasso u·v^ω with |u| = u
    and |v| = v is classified within q·(u + q·v + 2) steps
    (``evaluate._run``)."""
    return q * (u + q * v + 2)


def folded_states(n: int) -> int:
    """Folding the marking of an n-state reversible machine away gives
    exactly 3n states: a simulating, a rewinding and a producing copy of each
    (``buchi_to_noacc``)."""
    return 3 * n
