"""Forcing numbers, spectra, and disjoint cycle packings."""

import pytest

from matchforce import forcing, graphs
from matchforce.antiforcing import antiforcing_spectrum
from matchforce.errors import NotSubsetOfM
from matchforce.forcing import (
    Spectrum,
    forcing_number,
    forcing_spectrum,
    is_forcing_set,
    max_disjoint_alternating_cycles,
)
from matchforce.generators import gen_named, gen_truncated_parallelogram
from matchforce.graphs import enumerate_perfect_matchings


def count_matchings_containing(g, edge_ids):
    keep = set(edge_ids)
    return sum(1 for m in enumerate_perfect_matchings(g) if keep <= m.edge_set)


def test_c6_single_matching_edge_forces():
    g = gen_named("C6")
    m = enumerate_perfect_matchings(g)[0]
    assert is_forcing_set(g, m, [m.edge_ids[0]])
    assert not is_forcing_set(g, m, [])


def test_forcing_set_must_lie_in_matching():
    g = gen_named("C6")
    m = enumerate_perfect_matchings(g)[0]
    outside = next(e for e in range(g.m) if e not in m.edge_set)
    with pytest.raises(NotSubsetOfM):
        is_forcing_set(g, m, [outside])


def test_forcing_set_agrees_with_unique_containment():
    """Hitting every alternating cycle == being in no other perfect matching."""
    g = gen_named("triphenylene").graph
    import itertools

    for m in enumerate_perfect_matchings(g)[:4]:
        for size in (0, 1, 2):
            for s in itertools.combinations(m.edge_ids, size):
                hit = is_forcing_set(g, m, s)
                unique = count_matchings_containing(g, s) == 1
                assert hit == unique


def test_c6_forcing_number_is_one():
    g = gen_named("C6")
    m = enumerate_perfect_matchings(g)[0]
    value, witness = forcing_number(g, m)
    assert value == 1 and len(witness) == 1
    assert is_forcing_set(g, m, witness)
    assert witness[0] == min(m.edge_ids)  # lex-least optimal witness


def test_triphenylene_spectrum():
    g = gen_named("triphenylene").graph
    s = forcing_spectrum(g)
    assert s.value_set == (1, 3)
    assert s.min == 1 and s.max == 3
    assert len(s.values) == 9


def test_spectra_derive_every_matchings_cycles_at_once(monkeypatch):
    # the spectra and report.Profile read the cycles through the same derivation
    g = gen_named("triphenylene").graph
    calls = []
    derive = graphs.all_alternating_cycle_masks

    def counted(g, pms, *args):
        calls.append(pms)
        return derive(g, pms, *args)

    monkeypatch.setattr(forcing, "all_alternating_cycle_masks", counted)
    monkeypatch.setattr(graphs, "alternating_cycle_masks", None)  # the per-matching kernel
    assert forcing_spectrum(g).value_set == (1, 3)
    assert antiforcing_spectrum(g).values
    assert calls == [enumerate_perfect_matchings(g)] * 2


def test_c6_spectrum():
    s = forcing_spectrum(gen_named("C6"))
    assert s.value_set == (1,)


def test_spectrum_invariants_hold():
    s = Spectrum((3, 1, 3, 2))
    assert s.min == 1 and s.max == 3 and s.value_set == (1, 2, 3)


def test_disjoint_packing_bounds_forcing_number():
    h = gen_truncated_parallelogram((2, 2))
    g = h.graph
    for m in enumerate_perfect_matchings(g):
        f, _ = forcing_number(g, m)
        c, family = max_disjoint_alternating_cycles(g, m)
        assert c <= f
        assert family.mode == "disjoint"
        assert family.is_valid(g, m)
        assert len(family) == c


def test_triphenylene_realizes_three_disjoint_cycles():
    g = gen_named("triphenylene").graph
    best = 0
    for m in enumerate_perfect_matchings(g):
        f, _ = forcing_number(g, m)
        if f == 3:
            c, fam = max_disjoint_alternating_cycles(g, m)
            assert c == 3
            best = max(best, c)
    assert best == 3


def test_packing_bounds_forcing_on_non_bipartite_input():
    g = gen_named("dodecahedron")
    for m in enumerate_perfect_matchings(g)[:6]:
        f, _ = forcing_number(g, m)
        c, _ = max_disjoint_alternating_cycles(g, m)
        assert c <= f


def test_forcing_witness_revalidates():
    h = gen_truncated_parallelogram((3, 2))
    g = h.graph
    for m in enumerate_perfect_matchings(g)[:5]:
        value, witness = forcing_number(g, m)
        assert len(witness) == value
        assert is_forcing_set(g, m, witness)


def test_forcing_number_matches_definitional_brute_force():
    """Independent route: smallest matching subset lying in exactly one PM."""
    import itertools

    from matchforce.generators import enumerate_hex_systems

    def brute(g, m):
        for k in range(len(m.edge_ids) + 1):
            for s in itertools.combinations(m.edge_ids, k):
                if count_matchings_containing(g, s) == 1:
                    return k
        raise AssertionError("unreachable")

    for n in (1, 2, 3):
        for h in enumerate_hex_systems(n):
            g = h.graph
            for m in enumerate_perfect_matchings(g):
                assert forcing_number(g, m)[0] == brute(g, m)
