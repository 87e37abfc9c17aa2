"""Interference bookkeeping: enumeration, phases, constructive delays."""

import math

import pytest

from rotecho import (
    MoleculeSpec,
    Pathway,
    RamanStep,
    coherence_phase,
    cos2theta_element,
    enumerate_pathways,
    pathway_phase_difference,
    pathway_table,
    pathway_weight,
    predict_constructive_delays,
)


def canonical_pair(j):
    """The two sequences straddling population J in a full ladder."""
    paths = enumerate_pathways(j, (j + 2, j))
    up = next(p for p in paths if p.intermediate == (j, j + 2))
    down = next(p for p in paths if p.intermediate == (j - 2, j))
    return up, down


# ---------------------------------------------------------------- counting

@pytest.mark.parametrize("j", [0, 2, 6])
def test_two_level_window_has_two_sequences(j):
    # with only J and J+2 available, the intermediate is forced and the
    # two orderings of the second-pulse steps are all that remain
    paths = enumerate_pathways(j, (j + 2, j), j_min=j, j_max=j + 2)
    assert len(paths) == 2
    assert {p.intermediate for p in paths} == {(j, j + 2)}
    labels = {p.label() for p in paths}
    assert len(labels) == 2


@pytest.mark.parametrize("j", [2, 4, 10])
def test_full_ladder_gives_five_sequences(j):
    paths = enumerate_pathways(j, (j + 2, j))
    assert len(paths) == 5
    mids = {p.intermediate for p in paths}
    assert mids == {(j - 2, j), (j, j - 2), (j, j + 2)}


def test_ladder_bottom_loses_downward_routes():
    paths = enumerate_pathways(0, (2, 0))
    assert len(paths) == 2
    assert {p.intermediate for p in paths} == {(0, 2)}


def test_adjacent_populations_converge_on_one_coherence():
    j = 4
    paths = enumerate_pathways((j, j + 2), (j + 2, j))
    assert len(paths) == 10
    mids = {p.intermediate for p in paths}
    assert (j, j + 2) in mids and (j + 2, j + 4) in mids
    assert {p.start for p in paths} == {j, j + 2}


def test_first_step_never_lands_on_target():
    # a sequence already on the observed coherence after pulse one is a
    # single-pulse term, not a transfer sequence
    for j in (0, 2, 6):
        for paths in (
            enumerate_pathways(j, (j + 2, j)),
            enumerate_pathways(j, (j, j + 2)),
        ):
            assert all(p.intermediate != p.final for p in paths)


def test_unreachable_target_yields_empty_list():
    assert enumerate_pathways(4, (11, 4)) == []


def test_enumeration_is_deterministic():
    a = enumerate_pathways((2, 4), (4, 2))
    b = enumerate_pathways((2, 4), (4, 2))
    assert a == b


def test_ladder_translation_maps_enumeration_one_to_one():
    # the step structure is J-independent away from the bottom: shifting
    # the start by one rung reproduces the same labels and shifted levels
    def signature(paths, shift):
        return sorted(
            (
                p.label(),
                (p.intermediate[0] - shift, p.intermediate[1] - shift),
                (p.final[0] - shift, p.final[1] - shift),
            )
            for p in paths
        )

    base = signature(enumerate_pathways(4, (6, 4)), 0)
    shifted = signature(enumerate_pathways(6, (8, 6)), 2)
    assert shifted == base


# ---------------------------------------------------------------- phases

def test_population_accumulates_no_phase(ocs):
    assert coherence_phase((7, 7), 13.7, ocs) == 0.0


def test_low_coherence_phase_at_one_eighth_revival(ocs, trev):
    phi = coherence_phase((0, 2), trev / 8.0, ocs)
    assert phi == pytest.approx(-3.0 * math.pi / 4.0, abs=1e-12)


@pytest.mark.parametrize("pair", [(0, 2), (3, 5), (8, 6)])
def test_conjugate_coherences_have_opposite_phase(pair, ocs, trev):
    a = coherence_phase(pair, 0.37 * trev, ocs)
    b = coherence_phase(pair[::-1], 0.37 * trev, ocs)
    # opposite signs, except on the branch cut where both wrap to pi
    assert abs(a + b) < 1e-12 or abs(abs(a) - math.pi) < 1e-12


def test_coherence_phase_rejects_negative_levels(ocs):
    with pytest.raises(ValueError):
        coherence_phase((-2, 0), 1.0, ocs)


@pytest.mark.parametrize("j", [2, 4, 10])
def test_pair_separation_crosses_pi_at_one_eighth(j, ocs, trev):
    up, down = canonical_pair(j)
    d8 = pathway_phase_difference(up, down, trev / 8.0, ocs)
    d4 = pathway_phase_difference(up, down, trev / 4.0, ocs)
    # 8*B_ang*dtau for the straddling pair, independent of J
    assert d8 == pytest.approx(math.pi, rel=1e-12)
    assert d4 == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_shared_intermediate_pair_never_separates(ocs, trev):
    paths = enumerate_pathways(6, (8, 6), j_min=6, j_max=8)
    assert pathway_phase_difference(paths[0], paths[1], 0.123 * trev, ocs) == 0.0


def test_phase_difference_requires_shared_target(ocs):
    a = enumerate_pathways(4, (6, 4))[0]
    b = enumerate_pathways(4, (4, 6))[0]
    with pytest.raises(ValueError, match="target"):
        pathway_phase_difference(a, b, 10.0, ocs)


# ---------------------------------------------------------------- delays

def test_constructive_delays_match_spectrum(ocs, trev):
    delays = predict_constructive_delays(ocs, 3)
    assert delays == pytest.approx([10.25, 30.75, 51.25, 71.75], abs=0.01)
    spacings = [b - a for a, b in zip(delays, delays[1:])]
    assert spacings == pytest.approx([trev / 4.0] * 3, rel=1e-12)


def test_constructive_delays_ignore_temperature(ocs):
    hot = MoleculeSpec(b_cm=ocs.b_cm, temperature_k=600.0)
    assert predict_constructive_delays(hot, 3) == predict_constructive_delays(ocs, 3)


def test_constructive_delays_reject_negative_count(ocs):
    with pytest.raises(ValueError):
        predict_constructive_delays(ocs, -1)


# ---------------------------------------------------------------- weights

def test_weights_are_positive_annotations(ocs):
    paths = enumerate_pathways(4, (6, 4))
    weights = [pathway_weight(p, ocs) for p in paths]
    assert all(w > 0 for w in weights)
    # pinned bits: the start level's weight is thermal_state's level weight
    assert weights == [0.016143661107587907, 0.01571518186331467, 0.01571518186331467,
                       0.016143661107587907, 0.016143661107587907]


def element_product(path, m=0):
    """Product of |<J|cos^2|J'>| over a pathway's steps, replayed here."""
    state, product = [path.start, path.start], 1.0
    for step in path.steps:
        side = ("ket", "bra").index(step.side)
        before = state[side]
        state[side] += step.delta_j
        product *= abs(cos2theta_element(before, state[side], m))
    return product


@pytest.mark.parametrize("weight_even, start, populated", [
    (1.0, 0, True), (1.0, 2, False), (0.0, 1, True), (0.0, 0, False),
])
def test_weight_at_zero_temperature(weight_even, start, populated):
    # only the lowest level the spin statistics allow is populated, with weight 1
    cold = MoleculeSpec(b_cm=0.2034, temperature_k=0.0, weight_even=weight_even)
    paths = enumerate_pathways(start, (start + 2, start))
    assert paths
    for p in paths:
        assert pathway_weight(p, cold) == (element_product(p) if populated else 0.0)


def test_weight_depends_on_m_sublevel(ocs):
    path = enumerate_pathways(4, (6, 4))[0]
    w0 = pathway_weight(path, ocs, m=0)
    w2 = pathway_weight(path, ocs, m=2)
    assert w0 > 0 and w2 > 0 and w0 != w2
    # |m| only: the matrix elements cannot tell the sign apart
    assert pathway_weight(path, ocs, m=-2) == w2


# ---------------------------------------------------------------- tables

def test_table_text_layout(ocs, trev):
    paths = enumerate_pathways(4, (6, 4))
    text = pathway_table(paths, trev / 8.0, ocs)
    lines = text.splitlines()
    assert lines[0].split() == ["start", "steps", "intermediate", "target", "phase_rad"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 2 + len(paths)


def test_table_csv_layout(ocs, trev):
    paths = enumerate_pathways(4, (6, 4))
    csv = pathway_table(paths, trev / 8.0, ocs, fmt="csv")
    lines = csv.splitlines()
    assert lines[0] == "start,steps,intermediate,target,phase_rad"
    assert len(lines) == 1 + len(paths)
    for line in lines[1:]:
        # level pairs are rendered with ';' so the row stays 5 fields
        assert len(line.split(",")) == 5
    assert csv.endswith("\n")


def test_table_rejects_unknown_format(ocs):
    with pytest.raises(ValueError, match="fmt"):
        pathway_table([], 1.0, ocs, fmt="json")


# ---------------------------------------------------------------- validation

def test_step_validation():
    with pytest.raises(ValueError):
        RamanStep(pulse=3, side="ket", delta_j=2)
    with pytest.raises(ValueError):
        RamanStep(pulse=1, side="middle", delta_j=2)
    with pytest.raises(ValueError):
        RamanStep(pulse=1, side="ket", delta_j=1)


def test_pathway_replays_its_steps():
    steps = (
        RamanStep(pulse=1, side="ket", delta_j=2),
        RamanStep(pulse=2, side="bra", delta_j=2),
        RamanStep(pulse=2, side="ket", delta_j=2),
    )
    path = Pathway(start=2, steps=steps, intermediate=(4, 2), final=(6, 4))
    assert path.label() == "P1 ket+2; P2 bra+2; P2 ket+2"
    with pytest.raises(ValueError, match="intermediate"):
        Pathway(start=2, steps=steps, intermediate=(2, 4), final=(6, 4))
    with pytest.raises(ValueError, match="final"):
        Pathway(start=2, steps=steps, intermediate=(4, 2), final=(4, 6))
    with pytest.raises(ValueError, match="budget"):
        Pathway(start=2, steps=steps[::-1], intermediate=(4, 2), final=(6, 4))


def test_pathway_rejects_negative_levels():
    steps = (
        RamanStep(pulse=1, side="ket", delta_j=-2),
        RamanStep(pulse=2, side="ket", delta_j=2),
        RamanStep(pulse=2, side="bra", delta_j=2),
    )
    with pytest.raises(ValueError, match="negative J"):
        Pathway(start=0, steps=steps, intermediate=(-2, 0), final=(0, 2))


def test_enumeration_input_validation():
    with pytest.raises(ValueError, match="outside the basis"):
        enumerate_pathways(12, (14, 12), j_max=10)
    with pytest.raises(ValueError, match="outside the basis"):
        enumerate_pathways(2, (4, 2), j_min=4)
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_pathways(2, (-2, 0))
    with pytest.raises(ValueError, match="at least one"):
        enumerate_pathways((), (2, 0))
