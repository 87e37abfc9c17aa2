"""Basis layer: matrix elements, energies, thermal state, cutoff choice."""

import math

import numpy as np
import pytest

from rotecho import (
    MBlockDensityMatrix,
    MoleculeSpec,
    RotorBasis,
    TruncationError,
    choose_jmax,
    cos2theta_element,
    revival_period,
    rotational_energy,
    thermal_state,
)

# hc/k in K*cm, independent of the package's own constant
HC_OVER_K = 1.4387769


def test_molecule_validation():
    with pytest.raises(ValueError):
        MoleculeSpec(b_cm=-1.0)
    with pytest.raises(ValueError):
        MoleculeSpec(b_cm=0.2, temperature_k=-5.0)
    with pytest.raises(ValueError):
        MoleculeSpec(b_cm=0.2, weight_even=0.0, weight_odd=0.0)


def test_spin_weights_alternate():
    mol = MoleculeSpec(b_cm=0.2, weight_even=2.0, weight_odd=1.0)
    assert mol.spin_weight(0) == 2.0
    assert mol.spin_weight(3) == 1.0
    assert mol.spin_weight(10) == 2.0
    assert isinstance(mol.spin_weight(3), float)
    assert mol.spin_weight(np.arange(5)).tolist() == [2.0, 1.0, 2.0, 1.0, 2.0]


def test_revival_period_value(ocs):
    # 1 / (2 c B) with B in 1/cm and c in cm/ps
    assert revival_period(ocs) == pytest.approx(81.9971, abs=5e-4)


def test_energy_revival_product_is_pi_ladder(ocs, trev):
    # w_J * T_rev = pi * J * (J + 1), so every Delta-J = 2 coherence
    # returns to its phase after exactly one revival
    for j in (0, 1, 5, 17):
        assert rotational_energy(j, ocs) * trev == pytest.approx(
            math.pi * j * (j + 1), rel=1e-12
        )


def test_level_energies_of_an_array_keep_the_scalar_bits(ocs):
    js = np.arange(301)
    energies = rotational_energy(js, ocs)
    assert energies.tolist() == [rotational_energy(int(j), ocs) for j in js]
    assert RotorBasis(300).omegas(ocs).tobytes() == energies.tobytes()
    with pytest.raises(ValueError, match="non-negative"):
        rotational_energy(np.array([2, -1]), ocs)


def test_cos2_element_selection_rules():
    assert cos2theta_element(3, 7, 0) == 0.0
    assert cos2theta_element(2, 3, 1) == 0.0
    assert cos2theta_element(0, 4, 0) == 0.0


def test_cos2_element_symmetry_and_m_sign():
    assert cos2theta_element(4, 6, 2) == cos2theta_element(6, 4, 2)
    assert cos2theta_element(5, 5, -3) == cos2theta_element(5, 5, 3)
    assert cos2theta_element(3, 5, -1) == cos2theta_element(3, 5, 1)


def test_cos2_element_rejects_m_above_j():
    with pytest.raises(ValueError):
        cos2theta_element(2, 4, 3)
    with pytest.raises(ValueError):
        cos2theta_element(-1, 1, 0)


def test_cos2_element_closed_values():
    assert cos2theta_element(0, 0, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert cos2theta_element(0, 2, 0) == pytest.approx(
        2.0 / (3.0 * math.sqrt(5.0)), rel=1e-14
    )
    # high-J diagonal tends to the classical 1/2 average at m = 0
    assert cos2theta_element(400, 400, 0) == pytest.approx(0.5, abs=2e-3)


def test_basis_blocks_and_immutability():
    basis = RotorBasis(6)
    assert basis.block_dim(0) == 7
    assert basis.block_dim(6) == 1
    assert list(basis.j_values(4)) == [4, 5, 6]
    with pytest.raises(ValueError):
        RotorBasis(1)
    block = basis.cos2_block(0)
    with pytest.raises(ValueError):
        block[0, 0] = 9.0


def test_cos2_block_matches_elements():
    basis = RotorBasis(8)
    for m in (0, 2, 7):
        js = basis.j_values(m)
        block = basis.cos2_block(m)
        for a, j in enumerate(js):
            for b, jp in enumerate(js):
                assert block[a, b] == pytest.approx(
                    cos2theta_element(int(j), int(jp), m), abs=1e-15
                )


def test_physical_constants_match_scipy_exactly():
    # c, h and k_B are exact in the SI; the literals must equal scipy's
    from scipy.constants import c, h, k

    from rotecho import basis as basis_module

    assert basis_module.C_CM_PER_PS == c * 100.0 * 1e-12
    assert basis_module.RAD_PS_PER_CM == 2.0 * math.pi * (c * 100.0 * 1e-12)
    assert basis_module.CM_KELVIN == h * (c * 100.0) / k


@pytest.mark.parametrize("j_max", [2, 3, 40, 121])
def test_cos2_blocks_equal_the_scalar_elements_exactly(j_max):
    basis = RotorBasis(j_max)
    for m in range(j_max + 1):
        js = [int(j) for j in basis.j_values(m)]
        block = basis.cos2_block(m)
        assert not block.flags.writeable
        expected = np.array(
            [[cos2theta_element(j, jp, m) if abs(j - jp) in (0, 2) else 0.0 for jp in js]
             for j in js]
        )
        assert block.dtype == expected.dtype
        assert block.tobytes() == expected.tobytes()


@pytest.mark.parametrize("j_max", [2, 3, 40, 120])
def test_stacked_parity_eigensystems_keep_the_bits_of_per_half_eigh(j_max):
    # one batched eigh per run of equal-size halves must give every half,
    # the empty one at m = j_max included, the bits of its own eigh, as a
    # read-only view of its run's stack
    basis = RotorBasis(j_max)
    stacks = {id(v): v for _, _, v, _ in basis._parity_halves()}.values()
    assert len(stacks) == j_max // 2 + 2  # one per half size, 0 .. j_max // 2 + 1
    for m in range(j_max + 1):
        for h, (lam, v) in enumerate(basis._parity_eigensystems(m)):
            ref_lam, ref_v = np.linalg.eigh(basis.cos2_block(m)[h::2, h::2])
            assert np.array_equal(lam, ref_lam) and np.array_equal(v, ref_v)
            assert lam.shape == ref_lam.shape and v.shape == ref_v.shape
            assert not v.flags.owndata and not v.flags.writeable and not lam.flags.writeable
            assert sum(v.base is s for s in stacks) == 1
    assert basis._parity_eigensystems(j_max)[1][1].shape == (0, 0)


def test_cos2_eigensystem_reconstructs_block():
    basis = RotorBasis(12)
    w, v = basis.cos2_eigensystem(3)
    rebuilt = (v * w[None, :]) @ v.T
    assert np.max(np.abs(rebuilt - basis.cos2_block(3))) < 1e-12


def test_thermal_state_trace_and_boltzmann_ratio(ocs):
    basis = RotorBasis(70)
    rho = thermal_state(ocs, basis, truncation_tol=2e-3)
    assert rho.weighted_trace() == pytest.approx(1.0, abs=1e-12)
    assert rho.hermiticity_defect() == 0.0
    p00 = rho.blocks[0][0, 0].real
    p20 = rho.blocks[0][2, 2].real
    expected = math.exp(-HC_OVER_K * ocs.b_cm * 6.0 / ocs.temperature_k)
    assert p20 / p00 == pytest.approx(expected, rel=1e-5)
    # within one level all m sublevels carry the same population
    p22 = rho.blocks[2][0, 0].real
    assert p22 == pytest.approx(p20, rel=1e-12)


def test_thermal_state_spin_weights():
    mol = MoleculeSpec(b_cm=0.2034, temperature_k=296.0, weight_even=3.0, weight_odd=1.0)
    rho = thermal_state(mol, RotorBasis(80), truncation_tol=1e-3)
    p0 = rho.blocks[0][0, 0].real
    p1 = rho.blocks[0][1, 1].real
    boltz = math.exp(-HC_OVER_K * mol.b_cm * 2.0 / mol.temperature_k)
    assert p1 / p0 == pytest.approx(boltz / 3.0, rel=1e-5)


def test_thermal_state_truncation_guard(ocs):
    # room-temperature OCS still holds 1e-4 population near J = 30
    with pytest.raises(TruncationError):
        thermal_state(ocs, RotorBasis(30))


def test_choose_jmax_accommodates_thermal_tail(ocs):
    jm = choose_jmax(ocs, 1.0)
    thermal_state(ocs, RotorBasis(jm), truncation_tol=1e-8)  # must not raise


def test_choose_jmax_grows_with_kick(ocs):
    assert choose_jmax(ocs, 8.0) > choose_jmax(ocs, 1.0)
    assert choose_jmax(ocs, 0.0) >= 10
    # at 0 K the thermal band is the lowest allowed level: margin 4*ceil(kick) + 8
    assert choose_jmax(MoleculeSpec(b_cm=0.2034, temperature_k=0.0), 1.5) == 16
    assert choose_jmax(MoleculeSpec(b_cm=0.2034, temperature_k=0.0, weight_even=0.0), 1.5) == 17
    assert choose_jmax(MoleculeSpec(b_cm=0.2034, temperature_k=0.0), 0.0) == 10


def _scalar_cos2_element(j: int, jp: int, m: int) -> float:
    """The element in Python-int arithmetic, as the scalar path long computed it."""
    j, jp = min(j, jp), max(j, jp)
    if jp == j:
        return 1.0 / 3.0 + (2.0 / 3.0) * ((j * (j + 1) - 3 * m * m) / ((2 * j - 1) * (2 * j + 3)))
    num = ((j + 1) ** 2 - m * m) * ((j + 2) ** 2 - m * m)
    return math.sqrt(num / ((2 * j + 1) * (2 * j + 5))) / (2 * j + 3)


def test_cos2_elements_keep_the_bits_of_python_int_arithmetic():
    # the block builder and cos2theta_element share one formula; on int64
    # arrays and on Python ints it must round exactly as Python ints did
    for m in range(150):
        for j in range(m, 200):
            for jp in (j, j + 2):
                assert cos2theta_element(j, jp, m) == _scalar_cos2_element(j, jp, m)
    for j in (400, 8999, 10**6, 10**12, 10**20):
        for m in (0, 7, 399):
            assert cos2theta_element(j, j, m) == _scalar_cos2_element(j, j, m)
            assert cos2theta_element(j + 2, j, m) == _scalar_cos2_element(j, j + 2, m)


_COLD = MoleculeSpec(b_cm=0.2034, temperature_k=30.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MoleculeSpec(b_cm=0.2, weight_odd=-1.0), "spin weights must be non-negative"),
        (lambda: MBlockDensityMatrix(RotorBasis(2), _COLD, (np.eye(3),) * 2),
         "one block per m = 0 .. j_max required"),
        (lambda: MBlockDensityMatrix(RotorBasis(2), _COLD, (np.eye(3), np.eye(3), np.eye(1))),
         "block m=1 must have shape (2, 2)"),
        (lambda: choose_jmax(_COLD, -1.0), "max_kick must be non-negative"),
        (lambda: choose_jmax(_COLD, 1.0, tolerance=1.0), "tolerance must be in (0, 1)"),
    ],
)
def test_guard_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
