"""Tests for the model Hamiltonian constructors."""

import numpy as np
import pytest

from gatesynth.hamlib import SystemPair, build_ising, ibmq3


def test_ibmq3_drift_entries():
    sys = ibmq3()
    assert sys.h0[1, 1] == pytest.approx(0.5159)
    assert sys.h0[0, 0] == 0.0
    assert sys.h0[2, 2] == 1.0
    assert np.allclose(sys.h0, np.diag(np.diag(sys.h0)))


def test_ibmq3_drive_entries():
    sys = ibmq3()
    expect = np.array([[0, 0.7071, 0], [0.7071, 0, 1], [0, 1, 0]])
    assert np.array_equal(sys.hc, expect.astype(complex))


def test_ibmq3_hermitian():
    sys = ibmq3()
    assert np.linalg.norm(sys.h0 - sys.h0.conj().T) <= 1e-12
    assert np.linalg.norm(sys.hc - sys.hc.conj().T) <= 1e-12


def test_ibmq3_noncommuting():
    sys = ibmq3()
    comm = sys.h0 @ sys.hc - sys.hc @ sys.h0
    assert np.linalg.norm(comm) > 0.1


def test_ising_n2_drift():
    sys = build_ising(2, coupling=1.0)
    assert np.allclose(sys.h0, -np.diag([1.0, -1.0, -1.0, 1.0]))


def test_ising_n2_drive_row_sums():
    sys = build_ising(2)
    ones = np.ones(4)
    assert np.allclose(sys.hc @ ones, 2.0 * ones)


def test_ising_n3_shape_and_trace():
    sys = build_ising(3)
    assert sys.dim == 8
    assert np.trace(sys.h0) == pytest.approx(0.0)
    assert np.trace(sys.hc) == pytest.approx(0.0)


def test_ising_real_symmetric():
    for n in (2, 4):
        sys = build_ising(n)
        assert np.allclose(sys.h0.imag, 0.0)
        assert np.allclose(sys.hc.imag, 0.0)
        assert np.allclose(sys.h0, sys.h0.T)
        assert np.allclose(sys.hc, sys.hc.T)


def test_ising_dimension_scaling():
    for n in (2, 3, 5):
        assert build_ising(n).dim == 2**n


def test_ising_coupling_scales_drift():
    a = build_ising(3, coupling=1.0)
    b = build_ising(3, coupling=2.5)
    assert np.allclose(b.h0, 2.5 * a.h0)
    assert np.allclose(b.hc, a.hc)


def test_ising_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_ising(1)
    with pytest.raises(ValueError):
        build_ising(8)


def test_system_pair_rejects_nonhermitian():
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError):
            SystemPair(bad, np.eye(2))


def test_system_pair_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        SystemPair(np.eye(2), np.eye(3))
