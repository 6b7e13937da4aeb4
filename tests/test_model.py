"""Basis enumeration, matrix elements and Hamiltonian assembly."""

import math
from collections import namedtuple

import numpy as np
import pytest

from dicke_chaos import (
    ModelParams,
    Parity,
    build_hamiltonian,
    diagonalize,
    enumerate_basis,
    hamiltonian_element,
    model,
)
from dicke_chaos.errors import AllocationTooLarge

Label = namedtuple("Label", "n m")


def brute_force_labels(j, n_cutoff, even):
    """Independent enumeration oracle: filter all (n, m) labels by parity."""
    out = []
    twoj = int(round(2 * j))
    for n in range(n_cutoff + 1):
        for k in range(twoj + 1):
            m = k - j
            if (int(round(j + m)) + n) % 2 == (0 if even else 1):
                out.append((n, m))
    return out


class TestModelParams:
    def test_defaults_valid(self):
        p = ModelParams()
        assert p.n_atoms == 32

    def test_n_atoms_half_integer(self):
        assert ModelParams(j=2.5, n_cutoff=10).n_atoms == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega": 0.0},
            {"omega0": -1.0},
            {"lambda_": -0.1},
            {"kappa": -0.1},
            {"j": 0.3},
            {"j": 0.0},
            {"n_cutoff": -1},
            {"energy_window": (4.0, 0.4)},
            {"mid_window": (2.0, 2.0)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["omega", "omega0", "lambda_", "kappa", "j", "n_cutoff"])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ModelParams(**{name: value})

    def test_integral_float_cutoff_is_stored_as_int(self):
        p = ModelParams(j=3.0, n_cutoff=20.0, lambda_=0.5)
        assert type(p.n_cutoff) is int and p == ModelParams(j=3.0, n_cutoff=20, lambda_=0.5)
        assert build_hamiltonian(p, Parity.EVEN).dim == 74

    def test_zero_cutoff_allowed(self):
        # the two-label toy case lives at n_cutoff = 0
        assert ModelParams(j=0.5, n_cutoff=0).n_cutoff == 0


class TestEnumeration:
    def test_even_sector_count_full_scale(self):
        p = ModelParams(j=16.0, n_cutoff=320)
        basis = enumerate_basis(p, Parity.EVEN)
        assert len(basis) == len(brute_force_labels(16.0, 320, even=True))
        assert len(basis) == 5297

    def test_odd_sector_is_complement(self):
        p = ModelParams(j=16.0, n_cutoff=320)
        odd = enumerate_basis(p, Parity.ODD)
        assert len(odd) == 10593 - 5297 == 5296

    def test_two_label_toy_case(self):
        # j=1/2, Nc=0: m=-1/2 has j+m+n = 0 (even), m=+1/2 has j+m+n = 1 (odd)
        p = ModelParams(j=0.5, n_cutoff=0)
        even = enumerate_basis(p, Parity.EVEN)
        odd = enumerate_basis(p, Parity.ODD)
        assert len(even) == 1 and even[0].n == 0 and even[0].m == -0.5
        assert len(odd) == 1 and odd[0].m == +0.5

    def test_ordering_n_then_m_ascending(self):
        p = ModelParams(j=2.0, n_cutoff=7)
        basis = enumerate_basis(p, Parity.ODD)
        keys = [(s.n, s.m) for s in basis]
        assert keys == sorted(keys)

    def test_full_basis_merges_sectors_in_order(self):
        p = ModelParams(j=1.5, n_cutoff=4)
        full = enumerate_basis(p, None)
        assert len(full) == 5 * 4
        keys = [(s.n, s.m) for s in full]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("j, n_cutoff", [(2.5, 9), (2.0, 7)])
    @pytest.mark.parametrize("sector", [Parity.EVEN, Parity.ODD, None])
    def test_labels_match_brute_force_oracle(self, j, n_cutoff, sector):
        # membership, order and parity of every label, against the independent oracle
        even = brute_force_labels(j, n_cutoff, even=True)
        odd = brute_force_labels(j, n_cutoff, even=False)
        expected = {Parity.EVEN: even, Parity.ODD: odd, None: sorted(even + odd)}[sector]
        basis = enumerate_basis(ModelParams(j=j, n_cutoff=n_cutoff), sector)
        assert basis.n.dtype == np.int64 and basis.m.dtype == np.float64
        assert list(zip(basis.n, basis.m)) == expected


class TestMatrixElement:
    def test_diagonal_hand_value(self):
        # n=2, m=-16: 2 + (-16) + 0.7 * 256 / 32 = -8.4
        p = ModelParams(omega=1.0, omega0=1.0, kappa=0.7, lambda_=0.3, j=16.0)
        s = Label(n=2, m=-16.0)
        assert hamiltonian_element(p, s, s) == pytest.approx(-8.4, abs=1e-12)

    def test_off_diagonal_hand_value(self):
        # (0.1/sqrt(32)) * sqrt(1) * sqrt(16*17 - (-16)(-15)) = 0.1
        p = ModelParams(lambda_=0.1, j=16.0)
        bra = Label(n=1, m=-15.0)
        ket = Label(n=0, m=-16.0)
        assert hamiltonian_element(p, bra, ket) == pytest.approx(0.1, abs=1e-15)

    def test_zero_coupling_kills_off_diagonal(self):
        p = ModelParams(lambda_=0.0, j=16.0)
        bra = Label(n=1, m=-15.0)
        ket = Label(n=0, m=-16.0)
        assert hamiltonian_element(p, bra, ket) == 0.0

    @pytest.mark.parametrize("dn,dm", [(1, 0), (0, 1), (2, 2), (1, 2), (2, 1), (0, 2)])
    def test_selection_rule_zeros(self, dn, dm):
        p = ModelParams(lambda_=0.9, kappa=0.4, j=4.0, n_cutoff=20)
        ket = Label(n=3, m=-1.0)
        bra = Label(n=3 + dn, m=-1.0 + dm)
        assert hamiltonian_element(p, bra, ket) == 0.0

    def test_hermiticity_of_scalar_route(self):
        p = ModelParams(lambda_=0.8, kappa=0.2, j=2.5, n_cutoff=6)
        basis = enumerate_basis(p, None)
        for a in basis[:20]:
            for b in basis[:20]:
                assert hamiltonian_element(p, a, b) == pytest.approx(
                    hamiltonian_element(p, b, a), abs=1e-15
                )


class TestBuildHamiltonian:
    def test_matches_scalar_elements(self):
        # the vectorized assembly must agree entry-for-entry with the scalar rule
        p = ModelParams(omega=0.9, omega0=1.3, lambda_=0.7, kappa=0.4, j=1.5, n_cutoff=5)
        for sector in (Parity.EVEN, Parity.ODD, None):
            h = build_hamiltonian(p, sector)
            entries = h.entries  # each read builds a new dense copy
            for i, bra in enumerate(h.basis):
                for k, ket in enumerate(h.basis):
                    assert entries[i, k] == pytest.approx(
                        hamiltonian_element(p, bra, ket), abs=1e-14
                    )

    def test_symmetry_exact(self):
        p = ModelParams(lambda_=0.6, kappa=0.3, j=3.0, n_cutoff=25)
        h = build_hamiltonian(p, Parity.EVEN).entries
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_selection_rule_structure(self):
        p = ModelParams(lambda_=0.5, kappa=0.8, j=2.0, n_cutoff=12)
        h = build_hamiltonian(p, Parity.EVEN)
        n = np.array([s.n for s in h.basis])
        m = np.array([s.m for s in h.basis])
        nz = np.nonzero(h.entries)
        off = nz[0] != nz[1]
        assert np.all(np.abs(n[nz[0][off]] - n[nz[1][off]]) == 1)
        assert np.all(np.abs(m[nz[0][off]] - m[nz[1][off]]) == 1.0)

    def test_diagonal_when_coupling_off(self):
        p = ModelParams(lambda_=0.0, kappa=0.0, j=2.0, n_cutoff=10)
        h = build_hamiltonian(p, Parity.EVEN)
        n = np.array([s.n for s in h.basis])
        m = np.array([s.m for s in h.basis])
        assert np.array_equal(h.entries, np.diag(n + m))

    def test_cross_parity_blocks_exactly_zero(self):
        p = ModelParams(lambda_=0.9, kappa=0.6, j=4.0, n_cutoff=20)
        h = build_hamiltonian(p, None)
        even = (np.rint(p.j + h.basis.m).astype(np.int64) + h.basis.n) % 2 == 0
        cross = h.entries[np.ix_(even, ~even)]
        assert np.all(cross == 0.0)

    def test_common_scaling_multiplies_elements(self):
        base = dict(omega=0.9, omega0=1.1, lambda_=0.5, kappa=0.7, j=2.0, n_cutoff=8)
        c = 3.7
        h1 = build_hamiltonian(ModelParams(**base), Parity.EVEN).entries
        scaled = {k: (v * c if k in ("omega", "omega0", "lambda_", "kappa") else v)
                  for k, v in base.items()}
        h2 = build_hamiltonian(ModelParams(**scaled), Parity.EVEN).entries
        np.testing.assert_allclose(h2, c * h1, rtol=1e-14, atol=1e-14)

    def test_dimension_cap(self, monkeypatch):
        # the cap guards only the dense matrix: the band and its eigenvalues go past it
        monkeypatch.setattr(model, "MAX_DENSE_DIM", 1000)
        h = build_hamiltonian(ModelParams(lambda_=0.5, j=16.0, n_cutoff=320), Parity.EVEN)
        assert h.dim == 5297
        assert diagonalize(h).energies.size == 5297
        with pytest.raises(AllocationTooLarge):
            h.entries

    def test_entries_is_a_fresh_fortran_copy(self):
        h = build_hamiltonian(ModelParams(lambda_=0.7, kappa=0.4, j=2.0, n_cutoff=11), None)
        first = h.entries
        expected = first.copy()
        first[:] = 7.0  # as a solver overwriting its copy would
        second = h.entries
        assert second.flags.f_contiguous and second.shape == (h.dim, h.dim)
        assert not np.shares_memory(first, second)
        assert np.array_equal(second, expected)

    @pytest.mark.parametrize("sector", [Parity.EVEN, Parity.ODD, None])
    @pytest.mark.parametrize("j, n_cutoff", [(0.5, 7), (2.0, 11), (2.5, 9), (6.0, 40)])
    def test_band_matches_scalar_elements(self, j, n_cutoff, sector):
        # band[d, i] = H[i + d, i] straight from the selection rule; slots past a row's end are 0
        p = ModelParams(omega=0.9, omega0=1.3, lambda_=0.7, kappa=0.4, j=j, n_cutoff=n_cutoff)
        h = build_hamiltonian(p, sector)
        assert h.band.shape == (h.bandwidth + 1, h.dim)
        for d in range(h.bandwidth + 1):
            for i in range(h.dim - d):
                assert h.band[d, i] == hamiltonian_element(p, h.basis[i + d], h.basis[i])
            assert np.all(h.band[d, h.dim - d:] == 0.0)

    @pytest.mark.parametrize("sector", [Parity.EVEN, Parity.ODD, None])
    @pytest.mark.parametrize("j, n_cutoff", [(0.5, 7), (2.0, 11), (2.5, 9), (6.0, 40)])
    def test_bandwidth_is_exact(self, j, n_cutoff, sector):
        # every non-zero lies within the band, and one lies on its edge
        h = build_hamiltonian(ModelParams(lambda_=0.7, kappa=0.4, j=j, n_cutoff=n_cutoff), sector)
        rows, cols = np.nonzero(h.entries)
        assert h.bandwidth == np.max(np.abs(rows - cols)) > 0

    @pytest.mark.parametrize("sector", [Parity.EVEN, Parity.ODD, None])
    def test_bandwidth_zero_without_coupling(self, sector):
        h = build_hamiltonian(ModelParams(lambda_=0.0, kappa=0.6, j=2.5, n_cutoff=9), sector)
        assert h.bandwidth == 0

    def test_bandwidth_at_full_scale(self):
        assert build_hamiltonian(ModelParams(lambda_=0.5), Parity.EVEN).bandwidth == 17

    def test_sector_dimensions_add_up(self):
        p = ModelParams(j=2.5, n_cutoff=11)
        d_even = build_hamiltonian(p, Parity.EVEN).dim
        d_odd = build_hamiltonian(p, Parity.ODD).dim
        d_full = build_hamiltonian(p, None).dim
        assert d_even + d_odd == d_full == 12 * 6
