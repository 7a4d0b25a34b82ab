"""Site-space Hamiltonians: validation, spectra, penalty extension, the
profile energy functional, instance families and file I/O.

A SiteHamiltonian is an N x N Hermitian matrix over lattice sites.  It is
never expanded into a qubit operator: every cost route evaluates it on a site
vector, either directly or through a reconstructed amplitude profile (see the
measurement module for the one-hot and packed binary registers).
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .encoding import register_width

_HERM_TOL = 1e-12
_SPECTRUM_BUDGET = 4096


class _Built:
    """A complex matrix this module has just built, handed to ``SiteHamiltonian`` without a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True)
class SiteHamiltonian:
    """Hermitian single-particle Hamiltonian over ``n_sites`` lattice sites.

    Other modules read its numbers through ``energy``, ``couplings`` and
    ``spectrum`` alone, so how ``matrix`` is stored is known in this module.
    A caller's matrix is copied, so changing it later leaves ``h`` as it was;
    the generators, the loader and ``extend_with_penalty`` hand theirs over.
    """

    n_sites: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        given = self.matrix
        mat = given.array if isinstance(given, _Built) else np.array(given, dtype=complex)
        if mat.shape != (self.n_sites, self.n_sites):
            raise ValueError(f"matrix shape {mat.shape} does not match n_sites={self.n_sites}")
        rows, dev = max(1, (1 << 14) // self.n_sites), 0.0  # blocks of 2^14 entries, not N x N temporaries
        for start in range(0, self.n_sites, rows):
            if not np.isfinite(mat[start:start + rows]).all():
                raise ValueError("matrix entries must be finite")
            dev = max(dev, np.abs(mat[start:start + rows] - mat[:, start:start + rows].conj().T).max())
        if not dev <= _HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @staticmethod
    def from_matrix(matrix) -> "SiteHamiltonian":
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        return SiteHamiltonian(mat.shape[0], mat)

    def energy(self, alpha) -> float:
        """The quadratic form alpha^H h alpha of a site vector."""
        return float((alpha.conj() @ self.matrix @ alpha).real)

    def couplings(self) -> tuple:
        """The coupled pairs (j, k), j < k and h_jk != 0, as two arrays in row-major order."""
        return np.nonzero(np.triu(self.matrix != 0, 1))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues by dense Hermitian diagonalization, computed once."""
        if self.n_sites > _SPECTRUM_BUDGET:
            raise ValueError(
                f"dense spectrum limited to {_SPECTRUM_BUDGET} sites, got {self.n_sites}"
            )
        eigs = np.linalg.eigvalsh(self.matrix)
        eigs.setflags(write=False)
        return eigs


def check_penalty(c_p) -> None:
    """Refuse a penalty energy ``c_p`` that is not a positive, finite real; a bool is refused too."""
    if isinstance(c_p, bool) or not isinstance(c_p, numbers.Real) or not (c_p > 0 and np.isfinite(c_p)):
        raise ValueError(f"penalty c_p must be positive and finite, got {c_p}")


def default_penalty(h: SiteHamiltonian) -> float:
    """A penalty energy above the whole spectrum of ``h``.

    Ten times the spectral range (floored at 1.0) when that clears the top
    eigenvalue E_max; otherwise E_max + max(range, 1.0), so a spectrum sitting
    far above zero cannot put the penalty below its ground energy.
    """
    eigs = h.spectrum
    spread = float(eigs[-1] - eigs[0])
    c_p = max(10.0 * spread, 1.0)
    if not c_p > eigs[-1]:
        c_p = float(eigs[-1]) + max(spread, 1.0)
    return c_p


def extend_with_penalty(h: SiteHamiltonian, c_p: float) -> SiteHamiltonian:
    """Embed ``h`` as the top-left block of a 2^n-site Hamiltonian, n = register_width(N).

    The added diagonal sites carry energy ``c_p`` and do not couple to the
    physical block, so for a large enough ``c_p`` the low spectrum is that of
    ``h`` unchanged.
    """
    check_penalty(c_p)
    dim = 2 ** register_width(h.n_sites)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[: h.n_sites, : h.n_sites] = h.matrix
    np.fill_diagonal(mat[h.n_sites :, h.n_sites :], c_p)
    return SiteHamiltonian(dim, _Built(mat))


def ground_energy(h: SiteHamiltonian) -> float:
    return float(h.spectrum[0])


def energy_from_profile(h: SiteHamiltonian, profile) -> float:
    """Evaluate the energy functional on a reconstructed amplitude profile.

    E = a^H h a + sum_{k inactive} h_kk r_k^2, where a is the profile's site
    vector with its inactive sites set to zero.  So pairs with an inactive
    endpoint contribute only through the surviving diagonal terms.  With
    every site active, ``a`` is ``r * exp(i * phases)`` as it stands: the
    same numbers as the masked form, without its two ``np.where`` passes.
    """
    if profile.n_sites != h.n_sites:
        raise ValueError(
            f"profile has {profile.n_sites} sites, Hamiltonian has {h.n_sites}"
        )
    active = np.asarray(profile.active, dtype=bool)
    inactive_energy = 0.0
    if np.count_nonzero(active) == active.size:
        a = profile.magnitudes * np.exp(1j * np.asarray(profile.phases))
    else:
        a = profile.site_amplitudes()
        inactive = ~active
        r = np.asarray(profile.magnitudes, dtype=float)
        inactive_energy = float(np.sum(np.diag(h.matrix).real[inactive] * r[inactive] ** 2))
    return h.energy(a) + inactive_energy


def _chain_matrix(n_sites, hopping, onsite):
    mat = np.zeros((n_sites, n_sites), dtype=complex)
    for k in range(n_sites):
        mat[k, k] = onsite[k]
    for k in range(n_sites - 1):
        mat[k, k + 1] = hopping
        mat[k + 1, k] = np.conj(hopping)
    return mat


def chain_instance(
    n_sites: int, hopping: float = 1.0, disorder: float = 0.0, seed: int = 0
) -> SiteHamiltonian:
    """Open tight-binding chain; on-site energies uniform in [-disorder, disorder].

    With zero disorder the exact spectrum is 2*hopping*cos(k*pi/(N+1)),
    k = 1..N.
    """
    half_max = sys.float_info.max / 2  # the draw's range, 2 x disorder, must be a finite float
    if not 0 <= disorder <= half_max:
        raise ValueError(f"disorder must be a number from 0 to {half_max:.6g}, got {disorder!r}")
    rng = np.random.default_rng(seed)
    onsite = rng.uniform(-disorder, disorder, size=n_sites) if disorder else np.zeros(n_sites)
    return SiteHamiltonian(n_sites, _Built(_chain_matrix(n_sites, hopping, onsite)))


def random_hermitian_instance(
    n_sites: int, scale: float = 1.0, seed: int = 0
) -> SiteHamiltonian:
    """Dense Hermitian draw: (G + G^dagger)/2 with complex Gaussian G."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n_sites, n_sites)) + 1j * rng.normal(size=(n_sites, n_sites))
    g *= scale
    return SiteHamiltonian(n_sites, _Built((g + g.conj().T) / 2.0))


def complex_ring_instance(
    n_sites: int, hopping: float = 1.0, seed: int = 0
) -> SiteHamiltonian:
    """Ring with unit-magnitude complex hoppings and random link phases."""
    rng = np.random.default_rng(seed)
    mat = np.zeros((n_sites, n_sites), dtype=complex)
    for k in range(n_sites):
        j = (k + 1) % n_sites
        if j == k:
            continue
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        val = hopping * phase
        # keep Hermiticity even for the wrap link of a 2-site ring
        mat[k, j] += val
        mat[j, k] += np.conj(val)
    return SiteHamiltonian(n_sites, _Built(mat))


FORMAT_TAG = "sesvqe-hamiltonian/1"


def save_hamiltonian(h: SiteHamiltonian, path, meta: dict | None = None) -> None:
    """Write the upper triangle (diagonal included) as structured text."""
    rows, cols = np.nonzero(np.triu(h.matrix != 0))
    values = h.matrix[rows, cols]
    entries = [list(e) for e in zip(rows.tolist(), cols.tolist(), values.real.tolist(), values.imag.tolist())]
    doc = {"format": FORMAT_TAG, "n_sites": h.n_sites, "entries": entries}
    if meta:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_site_count(n) -> None:
    """Refuse a site count the dense spectrum cannot take, before any allocation."""
    if not _is_int(n) or not 1 <= n <= _SPECTRUM_BUDGET:
        raise ValueError(f"n_sites must be an integer from 1 to {_SPECTRUM_BUDGET}, got {n!r}")


def is_real(value) -> bool:
    """A float, or an int that converts to one; a bool is no real number."""
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


def load_hamiltonian(path) -> SiteHamiltonian:
    """Read a Hamiltonian file, mirroring entries Hermitianly.

    The document is an object with an int ``n_sites`` from 1 to the dense
    spectrum's limit and a list of ``[row, col, re, im]`` entries: int
    indices with row <= col, real value parts, and a real value on the
    diagonal.  Anything else is refused, a bad site count before the matrix
    is allocated.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"a Hamiltonian file holds a JSON object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT_TAG:
        raise ValueError(f"unrecognized Hamiltonian format tag {doc.get('format')!r}")
    n = doc.get("n_sites")
    check_site_count(n)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list, got {entries!r}")
    mat = np.zeros((n, n), dtype=complex)
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError(f"entry {entry!r} is not a list [row, col, re, im]")
        row, col, re, im = entry
        if not (_is_int(row) and _is_int(col)):
            raise ValueError(f"entry {entry!r}: row and column must be integers")
        if not (is_real(re) and is_real(im)):
            raise ValueError(f"entry {entry!r}: re and im must be real numbers")
        if not (0 <= row < n and 0 <= col < n):
            raise ValueError(f"entry ({row},{col}) out of range for n_sites={n}")
        if row > col:
            raise ValueError(f"entry ({row},{col}) is below the diagonal")
        if (row, col) in seen:
            raise ValueError(f"duplicate entry ({row},{col})")
        seen.add((row, col))
        val = complex(re, im)
        if row == col:
            if not abs(val.imag) <= _HERM_TOL:
                raise ValueError(f"diagonal entry ({row},{row}) has imaginary part {im}")
            mat[row, row] = val.real
        else:
            mat[row, col] = val
            mat[col, row] = np.conj(val)
    return SiteHamiltonian(n, _Built(mat))
