"""Binary codeword maps for site registers.

A site register of N sites is packed into n = max(1, ceil(log2 N)) qubits.
The default "shifted" map sends site k to the codeword (k + 1) mod 2^n so the
all-zeros register is the codeword of the last site of a full register; the
"plain" map sends site k to k.  Codewords are integers; bit ell of a codeword
lives on data qubit ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def register_width(n_sites: int) -> int:
    """Number of data qubits needed for ``n_sites`` sites (minimum 1)."""
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    return max(1, math.ceil(math.log2(n_sites)))


@dataclass(frozen=True)
class EncodingMap:
    """Injective site -> codeword assignment over an n-qubit register."""

    n_sites: int
    num_qubits: int
    mode: str
    codewords: tuple = field(repr=False)

    def __post_init__(self):
        if 2**self.num_qubits < self.n_sites:
            raise ValueError(
                f"{self.num_qubits} qubits cannot encode {self.n_sites} sites"
            )
        if len(self.codewords) != self.n_sites:
            raise ValueError("one codeword required per site")
        if len(set(self.codewords)) != self.n_sites:
            raise ValueError("codewords must be distinct")
        for c in self.codewords:
            if not 0 <= c < 2**self.num_qubits:
                raise ValueError(f"codeword {c} out of range")

    def codeword(self, site: int) -> int:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range for {self.n_sites} sites")
        return self.codewords[site]


def build_map(n_sites: int, mode: str = "shifted") -> EncodingMap:
    """Construct the site -> codeword map.

    ``shifted`` (default): site k -> (k + 1) mod 2^n.
    ``plain``: site k -> k.
    """
    n = register_width(n_sites)
    if mode == "shifted":
        words = tuple((k + 1) % 2**n for k in range(n_sites))
    elif mode == "plain":
        words = tuple(range(n_sites))
    else:
        raise ValueError(f"unknown encoding mode {mode!r}")
    return EncodingMap(n_sites, n, mode, words)


def gray_code(value: int) -> int:
    """Standard reflected binary code of an integer."""
    if value < 0:
        raise ValueError("gray_code expects a non-negative integer")
    return (value >> 1) ^ value


def gray_sequence(num_qubits: int) -> list:
    """Cyclic reflected-Gray ordering of all n-bit codewords.

    Consecutive entries (including last -> first) differ in exactly one bit.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    return [gray_code(i) for i in range(2**num_qubits)]


def diff_sets(a: int, b: int, width: int) -> tuple:
    """Split the positions 0..width-1 into (differ, agree) for two codewords.

    Returns ``(D, S)`` where D is the set of positions whose bits differ and
    S maps each agreeing position to the shared bit value.  D and S
    partition the register.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if a >> width or b >> width:
        raise ValueError(f"codeword wider than {width} bits")
    d = set()
    s = {}
    for pos in range(width):
        bit_a = (a >> pos) & 1
        if bit_a == (b >> pos) & 1:
            s[pos] = bit_a
        else:
            d.add(pos)
    return d, s


def hypercube_edges(emap: EncodingMap) -> list:
    """All unordered encoded-site pairs whose codewords differ in one bit.

    Each entry is ``(site_j, site_k, flip_position)`` with ``site_j < site_k``.
    For a full register (N = 2^n) there are n * 2^(n-1) edges.
    """
    edges = []
    inv = {c: s for s, c in enumerate(emap.codewords)}
    for site_j in range(emap.n_sites):
        cj = emap.codeword(site_j)
        for pos in range(emap.num_qubits):
            ck = cj ^ (1 << pos)
            site_k = inv.get(ck)
            if site_k is not None and site_j < site_k:
                edges.append((site_j, site_k, pos))
    return edges
