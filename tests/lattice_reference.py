"""Brute-force Kronecker lattice sums, kept as an independent oracle for the
elliptic Bernoulli functions: the truncated double sum over the lattice,
with a heuristic bound on the discarded rings."""

from dataclasses import dataclass

import numpy as np

from ellded.qseries import ComplexVal, TauPoint


@dataclass(frozen=True)
class LatticeCutoff:
    """Truncation radius for direct lattice sums: max(|m|, |n|) <= radius."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")


def kronecker_direct(k: int, z: complex, tau: TauPoint,
                     cutoff: LatticeCutoff) -> ComplexVal:
    """Truncated Kronecker lattice sum

        C_k(z) ~ sum_{|m|,|n| <= R, (m,n) != 0} chi(w conj(z)) / w^k,

    with w = m tau + n and chi(t) = exp(2 pi i Im(t) / Im(tau)).  Only the
    absolutely convergent range k >= 3 is supported; the reported err is the
    O(R^{2-k}) lattice tail bound.
    """
    if k < 3:
        raise ValueError("k must be >= 3 (conditionally convergent sums are out of scope)")
    t = complex(tau.tau)
    R = cutoff.radius
    ms = np.arange(-R, R + 1)
    ns = np.arange(-R, R + 1)
    M, N = np.meshgrid(ms, ns, indexing="ij")
    W = M * t + N
    mask = (M != 0) | (N != 0)
    Wm = np.where(mask, W, 1.0)
    chi = np.exp(2j * np.pi * (Wm * np.conjugate(z)).imag / t.imag)
    terms = np.where(mask, chi / Wm**k, 0.0)
    # inner sum over n first, then over m (Eisenstein summation order)
    val = complex(terms.sum(axis=1).sum())
    # points at ring max(|m|,|n|) = s number ~ 8s and satisfy |w| >= c*s
    c = min(1.0, t.imag) / (1.0 + abs(t.real))
    tail = 8.0 * c ** (-k) * R ** (2 - k) / (k - 2)
    return ComplexVal(val, tail)
