"""Ising spins to QUBO bits, which only the tests need (the library goes
the other way, with `qubo.bits_to_spins`)."""

import numpy as np


def spins_to_bits(s) -> np.ndarray:
    """-1/+1 spins to 0/1 bits."""
    return ((np.asarray(s) + 1) // 2).astype(np.uint8)
