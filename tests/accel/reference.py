"""Textbook reference implementations the accelerator fast paths are tested against."""

import numpy as np

from repro.errors import AccelError


def radix2_fft_loop(samples: np.ndarray) -> np.ndarray:
    """Iterative radix-2 DIT FFT over complex64 samples, one element and
    one butterfly block at a time."""
    n = len(samples)
    if n & (n - 1):
        raise AccelError(f"FFT size {n} is not a power of two")
    data = np.asarray(samples, dtype=np.complex128).copy()
    # bit-reversal permutation
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            data[i], data[j] = data[j], data[i]
    # butterflies
    length = 2
    while length <= n:
        ang = -2j * np.pi / length
        w_len = np.exp(ang * np.arange(length // 2))
        for start in range(0, n, length):
            half = length // 2
            # copy: the slice is a view and is overwritten before its second use
            even = data[start : start + half].copy()
            odd = data[start + half : start + length] * w_len
            data[start : start + half] = even + odd
            data[start + half : start + length] = even - odd
        length <<= 1
    return data.astype(np.complex64)
