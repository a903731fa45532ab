"""Near-memory FFT accelerator farm (Table 5, row 3).

Calculates 1024-point FFTs over 8-byte complex samples (two float32 per
sample).  Per the paper, "the FFTs are calculated in parallel on multiple
FFT accelerators, in such a way that ... sample and result transfers
between a given accelerator and the DIMMs are overlapped with computation
on the other accelerators" — so the farm, like the other kernels, runs at
the DIMM ports' bandwidth (1.3 Gsamples/s ~ 10.4 GB/s of sample reads).

The FFT is functionally real: each 1024-sample block is transformed with
an in-library radix-2 implementation and the results are written back to
the DIMMs, so a read-back sees actual spectra.  Its output is bit-identical
to the element-by-element reference loop in ``tests/accel/reference.py``
and close to ``numpy.fft``, whose rounding differs.  Compute time per
engine is modeled as a pipelined radix-2 core at the fabric clock; with
enough engines the transfers dominate.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from ..errors import AccelError
from .block import BlockAccelerator, ControlBlock

KERNEL_FFT = 0x12

FFT_POINTS = 1024
SAMPLE_BYTES = 8  # complex64
BLOCK_BYTES = FFT_POINTS * SAMPLE_BYTES  # 8 KiB — exactly one DMA chunk


@functools.cache
def _plan(n: int) -> Tuple[np.ndarray, Tuple[Tuple[int, np.ndarray], ...]]:
    """Bit-reversal indices and per-stage ``(half, twiddles)`` for size ``n``.

    Built on first use of each size, not at import.
    """
    rev = np.zeros(1, dtype=np.intp)
    while len(rev) < n:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    stages = []
    length = 2
    while length <= n:
        ang = -2j * np.pi / length
        twiddles = np.exp(ang * np.arange(length // 2))
        twiddles.setflags(write=False)
        stages.append((length // 2, twiddles))
        length <<= 1
    rev.setflags(write=False)
    return rev, tuple(stages)


def radix2_fft(samples: np.ndarray) -> np.ndarray:
    """Iterative radix-2 DIT FFT over a 1-D power-of-two block of samples.

    This is the algorithm the hardware pipeline implements.  The bit
    reversal is one gather and each butterfly stage one operation over a
    ``(n // length, length)`` view, with complex128 intermediates and the
    same twiddles and even/odd order as the element-by-element loop in
    ``tests/accel/reference.py``, so the complex64 output is bit-identical
    to it.  It is close to ``numpy.fft.fft``, whose rounding differs.
    """
    data = np.asarray(samples)
    if data.ndim != 1:
        raise AccelError(f"FFT input must be 1-D, got shape {data.shape}")
    n = data.shape[0]
    if n == 0 or n & (n - 1):
        raise AccelError(f"FFT size {n} is not a power of two")
    rev, stages = _plan(n)
    data = data.astype(np.complex128, copy=False)[rev]
    for half, twiddles in stages:
        blocks = data.reshape(-1, 2 * half)
        even = blocks[:, :half]
        odd = blocks[:, half:] * twiddles
        blocks[:, half:] = even - odd
        blocks[:, :half] += odd
    return data.astype(np.complex64)


class FftEngineFarm(BlockAccelerator):
    """Multiple FFT engines fed round-robin by the Access processor."""

    resource_block = "fft_engine"

    #: fabric cycles one engine needs per 1024-point transform: a streaming
    #: multi-path radix core consumes 4 samples/cycle plus pipeline fill
    CYCLES_PER_BLOCK = FFT_POINTS // 4 + 64  # 320 cycles ~ 1.3 us

    def __init__(self, sim, access, num_engines: int = 8, name: str = ""):
        super().__init__(sim, access, name or "fftfarm")
        if num_engines < 1:
            raise AccelError("FFT farm needs at least one engine")
        self.num_engines = num_engines
        self._engine_free_ps = [0] * num_engines
        self.blocks_transformed = 0

    def _kernel(self, cb: ControlBlock):
        if cb.opcode != KERNEL_FFT:
            raise AccelError(f"{self.name}: unexpected opcode {cb.opcode:#x}")
        if cb.length % BLOCK_BYTES != 0:
            raise AccelError(
                f"{self.name}: length must be a multiple of {BLOCK_BYTES}B blocks"
            )
        num_blocks = cb.length // BLOCK_BYTES
        compute_ps = self.CYCLES_PER_BLOCK * self.access.clock.period_ps
        pending_write = None
        # stream several blocks per DMA so row bursts stay pipelined on both
        # ports; the Access processor schedules result transfers of one batch
        # under the sample transfers of the next
        blocks_per_batch = 32
        done_blocks = 0
        while done_blocks < num_blocks:
            batch = min(blocks_per_batch, num_blocks - done_blocks)
            src = cb.src + done_blocks * BLOCK_BYTES
            dst = cb.dst + done_blocks * BLOCK_BYTES
            read_proc = self.access.dma_read(src, batch * BLOCK_BYTES)
            yield read_proc.done
            raw = read_proc.result
            spectra = []
            farm_ready = self.sim.now_ps
            for b in range(batch):
                samples = np.frombuffer(
                    raw[b * BLOCK_BYTES : (b + 1) * BLOCK_BYTES], dtype=np.complex64
                )
                spectra.append(radix2_fft(samples).tobytes())
                # the farm retires one block per compute_ps / num_engines
                # once its pipelines are saturated
                farm_ready += compute_ps // self.num_engines
                self.blocks_transformed += 1
            if farm_ready > self.sim.now_ps + compute_ps:
                # compute-bound: wait for the farm to drain past the batch
                yield farm_ready - self.sim.now_ps
            if pending_write is not None and not pending_write.finished:
                yield pending_write.done
            pending_write = self.access.dma_write(dst, b"".join(spectra))
            done_blocks += batch
        if pending_write is not None and not pending_write.finished:
            yield pending_write.done
        return (num_blocks, 0)
