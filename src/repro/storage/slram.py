"""Raw slram-style block driver over a memory region.

The slram driver exposes a memory region as a simple RAM-disk block device
— no persistence machinery, no flush: the raw access path the paper's
experiments used alongside pmem.io.  Useful as the no-sync comparison
point and for driving volatile regions.
"""

from __future__ import annotations

from ..errors import StorageError
from ..processor.power8 import Power8Socket
from ..sim import Signal, Simulator
from ..units import CACHE_LINE_BYTES
from .pmem import PmemConfig


class SlramDevice:
    """Block-style access to any mapped memory region (volatile or not)."""

    def __init__(
        self,
        sim: Simulator,
        socket: Power8Socket,
        base: int,
        size: int,
        config: PmemConfig = PmemConfig(),
        name: str = "slram0",
    ):
        region = socket.memory_map.region_at(base)
        if base + size > region.base + region.os_size:
            raise StorageError(f"{name}: window exceeds region")
        self.sim = sim
        self.socket = socket
        self.base = base
        self.capacity_bytes = size
        self.config = config
        self.name = name
        self.reads = 0
        self.writes = 0

    def _line_addrs(self, offset: int, nbytes: int):
        if offset % CACHE_LINE_BYTES or nbytes % CACHE_LINE_BYTES:
            raise StorageError(f"{self.name}: slram IO must be line-aligned")
        if offset < 0 or offset + nbytes > self.capacity_bytes:
            raise StorageError(f"{self.name}: IO outside device")
        start = self.base + offset
        return [start + i for i in range(0, nbytes, CACHE_LINE_BYTES)]

    def submit_read(self, offset: int, nbytes: int) -> Signal:
        done = Signal(f"{self.name}.r")
        self.reads += 1
        self._pipeline(
            self._line_addrs(offset, nbytes),
            lambda addr: self.socket.read_line(addr),
            self.config.read_window,
            done,
        )
        return done

    def submit_write(self, offset: int, nbytes: int) -> Signal:
        done = Signal(f"{self.name}.w")
        self.writes += 1
        self._pipeline(
            self._line_addrs(offset, nbytes),
            lambda addr: self.socket.write_line(addr, bytes(CACHE_LINE_BYTES)),
            self.config.write_window,
            done,
        )
        return done

    def _pipeline(self, addrs, issue, window, done: Signal) -> None:
        """Issue line ops with bounded outstanding; trigger when all land."""
        state = {"next": 0, "inflight": 0}

        def pump():
            while state["inflight"] < window and state["next"] < len(addrs):
                addr = addrs[state["next"]]
                state["next"] += 1
                state["inflight"] += 1
                issue(addr).add_waiter(retire)

        def retire(_):
            state["inflight"] -= 1
            if state["next"] >= len(addrs) and state["inflight"] == 0:
                done.trigger(None)
            else:
                pump()

        self.sim.call_after(self.config.driver_overhead_ps, pump)
