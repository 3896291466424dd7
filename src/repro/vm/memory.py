"""Flat word-addressed data memory with a simple heap allocator.

Memory is sparse (a dict of non-zero words): guest programs address a large
space but touch little of it, and sparse storage makes snapshots for region
pinballs cheap.  The heap allocator is a bump allocator with a free list —
deterministic given a deterministic allocation order, which replay
guarantees.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.vm.errors import HeapError, VMError

Word = Union[int, float]

#: Top of the data address space; thread stacks are carved from just below.
ADDRESS_SPACE_TOP = 1 << 22
#: Words reserved per thread stack.
STACK_SIZE = 1 << 14

#: The value poison mode fills freed blocks with (0xDEADBEEF as a signed
#: 32-bit word).  Distinctive enough that a guest assertion can test for
#: it, and nonzero so the sparse store keeps the words resident.
HEAP_POISON = -559038737


class Memory:
    """Sparse word memory plus heap allocation state.

    With ``poison_freed`` enabled, :meth:`free` overwrites every word of
    the released block with :data:`HEAP_POISON` — a use-after-free then
    reads a loud, recognizable value instead of silently stale data, and
    does so *deterministically* on record and on every replay (the flag
    rides in the snapshot).
    """

    def __init__(self, heap_base: int, poison_freed: bool = False) -> None:
        self._words: Dict[int, Word] = {}
        self.heap_base = heap_base
        self.heap_next = heap_base
        self.poison_freed = poison_freed
        # Free list: size -> list of base addresses available for reuse.
        self._free: Dict[int, List[int]] = {}
        # Block sizes for free(); addr -> size.
        self._block_sizes: Dict[int, int] = {}

    # -- word access --------------------------------------------------------

    def read(self, addr: int) -> Word:
        if addr <= 0 or addr >= ADDRESS_SPACE_TOP:
            raise VMError("bad read address %d" % addr)
        return self._words.get(addr, 0)

    def write(self, addr: int, value: Word) -> None:
        if addr <= 0 or addr >= ADDRESS_SPACE_TOP:
            raise VMError("bad write address %d" % addr)
        if value == 0 and not isinstance(value, float):
            self._words.pop(addr, None)
        else:
            self._words[addr] = value

    def load_image(self, image: Dict[int, Word]) -> None:
        for addr, value in image.items():
            self.write(addr, value)

    # -- heap ----------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` words; returns base address (never 0)."""
        if size <= 0:
            size = 1
        bucket = self._free.get(size)
        if bucket:
            addr = bucket.pop()
        else:
            addr = self.heap_next
            self.heap_next += size
            if self.heap_next >= ADDRESS_SPACE_TOP - STACK_SIZE * 64:
                raise VMError("heap exhausted")
        self._block_sizes[addr] = size
        return addr

    def free(self, addr: int) -> Optional[List[Tuple[int, Word]]]:
        """Release a block; returns the poison writes performed (address,
        value pairs) when poison mode is on, else None.

        The caller (the ``free`` syscall) attributes those writes to the
        freeing instruction, so a slice of a use-after-free read reaches
        the ``delete`` site through an ordinary memory dependence.
        """
        size = self._block_sizes.pop(addr, None)
        if size is None:
            raise HeapError("free of unallocated address %d" % addr)
        self._free.setdefault(size, []).append(addr)
        if not self.poison_freed:
            return None
        writes: List[Tuple[int, Word]] = []
        for offset in range(size):
            self._words[addr + offset] = HEAP_POISON
            writes.append((addr + offset, HEAP_POISON))
        return writes

    # -- snapshot / restore ----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state for region pinballs (pair lists, since
        JSON cannot carry int-keyed dicts).  The poison flag is only
        present when enabled, so pinballs of ordinary runs are
        byte-identical to those recorded before the flag existed.

        Each free-list bucket keeps its order: :meth:`malloc` reuses a
        bucket's last block, so a restored machine allocates as this
        one would."""
        snap = {
            "words": sorted(self._words.items()),
            "heap_base": self.heap_base,
            "heap_next": self.heap_next,
            "free": sorted((size, list(addrs))
                           for size, addrs in self._free.items()),
            "block_sizes": sorted(self._block_sizes.items()),
        }
        if self.poison_freed:
            snap["poison"] = True
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Memory":
        memory = cls(heap_base=snap["heap_base"],
                     poison_freed=bool(snap.get("poison", False)))
        memory._words = {int(addr): value for addr, value in snap["words"]}
        memory.heap_next = snap["heap_next"]
        memory._free = {int(size): [int(a) for a in addrs]
                        for size, addrs in snap["free"]}
        memory._block_sizes = {int(addr): int(size)
                               for addr, size in snap["block_sizes"]}
        return memory

    def nonzero_items(self) -> Iterator[Tuple[int, Word]]:
        return iter(sorted(self._words.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        return self._words == other._words

    def __len__(self) -> int:
        return len(self._words)
