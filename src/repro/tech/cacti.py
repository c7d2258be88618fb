"""CACTI-style cache access and cycle time model.

The paper drives exploration with the CACTI tool of Wilton & Jouppi,
consuming three of its outputs (Table 1): the full *access time*, the *tag
comparison* time (for associative searches), and the *total data-path
without output driver*.  :class:`CactiModel` reproduces that interface on
top of the analytical :mod:`repro.tech.array` and :mod:`repro.tech.cam`
models.

Like the real tool, the model refuses block sizes below 8 bytes (the paper
notes "CACTI does not produce accurate modeling for block sizes smaller
than 8 bytes" and uses 8 bytes as the width of issue-queue entries).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TimingError
from .array import ArrayGeometry, ArrayTiming, array_timing
from .cam import CamGeometry, cam_search_ns
from .technology import TechnologyNode

MIN_BLOCK_BYTES = 8


@dataclass(frozen=True)
class CactiResult:
    """The subset of CACTI outputs consumed by the exploration tool.

    Attributes mirror Table 1's "used component of CACTI output" column:

    * ``access_time_ns`` — full read access (decoder through output driver);
    * ``tag_comparison_ns`` — associative tag match (the wake-up component);
    * ``datapath_ns`` — total data-path without the output driver (the
      select and LSQ component).
    """

    access_time_ns: float
    tag_comparison_ns: float
    datapath_ns: float


class CactiModel:
    """Access-time model for RAM and CAM structures in one technology node.

    Solutions are memoized per geometry: the model is pure per technology
    node, and exploration re-times the same handful of structures on
    every move, so repeat geometries are answered from ``_memo`` (hit
    and miss counts are kept on ``memo_hits``/``memo_misses``).

    ``fit_tables`` holds the per-candidate delay tables that
    :mod:`repro.uarch.fit` builds on first use; it starts empty.
    """

    def __init__(self, tech: TechnologyNode) -> None:
        self._tech = tech
        self._memo: dict[tuple, CactiResult] = {}
        self.fit_tables: dict[tuple, object] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def tech(self) -> TechnologyNode:
        """The technology node this model is instantiated for."""
        return self._tech

    def ram(
        self,
        nsets: int,
        assoc: int,
        block_bytes: int,
        read_ports: int,
        write_ports: int,
    ) -> CactiResult:
        """Model a set-associative or direct-mapped RAM structure.

        Raises :class:`TimingError` for block sizes below 8 bytes, matching
        the real tool's accuracy floor.
        """
        if block_bytes < MIN_BLOCK_BYTES:
            raise TimingError(
                f"CACTI model is inaccurate below {MIN_BLOCK_BYTES}-byte blocks "
                f"(got {block_bytes})"
            )
        key = ("ram", nsets, assoc, block_bytes, read_ports, write_ports)
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        geometry = ArrayGeometry(
            nsets=nsets,
            assoc=assoc,
            line_bits=block_bytes * 8,
            read_ports=read_ports,
            write_ports=write_ports,
        )
        timing: ArrayTiming = array_timing(geometry, self._tech)
        result = CactiResult(
            access_time_ns=timing.access_ns,
            tag_comparison_ns=timing.compare_ns,
            datapath_ns=timing.datapath_ns,
        )
        self._memo[key] = result
        return result

    def cam(
        self,
        entries: int,
        block_bytes: int,
        read_ports: int,
        write_ports: int = 0,
    ) -> CactiResult:
        """Model a fully associative (CAM) search structure.

        For a CAM the "tag comparison" output is the full search (broadcast
        + compare + match), which is what the wake-up logic uses.
        """
        if block_bytes < MIN_BLOCK_BYTES:
            raise TimingError(
                f"CACTI model is inaccurate below {MIN_BLOCK_BYTES}-byte blocks "
                f"(got {block_bytes})"
            )
        key = ("cam", entries, block_bytes, read_ports, write_ports)
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        geometry = CamGeometry(
            entries=entries,
            tag_bits=block_bytes * 8,
            read_ports=read_ports,
            write_ports=write_ports,
        )
        search = cam_search_ns(geometry, self._tech)
        # Reading out the matched entry adds a RAM-style data-path.
        data = array_timing(
            ArrayGeometry(
                nsets=1 if entries == 1 else _next_pow2(entries),
                assoc=1,
                line_bits=block_bytes * 8,
                read_ports=read_ports,
                write_ports=max(1, write_ports),
            ),
            self._tech,
        )
        result = CactiResult(
            access_time_ns=search + data.output_ns,
            tag_comparison_ns=search,
            datapath_ns=search + data.sense_ns,
        )
        self._memo[key] = result
        return result


def _next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << (n - 1).bit_length() if n > 1 else 1
