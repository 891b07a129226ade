"""Compiler vendor profiles.

The paper demonstrates measurement bias with two compilers, gcc and
Intel's icc.  We model a "vendor" as a bundle of heuristics layered over
the same pass infrastructure — which is exactly what distinguishes real
compilers for the purposes of layout-induced bias:

- how aggressively they inline and unroll (code size / shape),
- whether they schedule instructions (load-use distances),
- whether they pad hot loop heads to fetch-window boundaries
  (icc's ``-falign-loops``-style behaviour),
- how many locals they keep in registers and whether they cache global
  base addresses in registers.

Indexing any tuple with the optimization level (0-3) yields that knob's
setting, e.g. ``GCC.unroll_factor[3] == 4``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

OPT_LEVELS = (0, 1, 2, 3)


@dataclass(frozen=True)
class CompilerProfile:
    """Heuristic bundle for one modelled compiler vendor.

    Attributes:
        name: vendor tag ("gcc", "icc").
        inline_threshold: max callee statement count inlined, per level.
        unroll_factor: loop unroll factor, per level (1 = no unrolling).
        promote_registers: max scalars promoted to callee-saved registers.
        cache_global_bases: max global base addresses cached in registers.
        schedule: whether the post-codegen list scheduler runs.
        loop_alignment: byte alignment requested for hot loop heads
            (1 = none).  Padding is 1-byte NOPs inserted by the linker.
    """

    name: str
    inline_threshold: Tuple[int, int, int, int]
    unroll_factor: Tuple[int, int, int, int]
    promote_registers: Tuple[int, int, int, int]
    cache_global_bases: Tuple[int, int, int, int]
    schedule: Tuple[bool, bool, bool, bool]
    loop_alignment: Tuple[int, int, int, int]

    def validate(self) -> None:
        """Sanity-check knob ranges (used by tests and custom profiles)."""
        for level in OPT_LEVELS:
            if self.unroll_factor[level] < 1:
                raise ValueError(f"{self.name}: unroll factor must be >= 1")
            if self.inline_threshold[level] < 0:
                raise ValueError(f"{self.name}: inline threshold must be >= 0")
            total_regs = (
                self.promote_registers[level] + self.cache_global_bases[level]
            )
            if total_regs > 6:
                raise ValueError(
                    f"{self.name}: promote + cached bases exceed the 6 "
                    f"callee-saved registers at O{level}"
                )
            align = self.loop_alignment[level]
            if align < 1 or (align & (align - 1)) != 0:
                raise ValueError(f"{self.name}: loop alignment must be a power of 2")

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to plain data (JSON-safe), so a setup with a custom
        profile can be archived, journaled, keyed and sent to agents."""
        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompilerProfile":
        """Reconstruct a profile serialized by :meth:`to_dict`."""
        data = dict(data)
        for key, value in data.items():
            if isinstance(value, list):
                data[key] = tuple(value)
        return cls(**data)


#: gcc-flavoured heuristics: inlines small callees from O2, unrolls only
#: at O3, never pads loops.
GCC = CompilerProfile(
    name="gcc",
    inline_threshold=(0, 0, 8, 24),
    unroll_factor=(1, 1, 1, 4),
    promote_registers=(0, 4, 4, 4),
    cache_global_bases=(0, 0, 2, 2),
    schedule=(False, False, False, True),
    loop_alignment=(1, 1, 1, 1),
)

#: icc-flavoured heuristics: more aggressive inlining and earlier
#: unrolling, schedules from O2, pads hot loop heads to 16 bytes.
ICC = CompilerProfile(
    name="icc",
    inline_threshold=(0, 0, 12, 32),
    unroll_factor=(1, 1, 2, 4),
    promote_registers=(0, 4, 4, 4),
    cache_global_bases=(0, 2, 2, 2),
    schedule=(False, False, True, True),
    loop_alignment=(1, 1, 16, 16),
)

_PROFILES = {"gcc": GCC, "icc": ICC}


def get_profile(name: str) -> CompilerProfile:
    """Look up a built-in profile by vendor name."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown compiler profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None


def available_profiles() -> Tuple[str, ...]:
    """Names of the built-in vendor profiles."""
    return tuple(sorted(_PROFILES))
