"""Workload framework.

A :class:`Workload` is a multi-module minic program plus:

- **input classes** ("test"/"train"/"ref", after SPEC's convention) that
  bind global data objects and parameter scalars at load time,
- a **Python reference implementation** computing the expected exit
  value — every simulated run is self-checking, and the reference doubles
  as a differential-testing oracle for the whole toolchain.

Multi-module sources are the point: the linker's input order can be
permuted (the paper's link-order experiments), so each workload splits
its code across several translation units the way real programs do.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

Bindings = Dict[str, Union[int, List[int]]]

#: Input-class names in increasing size, mirroring SPEC.
SIZES = ("test", "train", "ref")


class WorkloadError(Exception):
    """A workload definition or input request is invalid."""


@dataclass(frozen=True)
class Workload:
    """One benchmark program.

    Attributes:
        name: suite-unique identifier (SPEC-counterpart name).
        description: one-line domain description.
        sources: module name -> minic source text.  Iteration order is the
            default link order.
        make_input: ``(size, seed) -> bindings`` producing loader bindings
            (global symbol -> scalar or array contents).
        reference: ``(bindings) -> int`` computing the expected exit value
            with minic semantics (use :mod:`repro.workloads.refops`).
        tags: free-form descriptors ("branchy", "memory-bound", ...).
    """

    name: str
    description: str
    sources: Mapping[str, str]
    make_input: Callable[[str, int], Bindings]
    reference: Callable[[Bindings], int]
    tags: Tuple[str, ...] = ()

    def module_names(self) -> List[str]:
        """Module names in default link order."""
        return list(self.sources)

    def input_for(self, size: str = "test", seed: int = 0) -> Bindings:
        """Input bindings for one (size, seed) pair."""
        if size not in SIZES:
            raise WorkloadError(
                f"{self.name}: unknown input class {size!r} (use one of {SIZES})"
            )
        return self.make_input(size, seed)

    def expected(self, bindings: Bindings) -> int:
        """Expected exit value for ``bindings``."""
        return self.reference(bindings)

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, modules={self.module_names()})"


_LCG_MASK = (1 << 63) - 1
_LCG_MUL = 3202034522624059733
_LCG_INC = 4354685564936845319

#: States stepped together per round once a stream is past its first
#: round.  Each lane is one state in a 128-bit slot of a single integer,
#: wide enough that a slot's product and sum never carry into the next.
_LANES = 256


def _lane_constants() -> Tuple[int, int, int, struct.Struct]:
    """The jump multiplier ``A**256``, the jump increment ``C_256``
    replicated into every slot, the 63-bit mask replicated likewise, and
    the little-endian codec of one round's slots (the low 64-bit word
    of each; the high word is skipped)."""
    mul, inc = 1, 0
    for __ in range(_LANES):
        mul = (mul * _LCG_MUL) & _LCG_MASK
        inc = (inc * _LCG_MUL + _LCG_INC) & _LCG_MASK

    def every_slot(word: int) -> int:
        return int.from_bytes(word.to_bytes(16, "little") * _LANES, "little")

    slots = struct.Struct("<" + "Q8x" * _LANES)
    return mul, every_slot(inc), every_slot(_LCG_MASK), slots


_JUMP_MUL, _JUMP_INC, _SLOT_MASK, _SLOTS = _lane_constants()


def _first_states(seed: int) -> Iterator[int]:
    """The first round's 256 states of the stream seeded by ``seed``,
    one recurrence step each."""
    state = (seed * 2862933555777941757 + 3037000493) & _LCG_MASK
    for __ in range(_LANES):
        state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        yield state


def _later_rounds(states: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """The rounds after the one whose states are ``states``, 256 values
    each.  State ``i + 256`` is ``A**256 * s[i] + C_256`` (mod 2**63), so
    one big-integer multiply-add advances all 256 lanes of a round."""
    lanes = int.from_bytes(_SLOTS.pack(*states), "little")
    while True:
        lanes = (lanes * _JUMP_MUL + _JUMP_INC) & _SLOT_MASK
        # Shifting the whole integer moves each slot's value into its low
        # word; the next slot's low 16 bits land in the skipped high word.
        yield _SLOTS.unpack((lanes >> 16).to_bytes(_SLOTS.size, "little"))


def lcg_values(seed: int) -> Iterator[int]:
    """Deterministic 63-bit LCG; the suite's only randomness source.

    An endless iterator over the values of the stream seeded by
    ``seed``.  Its first round steps one state per value, so a caller
    that draws a few values pays for a few steps; after that it reads
    the 256-lane rounds of :func:`lcg_rounds`.  The values are exactly
    those of the one-state-at-a-time recurrence, in the same order, on
    any host byte order.
    """
    states = []
    for state in _first_states(seed):
        states.append(state)
        yield state >> 16
    for values in _later_rounds(states):
        yield from values


def lcg_rounds(seed: int) -> Iterator[Tuple[int, ...]]:
    """:func:`lcg_values` 256 values at a time: an endless iterator of
    tuples that, joined, are exactly that stream.  For callers that
    draw in bulk, such as BCa resampling."""
    states = list(_first_states(seed))
    yield tuple(state >> 16 for state in states)
    yield from _later_rounds(states)


def lcg_stream(seed: int) -> Callable[[], int]:
    """:func:`lcg_values` as a zero-argument function yielding the next
    value.  Workload input generators must use this (never
    :mod:`random`) so inputs are stable across Python versions.
    """
    return lcg_values(seed).__next__


def scaled(size: str, test: int, train: int, ref: int) -> int:
    """Pick a size-dependent parameter value."""
    return {"test": test, "train": train, "ref": ref}[size]
