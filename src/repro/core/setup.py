"""The experimental setup abstraction.

The paper's thesis is that a performance conclusion is a function of the
*entire* experimental setup — including parts nobody reports, like the
UNIX environment size and the link order.  :class:`ExperimentalSetup`
makes every such parameter an explicit, first-class value, so studies can
vary, randomize and report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from repro.arch.machines import MachineConfig, get_machine
from repro.os.environment import Environment
from repro.toolchain.profiles import CompilerProfile

MachineLike = Union[str, MachineConfig]
CompilerLike = Union[str, CompilerProfile]


@dataclass(frozen=True)
class ExperimentalSetup:
    """One complete configuration under which a program is measured.

    Attributes:
        machine: machine preset name ("core2", "pentium4", "m5_o3cpu") or
            a custom :class:`MachineConfig` (ablations).
        compiler: vendor profile name ("gcc" or "icc") or a custom
            :class:`CompilerProfile`.
        opt_level: 0-3.
        link_order: module-name permutation handed to the linker; ``None``
            uses the workload's declared order.
        env_bytes: total UNIX environment size in bytes; ``None`` uses the
            unmodified baseline environment.
        env_base: the baseline environment grown to ``env_bytes``.
        stack_align: loader's final stack-pointer alignment.
        function_alignment: linker function alignment (ablation A1).
    """

    machine: MachineLike = "core2"
    compiler: CompilerLike = "gcc"
    opt_level: int = 2
    link_order: Optional[Tuple[str, ...]] = None
    env_bytes: Optional[int] = None
    env_base: Environment = field(default_factory=Environment.typical)
    stack_align: int = 4
    function_alignment: int = 16

    def __post_init__(self) -> None:
        if self.opt_level not in (0, 1, 2, 3):
            raise ValueError(f"opt_level must be 0-3, got {self.opt_level}")
        if self.link_order is not None and not isinstance(self.link_order, tuple):
            object.__setattr__(self, "link_order", tuple(self.link_order))

    def with_changes(self, **changes) -> "ExperimentalSetup":
        """A copy with the given fields replaced (the idiomatic way to
        derive a treatment setup from a base setup)."""
        return replace(self, **changes)

    def machine_config(self) -> MachineConfig:
        """Resolve the machine field to a concrete configuration."""
        if isinstance(self.machine, MachineConfig):
            return self.machine
        return get_machine(self.machine)

    def environment(self) -> Environment:
        """Resolve the environment this setup runs under."""
        if self.env_bytes is None:
            return self.env_base
        return Environment.of_size(self.env_bytes, self.env_base)

    @property
    def machine_name(self) -> str:
        cfg = self.machine
        return cfg.name if isinstance(cfg, MachineConfig) else cfg

    @property
    def compiler_name(self) -> str:
        """The compiler profile's name, whether preset or custom."""
        profile = self.compiler
        return profile.name if isinstance(profile, CompilerProfile) else profile

    def build_key(self) -> tuple:
        """Cache key for the *compiled and linked* artifact: every field
        that affects the executable (but not the run environment)."""
        return (
            self.compiler,
            self.opt_level,
            self.link_order,
            self.function_alignment,
        )

    def describe(self) -> str:
        """Compact human-readable description."""
        parts = [
            self.machine_name,
            self.compiler_name,
            f"O{self.opt_level}",
        ]
        if self.link_order is not None:
            parts.append("order=" + ",".join(self.link_order))
        if self.env_bytes is not None:
            parts.append(f"env={self.env_bytes}B")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.describe()
