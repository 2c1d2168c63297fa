"""SimulatorRecord: one instrument's classification under the taxonomy."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import ConfigurationError
from .schema import (
    Behavior,
    Component,
    DesKind,
    EntityMapping,
    Execution,
    InputKind,
    Mechanics,
    Motivation,
    OutputAnalysis,
    QueueStructure,
    SpecMode,
    SystemKind,
    TimeBase,
    UiKind,
    ValidationKind,
)

__all__ = ["SimulatorRecord"]


@dataclass(frozen=True)
class SimulatorRecord:
    """One row of Table 1: a simulator classified on every taxonomy axis.

    ``notes`` carries the provenance quotes (what the paper says that
    justifies each choice); ``runtime_components`` captures the "ability to
    easily incorporate components dynamically defined during simulation
    runtime" flag the paper singles out (Bricks lacks it).
    """

    name: str
    year: int
    motivations: frozenset[Motivation]
    systems: frozenset[SystemKind]
    components: frozenset[Component]
    behavior: Behavior
    time_base: TimeBase
    mechanics: Mechanics
    des_kinds: frozenset[DesKind]
    execution: Execution
    queue_structure: QueueStructure
    entity_mapping: EntityMapping
    spec_modes: frozenset[SpecMode]
    input_kinds: frozenset[InputKind]
    design_ui: UiKind
    execution_ui: UiKind
    output_analysis: OutputAnalysis
    validation: ValidationKind
    runtime_components: bool
    notes: dict[str, str] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("record needs a name")
        for fset, label in ((self.motivations, "motivations"),
                            (self.systems, "systems"),
                            (self.components, "components"),
                            (self.des_kinds, "des_kinds"),
                            (self.spec_modes, "spec_modes"),
                            (self.input_kinds, "input_kinds")):
            if not fset:
                raise ConfigurationError(
                    f"record {self.name!r}: {label} must be non-empty")

    # -- derived views ---------------------------------------------------------

    def axis_value(self, axis: str):
        """Fetch an axis by field name (used by diffing and rendering)."""
        if not hasattr(self, axis):
            raise ConfigurationError(f"unknown taxonomy axis {axis!r}")
        return getattr(self, axis)

    def short(self, axis: str) -> str:
        """Compact human-readable cell for tables."""
        v = self.axis_value(axis)
        if isinstance(v, frozenset):
            return ", ".join(sorted(x.value for x in v))
        if isinstance(v, bool):
            return "yes" if v else "no"
        if hasattr(v, "value"):
            return str(v.value)
        return str(v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimulatorRecord {self.name!r} ({self.year})>"


#: The axes rendered as Table 1 columns, in presentation order.
TABLE1_AXES = [
    "motivations",
    "systems",
    "components",
    "behavior",
    "time_base",
    "mechanics",
    "des_kinds",
    "execution",
    "queue_structure",
    "entity_mapping",
    "spec_modes",
    "input_kinds",
    "design_ui",
    "execution_ui",
    "output_analysis",
    "validation",
    "runtime_components",
]
