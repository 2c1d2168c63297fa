"""The six surveyed simulators (plus this framework) classified.

Every axis choice is justified by a quote or paraphrase from the paper,
carried in each record's ``notes`` — the registry *is* Table 1, with
provenance.  ``tests/test_taxonomy.py`` renders it and asserts the prose
claims.
"""

from __future__ import annotations

from .record import SimulatorRecord
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

__all__ = ["SURVEYED", "REPRO_RECORD", "all_records", "record"]

_ALL4 = frozenset({Component.HOSTS, Component.NETWORK, Component.MIDDLEWARE,
                   Component.APPLICATIONS})

BRICKS = SimulatorRecord(
    name="Bricks", year=1999,
    motivations=frozenset({Motivation.SCHEDULING, Motivation.DATA_REPLICATION}),
    systems=frozenset({SystemKind.GRID}),
    components=_ALL4,
    behavior=Behavior.PROBABILISTIC,
    time_base=TimeBase.DISCRETE,
    mechanics=Mechanics.DISCRETE_EVENT,
    des_kinds=frozenset({DesKind.EVENT_DRIVEN}),
    execution=Execution.CENTRALIZED,
    queue_structure=QueueStructure.UNKNOWN,
    entity_mapping=EntityMapping.EVENT_CALLBACKS,
    spec_modes=frozenset({SpecMode.LANGUAGE, SpecMode.LIBRARY}),
    input_kinds=frozenset({InputKind.GENERATOR}),
    design_ui=UiKind.TEXTUAL,
    execution_ui=UiKind.TEXTUAL,
    output_analysis=OutputAnalysis.NONE,
    validation=ValidationKind.TESTBED,
    runtime_components=False,
    notes={
        "motivations": "'among the first simulation projects developed to "
                       "investigate different resource scheduling issues'; "
                       "'extended ... with replica and disk management "
                       "simulation capabilities'",
        "organization": "the 'central model': all jobs processed at a single site",
        "runtime_components": "'The vast majority of simulation tools provide "
                              "this capability, but there are also exceptions "
                              "(Bricks for example)'",
        "validation": "paper lists Bricks among the few with validation studies",
    })

OPTORSIM = SimulatorRecord(
    name="OptorSim", year=2002,
    motivations=frozenset({Motivation.DATA_REPLICATION, Motivation.DATA_TRANSPORT}),
    systems=frozenset({SystemKind.GRID}),
    components=_ALL4,
    behavior=Behavior.PROBABILISTIC,
    time_base=TimeBase.DISCRETE,
    mechanics=Mechanics.DISCRETE_EVENT,
    des_kinds=frozenset({DesKind.EVENT_DRIVEN, DesKind.TIME_DRIVEN}),
    execution=Execution.CENTRALIZED,
    queue_structure=QueueStructure.UNKNOWN,
    entity_mapping=EntityMapping.ONE_TO_ONE,
    spec_modes=frozenset({SpecMode.LIBRARY}),
    input_kinds=frozenset({InputKind.GENERATOR}),
    design_ui=UiKind.TEXTUAL,
    execution_ui=UiKind.TEXTUAL,
    output_analysis=OutputAnalysis.PLOTS,
    validation=ValidationKind.NONE,
    runtime_components=True,
    notes={
        "motivations": "'WorkPackage 2 ... responsible for replica management "
                       "and optimization, and the emphasis is on this area'",
        "model": "'investigate the stability and transient behavior of "
                 "replication optimization methods'; pull replication",
        "entity_mapping": "Java threads drive CE/SE entities",
        "des_kinds": "selectable time-stepped or event-based advancement",
    })

SIMGRID = SimulatorRecord(
    name="SimGrid", year=2001,
    motivations=frozenset({Motivation.SCHEDULING}),
    systems=frozenset({SystemKind.GRID, SystemKind.APPLICATION}),
    components=frozenset({Component.HOSTS, Component.NETWORK,
                          Component.APPLICATIONS}),
    behavior=Behavior.PROBABILISTIC,
    time_base=TimeBase.DISCRETE,
    mechanics=Mechanics.DISCRETE_EVENT,
    des_kinds=frozenset({DesKind.EVENT_DRIVEN, DesKind.TRACE_DRIVEN}),
    execution=Execution.CENTRALIZED,
    queue_structure=QueueStructure.UNKNOWN,
    entity_mapping=EntityMapping.EVENT_CALLBACKS,
    spec_modes=frozenset({SpecMode.LIBRARY}),
    input_kinds=frozenset({InputKind.GENERATOR, InputKind.MONITORED}),
    design_ui=UiKind.TEXTUAL,
    execution_ui=UiKind.TEXTUAL,
    output_analysis=OutputAnalysis.NONE,
    validation=ValidationKind.MATHEMATICAL,
    runtime_components=True,
    notes={
        "components": "'SimGrid does not provide any of the system support "
                      "facilities as discussed in the taxonomy' — no "
                      "middleware layer of its own",
        "model": "agents sending/receiving events via channels; compile-time "
                 "and runtime scheduling",
        "validation": "'comparing the results of the simulator with the ones "
                      "obtained analytically on a mathematically tractable "
                      "scheduling problem' (Casanova 2001)",
        "input_kinds": "resource availability can replay NWS-style traces",
    })

GRIDSIM = SimulatorRecord(
    name="GridSim", year=2002,
    motivations=frozenset({Motivation.ECONOMY, Motivation.SCHEDULING}),
    systems=frozenset({SystemKind.GRID, SystemKind.CLUSTER, SystemKind.P2P}),
    components=_ALL4,
    behavior=Behavior.PROBABILISTIC,
    time_base=TimeBase.DISCRETE,
    mechanics=Mechanics.DISCRETE_EVENT,
    des_kinds=frozenset({DesKind.EVENT_DRIVEN}),
    execution=Execution.CENTRALIZED,
    queue_structure=QueueStructure.UNKNOWN,
    entity_mapping=EntityMapping.ONE_TO_ONE,
    spec_modes=frozenset({SpecMode.LIBRARY, SpecMode.VISUAL}),
    input_kinds=frozenset({InputKind.GENERATOR}),
    design_ui=UiKind.GRAPHICAL,
    execution_ui=UiKind.TEXTUAL,
    output_analysis=OutputAnalysis.PLOTS,
    validation=ValidationKind.NONE,
    runtime_components=True,
    notes={
        "motivations": "'investigate effective resource allocation techniques "
                       "based on computational economy'; deadline & budget "
                       "constrained cost-time optimization",
        "systems": "'clusters, Grids, and P2P networks'; time- and "
                   "space-shared resources",
        "design_ui": "'Examples of simulators providing visual design "
                     "interfaces are GridSim and MONARC 2'",
        "entity_mapping": "SimJava threads: one per simulation entity",
    })

CHICAGOSIM = SimulatorRecord(
    name="ChicagoSim", year=2002,
    motivations=frozenset({Motivation.SCHEDULING, Motivation.DATA_REPLICATION}),
    systems=frozenset({SystemKind.GRID}),
    components=_ALL4,
    behavior=Behavior.PROBABILISTIC,
    time_base=TimeBase.DISCRETE,
    mechanics=Mechanics.DISCRETE_EVENT,
    des_kinds=frozenset({DesKind.EVENT_DRIVEN}),
    execution=Execution.CENTRALIZED,
    queue_structure=QueueStructure.UNKNOWN,
    entity_mapping=EntityMapping.ONE_TO_ONE,
    spec_modes=frozenset({SpecMode.LANGUAGE, SpecMode.LIBRARY}),
    input_kinds=frozenset({InputKind.GENERATOR}),
    design_ui=UiKind.TEXTUAL,
    execution_ui=UiKind.TEXTUAL,
    output_analysis=OutputAnalysis.NONE,
    validation=ValidationKind.NONE,
    runtime_components=True,
    notes={
        "motivations": "'designed to investigate scheduling strategies in "
                       "conjunction with data location'",
        "model": "configurable number of schedulers rather than one Resource "
                 "Broker; push replication of popular files; sites with "
                 "equal-capacity processors and limited storage",
        "spec_modes": "'built on top of the C-based simulation language Parsec'",
        "input_kinds": "'ChicagoSim accepts only input data generators'",
    })

MONARC2 = SimulatorRecord(
    name="MONARC 2", year=2004,
    motivations=frozenset({Motivation.GENERIC_MODELING,
                           Motivation.DATA_REPLICATION,
                           Motivation.SCHEDULING}),
    systems=frozenset({SystemKind.GRID, SystemKind.FARM}),
    components=_ALL4,
    behavior=Behavior.PROBABILISTIC,
    time_base=TimeBase.DISCRETE,
    mechanics=Mechanics.DISCRETE_EVENT,
    des_kinds=frozenset({DesKind.EVENT_DRIVEN}),
    execution=Execution.DISTRIBUTED,
    queue_structure=QueueStructure.UNKNOWN,
    entity_mapping=EntityMapping.POOLED,
    spec_modes=frozenset({SpecMode.LIBRARY, SpecMode.VISUAL}),
    input_kinds=frozenset({InputKind.GENERATOR, InputKind.MONITORED}),
    design_ui=UiKind.GRAPHICAL,
    execution_ui=UiKind.GRAPHICAL,
    output_analysis=OutputAnalysis.ANALYSIS,
    validation=ValidationKind.TESTBED,
    runtime_components=True,
    notes={
        "model": "tier model: 'a hierarchy of different sites ... grouped "
                 "into levels called tiers'; regional centres with CPU "
                 "farms, database servers, mass storage, LAN/WAN",
        "mechanics": "'process oriented approach ... Threaded objects or "
                     "Active Objects'",
        "entity_mapping": "thread reuse / advanced mapping schemes — the "
                          "engine optimization the paper credits modern "
                          "simulators with",
        "execution": "uses every processor of the station via threading; "
                     "'there are no pure distributed simulators' (§3)",
        "input_kinds": "'MONARC 2 accepts both types of input (the monitoring "
                       "data format is the one produced by MonALISA)'",
        "validation": "paper lists MONARC among the few with validation "
                      "studies; Legrand 2005 LHC study",
    })

#: This framework, classified under its own taxonomy (eat your own dog food).
REPRO_RECORD = SimulatorRecord(
    name="repro", year=2026,
    motivations=frozenset({Motivation.GENERIC_MODELING, Motivation.SCHEDULING,
                           Motivation.DATA_REPLICATION, Motivation.ECONOMY}),
    systems=frozenset({SystemKind.GRID, SystemKind.CLUSTER, SystemKind.P2P,
                       SystemKind.FARM, SystemKind.APPLICATION}),
    components=_ALL4,
    behavior=Behavior.PROBABILISTIC,
    time_base=TimeBase.DISCRETE,
    mechanics=Mechanics.DISCRETE_EVENT,
    des_kinds=frozenset({DesKind.EVENT_DRIVEN, DesKind.TIME_DRIVEN,
                         DesKind.TRACE_DRIVEN}),
    execution=Execution.DISTRIBUTED,
    queue_structure=QueueStructure.CALENDAR,
    entity_mapping=EntityMapping.POOLED,
    spec_modes=frozenset({SpecMode.LIBRARY}),
    input_kinds=frozenset({InputKind.GENERATOR, InputKind.MONITORED}),
    design_ui=UiKind.TEXTUAL,
    execution_ui=UiKind.TEXTUAL,
    output_analysis=OutputAnalysis.ANALYSIS,
    validation=ValidationKind.MATHEMATICAL,
    runtime_components=True,
    notes={
        "queue_structure": "pluggable: linear, heap, splay, calendar, ladder, "
                           "adaptive (self-tuning: migrates between heap/"
                           "calendar/ladder on the sampled workload)",
        "entity_mapping": "pluggable: dedicated / shared / pooled contexts",
        "execution": "sequential, CMB null-message and synchronous-window "
                     "conservative executors",
        "validation": "M/M/1, M/M/c, M/G/1, Jackson networks vs simulation "
                      "(tests + benchmark E4)",
    })

#: The paper's six, in survey order.
SURVEYED: tuple[SimulatorRecord, ...] = (
    BRICKS, OPTORSIM, SIMGRID, GRIDSIM, CHICAGOSIM, MONARC2,
)


def all_records() -> list[SimulatorRecord]:
    """The surveyed six plus this framework."""
    return list(SURVEYED) + [REPRO_RECORD]


def record(name: str) -> SimulatorRecord:
    """Look up a record by (case-insensitive) name."""
    for r in all_records():
        if r.name.lower() == name.lower():
            return r
    raise KeyError(f"no record named {name!r}")
