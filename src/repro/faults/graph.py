"""Fault graph: correlated outages across hosts, links, and sites.

Dobre/Pop/Cristea's dependability paper models a distributed system's
failures as *correlated*: a site-wide outage (power, cooling, an operator)
does not take down one machine — it takes down every machine in the room
**and** the access links that hang off it.  Independent per-host injectors
cannot express that; this module can.

A :class:`FaultGraph` holds three component kinds:

``host``
    Binds a :class:`~repro.hosts.cpu.SpaceSharedMachine`; going down calls
    ``machine.fail(repair_eta=...)`` (evicting work per the machine's
    restart policy), coming up calls ``machine.repair()``.
``link``
    Binds a directed topology edge (plus its reverse when symmetric);
    going down hides the edge from routing (``Topology.fail_link``) and
    aborts every in-flight flow crossing it (``FlowNetwork.abort_link``),
    surfacing each as a failed transfer the service layer retries with
    deterministic backoff.
``site``
    A container of hosts and links.  Failing a site *cascades*: every
    child goes down with cause "the site", and comes back when the site is
    repaired — unless the child has an independent fault of its own still
    open.

Cause-set semantics make overlapping faults compose exactly: a component
is down while its cause set is non-empty, so "host h crashed, then its
site lost power, then h's own repair finished" leaves h down until the
site repair clears the last cause.  Effects (evictions, flow aborts) fire
only on the empty→non-empty and non-empty→empty transitions, so nested
outages never double-evict or double-repair.

Per-component outage clocks feed MTTR and availability metrics; when a
:mod:`repro.obs` session is attached, every transition also lands in the
labeled metrics registry (``repro_fault_transitions_total``,
``repro_fault_repair_seconds``) and the trace.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.monitor import Monitor
from ..network.flow import FlowNetwork
from ..network.topology import Topology

__all__ = ["FaultComponent", "FaultGraph"]


class FaultComponent:
    """One failable unit (host, link, or site) and its outage clock."""

    __slots__ = ("name", "kind", "machine", "link_ends", "children",
                 "parent", "causes", "down_at", "downtime", "outages")

    def __init__(self, name: str, kind: str, machine=None,
                 link_ends: tuple[str, str, bool] | None = None) -> None:
        self.name = name
        self.kind = kind
        self.machine = machine
        self.link_ends = link_ends
        self.children: list[str] = []
        self.parent: Optional[str] = None
        #: names of components whose faults currently hold this one down
        #: (itself for a direct fault, an ancestor site for a cascade).
        self.causes: set[str] = set()
        self.down_at: Optional[float] = None
        self.downtime = 0.0
        self.outages = 0

    @property
    def down(self) -> bool:
        """True while any fault (own or cascaded) holds the component down."""
        return bool(self.causes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"down({','.join(sorted(self.causes))})" if self.causes else "up"
        return f"<FaultComponent {self.kind}:{self.name} {state}>"


class FaultGraph:
    """The dependency model driving correlated fail/repair effects.

    Parameters
    ----------
    sim:
        The owning simulator (outage clocks read ``sim.now``).
    topology / network:
        Required only when link components exist: the topology carries the
        up/down routing state, the flow network aborts in-flight transfers.
    """

    def __init__(self, sim: Simulator, topology: Topology | None = None,
                 network: FlowNetwork | None = None) -> None:
        self.sim = sim
        self.topology = topology
        self.network = network
        self._components: dict[str, FaultComponent] = {}
        self.monitor = Monitor("fault-graph")

    # -- construction --------------------------------------------------------

    def _register(self, comp: FaultComponent) -> str:
        if comp.name in self._components:
            raise ConfigurationError(
                f"duplicate fault component {comp.name!r}")
        self._components[comp.name] = comp
        return comp.name

    def add_host(self, name: str, machine) -> str:
        """Register a failable machine; returns the component name."""
        for attr in ("fail", "repair", "failed"):
            if not hasattr(machine, attr):
                raise ConfigurationError(
                    f"host component {name!r}: machine lacks {attr!r} "
                    "(space-shared machines support failure injection)")
        return self._register(FaultComponent(name, "host", machine=machine))

    def add_link(self, name: str, src: str, dst: str,
                 symmetric: bool = True) -> str:
        """Register a failable topology edge; returns the component name."""
        if self.topology is None:
            raise ConfigurationError(
                "link components need a topology (pass it to FaultGraph)")
        self.topology.link(src, dst)  # validates the edge exists
        return self._register(
            FaultComponent(name, "link", link_ends=(src, dst, symmetric)))

    def add_site(self, name: str, children: Iterable[str] = ()) -> str:
        """Register a site grouping existing host/link components."""
        comp = FaultComponent(name, "site")
        for child in children:
            sub = self._components.get(child)
            if sub is None:
                raise ConfigurationError(
                    f"site {name!r}: unknown child component {child!r}")
            if sub.kind == "site":
                raise ConfigurationError(
                    f"site {name!r}: nested sites are not supported")
            if sub.parent is not None:
                raise ConfigurationError(
                    f"site {name!r}: {child!r} already belongs to "
                    f"{sub.parent!r}")
            sub.parent = name
            comp.children.append(child)
        return self._register(comp)

    @classmethod
    def from_grid(cls, grid) -> "FaultGraph":
        """Build the natural graph of a :class:`~repro.hosts.site.Site`
        grid: one host component per failable machine, one link component
        per access link leaving the site, one site component over both.

        A symmetric link pair is registered exactly once (double ownership
        would let one site's repair resurrect an edge another site still
        holds down); compute sites claim their access links first, so a
        leaf outage cuts the leaf off rather than the hub.
        """
        graph = cls(grid.sim, grid.topology, grid.network)
        ordered = sorted(grid.site_names,
                         key=lambda n: (0 if grid.sites[n].machines else 1, n))
        claimed: set[frozenset] = set()
        children_of: dict[str, list[str]] = {}
        for name in ordered:
            site = grid.sites[name]
            children: list[str] = []
            for m in site.machines:
                if hasattr(m, "fail"):
                    children.append(graph.add_host(f"host:{m.name}", m))
            for spec in grid.topology.links:
                if spec.src != name:
                    continue
                pair = frozenset((spec.src, spec.dst))
                if pair in claimed:
                    continue
                claimed.add(pair)
                children.append(graph.add_link(
                    f"link:{spec.src}->{spec.dst}", spec.src, spec.dst))
            children_of[name] = children
        for name in grid.site_names:
            if children_of.get(name):
                graph.add_site(f"site:{name}", children_of[name])
        return graph

    # -- queries -------------------------------------------------------------

    def component(self, name: str) -> FaultComponent:
        """The component by name (ConfigurationError when unknown)."""
        try:
            return self._components[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown fault component {name!r}") from None

    def components(self, kind: str | None = None) -> list[FaultComponent]:
        """All components (of *kind* when given), in registration order."""
        out = list(self._components.values())
        if kind is not None:
            out = [c for c in out if c.kind == kind]
        return out

    def roots(self) -> list[FaultComponent]:
        """Components with no parent site — the natural injection targets."""
        return [c for c in self._components.values() if c.parent is None]

    def is_down(self, name: str) -> bool:
        """True while *name* is held down by any fault."""
        return self.component(name).down

    def downtime(self, name: str) -> float:
        """Down seconds of *name* so far, including an open outage."""
        comp = self.component(name)
        down = comp.downtime
        if comp.down_at is not None:
            down += self.sim.now - comp.down_at
        return down

    def availability(self, name: str) -> float:
        """Fraction of elapsed time *name* was up (1.0 before t>0)."""
        t = self.sim.now
        if t <= 0:
            return 1.0
        return 1.0 - self.downtime(name) / t

    # -- fault operations ----------------------------------------------------

    def fail(self, name: str, repair_eta: float | None = None) -> None:
        """Open a fault on *name*; a site fault cascades to its children.

        *repair_eta* (absolute time) is forwarded to host machines as the
        scheduler hint.  Idempotent per cause: re-failing an already-failed
        component changes nothing.
        """
        self._set_cause(self.component(name), name, True, repair_eta)

    def repair(self, name: str) -> None:
        """Close *name*'s own fault; children held down only by the cascade
        come back, children with their own open fault stay down."""
        self._set_cause(self.component(name), name, False, None)

    def _set_cause(self, comp: FaultComponent, cause: str, down: bool,
                   repair_eta: float | None) -> None:
        was_down = comp.down
        if down:
            comp.causes.add(cause)
        else:
            comp.causes.discard(cause)
        if down and not was_down:
            self._take_down(comp, repair_eta)
        elif not down and was_down and not comp.down:
            self._bring_up(comp)
        for child in comp.children:
            self._set_cause(self._components[child], cause, down, repair_eta)

    def _take_down(self, comp: FaultComponent, repair_eta: float | None) -> None:
        comp.down_at = self.sim.now
        comp.outages += 1
        self.monitor.counter(f"outages_{comp.kind}").increment(self.sim.now)
        obs = self.sim._obs
        if obs is not None:
            obs.on_fault(comp.kind, comp.name, "fail")
        if comp.kind == "host":
            evicted = comp.machine.fail(repair_eta=repair_eta)
            if evicted:
                self.monitor.counter("jobs_evicted").increment(
                    self.sim.now, evicted)
        elif comp.kind == "link":
            src, dst, symmetric = comp.link_ends
            downed = self.topology.fail_link(src, dst, symmetric=symmetric)
            if self.network is not None:
                for spec in downed:
                    self.network.abort_link(spec)

    def _bring_up(self, comp: FaultComponent) -> None:
        dt = self.sim.now - comp.down_at
        comp.downtime += dt
        comp.down_at = None
        self.monitor.tally("mttr").record(dt)
        obs = self.sim._obs
        if obs is not None:
            obs.on_fault(comp.kind, comp.name, "repair", downtime=dt)
        if comp.kind == "host":
            comp.machine.repair()
        elif comp.kind == "link":
            src, dst, symmetric = comp.link_ends
            self.topology.repair_link(src, dst, symmetric=symmetric)

    # -- reporting -----------------------------------------------------------

    @property
    def mttr_observed(self) -> float:
        """Mean observed per-outage repair time (NaN before any repair)."""
        return self.monitor.tally("mttr").mean

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {}
        for c in self._components.values():
            kinds[c.kind] = kinds.get(c.kind, 0) + 1
        body = " ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        return f"<FaultGraph {body}>"
