"""The one topology base under :class:`Deployment` and
:class:`repro.regions.RegionalDeployment`.

The paper's Figure 1 is one shape — clients → Edge PoP (Katran +
Proxygen) → Origin DC (Proxygen → HHVM / MQTT brokers).  The two public
builders are two *layouts* of it: how many regions and PoPs, what sites
and hosts are called, how IPs are numbered, which router fronts a PoP,
in what order its L4LBs start.  Everything a topology *does* lives
here, once: run-options resolution, the env/streams/metrics/network
plumbing, the host factory, Origin-DC and Edge-proxy construction, the
client layer (populations or cohort drivers), the splice governor, the
load controller, start-up, and the aggregate views — so a run option
reaches every layout or none.

Host names seed ``streams.fork(name)``, host IPs feed the hash rings and
construction/start order fixes same-tick event order, so all three are
part of each layout's observable behaviour: a layout hands the shared
builders its names and calls them in its own order.
"""

from __future__ import annotations

from typing import Optional

from ..appserver.brokers import MqttBroker
from ..appserver.hhvm import AppServer
from ..appserver.pool import AppServerPool
from ..cohorts import CohortDriver, CohortSet, PROTOCOLS, compile_cohorts
from ..faults.injector import FaultInjector
from ..lb.consistent_hash import ConsistentHashRing
from ..lb.katran import Katran
from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint, Protocol, VIP
from ..netsim.host import Host
from ..netsim.network import INTRA_DC, Network
from ..ops.load import LoadController, LoadShape
from ..options import RunOptions
from ..proxygen.context import ProxyTierContext
from ..proxygen.server import ProxygenServer
from ..resilience.health import OutlierTracker
from ..run import run_of
from ..simkernel.core import Environment
from ..simkernel.rng import RandomStreams
from ..splice import SpliceGovernor
from ..trace.collector import TraceCollector

__all__ = ["CLIENT_CORES", "CLIENT_CORE_SPEED", "PROXY_CORES",
           "PROXY_CORE_SPEED", "Region", "RegionPoP", "Topology"]

# Machine shapes (cores × units/s per core).  App-tier machines are the
# spec's ``app_cores``/``app_core_speed``; client hosts are sized so
# they never queue — the modeled bottleneck is always server-side.
PROXY_CORES, PROXY_CORE_SPEED = 4, 20.0
CLIENT_CORES, CLIENT_CORE_SPEED = 64, 1000.0


class RegionPoP:
    """One Edge PoP: proxies behind one Katran, plus its users."""

    def __init__(self, name: str, site: str, client_site: str,
                 context: ProxyTierContext):
        self.name = name
        self.site = site
        self.client_site = client_site
        #: How this PoP's proxies reach an Origin.
        self.context = context
        self.hosts: list[Host] = []
        self.servers: list[ProxygenServer] = []
        self.katran: Optional[Katran] = None
        self.resolver = None    # regions.anycast.AnycastResolver
        self.web_clients = None
        self.mqtt_clients = None
        self.quic_clients = None
        #: With a cohort policy the three above stay None and these
        #: (repro.cohorts) drive this PoP's users instead.
        self.cohort_drivers: list[CohortDriver] = []


class Region:
    """One failure domain: an Origin DC plus its Edge PoPs."""

    def __init__(self, name: str, index: int,
                 origin_site: Optional[str] = None):
        self.name = name
        self.index = index
        self.origin_site = origin_site or f"{name}-origin"
        self.broker_hosts: list[Host] = []
        self.brokers: list[MqttBroker] = []
        self.app_hosts: list[Host] = []
        self.app_servers: list[AppServer] = []
        self.app_pool = AppServerPool()
        self.origin_hosts: list[Host] = []
        self.origin_servers: list[ProxygenServer] = []
        self.origin_katran: Optional[Katran] = None
        self.origin_router = None  # regions.routing.FallbackOriginRouter
        self.pops: list[RegionPoP] = []
        #: Administratively withdrawn from anycast (evacuation step 1).
        self.withdrawn = False
        #: Fully evacuated (checked by EvacuationCompletenessChecker).
        self.evacuated = False

    @property
    def edge_servers(self) -> list[ProxygenServer]:
        return [s for pop in self.pops for s in pop.servers]

    def katrans(self) -> list[Katran]:
        out = [pop.katran for pop in self.pops]
        if self.origin_katran is not None:
            out.append(self.origin_katran)
        return out


class Topology:
    """A built (but not yet started) set of regions.

    Each layout supplies ``_next_ip(site)``, its IP scheme (IPs feed the
    hash rings).
    """

    def __init__(self, spec, edge_vip_ip: str,
                 options: RunOptions = RunOptions(),
                 partition_rng: bool = False):
        #: Folded into the spec once, here; afterwards only
        #: ``self.spec`` is read (``options.fault_plan`` is attached
        #: when the deployment starts).
        self.options = options
        self.spec = spec = options.apply(spec)
        self.env = Environment()
        #: What this run's components share (repro.run): its options,
        #: tracer, splice governor and the channel every mechanism
        #: window is announced on.  Complete before the first component
        #: exists, so each may cache what it finds.
        self.run_record = run = run_of(self.env)
        run.options = options
        self.fault_injector: Optional[FaultInjector] = None
        self.streams = RandomStreams(spec.seed)
        # Listeners in this order: the governor de-splices before the
        # cohort set (subscribed when armed, at start-up) condenses.
        if spec.splice is not None:
            run.splice = SpliceGovernor(self.env)
            run.subscribe(run.splice.on_announce)
        if self.options.trace is not None:
            # Ids come from the seeded "trace" stream.
            run.tracer = TraceCollector(
                self.env, self.streams.stream("trace"), self.options.trace)
            run.subscribe(run.tracer.on_announce)
        self.metrics = MetricsRegistry(bucket_width=spec.bucket_width)
        self.network = Network(self.env, self.streams,
                               default_profile=INTRA_DC,
                               metrics=self.metrics,
                               partition_rng=partition_rng)
        self.katran_config = spec.resolved_katran_config()
        self.origin_vip = Endpoint(spec.origin_vip_ip, spec.https_port)
        #: What every Edge proxy listens on (https, quic, mqtt).
        self.edge_vips = [
            VIP("https", Endpoint(edge_vip_ip, spec.https_port),
                Protocol.TCP),
            VIP("quic", Endpoint(edge_vip_ip, spec.https_port),
                Protocol.UDP),
            VIP("mqtt", Endpoint(edge_vip_ip, spec.mqtt_port),
                Protocol.TCP)]
        self.regions: list[Region] = []
        self.broker_ring: ConsistentHashRing[str] = ConsistentHashRing(
            replicas=60, salt=spec.seed)
        #: Client hosts by protocol kind, every PoP's.
        self.client_hosts: dict[str, list[Host]] = {}
        #: Cohort client layer (repro.cohorts): every PoP's drivers.
        self.cohort_set = (CohortSet(self, spec.cohorts)
                           if spec.cohorts is not None else None)
        #: Autoscalers attached to this deployment (repro.ops.autoscale)
        #: — the autoscaler-discipline invariant checker audits these.
        self.autoscalers: list = []
        #: Drives client arrival rates when a load shape is configured.
        self.load_controller: Optional[LoadController] = None

    # -- construction ------------------------------------------------------

    def _host(self, name: str, site: str, cores: int,
              core_speed: float) -> Host:
        return Host(
            self.env, self.network, name, ip=self._next_ip(site),
            site=site, metrics=self.metrics,
            streams=self.streams.fork(name),
            cores=cores, core_speed=core_speed,
            cpu_bucket_width=self.spec.bucket_width)

    def _build_origin(self, region: Region, ring: ConsistentHashRing,
                      prefix: str = "", suffix: str = "") -> None:
        """One Origin DC: brokers → app servers → origin proxies → their
        Katran.  ``ring`` is what the origin tier hashes MQTT sessions
        over; every broker also joins the deployment-wide ring."""
        spec = self.spec
        site = region.origin_site
        for i in range(spec.brokers):
            host = self._host(f"{prefix}broker-{i}", site,
                              spec.app_cores, spec.app_core_speed)
            region.broker_hosts.append(host)
            region.brokers.append(MqttBroker(host))
            self.broker_ring.add(host.ip)
            if ring is not self.broker_ring:
                ring.add(host.ip)
        for i in range(spec.app_servers):
            host = self._host(f"{prefix}appserver-{i}", site,
                              spec.app_cores, spec.app_core_speed)
            region.app_hosts.append(host)
            server = AppServer(host, spec.app_config)
            region.app_servers.append(server)
            region.app_pool.add(server)
        context = ProxyTierContext(app_pool=region.app_pool,
                                   broker_ring=ring,
                                   broker_port=spec.broker_port)
        resilience = spec.resolved_origin_config().resilience
        if resilience.enabled:
            # Passive health is a *balancer-wide* view: one tracker on
            # the shared pool, fed by every Origin proxy's outcomes.
            region.app_pool.attach_health(OutlierTracker(
                resilience, self.env,
                self.streams.stream(f"outlier-tracker{suffix}"),
                counters=self.metrics.scoped_counters(
                    f"resilience-app{suffix}")))
        vips = [VIP("https", self.origin_vip, Protocol.TCP)]
        for i in range(spec.origin_proxies):
            host = self._host(f"{prefix}origin-proxy-{i}", site,
                              PROXY_CORES, PROXY_CORE_SPEED)
            region.origin_hosts.append(host)
            region.origin_servers.append(ProxygenServer(
                host, spec.resolved_origin_config(), context,
                vips=list(vips)))
        region.origin_katran = self._katran(
            f"{prefix}origin-katran", site, region.origin_hosts,
            self.origin_vip)

    def _katran(self, name: str, site: str, backends: list[Host],
                hc_vip: Endpoint) -> Katran:
        host = self._host(name, site, self.spec.app_cores,
                          self.spec.app_core_speed)
        return Katran(host, backends, config=self.katran_config,
                      name=name, hc_vip=hc_vip)

    def _edge_proxy(self, pop: RegionPoP, name: str) -> ProxygenServer:
        """One more Edge proxy in ``pop`` (not yet in any L4LB ring)."""
        spec = self.spec
        host = self._host(name, pop.site, PROXY_CORES, PROXY_CORE_SPEED)
        server = ProxygenServer(host, spec.resolved_edge_config(),
                                pop.context, vips=list(self.edge_vips))
        pop.hosts.append(host)
        pop.servers.append(server)
        return server

    def _build_clients(self, pop: RegionPoP, router, kind: str, workload,
                       host_names: list[str], name: str,
                       first_id: int = 1) -> int:
        """``pop``'s ``kind`` users, one client host per name: a
        population called ``name`` or, under a cohort policy, one driver
        per host scoped ``<name>/c<i>``.  Ids run from ``first_id`` and
        continue across cohorts (the condensed rung reproduces the
        individual host-major spawn order exactly); returns the next
        free id."""
        if workload is None:
            return first_id
        cls, count_field = PROTOCOLS[kind]
        # edge_vips is (https, quic, mqtt); QUIC shares https's endpoint.
        vip = self.edge_vips[2 if kind == "mqtt" else 0].endpoint
        hosts = [self._host(host_name, pop.client_site, CLIENT_CORES,
                            CLIENT_CORE_SPEED) for host_name in host_names]
        self.client_hosts.setdefault(kind, []).extend(hosts)
        per_host = getattr(workload, count_field)
        policy = self.spec.cohorts
        if policy is None:
            setattr(pop, f"{kind}_clients", cls(
                hosts, vip, router, self.metrics, workload, name=name,
                first_id=first_id))
            return first_id + per_host * len(hosts)
        drivers = self.cohort_set.drivers
        for host, cohort in zip(hosts, compile_cohorts(
                policy, kind, per_host, len(hosts))):
            driver = CohortDriver(
                cohort, policy, host, vip, router, self.metrics, workload,
                scope=f"{name}/{cohort.name}", first_id=first_id,
                cohort_index=len(drivers))
            first_id += driver.spawned
            drivers.append(driver)
            pop.cohort_drivers.append(driver)
        return first_id

    def _attach_load(self) -> None:
        """Call once every PoP has its clients."""
        if self.spec.load_shape is not None:
            # Cohort drivers carry ``kind`` like a population and fan
            # the scale into their lanes.
            targets = (self.cohort_set.drivers
                       if self.cohort_set is not None else
                       self.web_populations + self.mqtt_populations
                       + self.quic_populations)
            self.load_controller = LoadController(
                self.env, LoadShape(self.spec.load_shape), targets,
                metrics=self.metrics)

    # -- run ---------------------------------------------------------------

    def start(self, only_regions: Optional[list] = None):
        """Kick off every component; returns the "infrastructure ready"
        process (clients start once it completes).  ``only_regions``
        (region names) starts a subset — a shard worker (repro.shard)
        builds the *full* topology (identical IPs, names and rings
        everywhere) but animates only its own regions."""
        plan = self.options.fault_plan
        if plan is not None and self.fault_injector is None:
            self.fault_injector = FaultInjector(self, plan).attach()
        return self.env.process(self._startup(only_regions))

    def _katran_start_order(self, region: Region) -> list[Katran]:
        """L4LB start order is same-tick event order: per shape, kept."""
        return region.katrans()

    def _startup(self, only_regions: Optional[list] = None):
        if only_regions is None:
            regions = self.regions
        else:
            wanted = set(only_regions)
            regions = [r for r in self.regions if r.name in wanted]
            missing = wanted - {r.name for r in regions}
            if missing:
                raise KeyError(f"no region named {sorted(missing)}")
        for region in regions:
            for broker in region.brokers:
                broker.start()
            for app in region.app_servers:
                app.start()
        for tier in ("origin_servers", "edge_servers"):
            yield self.env.all_of([self.env.process(server.start())
                                   for region in regions
                                   for server in getattr(region, tier)])
        for region in regions:
            for katran in self._katran_start_order(region):
                katran.start(katran.host.spawn(katran.name))
        pops = [pop for region in regions for pop in region.pops]
        if self.cohort_set is not None:
            self.cohort_set.arm(
                [driver for pop in pops for driver in pop.cohort_drivers])
        for pop in pops:
            # A PoP's resolver is up before its clients dial.
            for part in (pop.resolver, pop.web_clients, pop.mqtt_clients,
                         pop.quic_clients, *pop.cohort_drivers):
                if part is not None:
                    part.start()
        if self.load_controller is not None:
            self.load_controller.start()

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``."""
        self.env.run(until=until)

    # -- aggregate views ---------------------------------------------------

    @property
    def edge_servers(self) -> list[ProxygenServer]:
        return [s for region in self.regions for s in region.edge_servers]

    @property
    def origin_servers(self) -> list[ProxygenServer]:
        return [s for region in self.regions
                for s in region.origin_servers]

    @property
    def app_servers(self) -> list[AppServer]:
        return [s for region in self.regions for s in region.app_servers]

    @property
    def brokers(self) -> list[MqttBroker]:
        return [b for region in self.regions for b in region.brokers]

    def _populations(self, kind: str) -> list:
        if self.cohort_set is not None:
            # Every lane — representative and solo alike — so per-lane
            # conservation keeps being checked.
            return self.cohort_set.populations(kind)
        populations = (getattr(pop, f"{kind}_clients")
                       for region in self.regions for pop in region.pops)
        return [p for p in populations if p is not None]

    @property
    def web_populations(self) -> list:
        """Every web client population (the invariant checkers iterate
        this so both shapes look alike)."""
        return self._populations("web")

    @property
    def mqtt_populations(self) -> list:
        return self._populations("mqtt")

    @property
    def quic_populations(self) -> list:
        return self._populations("quic")

    def all_katrans(self) -> list[Katran]:
        """Every L4LB in the deployment (fault injection / checkers)."""
        return [k for region in self.regions for k in region.katrans()]
