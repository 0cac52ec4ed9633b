"""LB design-space ablation: stateless vs stateful vs LRU vs Concury.

Extends fig02d/fig10's misrouting lens across the whole router design
space (repro.lb.routers): for each scheme, an identical deterministic
schedule of backend churn (health flaps), a release wave (batched
restarts), and an L4LB takeover, measuring

* **misrouting** — picks that move an established flow off a backend
  that is still in the pool (a broken connection at L4);
* **failover reroutes** — picks that move a flow because its backend is
  genuinely down (required, not a bug);
* **table memory** — the peak per-flow state the LB held, plus the
  scheme's other state (Concury version tables, client-carried stamps);
* **pick cost** — a deterministic model of hash work per pick (not
  wall-clock pick throughput, so that the same seed always produces
  the identical report).
"""

from __future__ import annotations

from ..lb.katran import DOWN_THRESHOLD, UP_THRESHOLD, Katran, KatranConfig
from ..lb.routers import ROUTER_SCHEMES, ConcuryRouter
from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint, FourTuple, Protocol
from ..netsim.host import Host
from ..netsim.network import LinkProfile, Network
from ..options import RunOptions
from ..simkernel.core import Environment
from ..simkernel.rng import RandomStreams
from .common import ExperimentResult

__all__ = ["run"]


class _Arm:
    """One scheme's run: a Katran driven directly (no client traffic),
    so every scheme sees the byte-identical membership schedule."""

    def __init__(self, scheme: str, seed: int, backends: int, flows: int):
        self.scheme = scheme
        self.env = Environment()
        self.streams = RandomStreams(seed)
        metrics = MetricsRegistry()
        network = Network(self.env, self.streams,
                          default_profile=LinkProfile(latency=0.001))
        self.hosts = [Host(self.env, network, f"b{i}", f"10.0.1.{i + 1}",
                           "edge", metrics) for i in range(backends)]
        katran_host = Host(self.env, network, "katran", "10.0.0.200",
                           "edge", metrics)
        # Enough retained versions that Concury's stamp GC never fires
        # inside the run: the ablation then shows the clean trade-off
        # (misroute-free at the cost of versions × members memory, the
        # version_tables_* scalar); dropping the cap re-introduces
        # misroutes at GC time, which repro.fuzz explores separately.
        self.katran = Katran(
            katran_host, self.hosts, hc_port=443,
            config=KatranConfig(lb_scheme=scheme, flow_ttl=30.0,
                                concury_max_versions=64))
        self.flows = [FourTuple(Protocol.TCP,
                                Endpoint("1.1.1.1", 1024 + i),
                                Endpoint("100.64.0.1", 443))
                      for i in range(flows)]
        #: flow → backend the client currently holds a connection to.
        self.established: dict[FourTuple, str] = {}
        self.misroutes = 0
        self.failover_reroutes = 0
        self.pick_cost = 0
        self.picks = 0
        self.peak_entries = 0
        self.phase_misroutes: dict[str, int] = {}
        self.phase_failovers: dict[str, int] = {}

    # -- the deterministic pick-cost model --------------------------------

    def _cost_of_pick(self) -> int:
        """Hash evaluations one pick costs under this scheme.

        Ring lookups hash the key once (then binary-search); table hits
        hash the key once; a Concury codeword lookup rendezvous-hashes
        the key against every member of the flow's version.
        """
        router = self.katran.router
        if isinstance(router, ConcuryRouter):
            return max(1, len(router._head.members))
        return 1

    # -- driving ------------------------------------------------------------

    def route_all(self, phase: str, update_established: bool = True) -> None:
        """Route every flow once, scoring each pick against the flow's
        established backend."""
        katran = self.katran
        for flow in self.flows:
            self.pick_cost += self._cost_of_pick()
            self.picks += 1
            pick = katran.route(flow)
            if pick is None:
                continue
            held = self.established.get(flow)
            if held is None:
                self.established[flow] = pick
            elif pick != held:
                state = katran.backends.get(held)
                if state is not None and state.healthy:
                    # The old backend still serves: this pick broke a
                    # live connection for no reason.
                    self.misroutes += 1
                    self.phase_misroutes[phase] = (
                        self.phase_misroutes.get(phase, 0) + 1)
                else:
                    # The old backend is down or gone: the client had to
                    # reconnect anyway.
                    self.failover_reroutes += 1
                    self.phase_failovers[phase] = (
                        self.phase_failovers.get(phase, 0) + 1)
                if update_established:
                    self.established[flow] = pick
        entries = katran.router.table_entries()
        if entries > self.peak_entries:
            self.peak_entries = entries
        self.advance(0.25)

    def flap(self, victim_ip: str, down: bool) -> None:
        state = self.katran.backends[victim_ip]
        for _ in range(DOWN_THRESHOLD if down else UP_THRESHOLD):
            self.katran._mark(state, healthy=not down)

    def advance(self, dt: float) -> None:
        self.env.run(until=self.env.now + dt)

    def takeover(self) -> None:
        """A fresh L4LB instance replaces this one: only replicated
        state (ring membership; Concury's version tables) survives."""
        self.katran.router = self.katran.router.clone_for_takeover()


def run(seed: int = 0, backends: int = 10, flows: int = 1500,
        churn_rounds: int = 4, release_batches: int = 5,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    """Drive every scheme through churn → release wave → takeover."""
    result = ExperimentResult(
        name="ablation: LB design space (stateless/stateful/LRU/Concury)",
        params={"backends": backends, "flows": flows,
                "churn_rounds": churn_rounds,
                "release_batches": release_batches, "seed": seed})

    by_scheme: dict[str, _Arm] = {}
    for scheme in ROUTER_SCHEMES:
        arm = _Arm(scheme, seed, backends, flows)
        # Every arm draws its victims from an identical stream.
        rng = RandomStreams(seed).stream("lb-ablation-victims")
        arm.route_all("baseline")   # establish all flows

        # Phase 1 — churn: momentary health flaps (§5.1's false alarms).
        for _ in range(churn_rounds):
            victim = rng.choice(sorted(arm.katran.backends))
            arm.flap(victim, down=True)
            arm.route_all("churn")          # mid-flap picks
            arm.flap(victim, down=False)
            arm.route_all("churn")          # post-recovery picks

        # Phase 2 — release wave: batches genuinely restart (leave the
        # ring, return), like a rolling HardRestart without ZDR.
        ips = sorted(arm.katran.backends)
        batch_size = max(1, len(ips) // release_batches)
        for start in range(0, len(ips), batch_size):
            batch = ips[start:start + batch_size]
            for ip in batch:
                arm.flap(ip, down=True)
            arm.route_all("release")
            for ip in batch:
                arm.flap(ip, down=False)
        arm.route_all("release")

        # Phase 3 — takeover: flows are mid-flap when a fresh L4LB
        # instance takes over; instance-local flow state is lost.
        victim = rng.choice(sorted(arm.katran.backends))
        arm.flap(victim, down=True)
        arm.route_all("takeover", update_established=False)
        arm.takeover()
        arm.route_all("takeover")
        arm.flap(victim, down=False)
        arm.route_all("takeover")

        # Decommission one backend for good: no scheme may keep flows
        # pinned to it (exercises Katran.remove_backend end to end).
        departed = rng.choice(sorted(arm.katran.backends))
        arm.katran.remove_backend(departed)
        arm.route_all("decommission")
        leaks = [msg for msg in arm.katran.router.check_invariants()]
        assert not leaks, f"{scheme}: {leaks}"

        by_scheme[scheme] = arm
        stats = arm.katran.router.memory_stats()
        result.scalars[f"misroutes_{scheme}"] = float(arm.misroutes)
        result.scalars[f"failover_reroutes_{scheme}"] = float(
            arm.failover_reroutes)
        result.scalars[f"peak_table_entries_{scheme}"] = float(
            arm.peak_entries)
        result.scalars[f"pick_cost_ops_{scheme}"] = float(arm.pick_cost)
        result.scalars[f"picks_total_{scheme}"] = float(arm.picks)
        for phase in ("churn", "release", "takeover"):
            result.scalars[f"misroutes_{phase}_{scheme}"] = float(
                arm.phase_misroutes.get(phase, 0))
        result.scalars[f"failovers_takeover_{scheme}"] = float(
            arm.phase_failovers.get("takeover", 0))
        for key, value in sorted(stats.items()):
            if key != "table_entries":
                result.scalars[f"{key}_{scheme}"] = value

    if set(ROUTER_SCHEMES) <= set(by_scheme):
        stateless = by_scheme["stateless"]
        stateful = by_scheme["stateful"]
        lru = by_scheme["lru"]
        concury = by_scheme["concury"]
        result.claims.update({
            # §5.1: pure consistent hashing remaps live flows whenever
            # the ring shuffles; every stateful variant absorbs flaps.
            "stateless_misroutes_under_churn":
                stateless.phase_misroutes.get("churn", 0) > 0,
            "lru_absorbs_churn": lru.phase_misroutes.get("churn", 0) == 0,
            "stateful_absorbs_churn":
                stateful.phase_misroutes.get("churn", 0) == 0,
            "concury_absorbs_churn":
                concury.phase_misroutes.get("churn", 0) == 0,
            # Memory: stateless holds nothing, the LRU respects its
            # bound, the full table pays one entry per live flow.
            "stateless_zero_state": stateless.peak_entries == 0,
            "concury_lb_state_is_flow_free": concury.peak_entries == 0,
            "lru_bounded":
                lru.peak_entries <= lru.katran.config.lru_capacity,
            "stateful_pays_per_flow": stateful.peak_entries >= len(
                stateful.flows),
            # Takeover: instance-local tables die with the instance, so
            # flows that were pinned through the in-flight flap are
            # forced off their backend; Concury's replicated version
            # tables keep every old flow home.
            "takeover_hurts_instance_local_state":
                (lru.phase_misroutes.get("takeover", 0)
                 + lru.phase_failovers.get("takeover", 0)
                 > concury.phase_misroutes.get("takeover", 0)
                 + concury.phase_failovers.get("takeover", 0)),
            "concury_survives_takeover":
                concury.phase_misroutes.get("takeover", 0) == 0
                and concury.phase_failovers.get("takeover", 0) == 0,
            # The codeword lookup pays O(members) hash work per pick.
            "concury_costs_more_per_pick":
                concury.pick_cost > stateless.pick_cost,
        })
    return result
