"""``repro.options``: one RunOptions, handed to a topology as an
argument, reaches every component of both topology shapes, pickles,
crosses shard workers, and reaches no other run."""

import pickle
from dataclasses import fields, replace

import pytest

from repro import Deployment, DeploymentSpec
from repro.clients.web import WebWorkloadConfig
from repro.cohorts import CohortPolicy
from repro.experiments.__main__ import main
from repro.experiments.common import (build_deployment,
                                      build_regional_deployment)
from repro.faults import FaultPlan, FaultSpec, builtin_plan
from repro.ops import default_canary_gate, named_load_shape
from repro.options import RunOptions
from repro.proxygen import ProxygenConfig
from repro.regions import RegionalDeployment, RegionalSpec, evacuate_region
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.resilience import ResilienceConfig
from repro.shard import run_sharded
from repro.splice import SpliceConfig
from repro.trace import TraceConfig

FAST_EDGE = ProxygenConfig(mode="edge", drain_duration=1.0, spawn_delay=0.2)
#: Every other request an upload past ``splice.MIN_BULK_BYTES``.
BULKY_WEB = WebWorkloadConfig(clients_per_host=4, think_time=0.5,
                              post_fraction=0.5, post_size_min=200_000,
                              post_size_cap=1_000_000)


#: One description per layout, built two ways: by the harness builder
#: or directly by the topology class, ``options=`` either way.
SINGLE = dict(seed=0, edge_proxies=2, origin_proxies=1, app_servers=2,
              edge_config=FAST_EDGE)
REGIONAL = {
    "1x2": dict(seed=0, regions=1, pops_per_region=2, proxies_per_pop=2,
                edge_config=FAST_EDGE, web_workload=BULKY_WEB),
    "2x1": dict(seed=0, regions=2, proxies_per_pop=2,
                edge_config=FAST_EDGE, web_workload=BULKY_WEB),
}
TOPOLOGIES = ["1x2", "2x1", "single"]


def _through_the_harness(topology, options):
    if topology == "single":
        return build_deployment(web=BULKY_WEB, options=options, **SINGLE)
    return build_regional_deployment(options=options, **REGIONAL[topology])


def _built_directly(topology, options):
    if topology == "single":
        dep = Deployment(DeploymentSpec(
            brokers=1, web_client_hosts=1, web_workload=BULKY_WEB,
            mqtt_workload=None, quic_workload=None, **SINGLE),
            options=options)
    else:
        dep = RegionalDeployment(RegionalSpec(**REGIONAL[topology]),
                                 options=options)
    dep.start()
    return dep


BUILDS = {"harness": _through_the_harness, "direct": _built_directly}

_gates_built = []


def _recording_gate(release):
    _gates_built.append(release)
    return default_canary_gate(release)


def _check_fault_plan(dep, options):
    assert dep.fault_injector is not None
    assert dep.fault_injector.plan is options.fault_plan


def _check_resilience(dep, options):
    servers = dep.edge_servers + dep.origin_servers + dep.app_servers
    assert servers and all(s.config.resilience.enabled for s in servers)


def _check_lb_scheme(dep, options):
    schemes = {k.router.scheme for k in dep.all_katrans()}
    assert schemes == {options.lb_scheme}


def _check_load_shape(dep, options):
    assert dep.load_controller is not None


def _check_release_gate(dep, options):
    dep.run(until=3.0)
    release = RollingRelease(dep.env, dep.edge_servers[:1],
                             RollingReleaseConfig(batch_fraction=1.0))
    assert release.gate is None and not _gates_built
    try:
        dep.env.run(until=dep.env.process(release.execute()))
        assert _gates_built == [release]  # constructed at execute()
    finally:
        _gates_built.clear()


def _check_trace(dep, options):
    """Not "a collector exists": servers built before anyone could have
    installed one hold it, and a request comes back traced."""
    tracer = dep.run_record.tracer
    assert tracer is not None and tracer.config is options.trace
    assert all(s.tracer is tracer for s in dep.app_servers)
    dep.run(until=6.0)
    assert all(s.active_instance.tracer is tracer
               for s in dep.edge_servers + dep.origin_servers)
    assert any(span["name"] == "app.request" and span["scope"] == app.name
               for trace in tracer.traces() for span in trace["spans"]
               for app in dep.app_servers)


def _run_through_a_window(dep):
    """A short run with a mechanism window in it: an evacuation where
    there is a region to spare, a one-proxy release where there is not."""
    dep.run(until=4.0)
    if len(dep.regions) > 1:
        window = evacuate_region(dep, dep.regions[-1].name)
    else:
        window = RollingRelease(
            dep.env, dep.edge_servers[:1],
            RollingReleaseConfig(batch_fraction=1.0)).execute()
    dep.env.run(until=dep.env.process(window))


def _check_cohorts(dep, options):
    """Not "the build took the policy": the fluid ran and condensed."""
    pops = [pop for region in dep.regions for pop in region.pops]
    assert all(pop.cohort_drivers and pop.web_clients is None
               for pop in pops)
    assert dep.cohort_set.drivers == [d for pop in pops
                                      for d in pop.cohort_drivers]
    _run_through_a_window(dep)
    counters = dep.metrics.scoped_counters("cohorts")
    assert counters.get("condensations") > 0
    assert counters.get("condensed_flows") == sum(
        d.condensed_flows for d in dep.cohort_set.drivers) > 0
    assert dep.metrics.aggregate("get_ok", scope_prefix="web-clients") > 0


def _check_splice(dep, options):
    governor = dep.run_record.splice
    assert governor is not None
    _run_through_a_window(dep)
    assert governor.bulk_transfers > 0
    assert governor.desplices >= 1
    assert governor.engaged  # the window closed again


MATRIX = {
    "cohorts": (lambda: CohortPolicy(fidelity="aggregate"), _check_cohorts),
    "fault_plan": (lambda: builtin_plan("hc-flap-storm", at=1.0,
                                        duration=2.0), _check_fault_plan),
    "resilience": (lambda: ResilienceConfig(enabled=True),
                   _check_resilience),
    "lb_scheme": (lambda: "stateless", _check_lb_scheme),
    "load_shape": (lambda: named_load_shape("diurnal", 20.0),
                   _check_load_shape),
    "release_gate": (lambda: _recording_gate, _check_release_gate),
    "splice": (lambda: SpliceConfig(), _check_splice),
    "trace": (lambda: TraceConfig(), _check_trace),
}


@pytest.mark.parametrize("field, topology, build", [
    pytest.param(field, topology, build,
                 id=f"{field}-{topology}" + suffix)
    for build, suffix in (("harness", ""), ("direct", "-direct"))
    for field in sorted(MATRIX) for topology in TOPOLOGIES])
def test_option_reaches_every_component(field, topology, build):
    """However the deployment was built: by the harness builder or
    directly by the topology class."""
    make, check = MATRIX[field]
    options = RunOptions(**{field: make()})
    dep = BUILDS[build](topology, options)
    assert dep.options is dep.run_record.options is options
    check(dep, options)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_a_fault_window_condenses_aggregate_cohorts(topology):
    """A fault is a mechanism window like a release walk or an
    evacuation: the fluid condenses at the inject instant, with no
    release anywhere in the run."""
    options = RunOptions(
        cohorts=CohortPolicy(fidelity="aggregate"),
        fault_plan=FaultPlan("slow-apps", [FaultSpec(
            kind="slow_host", where="*appserver-*", at=5.0, duration=2.0,
            params={"speed_factor": 0.5})]))
    dep = _through_the_harness(topology, options)
    counters = dep.metrics.scoped_counters("cohorts")
    dep.run(until=4.999)
    assert counters.get("condensations") == 0
    dep.run(until=5.001)
    assert dep.fault_injector.records[0].injected_at == 5.0
    assert counters.get("condensations") >= 1
    assert counters.get("condensed_flows") == sum(
        d.condensed_flows for d in dep.cohort_set.drivers) > 0
    dep.run(until=9.0)  # the solo flows serve through the window
    assert dep.metrics.aggregate("get_ok", scope_prefix="web-clients") > 0


def test_two_runs_with_different_options_share_nothing():
    """Built and stepped in turn in one process, each run ends exactly
    where it ends alone: its options are an argument, and there is
    nowhere else a component could look for them."""
    arms = {"concury": RunOptions(lb_scheme="concury"),
            "splice": RunOptions(lb_scheme="stateless",
                                 splice=SpliceConfig())}

    def build(name):
        return build_deployment(web=BULKY_WEB, options=arms[name], **SINGLE)

    def end_state(dep):
        return dep.metrics.snapshot(), dep.env.stats()

    alone = {}
    for name in arms:
        dep = build(name)
        dep.run(until=8.0)
        alone[name] = end_state(dep)
    assert alone["concury"] != alone["splice"]
    together = {name: build(name) for name in arms}
    for step in range(1, 17):
        for dep in together.values():
            dep.run(until=step * 0.5)
    for name, dep in together.items():
        assert end_state(dep) == alone[name], name
    assert together["splice"].run_record.splice.bulk_transfers > 0
    assert together["concury"].run_record.splice is None


def test_apply_precedence_and_no_mutation():
    from repro import DeploymentSpec

    shape = named_load_shape("flash_crowd", 30.0)
    spec = DeploymentSpec(lb_scheme="stateful", load_shape=shape,
                          edge_config=FAST_EDGE)
    options = RunOptions(lb_scheme="concury",
                         load_shape=named_load_shape("diurnal", 30.0),
                         cohorts=CohortPolicy(scale=2),
                         resilience=ResilienceConfig(enabled=True))
    applied = options.apply(spec)
    # Overrides: lb_scheme, resilience.  Fill-ins: load_shape, cohorts.
    assert applied.lb_scheme == "concury"
    assert applied.edge_config.resilience.enabled
    assert applied.edge_config.drain_duration == 1.0
    assert applied.load_shape is shape
    assert applied.cohorts == CohortPolicy(scale=2)
    # The caller's spec and config objects are untouched.
    assert spec.lb_scheme == "stateful" and spec.cohorts is None
    assert spec.edge_config is FAST_EDGE
    assert not FAST_EDGE.resilience.enabled
    assert RunOptions().apply(spec) is spec
    # Every spec alike: no option is dropped for want of a field.
    regional = replace(options, splice=SpliceConfig()).apply(RegionalSpec())
    assert regional.cohorts == CohortPolicy(scale=2)
    assert regional.splice == SpliceConfig()


def test_spec_lb_scheme_reaches_every_katran_on_both_builders():
    """``RegionalSpec.lb_scheme`` used to be declared but ignored."""
    from repro import Deployment, DeploymentSpec

    for dep in (Deployment(DeploymentSpec(lb_scheme="stateless")),
                RegionalDeployment(RegionalSpec(regions=1,
                                                lb_scheme="stateless")),
                RegionalDeployment(RegionalSpec(regions=2,
                                                lb_scheme="stateless"))):
        katrans = dep.all_katrans()
        assert len(katrans) >= 2
        assert {k.config.lb_scheme for k in katrans} == {"stateless"}
        assert {k.router.scheme for k in katrans} == {"stateless"}


def _full_options() -> RunOptions:
    return RunOptions(
        fault_plan=builtin_plan("hc-flap-storm", at=1.0, duration=5.0),
        resilience=ResilienceConfig(enabled=True),
        lb_scheme="concury",
        load_shape=named_load_shape("flash_crowd", 30.0),
        cohorts=CohortPolicy(scale=3),
        splice=SpliceConfig(),
        release_gate=default_canary_gate,
        shards=2,
        trace=TraceConfig(sample_rate=0.5))


def test_fully_populated_options_pickle_round_trip():
    options = _full_options()
    assert all(getattr(options, f.name) is not None
               for f in fields(RunOptions))
    assert pickle.loads(pickle.dumps(options)) == options


def test_sharded_run_under_options_equals_single_shard():
    spec = RegionalSpec(seed=0, regions=2, failover=False,
                        shardable=True)
    # Fault plans and load shapes do not shard; everything else crosses.
    options = replace(_full_options(), fault_plan=None, load_shape=None)
    one = run_sharded(spec, until=10.0, shards=1, options=options)
    # The in-process arm's run comes back to the caller, suite and
    # collector on its record, as build_deployment's does; a forked
    # worker's stays in the worker.
    (run,) = one.runs
    assert run.suite is not None
    assert run.tracer.config is options.trace and run.tracer.traces()
    two = run_sharded(spec, until=10.0, shards=2, options=options)
    assert two.runs == []
    assert two.counters == one.counters
    assert two.violations == one.violations == []
    # The options reached the workers: resilience scopes exist.
    assert any(s.startswith("resilience-app-r") for s in two.counters)


def test_cli_rejects_bad_arguments(capsys):
    for bad in (["nope", "--faults", "hc-flap-storm", "--resilience",
                 "--lb-scheme", "stateless"],
                ["fig09", "--faults", "no-such-plan"],
                ["fig09", "--cohorts", "0"], ["fig09", "--shards", "0"],
                ["shardscale", "--trace", "--shards", "2"]):
        assert main(bad) == 2
    capsys.readouterr()
    # A flag that only modifies another is rejected without it, not
    # silently dropped.
    for flag, value, parent in (("--trace-json", "x.json", "--trace"),
                                ("--cohort-fidelity", "aggregate",
                                 "--cohorts")):
        assert main(["fig09", flag, value]) == 2
        assert capsys.readouterr().err == f"{flag} requires {parent}\n"
