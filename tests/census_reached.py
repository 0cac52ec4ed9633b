"""Call census: every ``src/repro`` function is reached by a registered run.

A function that no figure, option arm, fuzz seed, example or benchmark
run calls is code the reproduction carries for nobody.  This runs the
registered run set (:func:`_runs`), each in a fresh interpreter under a
``sys.setprofile`` + ``threading.setprofile`` hook that records every
code object entered, and fails on:

* a ``src/repro`` function no run entered that is not on
  :data:`ALLOWLIST`;
* an allowlist entry that is now reached, names nothing, or gives no
  reason from :data:`REASONS`.

So the allowlist can only shrink.  Not named ``test_*.py``: it takes
minutes, so tier-1 does not collect it (``tests/test_census_rules.py``
checks its rules on a planted tree).  Run it from the repo root::

    PYTHONPATH=src python tests/census_reached.py
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Interpreters running at once: each holds one simulation in memory.
WORKERS = 2

#: Why a function may stay unreached.  Every allowlist reason starts
#: with one of these.
REASONS = (
    "runs in a forked child",
    "kernel API tests single-step with",
    "test observation",
    "error path",
    "expiry past every run's horizon",
    "__repr__",
)

#: ``module:qualname`` (or a whole module) → why no run reaches it.
ALLOWLIST: dict[str, str] = {
    # Forked or spawned interpreters: the hook does not follow them.
    "repro.shard.runner:_worker_main":
        "runs in a forked child: one shard of shardscale --shards 2",
    "repro.realnet.miniproxy:_child_main":
        "runs in a forked child: gen2 of examples/live_socket_takeover.py",
    "repro.realnet.miniproxy:MiniServer.take_over":
        "runs in a forked child: gen2 of examples/live_socket_takeover.py",
    "repro.realnet.takeover:request_takeover":
        "runs in a forked child: gen2 of examples/live_socket_takeover.py",
    # The kernel's own API, which no model calls.
    "repro.simkernel.core:Environment.step":
        "kernel API tests single-step with",
    "repro.simkernel.core:Environment._pop":
        "kernel API tests single-step with: the body of step()",
    "repro.simkernel.core:Environment.peek":
        "kernel API tests single-step with",
    "repro.simkernel.core:Environment.schedule":
        "kernel API tests single-step with: an event put on a chosen "
        "lane (tests/simkernel/test_kernel_properties.py)",
    # Read by tests to check behaviour that runs do reach.
    "repro.appserver.pool:AppServerPool.healthy":
        "test observation: tests/appserver/test_pool_brokers.py",
    "repro.cohorts.drivers:CohortSet.drivers_of":
        "test observation: tests/cohorts/test_drivers.py",
    "repro.lb.consistent_hash:ConsistentHashRing.__contains__":
        "test observation: tests/lb/test_katran.py",
    "repro.lb.consistent_hash:ConsistentHashRing.__len__":
        "test observation: tests/lb/test_consistent_hash.py",
    "repro.lb.consistent_hash:ConsistentHashRing.point_count":
        "test observation: tests/lb/test_consistent_hash.py",
    "repro.lb.katran:Katran.lru":
        "test observation: tests/lb/test_katran.py",
    "repro.lb.katran:Katran.ring":
        "test observation: tests/lb/test_katran.py",
    "repro.lb.lru:LruConnectionTable.__contains__":
        "test observation: tests/lb/test_lru.py",
    "repro.metrics.timeline:TimeSeries.values":
        "test observation: tests/metrics/test_timeline.py",
    "repro.netsim.cpu:CpuModel.queue_length":
        "test observation: tests/netsim/test_cpu_host_process.py",
    "repro.netsim.filetable:FileTable.__len__":
        "test observation: tests/proxygen/test_takeover_protocol.py",
    "repro.netsim.filetable:FileTable.close":
        "test observation: tests/netsim/test_filetable.py closes one FD "
        "to watch its description's references",
    "repro.netsim.filetable:FileTable.live_count":
        "test observation: tests/proxygen/test_takeover_unit.py",
    "repro.netsim.host:Host.memory_usage":
        "test observation: tests/appserver/test_hhvm.py",
    "repro.netsim.network:Network.get_profile":
        "test observation: tests/faults/test_injector.py",
    "repro.netsim.process:SimProcess.connections":
        "test observation: tests/test_event_ratchet.py",
    "repro.protocols.http2:H2Connection.close":
        "test observation: tests/protocols/test_http2.py closes a "
        "connection to watch its streams end",
    "repro.protocols.http2:H2Connection.open_stream_count":
        "test observation: tests/test_event_ratchet.py",
    "repro.protocols.quic:QuicStateTable.__len__":
        "test observation: tests/integration/test_quic_over_zdr.py",
    "repro.resilience.breaker:BreakerBoard.open_count":
        "test observation: tests/resilience/test_breaker.py",
    "repro.simkernel.events:Event.processed":
        "test observation: tests/simkernel/test_events.py",
    "repro.simkernel.events:Interrupt.cause":
        "test observation: tests/simkernel/test_events.py",
    # Handling of a failure no registered run provokes.
    "repro.netsim.kernel:_close_if_established":
        "error path: a TCP handshake that completes after its dial "
        "deadline is closed, not leaked",
    "repro.proxygen.tunnels:OriginMqttTunnel._refuse":
        "error path: the Origin finds no broker for a user, or the broker "
        "refuses or resets the tunnel's connection",
    "repro.protocols.quic:QuicStateTable.remove":
        "expiry past every run's horizon: QUIC state older than 60 s "
        "(proxygen/udp.py expire_loop)",
    "repro.lb.katran:BackendState.__repr__": "__repr__",
    "repro.metrics.counters:Counter.__repr__": "__repr__",
    "repro.netsim.addresses:FourTuple.__str__": "__repr__: a flow's text",
    "repro.netsim.addresses:VIP.__str__": "__repr__: a VIP's text",
    "repro.netsim.filetable:FileDescription.__repr__": "__repr__",
    "repro.netsim.host:Host.__repr__": "__repr__",
    "repro.netsim.process:ProcessExit.__repr__": "__repr__",
    "repro.netsim.process:SimProcess.__repr__": "__repr__",
    "repro.netsim.sockets:TcpEndpoint.__repr__": "__repr__",
    "repro.netsim.sockets:UdpSocket.__repr__": "__repr__",
    "repro.simkernel.events:Event.__repr__": "__repr__",
    "repro.simkernel.events:TimeoutResult.__repr__": "__repr__",
    "repro.simkernel.events:_Pending.__repr__": "__repr__",
}


def _runs() -> list[tuple[str, str, list[str], tuple[int, ...]]]:
    """(label, module or example path, argv, the exit statuses it may
    end with).  A claim may fail under a fault plan, so those runs may
    exit 1; a crash is never one of them (the child exits 70)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.faults.plan import BUILTIN_PLANS
    from repro.fuzz.planted import PLANTED_FAULTS
    from repro.lb.routers import ROUTER_SCHEMES
    from repro.ops.load import LOAD_SHAPE_KINDS

    experiments = "repro.experiments"
    clean, faulted = (0,), (0, 1)
    runs = [("all --seed 0", experiments,
             ["all", "--seed", "0", "--no-plots"], clean)]
    for figure in ("fig12", "regionevac"):
        runs += [(f"{figure} --faults {plan}", experiments,
                  [figure, "--no-plots", "--faults", plan], faulted)
                 for plan in sorted(BUILTIN_PLANS)]
    fig12_arms = (
        [["--resilience"], ["--splice"], ["--canary"],
         ["--trace", "--trace-json", "trace.json"], ["--cohorts", "10"],
         ["--cohorts", "100", "--cohort-fidelity", "aggregate"]]
        + [["--lb-scheme", scheme] for scheme in ROUTER_SCHEMES]
        + [["--load-shape", shape] for shape in LOAD_SHAPE_KINDS])
    runs += [("fig12 " + " ".join(arm), experiments,
              ["fig12", "--no-plots", *arm], clean) for arm in fig12_arms]
    # The resilience plane under a backend fault: app servers that answer
    # 379 out of turn are all ejected at once, so an Origin's app pool
    # serves in panic mode (``OutlierTracker.note_panic_pick``).
    rogue = ["--resilience", "--faults", "rogue-379"]
    runs.append(("fig12 " + " ".join(rogue), experiments,
                 ["fig12", "--no-plots", *rogue], faulted))
    # The condensed rung at 100x: the ZDR arm's edge saturates and
    # completes no GET, so its errors-vs-traffic claim fails (exit 1)
    # and its latency quantiles are absent.
    condensed = ["--cohorts", "100", "--cohort-fidelity", "condensed"]
    runs.append(("fig12 " + " ".join(condensed), experiments,
                 ["fig12", "--no-plots", *condensed], faulted))
    repro_file = min((ROOT / "tests" / "fuzz" / "repros").glob("*.json"))
    runs += [
        ("shardscale --shards 2", experiments,
         ["shardscale", "--no-plots", "--shards", "2"], clean),
        ("fuzz --seed 0 --runs 25", "repro.fuzz",
         ["--seed", "0", "--runs", "25"], clean),
        (f"fuzz --repro {repro_file.name}", "repro.fuzz",
         ["--repro", str(repro_file)], faulted),
    ]
    # A planted fault is found (exit 1), which is what reaches the
    # shrinker and the repro writer.
    runs += [(f"fuzz --planted {plant} --runs 3", "repro.fuzz",
              ["--planted", plant, "--runs", "3"], (1,))
             for plant in sorted(PLANTED_FAULTS)]
    runs += [(f"examples/{path.name}", str(path), [], clean)
             for path in sorted((ROOT / "examples").glob("*.py"))]
    # Each repetition of ``python -m bench --smoke``, in this interpreter
    # rather than the fresh one the bench runner would spawn.
    runs += [(f"bench {workload} --smoke", "bench.rep",
              ["--workload", workload, "--seed", "0", "--scale", "0.1"],
              clean)
             for workload in ("web_zdr", "bulk_post_ppr", "mqtt_dcr",
                              "region_evac")]
    return runs


# ---------------------------------------------------------------------------
# The census rules (pure; tests/test_census_rules.py plants trees for them)
# ---------------------------------------------------------------------------

def functions_in(sources: dict[str, str]) -> dict[str, tuple[str, int]]:
    """``module:qualname`` → (path, first line) for every ``def``.

    ``sources`` maps a path relative to ``src/`` (``repro/x.py``) to its
    text.  The first line is the first decorator's, as a code object's
    ``co_firstlineno`` is.  A second ``def`` of one name (a property
    setter) gets its line appended.
    """
    found: dict[str, tuple[str, int]] = {}
    for path, text in sources.items():
        module = path[:-len(".py")].replace("/", ".")
        module = module.removesuffix(".__init__")

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    name = f"{module}:{prefix}{child.name}"
                    if name in found:
                        name = f"{name}@{first}"
                    found[name] = (path, first)
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(text), "")
    return found


def census_problems(functions: dict[str, tuple[str, int]],
                    reached: set[tuple[str, int]],
                    allowlist: dict[str, str]) -> list[str]:
    """Every breach of the census rules, one line each (empty = clean)."""
    problems = []

    def allowed(name: str) -> bool:
        return name in allowlist or name.split(":")[0] in allowlist

    unreached = {name for name, where in functions.items()
                 if where not in reached}
    for name in sorted(unreached):
        if not allowed(name):
            problems.append(f"{name}: no registered run reaches it — "
                            f"give it a caller in a run or delete it")
    modules = {name.split(":")[0] for name in functions}
    for entry, reason in sorted(allowlist.items()):
        if not reason.startswith(REASONS):
            problems.append(f"{entry}: allowlist reason {reason!r} is none "
                            f"of {REASONS}")
        if ":" in entry:
            if entry not in functions:
                problems.append(f"{entry}: allowlisted, but no such "
                                f"function")
            elif entry not in unreached:
                problems.append(f"{entry}: allowlisted, but a run reaches "
                                f"it — delete the entry")
        elif entry not in modules:
            problems.append(f"{entry}: allowlisted, but no such module")
        elif not any(name.split(":")[0] == entry for name in unreached):
            problems.append(f"{entry}: allowlisted, but runs reach every "
                            f"function in it — delete the entry")
    return problems


# ---------------------------------------------------------------------------
# Running the run set
# ---------------------------------------------------------------------------

def _child(out: str, target: str, argv: list[str]) -> int:
    """Run one registered run under the hook; write what it entered."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.argv = [target, *argv]
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if target.endswith(".py"):
            runpy.run_path(target, run_name="__main__")
        else:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        status = 70
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(ROOT / "src") + os.sep
    reached = sorted({
        (code.co_filename[len(prefix):].replace(os.sep, "/"),
         code.co_firstlineno)
        for code in entered if code.co_filename.startswith(prefix)})
    Path(out).write_text(json.dumps(reached))
    return status


def _run_one(run, scratch: Path) -> tuple[str, set, str]:
    label, target, argv, statuses = run
    stem = "".join(c if c.isalnum() else "_" for c in label)
    out, log = scratch / f"{stem}.json", scratch / f"{stem}.log"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    with open(log, "w") as sink:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(out), target, *argv],
            cwd=scratch, env=env, stdout=sink, stderr=subprocess.STDOUT)
    if done.returncode not in statuses or not out.exists():
        tail = log.read_text().splitlines()[-15:]
        return label, set(), (f"exited {done.returncode}, expected one of "
                              f"{statuses}:\n    " + "\n    ".join(tail))
    return label, {tuple(pair) for pair in json.loads(out.read_text())}, ""


def main() -> int:
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    functions = functions_in(sources)
    reached: set[tuple[str, int]] = set()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        with ThreadPoolExecutor(WORKERS) as pool:
            for label, entered, error in pool.map(
                    lambda run: _run_one(run, Path(tmp)), _runs()):
                print(f"census: {label}: {error or 'ok'}", flush=True)
                if error:
                    failed.append(label)
                reached |= entered
    problems = census_problems(functions, reached, ALLOWLIST)
    unreached = sum(1 for where in functions.values()
                    if where not in reached)
    print(f"census: {len(functions)} functions, {unreached} unreached, "
          f"{len(ALLOWLIST)} allowlist entries")
    for problem in problems:
        print(f"census: {problem}")
    return 1 if problems or failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(_child(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit(main())
