"""Fold one cProfile run into the per-layer ledger.

cProfile gives one span per call with caller → callee as the parent
link; a function's self time is its span minus its child spans
(``inlinetime``), and a layer's self time is the sum over its
functions.  A layer is a package under ``src/repro/``; folding is by
source path, so nothing in ``src/`` has to be tagged.

Under cProfile many-tiny-call layers (``simkernel``, ``metrics``) are
inflated by the per-call hook cost, and a generator function counts one
call per resume.  ``.calls`` is reported beside every time so that can
be judged; claims rest on the untraced end-to-end metrics.
"""

from __future__ import annotations

import importlib
import os
import sys

#: Layers reported by name; every other ``repro`` package folds into
#: ``other`` (must stay < 1 %), everything outside ``repro`` (builtins,
#: stdlib, the benchmark's own driver frames) into ``python``.
LAYERS = ("simkernel", "netsim", "protocols", "lb", "proxygen",
          "appserver", "clients", "metrics", "release", "cluster",
          "regions")

#: Module split of the heavy layers: ``<layer>.<module>.self_s``.
MODULES = {
    "simkernel": ("core", "events", "resources"),
    "netsim": ("cpu", "network", "sockets", "kernel", "proc_utils",
               "reuseport"),
    "proxygen": ("instance", "tunnels", "udp", "upstream", "takeover"),
    "appserver": ("hhvm", "brokers"),
    "protocols": ("http2", "http", "mqtt", "quic", "tls"),
    "clients": ("web", "mqtt", "quic"),
    "metrics": ("counters", "timeline"),
    "lb": ("katran", "routers", "consistent_hash"),
}

#: Public entry points: metric name → ``module:qualified.function``.
#: This is the one place a rename in ``src/`` has to be followed; until
#: it is, the entry point reports ``null`` with a warning, never an
#: error.
ENTRY_POINTS = {
    "simkernel.timeout": "repro.simkernel.core:Environment.timeout",
    "simkernel.process": "repro.simkernel.core:Environment.process",
    "simkernel.store_put": "repro.simkernel.resources:Store.put",
    "simkernel.store_get": "repro.simkernel.resources:Store.get",
    "simkernel.resource_request":
        "repro.simkernel.resources:Resource.request",
    "netsim.cpu_execute": "repro.netsim.cpu:CpuModel.execute",
    "netsim.with_timeout": "repro.netsim.proc_utils:with_timeout",
    "netsim.transmit": "repro.netsim.network:Network.transmit",
    "netsim.stream_send": "repro.netsim.sockets:TcpEndpoint.send",
    "netsim.stream_recv": "repro.netsim.sockets:TcpEndpoint.recv",
    "netsim.udp_sendto": "repro.netsim.sockets:UdpSocket.sendto",
    "netsim.tcp_connect": "repro.netsim.kernel:Kernel.tcp_connect",
    "lb.route": "repro.lb.katran:Katran.route",
    "lb.ring_lookup":
        "repro.lb.consistent_hash:ConsistentHashRing.lookup",
    "metrics.counter_inc": "repro.metrics.counters:CounterSet.inc",
    "metrics.series_record": "repro.metrics.timeline:TimeSeries.record",
    "protocols.tls_server_hello":
        "repro.protocols.tls:server_handle_hello",
}

TOP_FUNCTIONS = 15


def _resolve_code(target: str):
    """The code object behind ``module:qualified.function``, or None."""
    module_name, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return getattr(obj, "__code__", None)


def _place(filename: str, package_root: str) -> tuple:
    """(layer, module) a source file belongs to."""
    if not filename.startswith(package_root):
        return "python", os.path.basename(filename)
    parts = filename[len(package_root):].split(os.sep)
    layer = parts[0] if parts[0] in LAYERS else "other"
    return layer, os.path.splitext(parts[-1])[0]


def fold(stats) -> dict:
    """Fold ``cProfile.Profile.getstats()`` into the ledger."""
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    entry_codes = {}
    warnings = []
    for name, target in ENTRY_POINTS.items():
        code = _resolve_code(target)
        if code is None:
            warnings.append(f"entry point {name} -> {target} not found")
        else:
            entry_codes[code] = name

    layers = {layer: 0.0 for layer in (*LAYERS, "other", "python")}
    modules = {f"{layer}.{module}": 0.0
               for layer, names in MODULES.items() for module in names}
    entry_points = {name: None for name in ENTRY_POINTS}
    functions = []
    for entry in stats:
        code = entry.code
        if isinstance(code, str):  # a builtin
            layer, module, label = "python", None, code
        else:
            layer, module = _place(code.co_filename, package_root)
            qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
            label = (f"{module}:{qualname}" if layer == "python"
                     else f"{layer}.{module}:{qualname}")
            name = entry_codes.get(code)
            if name is not None:
                entry_points[name] = {"calls": entry.callcount,
                                      "cum_s": entry.totaltime}
        layers[layer] += entry.inlinetime
        if f"{layer}.{module}" in modules:
            modules[f"{layer}.{module}"] += entry.inlinetime
        functions.append((entry.inlinetime, entry.callcount, label))

    # A resolvable entry point that never ran was called zero times.
    for code, name in entry_codes.items():
        if entry_points[name] is None:
            entry_points[name] = {"calls": 0, "cum_s": 0.0}
    for warning in warnings:
        print(f"bench: warning: {warning}", file=sys.stderr)

    total = sum(layers.values())
    functions.sort(reverse=True)
    return {
        "total_self_s": total,
        "layers": {layer: {"self_s": self_s,
                           "self_share": self_s / total if total else 0.0}
                   for layer, self_s in layers.items()},
        "modules": modules,
        "entry_points": entry_points,
        "top": [{"function": label, "self_s": self_s, "calls": calls}
                for self_s, calls, label in functions[:TOP_FUNCTIONS]],
        "warnings": warnings,
    }
