"""Generator frames per resume: a ratchet on how deep the hot handlers nest.

A process waits at the bottom of its ``yield from`` chain, and every
resume enters each generator frame on that chain again.  A level that
only passes control through — a wrapper that takes admission, a
dispatcher, a loop moved into a helper — costs one frame entry per
message it relays.  This counts, over a small Edge → Origin → app
deployment serving GETs, streaming POSTs and one MQTT tunnel, the
generator frame entries (``sys.setprofile`` ``"call"`` events on code
flagged ``CO_GENERATOR``, resumptions included) per ``Process._resume``.
It only moves on purpose: a pass-through level on a relay path that
comes back shows here.  ``tests/test_frame_ratchet.py`` counts every
Python call per relayed message on one H2 stream; this counts the depth
of the handlers around it.

A relayed item resumes no process at all: the Edge, Origin and app
server relay each body chunk and each MQTT message in steps of a kernel
relay (``env.relay()``), and their handlers resume only at a window
edge — the last chunk, a FIN/RST, a DCR solicitation.  The same window
counts the resumes that handed a proxy or app-server handler a body
chunk but the last, or an MQTT message: none.
"""

import gc
import inspect
import sys

from repro import Deployment, DeploymentSpec
from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.netsim.packet import StreamMessage
from repro.protocols import mqtt
from repro.protocols.http import BodyChunk
from repro.protocols.http2 import H2Frame
from repro.simkernel.events import Process

#: Measured when the ceiling was last set: 11,010 generator frame
#: entries over 4,196 resumes = 2.624, and the ceiling is that ratio
#: rounded up.  It was 2.657 (19,016 entries over 7,156 resumes) while
#: every relayed chunk and MQTT message resumed its handler, and 3.472
#: (24,845 entries, the same resumes) while the Edge's admission
#: wrapper, the Origin's stream dispatcher and accept cost, the app
#: server's admission wrappers, the client's per-chunk upload loop and
#: the Origin tunnel's relay loop were each a generator level of their
#: own.
CEILING = 2.63

#: Where the relay handlers live: a resume of a task whose generator
#: was written in one of these is a relay handler's.
RELAY_MODULES = ("proxygen/instance.py", "proxygen/tunnels.py",
                 "appserver/hhvm.py")

#: The counted window, after every client has connected.
WARMUP, HORIZON = 5.0, 25.0


def test_generator_frames_per_resume_stay_under_the_ceiling():
    deployment = Deployment(DeploymentSpec(
        seed=0, edge_proxies=1, origin_proxies=1, app_servers=1, brokers=1,
        web_client_hosts=1, mqtt_client_hosts=1, quic_client_hosts=0,
        web_workload=WebWorkloadConfig(clients_per_host=20, think_time=0.5,
                                       post_fraction=0.2,
                                       post_size_min=200_000,
                                       post_size_cap=1_000_000),
        mqtt_workload=MqttWorkloadConfig(users_per_host=1,
                                         publish_interval=0.5),
        quic_workload=None))
    deployment.start()
    deployment.run(until=WARMUP)
    resume = Process._resume.__code__
    frames = resumes = 0
    relayed = {"body chunk": 0, "mqtt message": 0}

    def count(frame, event, _arg):
        nonlocal frames, resumes
        if event == "call":
            code = frame.f_code
            if code is resume:
                resumes += 1
                what = relayed_item(frame.f_locals)
                if what is not None:
                    relayed[what] += 1
            elif code.co_flags & inspect.CO_GENERATOR:
                frames += 1

    # No collection in the window: a generator it finalized would be
    # entered, and counted, at a time other tests decide.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        deployment.run(until=HORIZON)
    finally:
        sys.setprofile(None)
        gc.enable()
    metrics = deployment.metrics
    for name in ("get_ok", "post_ok", "publishes_received",
                 "mqtt_publish_relayed_up", "mqtt_publish_relayed_down"):
        assert metrics.aggregate(name) > 0, name
    assert relayed == {"body chunk": 0, "mqtt message": 0}, (
        f"{relayed}: a relay handler resumed per relayed item: relay it "
        "in a step of its relay")
    per_resume = frames / resumes
    assert per_resume <= CEILING, (
        f"{frames} generator frames / {resumes} resumes = "
        f"{per_resume:.3f} > {CEILING}: a handler grew a level: flatten "
        "it, or raise the ceiling on purpose")


def relayed_item(resume_locals):
    """What a ``Process._resume`` call hands a relay handler, if it is
    a relayed item: a body chunk but the last, or an MQTT message."""
    generator = resume_locals["self"]._generator
    if not generator.gi_code.co_filename.endswith(RELAY_MODULES):
        return None
    item = resume_locals["event"]._value
    if isinstance(item, (StreamMessage, H2Frame)):
        item = item.payload
    if isinstance(item, BodyChunk) and not item.is_last:
        return "body chunk"
    if (type(item).__module__ == mqtt.__name__
            and not isinstance(item, mqtt.ReconnectSolicitation)):
        return "mqtt message"
    return None
