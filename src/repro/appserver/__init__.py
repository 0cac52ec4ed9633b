"""Application tier: HHVM-like app servers (with PPR) and MQTT brokers."""

from .brokers import BrokerSession, MqttBroker
from .config import AppServerConfig
from .hhvm import AppServer, InFlightPost
from .pool import AppServerPool, UpstreamConnectionPool

__all__ = [
    "AppServer",
    "AppServerConfig",
    "AppServerPool",
    "BrokerSession",
    "InFlightPost",
    "MqttBroker",
    "UpstreamConnectionPool",
]
