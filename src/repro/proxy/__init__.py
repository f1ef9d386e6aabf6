"""Proxy-cache substrate (delta-unaware, caches base-files)."""

from __future__ import annotations

from repro.proxy.cache import CacheStats, LRUCache
from repro.proxy.proxy import HEADER_PROXY_CACHE, ProxyCache, ProxyPolicy, ProxyStats
from repro.proxy.server import ProxyHTTPServer

__all__ = [
    "CacheStats",
    "HEADER_PROXY_CACHE",
    "LRUCache",
    "ProxyCache",
    "ProxyHTTPServer",
    "ProxyPolicy",
    "ProxyStats",
]
