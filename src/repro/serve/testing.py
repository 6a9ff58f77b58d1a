"""In-process test harness: a server on a background event loop.

:class:`BackgroundServer` runs a :class:`~repro.serve.server.ReproServer`
on a private asyncio loop in a daemon thread, so synchronous test code
(and the benchmark harness) can drive it with the blocking
:class:`~repro.serve.client.ServeClient` while still reaching into
``server.manager`` / ``server.metrics`` for white-box assertions.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve.client import ServeClient
from repro.serve.server import ReproServer


class BackgroundServer:
    """``with BackgroundServer(store=...) as bg:`` — serve for the block.

    Exiting the block drains the server (graceful shutdown) and stops
    the loop; the drain summary is kept on ``.drain_summary``.
    """

    def __init__(self, **server_kwargs):
        server_kwargs.setdefault("host", "127.0.0.1")
        server_kwargs.setdefault("port", 0)
        self._kwargs = server_kwargs
        self.server: ReproServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self.drain_summary: dict | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-test-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("background server failed to start")
        return self

    def _run_loop(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.server = ReproServer(**self._kwargs)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()
        # drain scheduled by stop() has completed by the time we get here
        self.loop.close()

    def stop(self, *, drain_timeout: float = 60.0) -> dict | None:
        if self.loop is None or self._thread is None:
            return None
        future = asyncio.run_coroutine_threadsafe(self.server.drain(), self.loop)
        try:
            self.drain_summary = future.result(timeout=drain_timeout)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=30)
        return self.drain_summary

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- conveniences -----------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.address[0]

    @property
    def port(self) -> int:
        return self.server.address[1]

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.host, self.port, **kwargs)
