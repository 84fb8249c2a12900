"""The socket server: worker pool + admission control.

Architecture (one process, many clients):

- an **acceptor** thread accepts TCP connections and hands them to a
  bounded queue; when the queue is full the connection is answered with
  ``BUSY`` and closed (admission control at the connection level);
- a fixed pool of **worker** threads each serves one connection at a
  time: read a request, run it through the connection's
  :class:`~repro.server.session.Session`, write the response;
- a counting semaphore caps **in-flight statements** across all
  sessions; a request that cannot get a slot within ``queue_timeout``
  seconds is answered with ``BUSY`` (admission control at the request
  level) instead of piling onto an overloaded engine.

``stop()`` is clean by construction: it closes the listener, wakes every
worker with a sentinel, closes live connections (aborting their open
transactions) and joins all threads — the concurrency stress gate in
``scripts/check.sh`` fails on leaked threads or sockets.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

from repro.errors import ProtocolError, ServerError, error_response
from repro.obs.metrics import get_registry
from repro.server.jobs import JobManager
from repro.server.protocol import recv_message, send_message, send_response
from repro.server.session import Session

_CONNECTIONS = get_registry().counter("server.connections")
_BUSY = get_registry().counter("server.busy_rejections")
_SESSIONS = get_registry().gauge("server.sessions")

_BUSY_RESPONSE = error_response(
    code="BUSY", message="server at capacity; retry later"
)


class Server:
    """Serves one :class:`~repro.txn.TxnManager` to many clients."""

    def __init__(
        self,
        manager,
        archis=None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_in_flight: int | None = None,
        queue_size: int = 16,
        queue_timeout: float = 1.0,
        job_workers: int = 2,
        job_result_ttl: float = 300.0,
    ) -> None:
        if workers < 1:
            raise ServerError("need at least one worker")
        self.manager = manager
        self.archis = archis
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_timeout = queue_timeout
        self.job_workers = job_workers
        self.job_result_ttl = job_result_ttl
        self.jobs: JobManager | None = None
        self._slots = threading.BoundedSemaphore(
            max_in_flight if max_in_flight is not None else workers
        )
        self._pending: queue.Queue = queue.Queue(maxsize=queue_size)
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._stopping = threading.Event()
        self._conn_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._next_session = 0
        self._active_sessions = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ServerError("server is not running")
        return self._listener.getsockname()

    def start(self) -> "Server":
        if self._listener is not None:
            raise ServerError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self._pending.maxsize + self.workers)
        # closing a listener does not wake a blocked accept() on every
        # platform; a short timeout lets the acceptor poll the stop flag
        listener.settimeout(0.2)
        self._listener = listener
        self._stopping.clear()
        # the job executor is deliberately separate from the session
        # worker pool: a long analytics job never occupies a slot a
        # short interactive request is waiting for
        self.jobs = JobManager(
            self.manager,
            self.archis,
            workers=self.job_workers,
            result_ttl=self.job_result_ttl,
        )
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-acceptor", daemon=True
        )
        self._threads = [acceptor]
        for index in range(self.workers):
            self._threads.append(
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-worker-{index}",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        if self._listener is None:
            return
        self._stopping.set()
        listener, self._listener = self._listener, None
        listener.close()
        for _ in range(self.workers):
            self._pending.put(None)
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            # unblocks a worker sitting in recv(); its session teardown
            # aborts any open transaction
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []
        if self.jobs is not None:
            self.jobs.close()
            self.jobs = None
        # drain connections that were queued but never picked up
        while True:
            try:
                conn = self._pending.get_nowait()
            except queue.Empty:
                break
            if conn is not None:
                conn.close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- acceptor ----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            conn.settimeout(None)
            # a response is a header write then a payload write; without
            # NODELAY, Nagle holds the payload for the peer's delayed ACK
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _CONNECTIONS.inc()
            try:
                self._pending.put_nowait(conn)
            except queue.Full:
                _BUSY.inc()
                try:
                    send_message(conn, _BUSY_RESPONSE)
                except OSError:
                    pass
                conn.close()

    # -- workers -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            conn = self._pending.get()
            if conn is None:
                return
            with self._conn_lock:
                if self._stopping.is_set():
                    conn.close()
                    continue
                self._conns.add(conn)
                self._next_session += 1
                session_id = self._next_session
                self._active_sessions += 1
                _SESSIONS.set(self._active_sessions)
            session = Session(
                self.manager,
                self.archis,
                session_id=session_id,
                jobs=self.jobs,
            )
            try:
                self._serve(conn, session)
            finally:
                session.close()
                with self._conn_lock:
                    self._conns.discard(conn)
                    self._active_sessions -= 1
                    _SESSIONS.set(self._active_sessions)
                conn.close()

    def _serve(self, conn: socket.socket, session: Session) -> None:
        while not self._stopping.is_set():
            try:
                recv_started = time.perf_counter()
                request = recv_message(conn)
            except (ProtocolError, OSError):
                return
            if request is None:
                return
            recv_seconds = time.perf_counter() - recv_started
            wait_started = time.perf_counter()
            if not self._slots.acquire(timeout=self.queue_timeout):
                _BUSY.inc()
                try:
                    send_message(conn, _BUSY_RESPONSE)
                except OSError:
                    return
                continue
            wait_seconds = time.perf_counter() - wait_started
            try:
                try:
                    # the session sends the response itself so wire time
                    # lands inside the request's root span; send_response
                    # also ships any negotiated binary payload frame
                    session.handle(
                        request,
                        send=lambda response: send_response(conn, response),
                        recv_seconds=recv_seconds,
                        wait_seconds=wait_seconds,
                    )
                finally:
                    self._slots.release()
            except OSError:
                return
