"""The one worker process that ``train`` and ``extract`` fork beside the
main process, and the channel of pickled messages between the two."""

from __future__ import annotations

import os
import pickle
import signal
import socket
import warnings
from contextlib import contextmanager, suppress
from typing import Callable, Iterator


class Channel:
    """One end of a socket pair that carries pickled messages both ways."""

    def __init__(self, end: socket.socket, name: str) -> None:
        self._end, self._name = end, name
        self._reader = end.makefile("rb")

    def send(self, message) -> None:
        with suppress(OSError):  # a lost peer is found by the next recv
            self._end.sendall(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))

    def recv(self):
        """The next message, or, once the peer is lost, None after one
        RuntimeWarning."""
        try:
            return pickle.load(self._reader)
        except (EOFError, OSError, pickle.UnpicklingError) as exc:  # no message, or a cut-off one
            warnings.warn(f"the {self._name} worker is gone ({exc!r}); the main process runs "
                          "its share", RuntimeWarning)
            return None

    def close(self) -> None:
        self._reader.close()
        self._end.close()


@contextmanager
def forked(name: str, function: Callable[[Channel], object]) -> Iterator[Channel]:
    """Fork a worker that runs ``function(channel)`` and exits, and yield
    the main process's channel to it.  The worker ignores warnings and
    prints nothing; if the main process dies first, the worker's next
    message finds the channel closed.  When the block ends, however it
    ends, the worker is killed if still running and reaped."""
    main_end, worker_end = socket.socketpair()
    pid = os.fork()
    if pid == 0:
        try:
            main_end.close()  # so that the worker sees EOF once the main process exits
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the main process's
            warnings.simplefilter("ignore")
            function(Channel(worker_end, name))
        finally:
            os._exit(0)
    worker_end.close()
    channel = Channel(main_end, name)
    try:
        yield channel
    finally:
        channel.close()
        os.kill(pid, signal.SIGKILL)  # its work read or not needed; a zombie ignores it
        os.waitpid(pid, 0)
