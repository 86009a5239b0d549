"""Call hook that every Python process a reach driver starts loads.

Python imports ``sitecustomize`` at start-up from ``PYTHONPATH``, so a
spawned or forkserver child installs the hook itself; a forked child
re-installs it from ``register_at_fork``.  Each code object is written
to ``$REACH_LOG`` the first time it runs, one unbuffered ``O_APPEND``
line, so a worker killed without running its exit handlers (a pool's
``terminate``, ``os._exit``) has already logged all it ran.
"""

import os
import sys
import threading

_log = os.environ.get("REACH_LOG")
if _log:
    _fd = os.open(_log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen: set = set()

    def _hook(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            os.write(_fd, f"{code.co_filename}\t{code.co_firstlineno}\t"
                          f"{code.co_name}\n".encode())
        # no local trace function: only the call event costs anything

    def _install():
        sys.settrace(_hook)
        threading.settrace(_hook)

    _install()
    os.register_at_fork(after_in_child=_install)
