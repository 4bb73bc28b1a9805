"""``python -m floquet_ep`` and the ``floquet-ep`` console script both run :func:`run`: ``main``, then
``gc.freeze()``, so the final collections skip what numpy and the package loaded (about 16 ms a process).
``atexit`` handlers and the stdio flush still run.  ``args.main`` called in-process does not freeze."""

import gc

from .args import main


def run() -> None:
    status = main()
    gc.freeze()  # the process ends here: its objects need no collection
    raise SystemExit(status)


if __name__ == "__main__":
    run()
