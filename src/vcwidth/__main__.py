"""`python -m vcwidth` and the `vcwidth` console script: the CLI as a
process of its own."""

import gc
import os
import sys


def main():
    # A CLI process is short and frees its data by reference counting or at
    # exit, so the cyclic collector would only rescan the growing heap. It
    # is off before cli is imported; in-process callers of cli.main keep
    # the collector as they have it.
    gc.disable()
    from . import cli

    code = cli.main()
    # For the same reason the process ends without interpreter teardown
    # (module clean-up, freeing every object, atexit hooks, the last
    # collection) once its output is out. A usage error or an uncaught
    # exception never gets here and exits the usual way.
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # a write that failed in cli.main was reported there
            code = cli.output_failed(exc)
    try:
        sys.stderr.flush()
    except OSError:  # a stderr that cannot be written keeps the exit code
        pass
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
