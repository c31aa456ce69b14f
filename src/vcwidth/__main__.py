"""`python -m vcwidth` and the `vcwidth` console script: the CLI as a
process of its own."""

import gc
import sys


def main():
    # A CLI process is short and frees its data by reference counting or at
    # exit, so the cyclic collector would only rescan the growing heap. It
    # is off before cli is imported; in-process callers of cli.main keep
    # the collector as they have it.
    gc.disable()
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
