"""Process entry of `python -m hrerank` and of the installed `hrerank` script."""

import gc
import os
import sys

EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE: the status a shell reports for a writer whose reader left


def run() -> None:
    """Run `main` on the command line and exit the process with its status.

    The CLI, and numpy with it, is imported with the collector off, and
    what the import made is then frozen: numpy's import would otherwise
    start cyclic collections that walk its own new objects.  The heap is
    frozen again before exit: a frozen object sits in the collector's
    permanent generation, which the interpreter's final collection does not
    walk, so the process no longer pays for a pass over every object that
    numpy's import made.  A reader that closes stdout early (``hrerank cop
    --json ... | head``) ends the request quietly with EXIT_CLOSED_STDOUT.
    """
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here rather than at shutdown
    except BrokenPipeError:
        # what stdout still buffers goes to devnull, so the shutdown flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
