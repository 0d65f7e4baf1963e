import gc

from .cli import main


def run() -> int:
    """The one entry of ``collab-avg`` and ``python -m collab_avg``: ``cli.main`` between two freezes."""
    # What import built lives until exit: freezing it spares every later
    # collection, and the one at exit, from scanning it again, and keeps
    # forked workers from copying the pages such a scan would touch.
    gc.freeze()
    code = main()
    gc.freeze()  # validate loads ndtri, and numpy's Philox for long streams, after the first one
    return code


if __name__ == "__main__":
    raise SystemExit(run())
