import gc

from .cli import main

if __name__ == "__main__":
    # What import built lives until exit: freezing it spares every later
    # collection, and the one at exit, from scanning it again, and keeps
    # forked workers from copying the pages such a scan would touch.
    gc.freeze()
    code = main()
    gc.freeze()  # validate loads ndtri, and numpy.random for long streams, after the first one
    raise SystemExit(code)
