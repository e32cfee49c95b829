"""``python -m latticevc``: the ``latticevc`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
