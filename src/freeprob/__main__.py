"""``python -m freeprob``: the command-line front end of `freeprob.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
