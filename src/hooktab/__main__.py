"""Run the command line as ``python -m hooktab``."""

from .cli import main

if __name__ == "__main__":
    main()
