"""`python -m biquiver`: the command-line interface of `biquiver.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
