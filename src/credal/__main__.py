"""``python -m credal``: the command-line interface of :mod:`credal.cli`."""

from .cli import main

main()
