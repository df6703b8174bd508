"""``python -m spheroconal``: the same command line as the ``spheroconal`` script."""

from .cli import entry

entry()
