"""``python -m dp3``: the ``dp3`` command, also from a source checkout with
``PYTHONPATH=src``."""

import sys

from .cli import main

sys.exit(main())
