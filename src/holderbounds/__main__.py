"""``python -m holderbounds``: the ``holderbounds`` command."""

import sys

from .cli import main

sys.exit(main())
