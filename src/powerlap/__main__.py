"""``python -m powerlap``: the same command as the ``powerlap`` script."""

import sys

from .cli import main

sys.exit(main())
