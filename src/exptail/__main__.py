"""``python -m exptail``: the ``exptail`` command without installing the
package, e.g. ``PYTHONPATH=src python -m exptail check --id ALZER``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
