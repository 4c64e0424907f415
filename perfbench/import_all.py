"""Import the whole wittforge package; run.py times this in fresh interpreters
as the import part of set-up."""

import wittforge  # noqa: F401
from wittforge import cone, prismatic, rings, structure, suites  # noqa: F401
