"""Settings shared by every test module."""

from hypothesis import settings

# No example database: a test's outcome must not depend on examples that
# earlier runs on this checkout happened to store.  Pinned cases belong in
# ``@example``.
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")
