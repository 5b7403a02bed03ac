"""Hypothesis profiles.

`pytest --hypothesis-profile=ci` prints the @reproduce_failure blob of a
failing example, so a failure seen in CI can be replayed locally, and sets
no deadline, so a slow runner does not fail a test by its timing.  Without
the option the default profile applies.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
