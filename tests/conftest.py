"""Hypothesis profiles.

`pytest --hypothesis-profile=ci` prints the @reproduce_failure blob of a
failing example, so a failure seen in CI can be replayed locally, and sets
no deadline, so a slow runner does not fail a test by its timing.  Without
the option the default profile applies.

`--hypothesis-profile=deep` is the ci profile with 20,000 examples.  The
reader differentials in test_io.py and the extended-taxonomy property in
test_taxonomy.py take that count from it, and the CLI dataset and graph
differentials in test_cli.py a tenth of it.  The two small-scope convert
enumerations in test_convert.py, of convert() and of the CLI, take streams
of up to 3 elements under it, not 2.  Every other test with its own
max_examples keeps it, so run deep on those eight only.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
settings.register_profile("deep", settings.get_profile("ci"), max_examples=20_000)
