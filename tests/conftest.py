"""Settings shared by the whole suite."""

from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database, so a run replays exactly and writes nothing into the tree; no
# deadline, because per-example time varies with the machine's load
settings.register_profile("replay", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("replay")
